package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/core"
)

// encodeV2Request renders one request as v2 frame bytes.
func encodeV2Request(t *testing.T, req *Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	if err := writeRequestV2(bw, sc, req); err != nil {
		t.Fatalf("writeRequestV2: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// v2Frame hand-crafts a v2 frame from an envelope string and payload — for
// wire shapes the writer would refuse to produce.
func v2Frame(env string, pay []byte) []byte {
	b := make([]byte, frameHeaderLen, frameHeaderLen+len(env)+len(pay))
	b[0] = ProtoV2
	b[2] = frameMagic2
	b[3] = frameMagic3
	binary.LittleEndian.PutUint32(b[4:8], uint32(len(env)))
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(pay)))
	b = append(b, env...)
	return append(b, pay...)
}

// TestFrameV2RoundTrip: a request with every payload-bearing shape —
// inline object+profile, batch items both inline and named, config, flags —
// survives encode/decode bit-exact, with the decoded payloads aliasing the
// frame buffer (zero-copy) rather than copies.
func TestFrameV2RoundTrip(t *testing.T) {
	conf := core.DefaultConfig()
	conf.Theta = 0.02
	in := &Request{
		Op:      OpBatch,
		Obj:     []byte("object bytes"),
		Profile: []byte("profile bytes"),
		Config:  &conf,
		Bench:   "adpcm",
		Scale:   1.5,
		NoImage: true,
		Items: []BatchItem{
			{Obj: []byte("item-0 obj"), Profile: []byte("item-0 prof")},
			{Bench: "gsm", Scale: 2},
		},
	}
	data := encodeV2Request(t, in)

	br := bufio.NewReader(bytes.NewReader(data))
	fb, env, pay, err := readFrameBodyV2(br)
	if err != nil {
		t.Fatalf("readFrameBodyV2: %v", err)
	}
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	var out Request
	if err := decodeRequestV2(sc, env, pay, fb, &out); err != nil {
		t.Fatalf("decodeRequestV2: %v", err)
	}
	if out.Op != in.Op || out.Bench != in.Bench || out.Scale != in.Scale || !out.NoImage {
		t.Fatalf("scalar fields diverged: %+v", out)
	}
	if out.Config == nil || out.Config.Theta != conf.Theta {
		t.Fatalf("config diverged: %+v", out.Config)
	}
	if !bytes.Equal(out.Obj, in.Obj) || !bytes.Equal(out.Profile, in.Profile) {
		t.Fatalf("payloads diverged: obj=%q profile=%q", out.Obj, out.Profile)
	}
	if len(out.Items) != 2 ||
		!bytes.Equal(out.Items[0].Obj, in.Items[0].Obj) ||
		!bytes.Equal(out.Items[0].Profile, in.Items[0].Profile) ||
		out.Items[1].Bench != "gsm" || out.Items[1].Obj != nil {
		t.Fatalf("items diverged: %+v", out.Items)
	}
	// Zero-copy: the decoded object must alias the frame buffer.
	if &out.Obj[0] != &pay[0] {
		t.Fatal("decoded payload does not alias the frame buffer")
	}
	out.releasePayload()
	out.releasePayload() // idempotent
}

// TestFrameV2ProfileOpsRoundTrip: the profile-plane request fields — the
// Image and Input payload sections, ImageKey, RunMeta, Force — and the
// Feed/Resquash/ImageKey response fields survive encode/decode.
func TestFrameV2ProfileOpsRoundTrip(t *testing.T) {
	in := &Request{
		Op:       OpProfilePush,
		Profile:  []byte("EMP1 counts"),
		Image:    []byte("squashed image bytes"),
		Input:    []byte("run input"),
		ImageKey: "abc123",
		Run:      &RunMeta{Instructions: 1000, Cycles: 2500, Decompressions: 7, Evictions: 3, BitsRead: 99, Source: "host-1"},
		Force:    true,
	}
	data := encodeV2Request(t, in)

	br := bufio.NewReader(bytes.NewReader(data))
	fb, env, pay, err := readFrameBodyV2(br)
	if err != nil {
		t.Fatalf("readFrameBodyV2: %v", err)
	}
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	var out Request
	if err := decodeRequestV2(sc, env, pay, fb, &out); err != nil {
		t.Fatalf("decodeRequestV2: %v", err)
	}
	if out.Op != OpProfilePush || out.ImageKey != "abc123" || !out.Force {
		t.Fatalf("scalar fields diverged: %+v", out)
	}
	if !bytes.Equal(out.Profile, in.Profile) || !bytes.Equal(out.Image, in.Image) || !bytes.Equal(out.Input, in.Input) {
		t.Fatalf("payloads diverged: profile=%q image=%q input=%q", out.Profile, out.Image, out.Input)
	}
	if out.Run == nil || *out.Run != *in.Run {
		t.Fatalf("run meta diverged: %+v", out.Run)
	}
	out.releasePayload()

	resp := &Response{
		OK:       true,
		Image:    []byte("new image"),
		ImageKey: "def456",
		Feed: &FeedSnapshot{Images: []FeedImageStatus{{
			Key: "abc123", Samples: 4, Theta: 0.0001, Threshold: 0.25,
		}}},
		Resquash: &ResquashReport{NewKey: "def456", DriftScore: 0.42, OutputOK: true, MissBefore: 0.01, MissAfter: 0.002},
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeResponseV2(bw, sc, resp); err != nil {
		t.Fatalf("writeResponseV2: %v", err)
	}
	bw.Flush()
	fb2, env2, pay2, err := readFrameBodyV2(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("readFrameBodyV2 (resp): %v", err)
	}
	defer fb2.release()
	var rout Response
	if err := decodeResponseV2(sc, env2, pay2, &rout); err != nil {
		t.Fatalf("decodeResponseV2: %v", err)
	}
	if rout.ImageKey != "def456" || rout.Feed == nil || len(rout.Feed.Images) != 1 ||
		rout.Feed.Images[0].Key != "abc123" || rout.Feed.Images[0].Threshold != 0.25 {
		t.Fatalf("feed diverged: %+v", rout.Feed)
	}
	if rout.Resquash == nil || rout.Resquash.NewKey != "def456" || !rout.Resquash.OutputOK ||
		rout.Resquash.MissAfter != 0.002 {
		t.Fatalf("resquash diverged: %+v", rout.Resquash)
	}
	if !bytes.Equal(rout.Image, resp.Image) {
		t.Fatalf("image diverged: %q", rout.Image)
	}
}

// TestFrameV2ResponseRoundTrip: responses round-trip with the image copied
// out of the frame buffer — a retained response must survive the buffer's
// recycling.
func TestFrameV2ResponseRoundTrip(t *testing.T) {
	in := &Response{
		OK:     true,
		Image:  []byte("the squashed image"),
		Stats:  &core.Stats{InputBytes: 100, SquashedBytes: 60},
		Cached: true,
		Results: []BatchResult{
			{OK: true, Image: []byte("batch image"), Shared: true},
			{OK: false, Err: "bad item"},
		},
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	if err := writeResponseV2(bw, sc, in); err != nil {
		t.Fatalf("writeResponseV2: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	fb, env, pay, err := readFrameBodyV2(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("readFrameBodyV2: %v", err)
	}
	var out Response
	if err := decodeResponseV2(sc, env, pay, &out); err != nil {
		t.Fatalf("decodeResponseV2: %v", err)
	}
	if !out.OK || !out.Cached || out.Stats == nil || out.Stats.SquashedBytes != 60 {
		t.Fatalf("scalar fields diverged: %+v", out)
	}
	if !bytes.Equal(out.Image, in.Image) {
		t.Fatalf("image diverged: %q", out.Image)
	}
	if len(out.Results) != 2 || !bytes.Equal(out.Results[0].Image, in.Results[0].Image) ||
		!out.Results[0].Shared || out.Results[1].Err != "bad item" || out.Results[1].Image != nil {
		t.Fatalf("results diverged: %+v", out.Results)
	}
	// Copy-out: recycling (and scribbling over) the frame buffer must not
	// touch the decoded response.
	for i := range pay {
		pay[i] = 0xAA
	}
	fb.release()
	if !bytes.Equal(out.Image, in.Image) || !bytes.Equal(out.Results[0].Image, in.Results[0].Image) {
		t.Fatal("response aliases the recycled frame buffer")
	}
}

// TestFrameV2RejectsHostileSections: overlapping, out-of-bounds,
// out-of-order, and trailing-garbage section tables are connection-level
// errors, never aliased or silently truncated reads.
func TestFrameV2RejectsHostileSections(t *testing.T) {
	cases := []struct {
		name string
		env  string
		pay  []byte
	}{
		{"out of bounds", `{"op":"squash","obj":{"o":0,"n":100},"profile":{"o":0,"n":0}}`, []byte("tiny")},
		{"overlapping", `{"op":"squash","obj":{"o":0,"n":3},"profile":{"o":1,"n":3}}`, []byte("abcd")},
		{"out of order", `{"op":"squash","obj":{"o":2,"n":2},"profile":{"o":0,"n":2}}`, []byte("abcd")},
		{"trailing bytes", `{"op":"squash","obj":{"o":0,"n":2},"profile":{"o":0,"n":0}}`, []byte("abcd")},
		{"zero len at offset", `{"op":"squash","obj":{"o":2,"n":0},"profile":{"o":0,"n":0}}`, []byte("ab")},
		{"garbage envelope", `{"op":`, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			br := bufio.NewReader(bytes.NewReader(v2Frame(c.env, c.pay)))
			fb, env, pay, err := readFrameBodyV2(br)
			if err != nil {
				t.Fatalf("frame read rejected before decode: %v", err)
			}
			defer fb.release()
			sc := getFrameScratch()
			defer putFrameScratch(sc)
			var req Request
			err = decodeRequestV2(sc, env, pay, fb, &req)
			var pe *protoError
			if !errors.As(err, &pe) {
				t.Fatalf("decode error = %v, want a protoError", err)
			}
		})
	}

	// A hostile header must be rejected without allocating the claimed size.
	huge := make([]byte, frameHeaderLen)
	huge[0], huge[2], huge[3] = ProtoV2, frameMagic2, frameMagic3
	binary.LittleEndian.PutUint32(huge[4:8], 1<<31)
	binary.LittleEndian.PutUint32(huge[8:12], 1<<31)
	if _, _, _, err := readFrameBodyV2(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Fatal("oversized v2 frame accepted")
	}
}

// TestProtoInteropByteIdentity is the acceptance invariant: the same
// workload returns byte-identical images through a plain client, a client
// dialed with the protocol named explicitly, and batch framing, with
// pooling on and off.
func TestProtoInteropByteIdentity(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, want := buildWorkload(t, 13, conf)

	for _, pooling := range []struct {
		name string
		on   bool
	}{{"pooled", true}, {"nopool", false}} {
		t.Run(pooling.name, func(t *testing.T) {
			SetPooling(pooling.on)
			core.SetPooling(pooling.on)
			defer func() {
				SetPooling(true)
				core.SetPooling(true)
			}()

			_, addr, stop := startServer(t, Options{Workers: 2})
			defer stop()
			req := func() *Request {
				return &Request{Op: OpSquash, Obj: obj, Profile: prof}
			}

			cl, err := DialClient(addr)
			if err != nil {
				t.Fatalf("DialClient: %v", err)
			}
			defer cl.Close()
			resp, err := cl.Do(req())
			if err != nil || !resp.OK {
				t.Fatalf("Do: resp=%+v err=%v", resp, err)
			}
			if !bytes.Equal(resp.Image, want) {
				t.Fatal("image diverged from one-shot squash")
			}
			if cl.BytesIn() == 0 || cl.BytesOut() == 0 {
				t.Fatalf("wire counters empty: in=%d out=%d", cl.BytesIn(), cl.BytesOut())
			}

			// DialClientProto takes only the one protocol there is.
			cl2, err := DialClientProto(addr, ProtoV2)
			if err != nil {
				t.Fatalf("DialClientProto(2): %v", err)
			}
			defer cl2.Close()
			resp, err = cl2.Do(req())
			if err != nil || !resp.OK || !bytes.Equal(resp.Image, want) {
				t.Fatalf("DialClientProto(2) client: ok=%v err=%v identical=%v", resp != nil && resp.OK, err,
					resp != nil && bytes.Equal(resp.Image, want))
			}
			if c, err := DialClientProto(addr, 1); err == nil {
				c.Close()
				t.Fatal("DialClientProto accepted protocol version 1")
			}

			// Batch: every result byte-identical too.
			resp, err = cl.Do(&Request{Op: OpBatch, Items: []BatchItem{
				{Obj: obj, Profile: prof},
				{Obj: obj, Profile: prof},
			}})
			if err != nil || !resp.OK || len(resp.Results) != 2 {
				t.Fatalf("batch: resp=%+v err=%v", resp, err)
			}
			for i, r := range resp.Results {
				if !r.OK || !bytes.Equal(r.Image, want) {
					t.Fatalf("batch result %d diverged (ok=%v err=%q)", i, r.OK, r.Err)
				}
			}
		})
	}
}

// v1Frame renders a frame in the retired length-prefixed JSON framing: a
// 4-byte little-endian length, then the body. Servers must refuse it.
func v1Frame(body string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	return append(b, body...)
}

// readErrorFrame reads one response frame from br and requires it to be an
// error, followed by the server closing the connection.
func readErrorFrame(t *testing.T, br *bufio.Reader) {
	t.Helper()
	fb, env, pay, err := readFrameBodyV2(br)
	if err != nil {
		t.Fatalf("read error response: %v", err)
	}
	defer fb.release()
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	var resp Response
	if err := decodeResponseV2(sc, env, pay, &resp); err != nil {
		t.Fatalf("decode error response: %v", err)
	}
	if resp.OK || resp.Err == "" {
		t.Fatalf("non-v2 frame not rejected: %+v", resp)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after a protocol error (err=%v)", err)
	}
}

// TestNonV2FrameRejected: a frame that is not v2 — a v1-shaped opening, or
// v1 bytes after a good v2 exchange — gets a v2 error frame and a closed
// connection, while the server keeps serving other connections.
func TestNonV2FrameRejected(t *testing.T) {
	_, addr, stop := startServer(t, Options{Workers: 1})
	defer stop()

	// A v1-shaped opening: rejected after its first four bytes.
	conn, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(v1Frame(`{"op":"ping"}`)); err != nil {
		t.Fatalf("write v1 ping: %v", err)
	}
	readErrorFrame(t, bufio.NewReader(conn))

	// v1 bytes mid-stream, after a good v2 exchange.
	conn2, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn2.Close()
	if _, err := conn2.Write(encodeV2Request(t, &Request{Op: OpPing})); err != nil {
		t.Fatalf("write v2 ping: %v", err)
	}
	br := bufio.NewReader(conn2)
	fb, env, pay, err := readFrameBodyV2(br)
	if err != nil {
		t.Fatalf("read v2 response: %v", err)
	}
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	var resp Response
	if err := decodeResponseV2(sc, env, pay, &resp); err != nil || !resp.OK {
		t.Fatalf("v2 ping: resp=%+v err=%v", resp, err)
	}
	fb.release()
	if _, err := conn2.Write(v1Frame(`{"op":"ping"}`)); err != nil {
		t.Fatalf("write v1 ping: %v", err)
	}
	readErrorFrame(t, br)

	// The server itself is unharmed.
	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer cl.Close()
	if resp, err := cl.Do(&Request{Op: OpPing}); err != nil || !resp.OK {
		t.Fatalf("ping on a fresh connection: resp=%+v err=%v", resp, err)
	}
}

// TestNoImage: a stats-only request skips image bytes on the wire but
// still runs the squash, reports full stats, and warms the result cache
// for later full requests.
func TestNoImage(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, want := buildWorkload(t, 19, conf)
	s, addr, stop := startServer(t, Options{Workers: 2})
	defer stop()

	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer cl.Close()

	resp, err := cl.Do(&Request{Op: OpSquash, Obj: obj, Profile: prof, NoImage: true})
	if err != nil || !resp.OK {
		t.Fatalf("noimage request: resp=%+v err=%v", resp, err)
	}
	if resp.Image != nil {
		t.Fatalf("noimage response carries %d image bytes", len(resp.Image))
	}
	if resp.Stats == nil || resp.Stats.SquashedBytes == 0 {
		t.Fatalf("noimage response missing stats: %+v", resp.Stats)
	}

	// The squash ran and cached: a full request now hits and returns the
	// exact one-shot bytes.
	resp, err = cl.Do(&Request{Op: OpSquash, Obj: obj, Profile: prof})
	if err != nil || !resp.OK {
		t.Fatalf("follow-up request: resp=%+v err=%v", resp, err)
	}
	if !resp.Cached {
		t.Fatal("noimage squash did not warm the result cache")
	}
	if !bytes.Equal(resp.Image, want) {
		t.Fatal("cache warmed by a noimage request returned different bytes")
	}
	if snap := s.StatsSnapshot(); snap.Errors != 0 {
		t.Fatalf("server reported %d errors", snap.Errors)
	}
}

// TestNoImageBatch: the frame-level NoImage flag strips every batch
// result's image while leaving per-item stats and flags intact.
func TestNoImageBatch(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, want := buildWorkload(t, 23, conf)
	_, addr, stop := startServer(t, Options{Workers: 2})
	defer stop()

	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer cl.Close()

	resp, err := cl.Do(&Request{Op: OpBatch, NoImage: true, Items: []BatchItem{
		{Obj: obj, Profile: prof},
		{Obj: obj, Profile: prof},
	}})
	if err != nil || !resp.OK || len(resp.Results) != 2 {
		t.Fatalf("noimage batch: resp=%+v err=%v", resp, err)
	}
	for i, r := range resp.Results {
		if !r.OK || r.Image != nil || r.Stats == nil {
			t.Fatalf("result %d: ok=%v image=%d stats=%v", i, r.OK, len(r.Image), r.Stats)
		}
	}
	if !resp.Results[1].Shared {
		t.Fatal("within-batch dedup lost under noimage")
	}

	// Full batch afterwards: warmed cache, byte-identical images.
	resp, err = cl.Do(&Request{Op: OpBatch, Items: []BatchItem{{Obj: obj, Profile: prof}}})
	if err != nil || !resp.OK || len(resp.Results) != 1 {
		t.Fatalf("follow-up batch: resp=%+v err=%v", resp, err)
	}
	if r := resp.Results[0]; !r.Cached || !bytes.Equal(r.Image, want) {
		t.Fatalf("follow-up batch result: cached=%v identical=%v", r.Cached, bytes.Equal(r.Image, want))
	}
}

// TestFrameBufPool: the frame read buffers recycle with idempotent release,
// and oversized or pooling-off buffers bypass the pool entirely.
func TestFrameBufPool(t *testing.T) {
	fb := getFrameBuf(100)
	if !fb.pooled {
		t.Fatal("small frame buffer not pooled")
	}
	if len(fb.data) < 100 {
		t.Fatalf("buffer too small: %d", len(fb.data))
	}
	fb.release()
	fb.release() // second release must be a no-op, not a double-put

	big := getFrameBuf(maxScratchBytes + 1)
	if big.pooled {
		t.Fatal("oversized frame buffer claims to be pooled")
	}
	if len(big.data) != maxScratchBytes+1 {
		t.Fatalf("oversized buffer len = %d, want exact size", len(big.data))
	}
	big.release()

	SetPooling(false)
	defer SetPooling(true)
	off := getFrameBuf(100)
	if off.pooled {
		t.Fatal("pooling-off buffer claims to be pooled")
	}
	off.release()
}

// FuzzFrame drives the server-side codec over arbitrary byte streams: no
// input may panic, and every malformed frame — v1-shaped bytes included —
// must surface as a clean connection-level error, never a hang or an
// aliased read.
func FuzzFrame(f *testing.F) {
	v1ping := v1Frame(`{"op":"ping"}`)
	var v2buf bytes.Buffer
	bw := bufio.NewWriter(&v2buf)
	sc := newFrameScratch()
	if err := writeRequestV2(bw, sc, &Request{Op: OpSquash, Obj: []byte("obj"), Profile: []byte("prof")}); err != nil {
		f.Fatal(err)
	}
	bw.Flush()
	v2req := v2buf.Bytes()

	f.Add(v1ping)
	f.Add(v2req)
	f.Add(append(append([]byte{}, v2req...), v1ping...)) // v1 JSON mid-v2-stream
	f.Add(append(append([]byte{}, v1ping...), v2req...)) // v2 after a v1 opening
	f.Add(v2req[:len(v2req)-3])                          // truncated payload
	f.Add(v2req[:frameHeaderLen-2])                      // truncated header
	f.Add([]byte{0xFF, 0xFF, 0x51, 0xF2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(v2Frame(`{"op":"squash","obj":{"o":0,"n":99},"profile":{"o":0,"n":0}}`, []byte("x")))
	f.Add(v2Frame(`{"op":"squash","obj":{"o":0,"n":2},"profile":{"o":1,"n":1}}`, []byte("ab")))
	f.Add(v2Frame(`not json`, nil))
	f.Add(v2Frame(``, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		codec := newServerCodec(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard})
		defer codec.close()
		for i := 0; i < 64; i++ {
			var req Request
			err := codec.readRequest(&req)
			if err != nil {
				// The server answers a protocol violation, then closes.
				var pe *protoError
				if errors.As(err, &pe) {
					codec.writeResponse(&Response{Err: pe.msg})
				}
				return
			}
			// Frames that parse get a response written, exercising the
			// encode side, and their payload released as the server would
			// after processing.
			codec.writeResponse(&Response{OK: true})
			req.releasePayload()
		}
	})
}
