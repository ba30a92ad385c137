package serve

// Per-request scratch buffers. A warm squashd request serializes the output
// image (and, for bench requests, the prepared object and profile) through
// bytes.Buffers; growing those from zero on every request dominated the
// daemon's steady-state allocation profile. The buffers recycle through a
// sync.Pool; anything that outlives the request — the cached image, the
// response bytes — is copied out at exact size, so recycling can never
// mutate a byte a cache entry or in-flight response still holds.

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// poolingOff disables the request-scratch and frame pools when set. This
// is the serve layer's own switch, a test seam for the equivalence tests
// and the alloc benchmarks' fresh sides; responses are byte-identical
// either way.
var poolingOff atomic.Bool

// SetPooling enables (the default) or disables the request-scratch and
// frame pools.
func SetPooling(on bool) { poolingOff.Store(!on) }

// maxScratchBytes bounds the per-buffer capacity the pool retains; a
// pathologically large request's buffers are dropped for the GC.
const maxScratchBytes = 8 << 20

// reqScratch is one request's serialization working set: the squashed image
// (squash path) and the prepared object and profile (bench path).
type reqScratch struct {
	img, obj, prof bytes.Buffer
}

var reqScratchPool = sync.Pool{New: func() any { return new(reqScratch) }}

func getReqScratch() *reqScratch {
	if poolingOff.Load() {
		return new(reqScratch)
	}
	return reqScratchPool.Get().(*reqScratch)
}

func putReqScratch(sc *reqScratch) {
	if poolingOff.Load() {
		return
	}
	if sc.img.Cap() > maxScratchBytes || sc.obj.Cap() > maxScratchBytes || sc.prof.Cap() > maxScratchBytes {
		return
	}
	reqScratchPool.Put(sc)
}

// serializeInto streams src into the recycled buffer and returns an
// exact-size copy that the caller may retain indefinitely. The single copy
// is the one steady-state allocation of a warm cache-miss response.
func serializeInto(buf *bytes.Buffer, src io.WriterTo) ([]byte, error) {
	buf.Reset()
	if _, err := src.WriteTo(buf); err != nil {
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// frameBuf is one frame's read buffer. A v2 request's payload sections are
// zero-copy views into data, so the buffer must stay untouched until the
// request's worker is done with them — release is idempotent and tied to
// request completion, not response delivery, because a timed-out request's
// worker keeps reading the payload after the error response is sent.
type frameBuf struct {
	data     []byte
	pooled   bool
	released atomic.Bool
}

var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

// getFrameBuf returns a buffer with at least n readable bytes. Frames
// larger than the pool retention cap get an exact-size one-off allocation —
// the "streaming" path for oversized payloads, which never pins pool
// memory — as does everything when pooling is off.
func getFrameBuf(n int) *frameBuf {
	if poolingOff.Load() || n > maxScratchBytes {
		return &frameBuf{data: make([]byte, n)}
	}
	fb := frameBufPool.Get().(*frameBuf)
	fb.pooled = true
	fb.released.Store(false)
	if cap(fb.data) < n {
		fb.data = make([]byte, n)
	} else {
		fb.data = fb.data[:cap(fb.data)]
	}
	return fb
}

// release recycles the buffer. Safe to call more than once; only the first
// call returns it to the pool.
func (fb *frameBuf) release() {
	if fb == nil || !fb.pooled || fb.released.Swap(true) {
		return
	}
	if poolingOff.Load() || cap(fb.data) > maxScratchBytes {
		return
	}
	frameBufPool.Put(fb)
}

// frameScratch is one connection's (or client's) v2 encode working set: the
// envelope staging buffer with its JSON encoder, reusable envelope structs,
// and the section/item slices the writers append into. Everything here is
// fully overwritten before each use on the encode side; decode always goes
// through fresh stack envelopes, so stale fields can never leak between
// frames.
type frameScratch struct {
	env     bytes.Buffer
	enc     *json.Encoder
	decRd   bytes.Reader
	dec     *json.Decoder
	reqEnv  reqEnv
	respEnv respEnv
	secs    [][]byte
	items   []itemEnv
	results []resultEnv
}

func newFrameScratch() *frameScratch {
	sc := new(frameScratch)
	sc.enc = json.NewEncoder(&sc.env)
	sc.dec = json.NewDecoder(&sc.decRd)
	return sc
}

var frameScratchPool = sync.Pool{New: func() any { return newFrameScratch() }}

func getFrameScratch() *frameScratch {
	if poolingOff.Load() {
		return newFrameScratch()
	}
	return frameScratchPool.Get().(*frameScratch)
}

func putFrameScratch(sc *frameScratch) {
	if sc == nil || poolingOff.Load() || sc.env.Cap() > maxScratchBytes {
		return
	}
	sc.scrub()
	frameScratchPool.Put(sc)
}

// recycleReq hands a request writer's slices back to the scratch, scrubbed
// so the pool can't pin payload bytes or Config pointers.
func (sc *frameScratch) recycleReq(e *reqEnv, t *secTable) {
	sc.secs = scrubSecs(t.secs)
	if e.Items != nil {
		sc.items = scrubItemEnvs(e.Items)
	}
	*e = reqEnv{}
}

// recycleResp is recycleReq's response-side counterpart.
func (sc *frameScratch) recycleResp(e *respEnv, t *secTable) {
	sc.secs = scrubSecs(t.secs)
	if e.Results != nil {
		sc.results = scrubResultEnvs(e.Results)
	}
	*e = respEnv{}
}

// scrub drops every pointer the scratch might still hold (a codec that was
// torn down mid-write skips the recycle calls).
func (sc *frameScratch) scrub() {
	sc.secs = scrubSecs(sc.secs)
	sc.items = scrubItemEnvs(sc.items)
	sc.results = scrubResultEnvs(sc.results)
	sc.reqEnv = reqEnv{}
	sc.respEnv = respEnv{}
	sc.decRd.Reset(nil) // drop the reference into the last frame buffer
}

func scrubSecs(s [][]byte) [][]byte {
	for i := range s {
		s[i] = nil
	}
	return s[:0]
}

func scrubItemEnvs(s []itemEnv) []itemEnv {
	for i := range s {
		s[i] = itemEnv{}
	}
	return s[:0]
}

func scrubResultEnvs(s []resultEnv) []resultEnv {
	for i := range s {
		s[i] = resultEnv{}
	}
	return s[:0]
}
