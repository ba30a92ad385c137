package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/profilefeed"
	"repro/internal/serve"
	"repro/internal/vm"
)

// Request mix of the serve workload.
const (
	batchEvery = 8 // about one read frame in batchEvery is a batch
	batchItems = 4 // objects per batch frame
)

// serveWL runs a cluster router (hash policy) in front of two squash
// backends, with a profile collector beside them, all in this process on
// unix sockets. A read caller sends squash frames through the router and
// a write caller sends profile pushes to the collector, each closed-loop
// on one connection.
type serveWL struct {
	progs []*program
	sz    sizes
	dir   string
	conf  core.Config

	servers   []*serve.Server // backends, router front, collector front
	serveErr  chan error
	router    *cluster.Router
	collector *profilefeed.Collector
	backends  []*serve.Server
	readCl    *serve.Client
	pushCl    *serve.Client

	reads  []*serve.Request
	readOf [][]int // programs each read frame asks for
	pushes []*serve.Request
	refs   [][]byte // expected image per program: the set-up's one-shot squash

	// The wrapped handlers publish the start and duration of their last
	// call; each caller is the only client of its handler, so after a
	// reply they describe that caller's request.
	routeStart, routeDur atomic.Int64
	feedStart, feedDur   atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

func discard(string, ...any) {}

func newServe(progs []*program, sz sizes, seed int64) (_ *serveWL, err error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "serve-")
	if err != nil {
		return nil, err
	}
	w := &serveWL{progs: progs, sz: sz, dir: dir, conf: squashConfig(runTheta), serveErr: make(chan error, 4)}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	var addrs []string
	for i := 0; i < 2; i++ {
		b := serve.NewServer(serve.Options{Logf: discard})
		addr, err := w.listen(b, fmt.Sprintf("b%d.sock", i))
		if err != nil {
			return nil, err
		}
		w.backends = append(w.backends, b)
		addrs = append(addrs, addr)
	}
	w.router, err = cluster.New(cluster.Config{Backends: addrs, Policy: cluster.PolicyHash, BackendProto: 2, Logf: discard})
	if err != nil {
		return nil, err
	}
	w.router.Start()
	routerAddr, err := w.listen(serve.NewServer(serve.Options{Handler: w.route, Logf: discard}), "router.sock")
	if err != nil {
		return nil, err
	}
	w.collector, err = profilefeed.NewCollector(profilefeed.Options{
		Dir: filepath.Join(dir, "store"), Threshold: 0.2, Cooldown: time.Minute, Logf: discard,
	})
	if err != nil {
		return nil, err
	}
	feedAddr, err := w.listen(serve.NewServer(serve.Options{Handler: w.feed, Logf: discard}), "feed.sock")
	if err != nil {
		return nil, err
	}
	if w.readCl, err = serve.DialClientProto(routerAddr, 2); err != nil {
		return nil, err
	}
	if w.pushCl, err = serve.DialClientProto(feedAddr, 2); err != nil {
		return nil, err
	}

	// Warm the backends' caches with one batch of every object, register
	// every image with the collector, and record each image's steady run
	// to push.
	warm := &serve.Request{Op: serve.OpBatch}
	all := make([]int, len(progs))
	for i, p := range progs {
		w.refs = append(w.refs, p.sqBytes)
		warm.Items = append(warm.Items, w.item(i))
		all[i] = i
	}
	resp, err := w.readCl.Do(warm)
	if err == nil {
		err = w.checkReply(warm, all, resp)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, p := range progs {
		push, err := w.register(p)
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", p.name, err)
		}
		w.pushes = append(w.pushes, push)
	}

	rng := rand.New(rand.NewSource(seed))
	for len(w.reads) < sz.frames {
		if rng.Intn(batchEvery) == 0 {
			pick := rng.Perm(len(progs))[:min(batchItems, len(progs))]
			req := &serve.Request{Op: serve.OpBatch}
			for _, i := range pick {
				req.Items = append(req.Items, w.item(i))
			}
			w.reads = append(w.reads, req)
			w.readOf = append(w.readOf, pick)
			continue
		}
		i := rng.Intn(len(progs))
		w.reads = append(w.reads, w.squashReq(i))
		w.readOf = append(w.readOf, []int{i})
	}
	var pushes []*serve.Request
	for len(pushes) < sz.frames {
		pushes = append(pushes, w.pushes[rng.Intn(len(progs))])
	}
	w.pushes = pushes
	return w, nil
}

// listen serves s on a unix socket in the workload's directory.
func (w *serveWL) listen(s *serve.Server, name string) (string, error) {
	addr := "unix:" + filepath.Join(w.dir, name)
	ln, err := serve.Listen(addr)
	if err != nil {
		return "", err
	}
	w.servers = append(w.servers, s)
	go func() { w.serveErr <- s.Serve(ln) }()
	return addr, nil
}

func (w *serveWL) squashReq(i int) *serve.Request {
	return &serve.Request{Op: serve.OpSquash, Obj: w.progs[i].objBytes, Profile: w.progs[i].profBytes, Config: &w.conf}
}

func (w *serveWL) item(i int) serve.BatchItem {
	return serve.BatchItem{Obj: w.progs[i].objBytes, Profile: w.progs[i].profBytes, Config: &w.conf}
}

// register enrolls p's image with the collector and returns the push a
// fleet member running it on its steady input would send.
func (w *serveWL) register(p *program) (*serve.Request, error) {
	in := p.timingInput(w.sz.steadyBytes)
	resp, err := w.pushCl.Do(&serve.Request{
		Op: serve.OpProfileRegister, Image: p.sqBytes, Obj: p.objBytes, Profile: p.profBytes, Config: &w.conf, Input: in,
	})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, errors.New(resp.Err)
	}
	rt, err := core.NewRuntime(p.sq.Meta)
	if err != nil {
		return nil, err
	}
	m := vm.New(p.sq.Image, in)
	m.EnableProfile()
	rt.Install(m)
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("steady run: %w", err)
	}
	var counts bytes.Buffer
	if _, err := profile.Counts(m.ProfileCounts()).WriteTo(&counts); err != nil {
		return nil, err
	}
	return &serve.Request{
		Op: serve.OpProfilePush, ImageKey: fmt.Sprintf("%x", sha256.Sum256(p.sqBytes)),
		Profile: counts.Bytes(), Input: in,
		Run: &serve.RunMeta{Instructions: m.Instructions, Cycles: m.Cycles, ExitStatus: m.Status,
			Decompressions: rt.Stats.Decompressions, Evictions: rt.Stats.Evictions, BitsRead: rt.Stats.BitsRead, Source: "ledger"},
	}, nil
}

// route is Router.Handle, timed.
func (w *serveWL) route(req *serve.Request) *serve.Response {
	t0 := time.Now()
	resp := w.router.Handle(req)
	w.routeStart.Store(t0.UnixNano())
	w.routeDur.Store(int64(time.Since(t0)))
	return resp
}

// feed is Collector.Handle, timed.
func (w *serveWL) feed(req *serve.Request) *serve.Response {
	t0 := time.Now()
	resp := w.collector.Handle(req)
	w.feedStart.Store(t0.UnixNano())
	w.feedDur.Store(int64(time.Since(t0)))
	return resp
}

func (w *serveWL) inputDigest() [32]byte {
	h := sha256.New()
	for i, ps := range w.readOf {
		fmt.Fprintf(h, "r%d %v\n", i, ps)
	}
	for _, p := range w.pushes {
		fmt.Fprintf(h, "p %s %x\n", p.ImageKey, sha256.Sum256(p.Input))
	}
	return [32]byte(h.Sum(nil))
}

func (w *serveWL) corrupt() {
	w.refs[0] = append([]byte(nil), w.refs[0]...)
	w.refs[0][len(w.refs[0])/2] ^= 1
}

func (w *serveWL) close() error {
	w.closeOnce.Do(func() {
		for _, c := range []*serve.Client{w.readCl, w.pushCl} {
			if c != nil {
				c.Close()
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, s := range w.servers {
			if err := s.Shutdown(ctx); err != nil && w.closeErr == nil {
				w.closeErr = err
			}
		}
		for range w.servers {
			if err := <-w.serveErr; !errors.Is(err, serve.ErrServerClosed) && w.closeErr == nil {
				w.closeErr = err
			}
		}
		if w.router != nil {
			w.router.Stop()
		}
		if err := os.RemoveAll(w.dir); err != nil && w.closeErr == nil {
			w.closeErr = err
		}
	})
	return w.closeErr
}

// caller is one closed-loop client's record of a phase.
type caller struct {
	lat, front, handler []float64       // ms per completed frame
	best                map[int]float64 // fastest round trip per frame of the sequence
	attempted, failed   int
	firstErr            error
	elapsed             time.Duration
}

func (c *caller) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// loop sends frames from seq until the phase ends, checking each reply.
// start and dur publish the wrapped handler's timing of the frame.
func (w *serveWL) loop(name, handler string, cl *serve.Client, seq []*serve.Request, d time.Duration, tr *tracer, tid int,
	start, dur *atomic.Int64, check func(k int, resp *serve.Response) error) *caller {
	c := &caller{best: map[int]float64{}}
	t0 := time.Now()
	for pass := 0; more(w.sz, pass, t0, d); pass++ {
		for k, req := range seq {
			if !more(w.sz, pass, t0, d) {
				break
			}
			op := c.attempted
			c.attempted++
			root := tr.start(name, op, tid, nil)
			s := time.Now()
			resp, err := cl.Do(req)
			rtt := time.Since(s)
			hd := time.Duration(dur.Load())
			if tr != nil {
				root.child(handler, time.Unix(0, start.Load()), hd, nil)
			}
			root.end()
			if err == nil {
				err = check(k, resp)
			}
			if err != nil {
				c.fail(err)
				continue
			}
			c.lat = append(c.lat, ms(rtt))
			if b, ok := c.best[k]; !ok || ms(rtt) < b {
				c.best[k] = ms(rtt)
			}
			c.handler = append(c.handler, ms(hd))
			c.front = append(c.front, ms(rtt-hd))
		}
	}
	c.elapsed = time.Since(t0)
	return c
}

// checkReply checks that a read frame asking for programs want got back
// exactly their set-up images.
func (w *serveWL) checkReply(req *serve.Request, want []int, resp *serve.Response) error {
	if !resp.OK {
		return fmt.Errorf("read frame refused: %s", resp.Err)
	}
	if req.Op == serve.OpSquash {
		if !bytes.Equal(resp.Image, w.refs[want[0]]) {
			return fmt.Errorf("%s: served image differs from the one-shot squash", w.progs[want[0]].name)
		}
		return nil
	}
	if len(resp.Results) != len(want) {
		return fmt.Errorf("batch of %d answered with %d results", len(want), len(resp.Results))
	}
	for j, r := range resp.Results {
		if !r.OK || !bytes.Equal(r.Image, w.refs[want[j]]) {
			return fmt.Errorf("%s: batch item differs from the one-shot squash (err %q)", w.progs[want[j]].name, r.Err)
		}
	}
	return nil
}

func checkPush(_ int, resp *serve.Response) error {
	if !resp.OK {
		return fmt.Errorf("push refused: %s", resp.Err)
	}
	if resp.Resquash != nil {
		return fmt.Errorf("push triggered a re-squash (drift %.3f)", resp.Resquash.DriftScore)
	}
	return nil
}

func (w *serveWL) measure(d time.Duration, tr *tracer) (*result, error) {
	before := w.backendStats()
	inBefore, outBefore := w.readCl.BytesIn(), w.readCl.BytesOut()
	var reads, pushes *caller
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		reads = w.loop(spanRead, spanRoute, w.readCl, w.reads, d, tr, 0, &w.routeStart, &w.routeDur,
			func(k int, resp *serve.Response) error { return w.checkReply(w.reads[k], w.readOf[k], resp) })
	}()
	go func() {
		defer wg.Done()
		pushes = w.loop(spanPush, spanFeed, w.pushCl, w.pushes, d, tr, 1, &w.feedStart, &w.feedDur, checkPush)
	}()
	wg.Wait()
	after := w.backendStats()

	res := newResult()
	res.lat, res.best = reads.lat, reads.best
	res.attempted = reads.attempted + pushes.attempted
	res.failed = reads.failed + pushes.failed
	res.firstErr = reads.firstErr
	if res.firstErr == nil {
		res.firstErr = pushes.firstErr
	}
	res.elapsed = reads.elapsed
	v := res.values
	var sizes []float64
	for _, p := range w.progs {
		sizes = append(sizes, sizeRatio(p.sq.Stats))
	}
	v["size_ratio"] = geomean(sizes)
	v["push_per_s"] = float64(len(pushes.lat)) / pushes.elapsed.Seconds()
	v["push_ms_p50"] = quantile(pushes.lat, 0.5)
	v["push_ms_p99"] = quantile(pushes.lat, 0.99)
	v["serve.front_ms_p50"] = quantile(reads.front, 0.5)
	v["serve.front_ms_p99"] = quantile(reads.front, 0.99)
	v["cluster.route_ms_p50"] = quantile(reads.handler, 0.5)
	v["cluster.route_ms_p99"] = quantile(reads.handler, 0.99)
	merged := serve.MergeSnapshots(after...)
	v["serve.backend_ms_p50"] = merged.Latency.P50
	v["serve.backend_ms_p99"] = merged.Latency.P99
	v["cluster.hop_ms_p50"] = v["cluster.route_ms_p50"] - merged.Latency.P50
	v["profilefeed.handle_ms_p50"] = quantile(pushes.handler, 0.5)
	v["profilefeed.handle_ms_p99"] = quantile(pushes.handler, 0.99)
	v["serve.push_front_ms_p50"] = quantile(pushes.front, 0.5)
	var hits, lookups, maxReq, allReq float64
	for i := range after {
		h := float64(after[i].SquashCacheHits - before[i].SquashCacheHits)
		hits += h
		lookups += h + float64(after[i].SquashCacheMisses-before[i].SquashCacheMisses)
		n := float64(after[i].Requests[serve.OpSquash]+after[i].Requests[serve.OpBatch]) -
			float64(before[i].Requests[serve.OpSquash]+before[i].Requests[serve.OpBatch])
		allReq += n
		maxReq = max(maxReq, n)
	}
	v["serve.cache_hit_frac"] = frac(hits, lookups)
	v["cluster.backend_share_max"] = frac(maxReq, allReq)
	v["serve.wire_bytes_per_op"] = frac(float64(w.readCl.BytesIn()-inBefore+w.readCl.BytesOut()-outBefore), float64(reads.attempted))
	resquashes, err := w.resquashes()
	if err != nil {
		return nil, err
	}
	v["profilefeed.resquashes"] = resquashes
	if resquashes != 0 {
		res.fail(fmt.Errorf("%v profile pushes fired a re-squash", resquashes))
	}
	return res, nil
}

func (w *serveWL) backendStats() []*serve.Snapshot {
	var out []*serve.Snapshot
	for _, b := range w.backends {
		out = append(out, b.StatsSnapshot())
	}
	return out
}

// resquashes asks the collector how many re-squashes it has run.
func (w *serveWL) resquashes() (float64, error) {
	resp, err := w.pushCl.Do(&serve.Request{Op: serve.OpProfileStatus})
	if err != nil {
		return 0, err
	}
	if !resp.OK || resp.Feed == nil {
		return 0, fmt.Errorf("profile status: %s", resp.Err)
	}
	n := 0.0
	for _, im := range resp.Feed.Images {
		n += float64(im.Resquashes)
	}
	return n, nil
}
