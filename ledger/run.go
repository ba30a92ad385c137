package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/vm"
)

// runWL loads squashed images from their file bytes and runs them with
// one closed-loop caller. Each program runs on two seeded inputs: a timing
// input, where VM stepping and the per-step hook check dominate and
// decompressions are rare, and a pathology input, where profile-cold code
// loops and the decompression runtime does most of the work. A runtime
// change that helps one kind and costs the other shows in op_ms_p90 and in
// the per-layer counts.
type runWL struct {
	progs []*program
	ops   []runOp
	seq   []int // op order of one pass
	sz    sizes
	// origMS is the mean reference run time per op.
	origMS float64
}

// runOp is one program on one input, with the unsquashed image's run on
// that input: the expected output, which comes from the VM and never from
// squash.
type runOp struct {
	prog      int
	pathology bool
	input     []byte
	out       []byte
	status    int32
	cycles    uint64
}

func newRun(progs []*program, sz sizes, seed int64) (*runWL, error) {
	w := &runWL{progs: progs, sz: sz}
	var total time.Duration
	for i, p := range progs {
		for _, pathology := range []bool{false, true} {
			in, err := w.cut(p, pathology)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			t0 := time.Now()
			m := vm.New(p.image, in)
			if err := m.Run(); err != nil {
				return nil, fmt.Errorf("%s: reference run: %w", p.name, err)
			}
			total += time.Since(t0)
			w.ops = append(w.ops, runOp{prog: i, pathology: pathology, input: in, out: m.Output, status: m.Status, cycles: m.Cycles})
		}
	}
	w.seq = order(seed, len(w.ops))
	w.origMS = ms(total) / float64(len(w.ops))
	return w, nil
}

// cut returns p's timing or pathology input: a prefix of the seeded
// input, long enough that the squashed run takes about the target
// simulated cycles, so that every op does a similar amount of work. A
// short prefix calibrates the length; cycles are deterministic, so the cut
// repeats for a seed.
func (w *runWL) cut(p *program, pathology bool) ([]byte, error) {
	gen, probe, target := p.timingInput, w.sz.timeBytes, w.sz.runCycles
	if pathology {
		gen, probe, target = p.pathologyInput, w.sz.pathBytes, w.sz.pathCycles
	}
	rt, err := core.NewRuntime(p.sq.Meta)
	if err != nil {
		return nil, err
	}
	m := vm.New(p.sq.Image, gen(probe))
	rt.Install(m)
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("calibration run: %w", err)
	}
	return gen(max(1, int(float64(probe)*float64(target)/float64(m.Cycles)))), nil
}

func (w *runWL) inputDigest() [32]byte {
	h := sha256.New()
	for _, i := range w.seq {
		op := &w.ops[i]
		fmt.Fprintf(h, "%s %v %d\n", w.progs[op.prog].name, op.pathology, len(op.input))
		h.Write(op.input)
	}
	return [32]byte(h.Sum(nil))
}

func (w *runWL) corrupt() { w.ops[0].out = append([]byte{0x5a}, w.ops[0].out...) }

func (w *runWL) close() error { return nil }

// timedHook delegates to the squash runtime and aggregates the time spent
// in it, instead of keeping one span per call.
type timedHook struct {
	rt    *core.Runtime
	calls uint64
	total time.Duration
	max   time.Duration
}

func (h *timedHook) Range() (uint32, uint32) { return h.rt.Range() }

func (h *timedHook) Enter(m *vm.Machine) error {
	t0 := time.Now()
	err := h.rt.Enter(m)
	d := time.Since(t0)
	h.calls++
	h.total += d
	h.max = max(h.max, d)
	return err
}

// measure runs on one P, for the reason compileWL.measure gives.
func (w *runWL) measure(d time.Duration, tr *tracer) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := newResult()
	reg := obs.NewRegistry()
	var ratios, enters []float64
	var insts uint64 // over every completed op
	firsts := 0      // distinct ops completed
	start := time.Now()
	for pass := 0; more(w.sz, pass, start, d); pass++ {
		for _, i := range w.seq {
			if !more(w.sz, pass, start, d) {
				break
			}
			op := res.attempted
			res.attempted++
			ro := &w.ops[i]
			root := tr.start("run.op", op, 0, nil)
			t0 := time.Now()
			m, rt, hook, err := w.runOne(op, ro, tr, root)
			lat := time.Since(t0)
			root.end()
			if err == nil && (!bytes.Equal(m.Output, ro.out) || m.Status != ro.status) {
				err = fmt.Errorf("%s: squashed run differs from the original (status %d, want %d)",
					w.progs[ro.prog].name, m.Status, ro.status)
			}
			if err != nil {
				res.fail(err)
				continue
			}
			if res.completed(i, lat) {
				core.PublishRunTelemetry(reg, m, rt)
				firsts++
				if !ro.pathology {
					ratios = append(ratios, float64(m.Cycles)/float64(ro.cycles))
				}
			}
			insts += m.Instructions
			if hook != nil {
				enters = append(enters, float64(hook.calls))
			}
		}
	}
	res.elapsed = time.Since(start)

	n := float64(firsts)
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	var sizes []float64
	for _, p := range w.progs {
		sizes = append(sizes, sizeRatio(p.sq.Stats))
	}
	res.values["size_ratio"] = geomean(sizes)
	res.values["cycles_ratio"] = geomean(ratios)
	res.values["vm.orig_run_ms"] = w.origMS
	res.values["vm.insts_per_op"] = frac(c("vm_instructions_total"), n)
	res.values["vm.fastpath_frac"] = frac(c("vm_fastpath_steps_total"), c("vm_instructions_total"))
	res.values["vm.icache_invalidated_words_per_op"] = frac(c("vm_icache_invalidated_words_total"), n)
	res.values["core.decompressions_per_op"] = frac(c("rt_buffer_fills_total"), n)
	res.values["core.evictions_per_op"] = frac(c("rt_buffer_evictions_total"), n)
	res.values["core.bits_read_per_op"] = frac(c("rt_bits_read_total"), n)
	res.values["core.stub_misses_per_op"] = frac(c("rt_stub_create_misses_total"), n)
	res.values["core.memo_hit_frac"] = frac(c("rt_memo_hits_total"), c("rt_memo_hits_total")+c("rt_memo_fills_total"))
	res.values["huffman.table_hit_frac"] = frac(c("huffman_table_hits_total"),
		c("huffman_table_hits_total")+c("huffman_wide_peeks_total")+c("huffman_tree_decodes_total"))
	if tr != nil {
		self, total := tr.perOp()
		res.values["objfile.read_image_ms"] = opMedian(self[spanReadImage])
		res.values["core.load_ms"] = opMedian(self[spanLoad])
		res.values["vm.run_ms"] = opMedian(total[spanVMRun])
		res.values["vm.self_ms"] = opMedian(self[spanVMRun])
		res.values["core.hook_ms"] = opMedian(self[spanHook])
		res.values["core.hook_enters_per_op"] = mean(enters)
		runMS := 0.0
		for _, v := range total[spanVMRun] {
			runMS += v
		}
		res.values["vm.mips"] = frac(float64(insts), runMS*1e3)
	}
	return res, nil
}

// runOne is one op: read the image file, load its squash metadata into a
// runtime, and run it. With a tracer, the runtime is wrapped in a
// timedHook whose total lands as one aggregated span under vm.run.
func (w *runWL) runOne(op int, ro *runOp, tr *tracer, root *active) (*vm.Machine, *core.Runtime, *timedHook, error) {
	sp := tr.start(spanReadImage, op, 0, root)
	im, err := objfile.ReadImage(bytes.NewReader(w.progs[ro.prog].sqBytes))
	sp.end()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("read image: %w", err)
	}
	sp = tr.start(spanLoad, op, 0, root)
	meta, err := core.UnmarshalMeta(im.Meta)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("unmarshal meta: %w", err)
	}
	rt, err := core.NewRuntime(meta)
	if err != nil {
		return nil, nil, nil, err
	}
	m := vm.New(im, ro.input)
	var hook *timedHook
	if tr != nil {
		hook = &timedHook{rt: rt}
		m.Hook = hook
	} else {
		rt.Install(m)
	}
	sp.end()
	sp = tr.start(spanVMRun, op, 0, root)
	vmStart := time.Now()
	err = m.Run()
	sp.end()
	if hook != nil {
		sp.child(spanHook, vmStart, hook.total, map[string]any{"calls": hook.calls, "max_us": hook.max.Microseconds()})
	}
	return m, rt, hook, err
}
