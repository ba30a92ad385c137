// Command ledger is the repository's benchmark: it builds the mediabench
// programs from source, runs one seeded workload against the squash
// toolchain, checks every output, and prints one JSON result line.
//
//	bash ledger/run.sh --workload compile|run|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload untraced for half the time (under
// the CPU profiler), then traced for the other half, and reports the
// per-layer metrics; the trace, its summary and the CPU profile go to
// --out. catalog.go lists every metric with the layer and workload it
// belongs to.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// options selects one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // artifact directory; empty writes none
	setups   int    // set-ups performed; setup_s is their median
	// corrupt damages each workload's reference after set-up, so that the
	// self-check can show the output check catches it.
	corrupt bool
}

// workload is one set-up benchmark workload.
type workload interface {
	// measure runs passes over the workload's op sequence for d, or
	// exactly sizes.passes whole passes when that is set; tr is nil for
	// the untraced run.
	measure(d time.Duration, tr *tracer) (*result, error)
	// inputDigest identifies the generated inputs and op order.
	inputDigest() [32]byte
	// corrupt damages the reference outputs are checked against.
	corrupt()
	// close stops everything the set-up started.
	close() error
}

// result is what one measured phase produced.
type result struct {
	lat []float64 // latency of each completed op, ms
	// best holds each distinct op's fastest latency in the phase.
	best      map[int]float64
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	// values holds the metrics the workload computes itself.
	values map[string]float64
}

func newResult() *result { return &result{best: map[int]float64{}, values: map[string]float64{}} }

// completed records the latency of an op that passed its check; key
// names the distinct op of a pass-based workload. It reports whether this
// was the op's first completion, whose counts the workload records, so
// that counts do not depend on where the run was cut.
func (r *result) completed(key int, lat time.Duration) (first bool) {
	r.lat = append(r.lat, ms(lat))
	b, seen := r.best[key]
	if !seen || ms(lat) < b {
		r.best[key] = ms(lat)
	}
	return !seen
}

// bestLat lists the distinct ops' fastest latencies.
func (r *result) bestLat() []float64 {
	out := make([]float64, 0, len(r.best))
	for _, v := range r.best {
		out = append(out, v)
	}
	return out
}

// bestMedian is op_ms_p50 of a phase.
func bestMedian(r *result) float64 { return median(r.bestLat()) }

func (r *result) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// more reports whether another op should start in pass number pass: for
// d, but never before the first pass is complete; with sz.passes set,
// exactly that many whole passes.
func more(sz sizes, pass int, start time.Time, d time.Duration) bool {
	if sz.passes > 0 {
		return pass < sz.passes
	}
	return pass == 0 || time.Since(start) < d
}

// opMedian is the median over ops of per-op values.
func opMedian(perOp map[int]float64) float64 {
	xs := make([]float64, 0, len(perOp))
	for _, v := range perOp {
		xs = append(xs, v)
	}
	return median(xs)
}

// report is one run's outcome. metrics holds every metric the run
// computed; the printed line carries the end-to-end or the per-layer set.
type report struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]float64
	inputs            [32]byte
	fp                fingerprint
}

func setupWorkload(o options, sz sizes) (workload, *result, error) {
	t0 := time.Now()
	progs, st, err := prepare(sz, o.seed)
	if err != nil {
		return nil, nil, err
	}
	var w workload
	switch o.workload {
	case "compile":
		w = newCompile(progs, sz, o.seed)
	case "run":
		w, err = newRun(progs, sz, o.seed)
	case "serve":
		w, err = newServe(progs, sz, o.seed)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, nil, err
	}
	n := float64(len(progs))
	r := newResult()
	r.elapsed = time.Since(t0)
	r.values["asm.assemble_ms"] = ms(st.assemble) / n
	r.values["squeeze.run_ms"] = ms(st.squeeze) / n
	r.values["objfile.link_ms"] = ms(st.link) / n
	r.values["vm.profile_run_ms"] = ms(st.profile) / n
	r.values["core.setup_squash_ms"] = ms(st.squash) / n
	return w, r, nil
}

// runBenchmark sets the workload up o.setups times, keeps the last
// set-up, and measures it.
func runBenchmark(o options, sz sizes) (*report, error) {
	if _, ok := blockingPath[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want compile, run or serve)", o.workload)
	}
	rep := &report{metrics: map[string]float64{}, fp: machineFingerprint(sourceCommit())}
	var w workload
	var setupS []float64
	setupLayers := map[string][]float64{}
	for i := 0; i < o.setups; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		var st *result
		var err error
		w, st, err = setupWorkload(o, sz)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, st.elapsed.Seconds())
		for k, v := range st.values {
			setupLayers[k] = append(setupLayers[k], v)
		}
	}
	defer w.close()
	if o.corrupt {
		w.corrupt()
	}
	rep.inputs = w.inputDigest()
	rep.metrics["setup_s"] = median(setupS)
	for k, v := range setupLayers {
		rep.metrics[k] = median(v)
	}

	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		res, err := measure(w, d, nil, rep)
		if err != nil {
			return nil, err
		}
		publish(rep, res)
		rep.metrics["error_rate"] = frac(float64(rep.failed), float64(rep.attempted))
		return rep, w.close()
	}

	// Traced run: an untraced half under the CPU profiler gives the
	// reference latency, then a traced half gives the layer breakdown.
	var stopProfile func() error
	if o.out != "" {
		var err error
		if stopProfile, err = startCPUProfile(filepath.Join(o.out, "cpu.pprof")); err != nil {
			return nil, err
		}
	}
	plain, err := measure(w, d/2, nil, rep)
	if stopProfile != nil {
		if perr := stopProfile(); err == nil {
			err = perr
		}
	}
	if err != nil {
		return nil, err
	}
	publish(rep, plain)
	tr := newTracer()
	traced, err := measure(w, d/2, tr, rep)
	if err != nil {
		return nil, err
	}
	// Layer metrics (dotted names) come from the traced half; end-to-end
	// figures stay those of the untraced half.
	for k, v := range traced.values {
		if strings.Contains(k, ".") {
			rep.metrics[k] = v
		}
	}
	tp50 := median(traced.lat)
	rep.metrics["obs.traced_op_ms_p50"] = tp50
	rep.metrics["obs.trace_overhead_frac"] = frac(bestMedian(traced), bestMedian(plain)) - 1
	rem := tp50
	for _, name := range blockingPath[o.workload] {
		rem -= rep.metrics[name]
	}
	rep.metrics["obs.remainder_ms"] = rem
	rep.metrics["error_rate"] = frac(float64(rep.failed), float64(rep.attempted))
	if o.out != "" {
		if err := writeArtifacts(o.out, tr, rep); err != nil {
			return nil, err
		}
	}
	return rep, w.close()
}

// measure runs one phase and adds the Go runtime's view of it.
func measure(w workload, d time.Duration, tr *tracer, rep *report) (*result, error) {
	before := readGo()
	res, err := w.measure(d, tr)
	if err != nil {
		return nil, err
	}
	after := readGo()
	rep.attempted += res.attempted
	rep.failed += res.failed
	if rep.firstErr == nil {
		rep.firstErr = res.firstErr
	}
	ops := float64(max(1, len(res.lat)))
	res.values["alloc_mb_per_op"] = float64(after.allocBytes-before.allocBytes) / ops / (1 << 20)
	res.values["go.gc_cycles_per_op"] = float64(after.gcCycles-before.gcCycles) / ops
	res.values["go.gc_cpu_frac"] = frac(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	return res, nil
}

// publish turns an untraced phase into the end-to-end metrics.
//
// On a shared 2-vCPU Xeon VM the same code runs up to about 2x slower
// from one moment to the next, CPU time included, and the share of slow
// moments differs from one run to the next; a plain median latency
// follows that share. Every workload repeats one sequence of ops pass
// after pass, so latency and throughput are taken from each distinct
// op's fastest completion in the run, which only needs the op to meet a
// fast moment once: op_ms_p50 and op_ms_p90 are quantiles over distinct
// ops of that best latency, and ops_per_s is the rate a closed-loop
// caller would reach at it. op_ms_p99 uses every op.
func publish(rep *report, res *result) {
	m := rep.metrics
	for k, v := range res.values {
		m[k] = v
	}
	best := res.bestLat()
	sum := 0.0
	for _, v := range best {
		sum += v
	}
	m["ops_per_s"] = frac(float64(len(best)), sum/1000)
	m["op_ms_p50"] = quantile(best, 0.5)
	m["op_ms_p90"] = quantile(best, 0.9)
	m["op_ms_p99"] = quantile(res.lat, 0.99)
	m["max_rss_mb"] = maxRSSMB()
}

func startCPUProfile(path string) (func() error, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeArtifacts writes the Chrome trace, the by-name span summary and the
// fingerprint beside the CPU profile.
func writeArtifacts(dir string, tr *tracer, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("trace.json", func(f *os.File) error { return tr.writeChrome(f) }); err != nil {
		return err
	}
	if err := write("summary.txt", func(f *os.File) error { return writeSummary(f, tr.summary()) }); err != nil {
		return err
	}
	return write("fingerprint.json", func(f *os.File) error { return json.NewEncoder(f).Encode(rep.fp) })
}

// sourceCommit names the source the benchmark was built from: the VCS
// revision stamped into the binary when built in a git checkout, or else
// a digest of the module's Go sources.
func sourceCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:8])
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "compile, run or serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs and op order")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring time of one run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/ledger-out", "directory for the trace, summary, CPU profile and fingerprint (a per-workload subdirectory)")
	flag.Parse()
	o.trace = trace == 1
	o.setups = 3
	if o.out != "" {
		o.out = filepath.Join(o.out, o.workload)
	}

	rep, err := runBenchmark(o, fullSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	if rep.firstErr != nil {
		fmt.Fprintf(os.Stderr, "ledger: %d of %d ops failed, first: %v\n", rep.failed, rep.attempted, rep.firstErr)
	}
	set := endToEnd
	if o.trace {
		set = perLayer
	}
	out := line{Correct: rep.failed == 0 && rep.attempted > 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, m := range set {
		out.Metrics[m.name] = value{Value: rep.metrics[m.name], Unit: m.unit}
	}
	fp, _ := json.Marshal(rep.fp)
	fmt.Printf("fingerprint %s inputs %x\n", fp, rep.inputs[:8])
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
