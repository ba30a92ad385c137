package main

// runSeconds is how long one benchmark run measures.
const runSeconds = 28

// metric is one entry of the ledger's catalogue. BENCHMARK.json lists the
// same names, units and directions (the catalogue test checks that);
// moves records which end-to-end metric a per-layer metric should move,
// and on which workloads. On every other workload the prediction is no
// move.
type metric struct {
	name, unit, better string
	// bound is the end-to-end regression bound, a share of the parent's
	// median; per-layer metrics have none.
	bound float64
	moves string
}

// endToEnd metrics come from the untraced run and are reported on every
// workload.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		moves: "median of 3 full set-ups per run: build all 11 programs from source, squash each at θ=1e-4, plus the workload's own references, daemons and warm-up"},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25,
		moves: "distinct ops ÷ the sum of their fastest latencies, the rate of a closed-loop caller at those latencies; an op is a squash (compile), a program run (run) or a read frame (serve)"},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.25, moves: "median over distinct ops of each op's fastest latency in the run"},
	{name: "op_ms_p90", unit: "ms", better: "lower", bound: 0.25, moves: "90th percentile over distinct ops of each op's fastest latency in the run"},
	{name: "size_ratio", unit: "ratio", better: "lower", bound: 0.02,
		moves: "geomean of squashed footprint ÷ squeezed input bytes over the images the workload makes or uses (Fig. 7a)"},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.2, moves: "Go heap bytes allocated per op"},
	{name: "max_rss_mb", unit: "MB", better: "lower", bound: 0.2, moves: "peak resident set of the benchmark process, set-up included"},
}

// Names of the stage spans core.SquashObs records, and of the spans the
// benchmark records itself around each layer call.
const (
	spanSquash     = "squash" // SquashObs root; its self time is core.other_ms
	spanDecode     = "cfg.decode"
	spanSelect     = "region.select"
	spanBufferSafe = "buffersafe"
	spanLayout     = "layout"
	spanBuildLink  = "build.link"
	spanSeqBuild   = "seq.build"
	spanTrain      = "coder.train"
	spanEncode     = "region.encode"
	spanFinalize   = "image.finalize"
	spanWrite      = "objfile.write"
	spanReadImage  = "objfile.read_image"
	spanLoad       = "core.load"
	spanVMRun      = "vm.run"
	spanHook       = "core.hook"
	spanRead       = "serve.read"
	spanRoute      = "cluster.route"
	spanPush       = "serve.push"
	spanFeed       = "profilefeed.handle"
)

// perLayer metrics come from the traced run (--trace 1). Times marked
// "self" are medians over ops of the span's self time; together with
// obs.remainder_ms, the ones on an op's blocking path add up to
// obs.traced_op_ms_p50. The first six are end-to-end figures that exist
// on only some workloads, so they are reported here, from the untraced
// half of the traced run.
var perLayer = []metric{
	{name: "op_ms_p99", unit: "ms", better: "lower", moves: "serve: 99th percentile over every read frame (other workloads have too few ops for a p99)"},
	{name: "error_rate", unit: "frac", better: "lower", moves: "all: failed or mismatched ops ÷ ops attempted; must be 0"},
	{name: "cycles_ratio", unit: "ratio", better: "lower", moves: "run: geomean of simulated cycles, squashed ÷ original, over the timing-input ops (Fig. 7b)"},
	{name: "push_per_s", unit: "1/s", better: "higher", moves: "serve: write-caller profile pushes per second"},
	{name: "push_ms_p50", unit: "ms", better: "lower", moves: "serve: push latency median"},
	{name: "push_ms_p99", unit: "ms", better: "lower", moves: "serve: push latency 99th percentile"},

	{name: "asm.assemble_ms", unit: "ms", better: "lower", moves: "setup_s on all; per program"},
	{name: "squeeze.run_ms", unit: "ms", better: "lower", moves: "setup_s on all; per program: cfg.Build, squeeze.Run and cfg.Lower"},
	{name: "objfile.link_ms", unit: "ms", better: "lower", moves: "setup_s on all; per program"},
	{name: "vm.profile_run_ms", unit: "ms", better: "lower", moves: "setup_s on all; per program"},
	{name: "core.setup_squash_ms", unit: "ms", better: "lower", moves: "setup_s on all; per program, θ=1e-4"},

	{name: "cfg.decode_ms", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p90, ops_per_s on compile; self"},
	{name: "regions.select_ms", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p90, ops_per_s on compile; self"},
	{name: "buffersafe.analyze_ms", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p90, ops_per_s on compile; self"},
	{name: "core.layout_ms", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p90, ops_per_s on compile; self"},
	{name: "core.build_link_ms", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p90, ops_per_s on compile; self"},
	{name: "streamcomp.seq_build_ms", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p90, ops_per_s on compile; self"},
	{name: "huffman.train_ms", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p90, ops_per_s on compile; self"},
	{name: "streamcomp.encode_ms", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p90, ops_per_s on compile; whole stage, with its per-region child spans"},
	{name: "core.finalize_ms", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p90, ops_per_s on compile; self"},
	{name: "core.other_ms", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p90, ops_per_s on compile; self time of the squash root span"},
	{name: "objfile.write_ms", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p90, ops_per_s on compile; Image.WriteTo"},
	{name: "core.regions_per_op", unit: "count", better: "lower", moves: "op_ms_p50 on compile; regions formed per squash"},

	{name: "objfile.read_image_ms", unit: "ms", better: "lower", moves: "op_ms_p50 on run; self"},
	{name: "core.load_ms", unit: "ms", better: "lower", moves: "op_ms_p50 on run; UnmarshalMeta, NewRuntime and vm.New"},
	{name: "vm.run_ms", unit: "ms", better: "lower", moves: "op_ms_p50 on run, timing ops; whole Machine.Run"},
	{name: "vm.self_ms", unit: "ms", better: "lower", moves: "op_ms_p50 on run, timing ops; Machine.Run minus the runtime hook"},
	{name: "core.hook_ms", unit: "ms", better: "lower", moves: "op_ms_p90 on run, pathology ops; Runtime.Enter, timed by a delegating vm.Hook"},
	{name: "core.hook_enters_per_op", unit: "count", better: "lower", moves: "op_ms_p90 on run, pathology ops"},
	{name: "vm.orig_run_ms", unit: "ms", better: "lower", moves: "setup_s on run; the unsquashed reference run, per op"},
	{name: "vm.insts_per_op", unit: "count", better: "lower", moves: "op_ms_p50 on run; exact"},
	{name: "vm.mips", unit: "Minst/s", better: "higher", moves: "op_ms_p50 on run, timing ops"},
	{name: "vm.fastpath_frac", unit: "frac", better: "higher", moves: "op_ms_p50 on run, timing ops"},
	{name: "vm.icache_invalidated_words_per_op", unit: "count", better: "lower", moves: "op_ms_p90 on run, pathology ops"},
	{name: "core.decompressions_per_op", unit: "count", better: "lower", moves: "op_ms_p90 on run, pathology ops; exact"},
	{name: "core.evictions_per_op", unit: "count", better: "lower", moves: "op_ms_p90 on run, pathology ops; exact"},
	{name: "core.memo_hit_frac", unit: "frac", better: "higher", moves: "op_ms_p50 on run"},
	{name: "core.bits_read_per_op", unit: "count", better: "lower", moves: "op_ms_p90 on run, pathology ops"},
	{name: "core.stub_misses_per_op", unit: "count", better: "lower", moves: "op_ms_p90 on run, pathology ops"},
	{name: "huffman.table_hit_frac", unit: "frac", better: "higher", moves: "op_ms_p90 on run, pathology ops"},

	{name: "serve.front_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50, ops_per_s on serve; client round trip minus router Handle"},
	{name: "serve.front_ms_p99", unit: "ms", better: "lower", moves: "op_ms_p99 on serve"},
	{name: "cluster.route_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50, ops_per_s on serve; wrapped Router.Handle"},
	{name: "cluster.route_ms_p99", unit: "ms", better: "lower", moves: "op_ms_p99 on serve"},
	{name: "serve.backend_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50, ops_per_s on serve; backends' StatsSnapshot"},
	{name: "serve.backend_ms_p99", unit: "ms", better: "lower", moves: "op_ms_p99 on serve"},
	{name: "cluster.hop_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50, ops_per_s on serve; route minus backend"},
	{name: "profilefeed.handle_ms_p50", unit: "ms", better: "lower", moves: "push_ms_p50, push_per_s on serve; wrapped Collector.Handle"},
	{name: "profilefeed.handle_ms_p99", unit: "ms", better: "lower", moves: "push_ms_p99 on serve"},
	{name: "serve.push_front_ms_p50", unit: "ms", better: "lower", moves: "push_ms_p50, push_per_s on serve; push round trip minus Collector.Handle"},
	{name: "serve.cache_hit_frac", unit: "frac", better: "higher", moves: "op_ms_p50 on serve; backend result cache, measured interval"},
	{name: "serve.wire_bytes_per_op", unit: "bytes", better: "lower", moves: "op_ms_p50 on serve; read caller bytes in plus out"},
	{name: "cluster.backend_share_max", unit: "frac", better: "lower", moves: "op_ms_p99 on serve; busiest backend's share of requests"},
	{name: "profilefeed.resquashes", unit: "count", better: "lower", moves: "push_ms_p99 on serve; must stay 0"},

	{name: "go.gc_cycles_per_op", unit: "count", better: "lower", moves: "alloc_mb_per_op and tail latencies on all"},
	{name: "go.gc_cpu_frac", unit: "frac", better: "lower", moves: "alloc_mb_per_op and tail latencies on all"},

	{name: "obs.trace_overhead_frac", unit: "frac", better: "lower", moves: "none; op_ms_p50 of the traced half ÷ op_ms_p50 of the untraced half − 1"},
	{name: "obs.traced_op_ms_p50", unit: "ms", better: "lower", moves: "none; median latency over every op of the traced half"},
	{name: "obs.remainder_ms", unit: "ms", better: "lower", moves: "none; obs.traced_op_ms_p50 minus the blocking-path layer times of the workload"},
}

// blockingPath lists, per workload, the per-layer times that lie on an
// op's blocking path; obs.remainder_ms is what they leave unexplained.
var blockingPath = map[string][]string{
	"compile": {"cfg.decode_ms", "regions.select_ms", "buffersafe.analyze_ms", "core.layout_ms",
		"core.build_link_ms", "streamcomp.seq_build_ms", "huffman.train_ms", "streamcomp.encode_ms",
		"core.finalize_ms", "core.other_ms", "objfile.write_ms"},
	"run":   {"objfile.read_image_ms", "core.load_ms", "vm.self_ms", "core.hook_ms"},
	"serve": {"serve.front_ms_p50", "cluster.hop_ms_p50", "serve.backend_ms_p50"},
}

// workloadWhy is each workload's reason, as BENCHMARK.json gives it.
var workloadWhy = map[string]string{
	"compile": "squash plus image write of all 11 programs at 4 thetas; region selection dominates, VM and daemons idle",
	"run":     "load and run each squashed image on a timing input (VM stepping, hook check) and a pathology input (decompression runtime, icache)",
	"serve":   "router, two backends and a collector on unix sockets; warm cached squash frames and profile pushes contend for the cores",
}
