// Command squash is the paper's tool: it rewrites a (squeezed) object so
// that infrequently executed code is stored compressed and decompressed on
// demand at run time. The output is a linked executable image carrying the
// decompression metadata; em-run executes it.
//
// Usage:
//
//	em-run -in profile_input.bin -profile prog.prof prog.sq.o
//	squash -profile prog.prof -theta 0.0 prog.sq.o -o prog.sqz.exe
//	em-run -in timing_input.bin prog.sqz.exe
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/regions"
)

func main() {
	profIn := flag.String("profile", "", "basic-block profile from em-run -profile (required)")
	out := flag.String("o", "", "output image (default: input with .sqz.exe suffix)")
	theta := flag.Float64("theta", 0.0, "cold-code threshold θ (fraction of dynamic instructions)")
	k := flag.Int("K", 512, "runtime buffer bound in bytes")
	gamma := flag.Float64("gamma", 0.66, "assumed compression factor for region selection")
	noPack := flag.Bool("no-pack", false, "disable region packing")
	loopAware := flag.Bool("loop-aware", false, "seed regions from natural loops (§9 extension)")
	interpret := flag.Bool("interpret", false, "interpret compressed code in place instead of decompressing (§8 alternative)")
	noBufferSafe := flag.Bool("no-buffersafe", false, "disable buffer-safe call analysis")
	noUnswitch := flag.Bool("no-unswitch", false, "disable jump-table unswitching")
	mtf := flag.Bool("mtf", false, "use the move-to-front stream coder variant")
	coder := flag.String("coder", "stream", "region coder: stream (split-stream, §3) or lz (dictionary, §8)")
	ctStubs := flag.Bool("compile-time-stubs", false, "materialize restore stubs statically (ablation)")
	stubCap := flag.Int("stub-capacity", 16, "runtime restore-stub slots")
	workers := flag.Int("workers", 0, "worker goroutines for the squash pipeline (0 = one per CPU, 1 = serial); output is byte-identical at any count")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the pipeline stages here")
	metricsOut := flag.String("metrics", "", "write pipeline metrics as JSON here (\"-\" for stderr)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the squash run here")
	memProfile := flag.String("memprofile", "", "write a heap profile (post-squash) here")
	flag.Parse()
	if flag.NArg() != 1 || *profIn == "" {
		fmt.Fprintln(os.Stderr, "usage: squash -profile prog.prof [flags] prog.o")
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	obj, err := objfile.ReadObject(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	pf, err := os.Open(*profIn)
	if err != nil {
		fail(err)
	}
	counts, err := profile.ReadCounts(pf)
	pf.Close()
	if err != nil {
		fail(err)
	}

	conf := core.Config{
		Theta:                   *theta,
		BufferSafe:              !*noBufferSafe,
		Unswitch:                !*noUnswitch,
		MTF:                     *mtf,
		Coder:                   coderID(*coder),
		Interpret:               *interpret,
		CompileTimeRestoreStubs: *ctStubs,
		StubCapacity:            *stubCap,
		Workers:                 *workers,
	}
	conf.Regions.K = *k
	conf.Regions.Gamma = *gamma
	conf.Regions.Pack = !*noPack
	if *loopAware {
		conf.Regions.Strategy = regions.StrategyLoopAware
	}

	var rec *obs.Recorder
	if *traceOut != "" || *metricsOut != "" {
		rec = &obs.Recorder{Metrics: obs.NewRegistry()}
		if *traceOut != "" {
			rec.Trace = obs.NewTracer()
		}
	}
	if *cpuProfile != "" {
		cf, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer cf.Close()
		if err := pprof.StartCPUProfile(cf); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	res, err := core.SquashObs(obj, counts, conf, rec)
	if err != nil {
		fail(err)
	}
	writeTelemetry(rec, *traceOut, *metricsOut)
	if *memProfile != "" {
		if err := obs.WriteHeapProfile(*memProfile); err != nil {
			fail(err)
		}
	}

	name := *out
	if name == "" {
		name = flag.Arg(0) + ".sqz.exe"
	}
	of, err := os.Create(name)
	if err != nil {
		fail(err)
	}
	defer of.Close()
	if _, err := res.Image.WriteTo(of); err != nil {
		fail(err)
	}

	st := res.Stats
	fmt.Printf("%s: %d -> %d bytes (%.1f%% reduction), θ=%g K=%d\n",
		name, st.InputBytes, st.SquashedBytes, 100*st.Reduction(), *theta, *k)
	fmt.Printf("  cold %d / compressible %d / total %d instructions\n",
		st.ColdInsts, st.CompressibleInsts, st.TotalInsts)
	fmt.Printf("  %d regions, %d entry stubs, compression factor γ=%.3f\n",
		st.RegionCount, st.EntryStubCount, st.CompressionRatio)
	f7 := res.Foot
	fmt.Printf("  footprint: code %d + entry stubs %d + decompressor %d + offset table %d\n",
		f7.NeverCompressed, f7.EntryStubs, f7.Decompressor, f7.OffsetTable)
	fmt.Printf("             + compressed %d + tables %d + stub area %d + buffer %d\n",
		f7.CompressedCode, f7.CodeTables, f7.StubArea, f7.RuntimeBuffer)
	if st.Unswitched > 0 {
		fmt.Printf("  unswitched %d jump tables (%d data bytes reclaimed)\n",
			st.Unswitched, st.TableBytesReclaimed)
	}
	if st.CallsInRegions > 0 {
		fmt.Printf("  buffer-safe calls: %d / %d in compressed code\n",
			st.BufferSafeCalls, st.CallsInRegions)
	}
	if n := len(st.LoopSplitWarnings); n > 0 {
		fmt.Printf("  warning: %d loop(s) cross region boundaries; repeated\n", n)
		fmt.Printf("  decompression follows if they run hot (paper §7). First few:\n")
		for i, w := range st.LoopSplitWarnings {
			if i == 3 {
				break
			}
			fmt.Printf("    %s\n", w)
		}
	}
}

// writeTelemetry exports the run's spans (Chrome JSON plus a tree summary
// on stderr) and its metrics snapshot. No-op with a nil recorder.
func writeTelemetry(rec *obs.Recorder, traceOut, metricsOut string) {
	if rec == nil {
		return
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fail(err)
		}
		if err := rec.Trace.WriteChrome(f); err != nil {
			fail(err)
		}
		f.Close()
		fmt.Fprint(os.Stderr, rec.Trace.Summary())
	}
	if metricsOut != "" {
		w := os.Stderr
		if metricsOut != "-" {
			f, err := os.Create(metricsOut)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := rec.Metrics.WriteJSON(w); err != nil {
			fail(err)
		}
	}
}

func coderID(name string) int {
	switch name {
	case "stream":
		return core.CoderStream
	case "lz":
		return core.CoderLZ
	default:
		fail(fmt.Errorf("unknown coder %q (want stream or lz)", name))
		return 0
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "squash:", err)
	os.Exit(1)
}
