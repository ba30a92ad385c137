package core

import (
	"flag"
	"fmt"

	"repro/internal/regions"
)

// BindFlags defines on fs the squash-configuration flags (-theta through
// -workers) that cmd/squash, squashd and squashprofd share. The returned
// function builds the Config from their values once fs is parsed; it fails
// only on an unknown -coder name.
func BindFlags(fs *flag.FlagSet) func() (Config, error) {
	theta := fs.Float64("theta", 0.0, "cold-code threshold θ (fraction of dynamic instructions)")
	k := fs.Int("K", 512, "runtime buffer bound in bytes")
	gamma := fs.Float64("gamma", 0.66, "assumed compression factor for region selection")
	noPack := fs.Bool("no-pack", false, "disable region packing")
	loopAware := fs.Bool("loop-aware", false, "seed regions from natural loops (§9 extension)")
	interpret := fs.Bool("interpret", false, "interpret compressed code in place instead of decompressing (§8 alternative)")
	noBufferSafe := fs.Bool("no-buffersafe", false, "disable buffer-safe call analysis")
	noUnswitch := fs.Bool("no-unswitch", false, "disable jump-table unswitching")
	mtf := fs.Bool("mtf", false, "use the move-to-front stream coder variant")
	coder := fs.String("coder", "stream", "region coder: stream (split-stream, §3) or lz (dictionary, §8)")
	ctStubs := fs.Bool("compile-time-stubs", false, "materialize restore stubs statically (ablation)")
	stubCap := fs.Int("stub-capacity", 16, "runtime restore-stub slots")
	workers := fs.Int("workers", 0, "worker goroutines for the squash pipeline (0 = one per CPU, 1 = serial); output is byte-identical at any count")
	return func() (Config, error) {
		conf := Config{
			Theta:                   *theta,
			BufferSafe:              !*noBufferSafe,
			Unswitch:                !*noUnswitch,
			MTF:                     *mtf,
			Interpret:               *interpret,
			CompileTimeRestoreStubs: *ctStubs,
			StubCapacity:            *stubCap,
			Workers:                 *workers,
		}
		switch *coder {
		case "stream":
			conf.Coder = CoderStream
		case "lz":
			conf.Coder = CoderLZ
		default:
			return Config{}, fmt.Errorf("unknown coder %q (want stream or lz)", *coder)
		}
		conf.Regions.K = *k
		conf.Regions.Gamma = *gamma
		conf.Regions.Pack = !*noPack
		if *loopAware {
			conf.Regions.Strategy = regions.StrategyLoopAware
		}
		return conf, nil
	}
}
