package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/objfile"
	"repro/internal/regions"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// FuzzSquash is the native fuzz entry for `go test -fuzz=FuzzSquash`: the
// fuzzer picks a program seed, a config word, and a run input, and the
// target checks that the squashed binary reproduces the baseline behaviour.
// The CI fuzz-smoke job runs it for a short fixed budget.
func FuzzSquash(f *testing.F) {
	f.Add(int64(0), uint16(0), []byte(""))
	f.Add(int64(3), uint16(0x5a5a), []byte("squash me 123"))
	f.Add(int64(17), uint16(0xffff), []byte{0, 1, 2, 3, 250, 251, 252, 253})
	f.Fuzz(func(t *testing.T, seed int64, confBits uint16, input []byte) {
		if len(input) > 256 {
			input = input[:256]
		}
		src := testprog.Random(seed)
		obj, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		im, err := objfile.Link("main", obj)
		if err != nil {
			t.Fatalf("seed %d: link: %v", seed, err)
		}
		prof := vm.New(im, input)
		prof.EnableProfile()
		if err := prof.Run(); err != nil {
			t.Fatalf("seed %d: profile run: %v", seed, err)
		}

		conf := DefaultConfig()
		conf.Theta = []float64{0, 0.001, 0.5, 1}[confBits&3]
		conf.Regions.K = []int{64, 96, 128, 512}[confBits>>2&3]
		conf.Regions.Pack = confBits>>4&1 == 0
		conf.BufferSafe = confBits>>5&1 == 0
		conf.MTF = confBits>>6&1 == 1
		conf.CompileTimeRestoreStubs = confBits>>7&1 == 1
		conf.Interpret = confBits>>8&1 == 1
		if confBits>>9&1 == 1 {
			conf.Regions.Strategy = regions.StrategyLoopAware
		}
		conf.Workers = []int{1, 0, 2, 8}[confBits>>10&3]
		out, err := Squash(obj, prof.Profile, conf)
		if err != nil {
			t.Fatalf("seed %d: squash (%+v): %v", seed, conf, err)
		}

		base := vm.New(im, input)
		base.StackCheck = true
		if err := base.Run(); err != nil {
			t.Fatalf("seed %d: baseline: %v", seed, err)
		}
		rt, err := NewRuntime(out.Meta)
		if err != nil {
			t.Fatalf("seed %d: runtime: %v", seed, err)
		}
		sq := vm.New(out.Image, input)
		sq.StackCheck = true
		rt.Install(sq)
		if err := sq.Run(); err != nil {
			t.Fatalf("seed %d conf %+v: squashed run: %v", seed, conf, err)
		}
		if string(base.Output) != string(sq.Output) || base.Status != sq.Status {
			t.Fatalf("seed %d conf %+v: behaviour diverged", seed, conf)
		}
	})
}

// FuzzUnmarshalMeta feeds arbitrary bytes to UnmarshalMeta and then to the
// coder-table decoder behind Compressor, seeded with the metadata of a
// program squashed by the split-stream, MTF and LZ coders. Neither may
// panic or over-allocate, and any metadata UnmarshalMeta accepts must
// serialize back to the same bytes.
func FuzzUnmarshalMeta(f *testing.F) {
	obj, err := asm.Assemble(testprog.Random(1))
	if err != nil {
		f.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		f.Fatal(err)
	}
	m := vm.New(im, []byte("profile input"))
	m.EnableProfile()
	if err := m.Run(); err != nil {
		f.Fatal(err)
	}
	for _, set := range []func(*Config){
		func(*Config) {},
		func(c *Config) { c.MTF = true },
		func(c *Config) { c.Coder = CoderLZ },
	} {
		conf := DefaultConfig()
		conf.Theta = 0.5
		set(&conf)
		out, err := Squash(obj, m.ProfileCounts(), conf)
		if err != nil {
			f.Fatal(err)
		}
		if len(out.Meta.OffsetTable) == 0 {
			f.Fatal("seed program squashed to no regions")
		}
		f.Add(out.Image.Meta)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, err := UnmarshalMeta(data)
		if err != nil {
			return
		}
		back, err := meta.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of accepted metadata failed: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted metadata does not round-trip: %d bytes in, %d out", len(data), len(back))
		}
		meta.Compressor()
	})
}

// FuzzRunSquashedImage mutates a squashed image and its input and runs the
// result twice under a small instruction budget: with the fast paths (the
// predecoded VM, the region memo, the table-driven decoders) and without.
// Images that fail to read, whose metadata fails to decode, or that no
// runtime accepts are skipped. The rest may trap or loop, but never panic,
// and both runs must agree on everything simulated.
func FuzzRunSquashedImage(f *testing.F) {
	for _, mod := range []func(*Config){
		nil,
		func(c *Config) { c.Interpret = true },
		func(c *Config) { c.Coder = CoderLZ },
	} {
		var buf bytes.Buffer
		if _, err := squashTestProgram(f, mod).Image.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), timingInput)
	}

	type result struct {
		err           string
		output        string
		status        int32
		insts, cycles uint64
		stats         RuntimeStats
	}
	f.Fuzz(func(t *testing.T, image, input []byte) {
		if len(input) > 256 {
			input = input[:256]
		}
		im, err := objfile.ReadImage(bytes.NewReader(image))
		if err != nil {
			return
		}
		meta, err := UnmarshalMeta(im.Meta)
		if err != nil {
			return
		}
		run := func(fast bool) *result {
			rt, err := NewRuntime(meta)
			if err != nil {
				return nil
			}
			rt.SetFastPath(fast)
			m := vm.New(im, input)
			m.DisableFastPath = !fast
			m.MaxInstructions = 200_000
			rt.Install(m)
			err = m.Run()
			return &result{fmt.Sprint(err), string(m.Output), m.Status, m.Instructions, m.Cycles, rt.Stats}
		}
		fast := run(true)
		if fast == nil {
			return
		}
		if slow := run(false); *slow != *fast {
			t.Fatalf("fast and reference runs diverge:\nfast %+v\nslow %+v", *fast, *slow)
		}
	})
}
