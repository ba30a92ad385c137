package core

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// TestSquashPoolingOnOffByteIdentical is the pipeline-level pooling
// invariant: with every pool enabled (run repeatedly so warm, recycled
// buffers are actually exercised) and with pools disabled, the squashed
// image and metadata are byte-identical — across coders, MTF, interpreted
// regions, and worker counts.
func TestSquashPoolingOnOffByteIdentical(t *testing.T) {
	defer SetPooling(true)
	src := testprog.Random(23)
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatal(err)
	}
	pm := vm.New(im, []byte("pooling pooling"))
	pm.EnableProfile()
	if err := pm.Run(); err != nil {
		t.Fatal(err)
	}

	confs := map[string]Config{"default": DefaultConfig()}
	lz := DefaultConfig()
	lz.Coder = CoderLZ
	confs["lz"] = lz
	mtf := DefaultConfig()
	mtf.MTF = true
	mtf.Theta = 0.01
	confs["mtf"] = mtf
	interp := DefaultConfig()
	interp.Interpret = true
	confs["interp"] = interp

	for name, conf := range confs {
		SetPooling(false)
		conf.Workers = 1
		want := obsSquashDigest(t, obj, pm.Profile, conf, nil)

		SetPooling(true)
		for _, workers := range []int{1, 4} {
			conf.Workers = workers
			for cycle := 0; cycle < 3; cycle++ { // cycle 0 cold pools, later ones warm
				if got := obsSquashDigest(t, obj, pm.Profile, conf, nil); got != want {
					t.Fatalf("%s: workers=%d cycle=%d: pooled squash diverged from pools-off squash",
						name, workers, cycle)
				}
			}
		}
	}
}

// TestRunPoolingOnOffIdentical is the runtime-level pooling invariant: a
// squashed image runs under the decompression runtime with identical
// output, exit status, instruction and cycle counts, and RuntimeStats with
// pooling off and on (on twice, so the second run draws warm, recycled
// bit readers). The mediabench leg also squashes with pooling off and
// requires the image to match the pooled one byte for byte.
func TestRunPoolingOnOffIdentical(t *testing.T) {
	defer SetPooling(true)

	run := func(t *testing.T, out *Output, input []byte) (*vm.Machine, RuntimeStats) {
		t.Helper()
		rt, err := NewRuntime(out.Meta)
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		m := vm.New(out.Image, input)
		rt.Install(m)
		if err := m.Run(); err != nil {
			t.Fatalf("squashed run: %v", err)
		}
		return m, rt.Stats
	}
	check := func(t *testing.T, out *Output, input []byte) {
		t.Helper()
		SetPooling(false)
		wantM, wantStats := run(t, out, input)
		SetPooling(true)
		for cycle := 0; cycle < 2; cycle++ {
			m, stats := run(t, out, input)
			switch {
			case !bytes.Equal(m.Output, wantM.Output):
				t.Fatalf("cycle %d: output differs with pooling on", cycle)
			case m.Status != wantM.Status:
				t.Fatalf("cycle %d: status %d (pooled) vs %d", cycle, m.Status, wantM.Status)
			case m.Instructions != wantM.Instructions || m.Cycles != wantM.Cycles:
				t.Fatalf("cycle %d: %d insts / %d cycles (pooled) vs %d / %d", cycle,
					m.Instructions, m.Cycles, wantM.Instructions, wantM.Cycles)
			case stats != wantStats:
				t.Fatalf("cycle %d: runtime stats diverge:\n  pooled %+v\n  off    %+v", cycle, stats, wantStats)
			}
		}
		if wantStats.Decompressions == 0 {
			t.Fatal("no decompressions; the pooled bit readers went unused")
		}
	}

	t.Run("testprog", func(t *testing.T) {
		// θ = 1 compresses every block, so the run decompresses on every
		// call into the function tree.
		input := []byte("runtime pooling equivalence")
		obj, _, counts := prepare(t, testprog.Random(23), input)
		conf := DefaultConfig()
		conf.Theta = 1
		conf.Regions.K = 64
		out, err := Squash(obj, counts, conf)
		if err != nil {
			t.Fatalf("Squash: %v", err)
		}
		check(t, out, input)
	})

	t.Run("adpcm", func(t *testing.T) {
		spec, ok := mediabench.SpecByName("adpcm")
		if !ok {
			t.Fatal("no adpcm spec")
		}
		obj, _, counts := prepare(t, spec.Generate(), spec.ProfilingInput())
		conf := DefaultConfig()
		SetPooling(false)
		off, err := Squash(obj, counts, conf)
		if err != nil {
			t.Fatalf("Squash (pooling off): %v", err)
		}
		SetPooling(true)
		out, err := Squash(obj, counts, conf)
		if err != nil {
			t.Fatalf("Squash: %v", err)
		}
		if outputDigest(t, off) != outputDigest(t, out) {
			t.Fatal("image squashed with pooling off differs from the pooled one")
		}
		check(t, out, spec.TimingInput())
	})
}

// TestEncodeScratchPartition checks the arena slicing contract directly:
// subslices are empty, have the exact requested capacities, are disjoint,
// and recycle without growth.
func TestEncodeScratchPartition(t *testing.T) {
	sc := new(encodeScratch)
	counts := []int{3, 0, 5, 1}
	seqs := sc.partition(counts)
	if len(seqs) != len(counts) {
		t.Fatalf("partition returned %d seqs, want %d", len(seqs), len(counts))
	}
	for i, s := range seqs {
		if len(s) != 0 || cap(s) != counts[i] {
			t.Fatalf("seq %d: len=%d cap=%d, want len=0 cap=%d", i, len(s), cap(s), counts[i])
		}
	}
	// Fill every subslice to capacity and check disjointness via values.
	for i := range seqs {
		for k := 0; k < counts[i]; k++ {
			seqs[i] = append(seqs[i], vmInstMarker(i))
		}
	}
	for i, s := range seqs {
		for k := range s {
			if s[k] != vmInstMarker(i) {
				t.Fatalf("seq %d entry %d overwritten by another region's append", i, k)
			}
		}
	}
	arenaCap := cap(sc.arena)
	seqs2 := sc.partition(counts)
	if cap(sc.arena) != arenaCap {
		t.Fatalf("repartition with equal counts grew the arena %d -> %d", arenaCap, cap(sc.arena))
	}
	if len(seqs2) != len(counts) {
		t.Fatalf("repartition returned %d seqs", len(seqs2))
	}
}

// vmInstMarker builds a distinguishable instruction per region index.
func vmInstMarker(i int) (in isa.Inst) {
	in.Op = uint32(i + 1)
	return in
}
