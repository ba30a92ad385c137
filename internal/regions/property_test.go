package regions

import (
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/mediabench"
	"repro/internal/testprog"
)

// TestPartitionPropertiesOnRealProgram checks the §4 invariants against a
// full generated benchmark under randomized cold sets and buffer bounds:
// every region respects K, regions never overlap, every compressed block is
// cold, and every region has at least one entry unless it is unreachable.
func TestPartitionPropertiesOnRealProgram(t *testing.T) {
	spec, ok := mediabench.SpecByName("g721_dec")
	if !ok {
		t.Fatal("spec missing")
	}
	obj, err := asm.Assemble(spec.Generate())
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		cold := map[string]bool{}
		frac := 0.2 + 0.7*rng.Float64()
		for _, f := range p.Funcs {
			// Cold at function granularity plus random extra blocks, a
			// rough stand-in for arbitrary profiles.
			fnCold := rng.Float64() < frac
			for _, b := range f.Blocks {
				if fnCold || rng.Float64() < 0.15 {
					cold[b.Label] = true
				}
			}
		}
		conf := DefaultConfig()
		conf.K = []int{128, 256, 512, 2048}[rng.Intn(4)]
		conf.Pack = rng.Intn(2) == 0

		res, preds, err := Partition(p, cold, conf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		maxWords := conf.K / isa.WordSize
		seen := map[string]int{}
		for _, r := range res.Regions {
			if w := BufferWords(r, nil); w > maxWords {
				t.Fatalf("trial %d: region %d needs %d words > %d", trial, r.ID, w, maxWords)
			}
			for _, b := range r.Blocks {
				if prev, dup := seen[b.Label]; dup {
					t.Fatalf("trial %d: block %s in regions %d and %d", trial, b.Label, prev, r.ID)
				}
				seen[b.Label] = r.ID
				if !cold[b.Label] {
					t.Fatalf("trial %d: warm block %s compressed", trial, b.Label)
				}
				if res.InRegion[b.Label] != r.ID {
					t.Fatalf("trial %d: InRegion inconsistent for %s", trial, b.Label)
				}
			}
		}
		for label, id := range res.InRegion {
			if seen[label] != id {
				t.Fatalf("trial %d: InRegion lists %s in %d but region slices disagree", trial, label, id)
			}
		}
		// CompressibleInsts equals the instructions inside regions.
		sum := 0
		for _, r := range res.Regions {
			sum += r.NumInsts()
		}
		if sum != res.CompressibleInsts {
			t.Fatalf("trial %d: CompressibleInsts %d != %d", trial, res.CompressibleInsts, sum)
		}
		_ = preds
	}
}

// TestPackingNeverIncreasesRegionCount: the packed partition of the same
// inputs has at most as many regions and identical block coverage.
func TestPackingNeverIncreasesRegionCount(t *testing.T) {
	spec, _ := mediabench.SpecByName("adpcm")
	obj, err := asm.Assemble(spec.Generate())
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	cold := map[string]bool{}
	for _, f := range p.Funcs {
		if f.Name != "main" {
			for _, b := range f.Blocks {
				cold[b.Label] = true
			}
		}
	}
	unpacked := DefaultConfig()
	unpacked.Pack = false
	ru, _, err := Partition(p, cold, unpacked)
	if err != nil {
		t.Fatal(err)
	}
	rp, _, err := Partition(p, cold, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Regions) > len(ru.Regions) {
		t.Fatalf("packing increased regions: %d -> %d", len(ru.Regions), len(rp.Regions))
	}
	if rp.CompressibleInsts != ru.CompressibleInsts {
		t.Fatalf("packing changed coverage: %d vs %d", rp.CompressibleInsts, ru.CompressibleInsts)
	}
}

// TestLoopAwareStrategyKeepsLoopsTogether: with the loop-aware strategy, a
// compressible loop that fits the buffer lands in exactly one region.
func TestLoopAwareStrategyKeepsLoopsTogether(t *testing.T) {
	src := `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        bsr  ra, coldloop
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        clr  a0
        sys  halt
        .func coldloop
        li   t0, 8
        li   t2, 1
cl_hdr: add  t2, 3, t2
        xor  t2, 5, t3
        and  t3, 255, t2
        sub  t2, 1, t3
        add  t3, t2, t2
        sll  t2, 1, t3
        srl  t3, 1, t2
cl_mid: xor  t2, 9, t2
        add  t2, 1, t2
        sub  t0, 1, t0
        bgt  t0, cl_hdr
        mov  t2, v0
        ret
`
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	cold := map[string]bool{}
	for _, f := range p.Funcs {
		if f.Name == "coldloop" {
			for _, b := range f.Blocks {
				cold[b.Label] = true
			}
		}
	}
	conf := DefaultConfig()
	conf.Strategy = StrategyLoopAware
	conf.Pack = false
	res, _, err := Partition(p, cold, conf)
	if err != nil {
		t.Fatal(err)
	}
	hdr, okH := res.InRegion["cl_hdr"]
	mid, okM := res.InRegion["cl_mid"]
	if !okH || !okM || hdr != mid {
		t.Fatalf("loop split: cl_hdr in %d (%v), cl_mid in %d (%v)", hdr, okH, mid, okM)
	}
}

// accountingBlocks builds testprog program seed and returns its blocks with
// their costs, plus a label index for following fallthrough edges.
func accountingBlocks(t *testing.T, seed int64) ([]*cfg.Block, map[string]*cfg.Block, costs) {
	t.Helper()
	obj, err := asm.Assemble(testprog.Random(seed))
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	var all []*cfg.Block
	byLabel := map[string]*cfg.Block{}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			all = append(all, b)
			byLabel[b.Label] = b
		}
	}
	return all, byLabel, blockCosts(byLabel)
}

// nextBlock picks the block to append after tail: half the time tail's
// fallthrough successor when it has one, so knitted boundaries are common;
// otherwise any block.
func nextBlock(rng *rand.Rand, all []*cfg.Block, byLabel map[string]*cfg.Block, tail *cfg.Block) *cfg.Block {
	if tail != nil && tail.FallsTo != "" && rng.Intn(2) == 0 {
		return byLabel[tail.FallsTo]
	}
	return all[rng.Intn(len(all))]
}

// TestIncrementalWordsMatchBufferWords checks the DFS's incremental buffer
// accounting against the from-scratch BufferWords(r, nil) on random block
// sequences: pushing a block adds appendWords, and popping it (the DFS
// rejecting it) restores the count from before the push.
func TestIncrementalWordsMatchBufferWords(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		all, byLabel, cost := accountingBlocks(t, seed)
		rng := rand.New(rand.NewSource(seed))
		var seq []*cfg.Block
		stack := []int{1} // words before each push; the top is current
		for step := 0; step < 400; step++ {
			if len(seq) > 0 && rng.Intn(3) == 0 {
				seq = seq[:len(seq)-1]
				stack = stack[:len(stack)-1]
			} else {
				var tail *cfg.Block
				if len(seq) > 0 {
					tail = seq[len(seq)-1]
				}
				b := nextBlock(rng, all, byLabel, tail)
				stack = append(stack, stack[len(stack)-1]+cost.appendWords(tail, b))
				seq = append(seq, b)
			}
			want := BufferWords(&Region{Blocks: seq}, nil)
			if got := stack[len(stack)-1]; got != want {
				t.Fatalf("seed %d step %d: incremental %d words, BufferWords %d", seed, step, got, want)
			}
		}
	}
}

// TestConcatWordsMatchBufferWords checks the O(1) merged size against
// BufferWords(r, nil) of the concatenation, with and without a fallthrough
// knit at the boundary.
func TestConcatWordsMatchBufferWords(t *testing.T) {
	var knit, plain int
	for seed := int64(1); seed <= 20; seed++ {
		all, byLabel, _ := accountingBlocks(t, seed)
		rng := rand.New(rand.NewSource(seed))
		randSeq := func(first *cfg.Block) []*cfg.Block {
			seq := []*cfg.Block{first}
			for n := rng.Intn(6); n > 0; n-- {
				seq = append(seq, nextBlock(rng, all, byLabel, seq[len(seq)-1]))
			}
			return seq
		}
		for trial := 0; trial < 200; trial++ {
			a := &Region{Blocks: randSeq(all[rng.Intn(len(all))])}
			last := a.Blocks[len(a.Blocks)-1]
			first := all[rng.Intn(len(all))]
			if last.FallsTo != "" && trial%2 == 0 {
				first = byLabel[last.FallsTo]
			}
			b := &Region{Blocks: randSeq(first)}
			if last.FallsTo == first.Label {
				knit++
			} else {
				plain++
			}
			ab := &Region{Blocks: append(append([]*cfg.Block{}, a.Blocks...), b.Blocks...)}
			want := BufferWords(ab, nil)
			if got := concatWords(a, b, BufferWords(a, nil), BufferWords(b, nil)); got != want {
				t.Fatalf("seed %d trial %d: concatWords %d, BufferWords %d (knit %v)",
					seed, trial, got, want, last.FallsTo == first.Label)
			}
		}
	}
	if knit < 100 || plain < 100 {
		t.Fatalf("too few cases: %d knitted, %d plain boundaries", knit, plain)
	}
}
