package vm

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/objfile"
	"repro/internal/testprog"
)

// runPair executes the same image twice — once through the predecoded fast
// path and once with DisableFastPath forcing the reference interpreter — and
// asserts that every piece of observable machine state agrees. The fast path
// is only a fast path if nothing simulated can tell it apart.
func runPair(t *testing.T, label string, im *objfile.Image, input []byte, icache, profile bool) {
	t.Helper()
	run := func(disable bool) (*Machine, error) {
		m := New(im, input)
		m.DisableFastPath = disable
		if icache {
			m.AttachICache(NewICache(1024, 32, 8))
		}
		if profile {
			m.EnableProfile()
		}
		return m, m.Run()
	}
	fast, ferr := run(false)
	slow, serr := run(true)
	if fmt.Sprint(ferr) != fmt.Sprint(serr) {
		t.Fatalf("%s: fast err %v, slow err %v", label, ferr, serr)
	}
	if fast.Status != slow.Status || fast.Halted != slow.Halted {
		t.Fatalf("%s: status %d/%v (fast) vs %d/%v (slow)", label, fast.Status, fast.Halted, slow.Status, slow.Halted)
	}
	if fast.Instructions != slow.Instructions {
		t.Fatalf("%s: %d instructions (fast) vs %d (slow)", label, fast.Instructions, slow.Instructions)
	}
	if fast.Cycles != slow.Cycles {
		t.Fatalf("%s: %d cycles (fast) vs %d (slow)", label, fast.Cycles, slow.Cycles)
	}
	if fast.PC != slow.PC {
		t.Fatalf("%s: PC %#x (fast) vs %#x (slow)", label, fast.PC, slow.PC)
	}
	if fast.Reg != slow.Reg {
		t.Fatalf("%s: register files diverge:\nfast %v\nslow %v", label, fast.Reg, slow.Reg)
	}
	if string(fast.Output) != string(slow.Output) {
		t.Fatalf("%s: output diverges: %q (fast) vs %q (slow)", label, fast.Output, slow.Output)
	}
	if profile {
		for i := range fast.Profile {
			if fast.Profile[i] != slow.Profile[i] {
				t.Fatalf("%s: profile[%d] = %d (fast) vs %d (slow)", label, i, fast.Profile[i], slow.Profile[i])
			}
		}
	}
	if icache && fast.ICache.MissRate() != slow.ICache.MissRate() {
		t.Fatalf("%s: icache miss rate %v (fast) vs %v (slow)", label, fast.ICache.MissRate(), slow.ICache.MissRate())
	}
}

func assembleImage(t *testing.T, src string) *objfile.Image {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// TestFastPathEquivalence runs randomized well-formed programs through both
// interpreters with every combination of icache model and profiling, and
// requires bit-identical machine state. This is the test the package doc
// promises: cycle-for-cycle equivalence over randomized programs.
func TestFastPathEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		im := assembleImage(t, testprog.Random(seed))
		input := []byte(fmt.Sprintf("fastpath equivalence %d", seed))
		for _, icache := range []bool{false, true} {
			for _, profile := range []bool{false, true} {
				label := fmt.Sprintf("seed %d icache=%v profile=%v", seed, icache, profile)
				runPair(t, label, im, input, icache, profile)
			}
		}
	}
}

// TestFastPathTrapEquivalence pins the error paths: both interpreters must
// produce the same trap, at the same PC, with the same message and the same
// counters, for every fault the fast path handles itself or defers.
func TestFastPathTrapEquivalence(t *testing.T) {
	cases := []struct{ name, body string }{
		{"div-zero", "li t0, 7\n        li t1, 0\n        div t0, t1, t2"},
		{"mod-zero", "li t0, 7\n        li t1, 0\n        mod t0, t1, t2"},
		{"load-oob", "li t0, 0x7FFFFF00\n        ldw t1, 0(t0)"},
		{"load-unaligned", "li t0, 0x10002\n        ldw t1, 1(t0)"},
		{"store-oob", "li t0, 0x7FFFFF00\n        stw t1, 0(t0)"},
		{"ldb-oob", "li t0, 0x7FFFFF00\n        ldb t1, 0(t0)"},
		{"stb-oob", "li t0, 0x7FFFFF00\n        stb t1, 0(t0)"},
		{"jump-wild", "li t0, 12\n        jmp zero, (t0)"},
		{"fall-off-end", "li t0, 1"},
	}
	for _, tc := range cases {
		src := "        .text\n        .func main\n        " + tc.body + "\n"
		if tc.name != "fall-off-end" {
			src += "        sys  halt\n"
		}
		runPair(t, tc.name, assembleImage(t, src), nil, false, false)
	}
}

// TestFastPathSelfModifyStore overwrites upcoming instructions with stw and
// stb through already-predecoded words, from a loop that itself stays
// cached: the invalidation hooks must keep the shadow decode coherent in
// both interpreters.
func TestFastPathSelfModifyStore(t *testing.T) {
	// The program reads the word at patchme, adds 1 to its literal field
	// (li a0, N assembles to lda a0, N(zero); Disp is the low 16 bits), and
	// stores it back — so each pass through the loop bumps the constant the
	// next pass loads. After 5 passes a0 is 45.
	src := `
        .text
        .func main
        li   t3, 5
loop:
        la   t0, patchme
        ldw  t1, 0(t0)
        add  t1, 1, t1
        stw  t1, 0(t0)
patchme:
        li   a0, 40
        sub  t3, 1, t3
        bne  t3, loop
        sys  halt
`
	im := assembleImage(t, src)
	runPair(t, "stw-patch", im, nil, false, false)
	m := New(im, nil)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Status != 45 {
		t.Fatalf("self-modifying loop: status %d, want 45", m.Status)
	}

	// Same shape, patching with a byte store into the instruction's low
	// byte (little-endian: byte 0 of the word is the low Disp byte).
	srcB := `
        .text
        .func main
        li   t3, 5
loop:
        la   t0, patchme
        ldb  t1, 0(t0)
        add  t1, 1, t1
        stb  t1, 0(t0)
patchme:
        li   a0, 40
        sub  t3, 1, t3
        bne  t3, loop
        sys  halt
`
	imB := assembleImage(t, srcB)
	runPair(t, "stb-patch", imB, nil, false, false)
	mb := New(imB, nil)
	if err := mb.Run(); err != nil {
		t.Fatal(err)
	}
	if mb.Status != 45 {
		t.Fatalf("byte-patching loop: status %d, want 45", mb.Status)
	}
}

// TestFastPathInvalidateRange predecodes a word, invalidates its range, and
// rewrites memory directly: the next Step must decode the new word, not
// dispatch the stale shadow entry.
func TestFastPathInvalidateRange(t *testing.T) {
	im := assembleImage(t, `
        .text
        .func main
        li   a0, 1
        sys  halt
`)
	m := New(im, nil)
	if err := m.Step(); err != nil { // predecode + execute "li a0, 1"
		t.Fatal(err)
	}
	// Rewrite the first instruction to "li a0, 9" behind the cache's back,
	// then jump PC there. Without InvalidateRange the stale µop would load 1.
	w, err := m.ReadWord(objfile.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteWord(objfile.TextBase, w&^0xFFFF|9); err != nil {
		t.Fatal(err)
	}
	m.InvalidateRange(objfile.TextBase, objfile.TextBase+4)
	m.PC = objfile.TextBase
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.Reg[isa.RegA0] != 9 {
		t.Fatalf("after invalidate+rewrite, a0 = %d, want 9", m.Reg[isa.RegA0])
	}
}

// TestRewriteSameWordKeepsDecode: a store of the value a text word already
// holds keeps its predecoded µop, through WriteWord and through stw and stb
// in both interpreters; a store of a different value is re-decoded.
func TestRewriteSameWordKeepsDecode(t *testing.T) {
	im := assembleImage(t, `
        .text
        .func main
        li   a0, 1
        sys  halt
`)
	m := New(im, nil)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	before := m.Telem
	w, err := m.ReadWord(objfile.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	rerun := func() {
		t.Helper()
		m.PC, m.Halted = objfile.TextBase, false
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WriteWord(objfile.TextBase, w); err != nil {
		t.Fatal(err)
	}
	rerun()
	if m.Telem.Predecodes != before.Predecodes || m.Telem.InvalidatedWords != before.InvalidatedWords {
		t.Fatalf("same-value rewrite: predecodes %d→%d, invalidated %d→%d",
			before.Predecodes, m.Telem.Predecodes, before.InvalidatedWords, m.Telem.InvalidatedWords)
	}
	// "li a0, 1" → "li a0, 9": the low 16 bits are the literal.
	if err := m.WriteWord(objfile.TextBase, w&^0xFFFF|9); err != nil {
		t.Fatal(err)
	}
	rerun()
	if m.Status != 9 {
		t.Fatalf("after rewrite, status %d, want 9", m.Status)
	}
	if m.Telem.InvalidatedWords != before.InvalidatedWords+1 || m.Telem.Predecodes != before.Predecodes+1 {
		t.Fatalf("changed rewrite: predecodes %d→%d, invalidated %d→%d, want one each",
			before.Predecodes, m.Telem.Predecodes, before.InvalidatedWords, m.Telem.InvalidatedWords)
	}

	// Programs that store a text word's own word and byte back over it.
	for _, store := range []string{"ldw t1, 0(t0)\n        stw t1, 0(t0)", "ldb t1, 0(t0)\n        stb t1, 0(t0)"} {
		im := assembleImage(t, `
        .text
        .func main
        li   t3, 5
loop:   la   t0, loop
        `+store+`
        sub  t3, 1, t3
        bne  t3, loop
        sys  halt
`)
		runPair(t, store, im, nil, false, false)
		for _, disable := range []bool{false, true} {
			m := New(im, nil)
			m.DisableFastPath = disable
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if m.Telem.InvalidatedWords != 0 {
				t.Fatalf("%q (slow=%v): %d words invalidated, want 0", store, disable, m.Telem.InvalidatedWords)
			}
		}
	}
}
