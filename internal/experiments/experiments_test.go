package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// quickSuiteCache shares one small-scale suite across the package's tests.
var quickSuiteCache *Suite

func quickSuite(t *testing.T) *Suite {
	t.Helper()
	if quickSuiteCache == nil {
		s, err := LoadCachedObs(0.05, 0, "", nil)
		if err != nil {
			t.Fatalf("LoadCachedObs: %v", err)
		}
		quickSuiteCache = s
	}
	return quickSuiteCache
}

// atof parses a float cell ("1.234") and atopct a percentage cell ("12.3%").
func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("bad float cell %q: %v", s, err)
	}
	return v
}

func atopct(t *testing.T, s string) float64 {
	t.Helper()
	return atof(t, strings.TrimSuffix(strings.TrimSpace(s), "%")) / 100
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		t.Fatalf("bad int cell %q: %v", s, err)
	}
	return v
}

func TestTable1MatchesPaperWithinTolerance(t *testing.T) {
	s := quickSuite(t)
	tab := Table1(s)
	if len(tab.Rows) != 11 {
		t.Fatalf("%d rows, want 11", len(tab.Rows))
	}
	for _, b := range s.Benches {
		in := float64(b.InputInsts) / float64(b.Spec.TargetInput)
		sq := float64(b.SqueezedInsts()) / float64(b.Spec.TargetSqueeze)
		if in < 0.95 || in > 1.05 || sq < 0.93 || sq > 1.07 {
			t.Errorf("%s: input ratio %.3f squeeze ratio %.3f", b.Spec.Name, in, sq)
		}
	}
}

func TestFig4Monotone(t *testing.T) {
	s := quickSuite(t)
	tab, err := Fig4(s, []float64{0, 0.001, 0.01, 1})
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, row := range tab.Rows {
		cold := atopct(t, row[1])
		comp := atopct(t, row[2])
		if cold+1e-9 < prev {
			t.Errorf("cold fraction fell: %v after %v", cold, prev)
		}
		if comp > cold+1e-9 {
			t.Errorf("compressible %v exceeds cold %v", comp, cold)
		}
		prev = cold
	}
	last := tab.Rows[len(tab.Rows)-1]
	if cold := atopct(t, last[1]); cold < 0.999 {
		t.Errorf("cold at θ=1 is %v, want 100%%", cold)
	}
}

func TestFig6ReductionGrowsWithTheta(t *testing.T) {
	s := quickSuite(t)
	tab, err := Fig6(s, []float64{0, 0.01, 1})
	if err != nil {
		t.Fatal(err)
	}
	mean := tab.Rows[len(tab.Rows)-1]
	r0 := atopct(t, mean[1])
	r1 := atopct(t, mean[3])
	if r1 <= r0 {
		t.Errorf("mean reduction did not grow: θ=0 %.3f vs θ=1 %.3f", r0, r1)
	}
	if r0 < 0.05 {
		t.Errorf("θ=0 reduction %.3f implausibly small", r0)
	}
}

func TestFig7TimeGrowsWithThetaAndSizeShrinks(t *testing.T) {
	s := quickSuite(t)
	ta, tb, err := Fig7(s, []float64{0, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	tmean := tb.Rows[len(tb.Rows)-1]
	t0 := atof(t, tmean[1])
	t1 := atof(t, tmean[2])
	if t1 <= t0 {
		t.Errorf("overhead did not grow with θ: %.3f -> %.3f", t0, t1)
	}
	if t0 > 1.6 {
		t.Errorf("θ=0 overhead ×%.3f too large", t0)
	}
	smean := ta.Rows[len(ta.Rows)-1]
	s0 := atof(t, smean[1])
	s1 := atof(t, smean[2])
	if s0 >= 1 || s1 >= s0 {
		t.Errorf("size ratios not shrinking: %.3f, %.3f", s0, s1)
	}
}

func TestFig3BufferSweepHasInteriorMinimum(t *testing.T) {
	s := quickSuite(t)
	tab, err := Fig3(s, []int{64, 512, 4096}, []float64{0.01})
	if err != nil {
		t.Fatal(err)
	}
	mid := atof(t, tab.Rows[1][1])
	lo := atof(t, tab.Rows[0][1])
	hi := atof(t, tab.Rows[2][1])
	if mid >= lo || mid >= hi {
		t.Logf("note: K=512 (%v) not strictly below K=64 (%v) and K=4096 (%v) at this scale", mid, lo, hi)
	}
	if mid > 1.0 {
		t.Errorf("K=512 ratio %v exceeds 1: no compression achieved", mid)
	}
}

func TestGammaInPlausibleRange(t *testing.T) {
	s := quickSuite(t)
	tab, err := GammaStats(s)
	if err != nil {
		t.Fatal(err)
	}
	mean := tab.Rows[len(tab.Rows)-1]
	g := atof(t, mean[1])
	if g < 0.3 || g > 0.9 {
		t.Errorf("geo-mean γ = %v outside plausible range", g)
	}
}

func TestBufferSafeFractionsPositive(t *testing.T) {
	s := quickSuite(t)
	tab, err := BufferSafeStats(s)
	if err != nil {
		t.Fatal(err)
	}
	positive := 0
	for _, row := range tab.Rows[:len(tab.Rows)-1] {
		if atoi(t, row[1]) > 0 {
			positive++
		}
	}
	if positive < 6 {
		t.Errorf("only %d/11 programs have buffer-safe calls", positive)
	}
}

func TestRunNames(t *testing.T) {
	s := quickSuite(t)
	if _, err := Run(s, "nonesuch"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	outStr, err := Run(s, "table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(outStr, "adpcm") {
		t.Fatal("table1 output missing benchmarks")
	}
	if len(Names()) < 10 {
		t.Fatal("experiment registry too small")
	}
}

func TestStubStatsBounded(t *testing.T) {
	s := quickSuite(t)
	tab, err := StubStats(s)
	if err != nil {
		t.Fatal(err)
	}
	last := tab.Rows[len(tab.Rows)-1]
	maxLive := atoi(t, last[1])
	if maxLive < 1 || maxLive > 64 {
		t.Errorf("max live stubs = %d", maxLive)
	}
	// Compile-time stubs cost more of the never-compressed code at the
	// aggressive threshold, as in the paper (13% → 27%).
	f0 := atopct(t, last[2])
	f1 := atopct(t, last[3])
	if f1 <= f0 {
		t.Errorf("static stub fraction did not grow with θ: %.3f -> %.3f", f0, f1)
	}
}

func TestPathologySlowsDown(t *testing.T) {
	s := quickSuite(t)
	tab, err := Pathology(s)
	if err != nil {
		t.Fatal(err)
	}
	normal := atof(t, tab.Rows[0][3])
	pathological := atof(t, tab.Rows[1][3])
	if pathological <= normal {
		t.Errorf("pathological input not slower: %.3f vs %.3f", pathological, normal)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"x", "1"}, {"yyyy", "2"}},
		Notes:  []string{"note"},
	}
	out := tab.Render()
	for _, want := range []string{"## demo", "long-header", "yyyy", "note", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestInterpComparisonShape(t *testing.T) {
	s := quickSuite(t)
	tab, err := InterpComparison(s)
	if err != nil {
		t.Fatal(err)
	}
	mean := tab.Rows[len(tab.Rows)-1]
	sizeDec := atof(t, mean[1])
	sizeItp := atof(t, mean[2])
	if sizeDec >= 1 || sizeItp >= 1 {
		t.Errorf("no compression: dec %.3f interp %.3f", sizeDec, sizeItp)
	}
	t.Logf("size dec %.3f vs interp %.3f; time dec %s vs interp %s",
		sizeDec, sizeItp, mean[3], mean[4])
}

func TestICacheStatsEquivalenceAndShape(t *testing.T) {
	s := quickSuite(t)
	small := &Suite{Benches: s.Benches[:3], Scale: s.Scale}
	tab, err := ICacheStats(small, 8*1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if atof(t, row[1]) > 0.5 || atof(t, row[2]) > 0.5 {
			t.Errorf("%s: implausible miss rates %s / %s", row[0], row[1], row[2])
		}
	}
}
