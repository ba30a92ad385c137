package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mediabench"
)

// benchFingerprint serializes everything a prepared Bench carries into the
// experiments: the squeezed object, the linked image, the profile, and the
// scalar statistics.
func benchFingerprint(t *testing.T, b *Bench) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := b.SqObj.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SqImage.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Profile.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	writeInts := func(vals ...int) {
		for _, v := range vals {
			buf.WriteByte(byte(v))
			buf.WriteByte(byte(v >> 8))
			buf.WriteByte(byte(v >> 16))
			buf.WriteByte(byte(v >> 24))
		}
	}
	st := b.SqueezeStats
	writeInts(b.InputInsts, st.InputInsts, st.OutputInsts, st.FuncsRemoved, st.BlocksRemoved,
		st.InstsUnreachable, st.NopsRemoved, st.AbstractedFuncs, st.AbstractedSavings)
	return buf.Bytes()
}

func adpcmSpec(t *testing.T) mediabench.Spec {
	t.Helper()
	spec, ok := mediabench.SpecByName("adpcm")
	if !ok {
		t.Fatal("adpcm spec missing")
	}
	return spec
}

// TestPrepCacheHitMatchesMiss: a Bench served from the disk cache, from the
// memory cache, and recomputed from scratch must be byte-identical — the
// invariant that keeps cached experiment runs trustworthy.
func TestPrepCacheHitMatchesMiss(t *testing.T) {
	spec := adpcmSpec(t)
	dir := t.TempDir()

	resetPrepCache()
	miss, hit, err := prepareCachedObs(spec, 0.05, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("fresh cache reported a hit")
	}
	want := benchFingerprint(t, miss)

	// Disk hit: memory layer cleared, payload comes from the file.
	resetPrepCache()
	fromDisk, hit, err := prepareCachedObs(spec, 0.05, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("disk cache missed")
	}
	if !bytes.Equal(want, benchFingerprint(t, fromDisk)) {
		t.Fatal("disk cache hit differs from recomputation")
	}

	// Memory hit: same process, no disk needed.
	fromMem, hit, err := prepareCachedObs(spec, 0.05, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("memory cache missed")
	}
	if !bytes.Equal(want, benchFingerprint(t, fromMem)) {
		t.Fatal("memory cache hit differs from recomputation")
	}

	// Distinct scales are distinct cache entries.
	scaled := spec
	scaled.ProfBytes = int(float64(scaled.ProfBytes) * 0.05)
	scaled.TimeBytes = int(float64(scaled.TimeBytes) * 0.05)
	if prepKey(spec) == prepKey(scaled) {
		t.Fatal("scaled and unscaled specs share a cache key")
	}
}

// TestPrepCacheCorruptionRecovers: a damaged cache file must be recomputed
// (and rewritten), never trusted; every truncation of a payload must be
// rejected by the decoder.
func TestPrepCacheCorruptionRecovers(t *testing.T) {
	spec := adpcmSpec(t)
	dir := t.TempDir()

	resetPrepCache()
	fresh, _, err := prepareCachedObs(spec, 0.05, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := benchFingerprint(t, fresh)

	scaled := spec
	scaled.ProfBytes = int(float64(scaled.ProfBytes) * 0.05)
	scaled.TimeBytes = int(float64(scaled.TimeBytes) * 0.05)
	path := prepFilePath(dir, prepKey(scaled))
	payload, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("cache file not written: %v", err)
	}
	for n := 0; n < len(payload); n += 997 {
		if _, err := unmarshalPayload(payload[:n]); err == nil {
			t.Fatalf("truncated payload (%d bytes) accepted", n)
		}
	}
	if _, err := unmarshalPayload(append(append([]byte{}, payload...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}

	if err := os.WriteFile(path, []byte("EMC1 corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	resetPrepCache()
	recovered, hit, err := prepareCachedObs(spec, 0.05, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("corrupt cache file served as a hit")
	}
	if !bytes.Equal(want, benchFingerprint(t, recovered)) {
		t.Fatal("recovery recompute differs from original")
	}
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, payload) {
		t.Fatal("recompute did not rewrite the corrupt entry")
	}
	if _, err := os.Stat(filepath.Join(dir, "nonesuch.prep")); err == nil {
		t.Fatal("unexpected cache entry")
	}
}

// TestPrepCacheWriteFailureDegrades: when the disk layer cannot be written
// (here: the cache "directory" is a regular file, so MkdirAll fails — the
// same shape as a read-only or full cache dir), preparation must still
// succeed from the computed payload, with only a warning.
func TestPrepCacheWriteFailureDegrades(t *testing.T) {
	spec := adpcmSpec(t)
	notADir := filepath.Join(t.TempDir(), "cache")
	if err := os.WriteFile(notADir, []byte("occupied"), 0o644); err != nil {
		t.Fatal(err)
	}

	var warned string
	origWarn := prepWarnf
	prepWarnf = func(format string, args ...any) { warned = format }
	defer func() { prepWarnf = origWarn }()

	resetPrepCache()
	b, hit, err := prepareCachedObs(spec, 0.05, notADir, nil)
	if err != nil {
		t.Fatalf("prepareCachedObs failed on unwritable cache dir: %v", err)
	}
	if hit {
		t.Fatal("fresh cache reported a hit")
	}
	if b == nil || b.SqObj == nil {
		t.Fatal("no bench returned")
	}
	if warned == "" {
		t.Fatal("failed disk write produced no warning")
	}
	// The in-memory layer was still populated: the retry is a hit.
	again, hit, err := prepareCachedObs(spec, 0.05, notADir, nil)
	if err != nil || !hit {
		t.Fatalf("memory layer not populated after disk failure: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(benchFingerprint(t, b), benchFingerprint(t, again)) {
		t.Fatal("memory hit differs from the degraded preparation")
	}
}

// TestPrepScaleClampsToOne: truncating the input scale must never produce an
// empty profiling or timing input; tiny scales clamp to one byte.
func TestPrepScaleClampsToOne(t *testing.T) {
	if got := scaleSize(20000, 1e-9); got != 1 {
		t.Fatalf("scaleSize(20000, 1e-9) = %d, want 1", got)
	}
	if got := scaleSize(20000, 0.05); got != 1000 {
		t.Fatalf("scaleSize(20000, 0.05) = %d, want 1000", got)
	}

	spec := adpcmSpec(t)
	resetPrepCache()
	b, _, err := prepareCachedObs(spec, 1e-9, "", nil)
	if err != nil {
		t.Fatalf("prepareCachedObs at tiny scale: %v", err)
	}
	if b.Spec.ProfBytes < 1 || b.Spec.TimeBytes < 1 {
		t.Fatalf("scaled inputs truncated to zero: prof=%d time=%d",
			b.Spec.ProfBytes, b.Spec.TimeBytes)
	}
	if len(b.Spec.ProfilingInput()) < 1 || len(b.Spec.TimingInput()) < 1 {
		t.Fatalf("empty generated inputs: prof=%d time=%d",
			len(b.Spec.ProfilingInput()), len(b.Spec.TimingInput()))
	}
}

// TestLoadCachedSuiteHits: a second LoadCachedObs of the full suite is served
// entirely from cache and matches the first load bench-for-bench — the
// property that lets matrix runs share preparation.
func TestLoadCachedSuiteHits(t *testing.T) {
	// The first load warms the in-memory layer for any benchmark an earlier
	// test evicted; the reload must then hit on every benchmark.
	first, err := LoadCachedObs(0.05, 0, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := LoadCachedObs(0.05, 0, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.PrepCacheHits != len(again.Benches) {
		t.Fatalf("%d/%d cache hits on reload", again.PrepCacheHits, len(again.Benches))
	}
	if len(again.Benches) != len(first.Benches) {
		t.Fatalf("suite sizes differ: %d vs %d", len(again.Benches), len(first.Benches))
	}
	for i := range first.Benches {
		if !bytes.Equal(benchFingerprint(t, first.Benches[i]), benchFingerprint(t, again.Benches[i])) {
			t.Fatalf("%s: cached reload differs from first load", first.Benches[i].Spec.Name)
		}
	}
}
