package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/asm"
	"repro/internal/binfmt"
	"repro/internal/cfg"
	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/squeeze"
	"repro/internal/vm"
)

// Preparing one benchmark — generate, assemble, squeeze, link, run the
// profiling input on the simulator — is the dominant fixed cost of every
// suite load: the experiment matrix itself only varies θ, K, and coder over
// the *same* prepared artifacts. This file caches those artifacts under a
// content key (program source + profiling input), in two layers:
//
//   - an in-memory layer, always on, so repeated Load calls in one process
//     (tests, benchmarks, the matrix CLI) prepare each benchmark once;
//   - an optional on-disk layer (LoadCachedObs / experiments -cache), so
//     repeated CLI runs skip preparation entirely when program and inputs
//     are unchanged.
//
// The payload stores the squeezed object and the profile in their existing
// serialized forms (objfile "EMO1", profile "EMP1"); cache hits and misses
// both rebuild the Bench by decoding the payload, so a hit is identical to
// a miss by construction. The key covers the benchmark content, not the
// toolchain: bump prepCacheFormat (or delete the cache directory) when the
// assembler, squeezer, linker, or profiler semantics change.

// prepCacheFormat versions both the content key and the payload encoding.
const prepCacheFormat = 1

const prepMagic = "EMC1"

// prepPayload is one benchmark's cached preparation result. All fields are
// immutable after construction; Benches are decoded fresh from it per Load.
type prepPayload struct {
	inputInsts int
	stats      squeeze.Stats
	obj        []byte // squeezed object, objfile "EMO1" encoding
	prof       []byte // profiling counts, profile "EMP1" encoding
}

// prepMem is the in-memory layer: content key -> *prepPayload.
var prepMem sync.Map

// resetPrepCache drops the in-memory layer (tests only).
func resetPrepCache() {
	prepMem.Range(func(k, _ any) bool { prepMem.Delete(k); return true })
}

// prepKey hashes everything preparation consumes: the generated assembly
// source and the profiling input, plus the spec name and scaled input sizes
// (TimeBytes rides along in Bench.Spec even though preparation ignores it).
func prepKey(spec mediabench.Spec) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "emprep%d\x00%s\x00%d\x00%d\x00", prepCacheFormat, spec.Name, spec.ProfBytes, spec.TimeBytes)
	io.WriteString(h, spec.Generate())
	h.Write([]byte{0})
	h.Write(spec.ProfilingInput())
	var k [32]byte
	copy(k[:], h.Sum(nil))
	return k
}

// buildPayload runs the full preparation pipeline and serializes the
// result, with one child span per stage under sp (which may be nil).
func buildPayload(spec mediabench.Spec, sp *obs.Span) (*prepPayload, error) {
	st := sp.Child("assemble")
	obj, err := asm.Assemble(spec.Generate())
	st.End()
	if err != nil {
		return nil, err
	}
	st = sp.Child("cfg")
	p, err := cfg.Build(obj, "main")
	st.End()
	if err != nil {
		return nil, err
	}
	st = sp.Child("squeeze")
	sqStats, err := squeeze.Run(p)
	st.End()
	if err != nil {
		return nil, err
	}
	sqObj, err := cfg.Lower(p)
	if err != nil {
		return nil, err
	}
	st = sp.Child("link")
	im, err := objfile.Link("main", sqObj)
	st.End()
	if err != nil {
		return nil, err
	}
	st = sp.Child("profile")
	m := vm.New(im, spec.ProfilingInput())
	m.EnableProfile()
	err = m.Run()
	st.End()
	if err != nil {
		return nil, fmt.Errorf("profiling run: %w", err)
	}
	var objBuf, profBuf bytes.Buffer
	if _, err := sqObj.WriteTo(&objBuf); err != nil {
		return nil, err
	}
	if _, err := profile.Counts(m.Profile).WriteTo(&profBuf); err != nil {
		return nil, err
	}
	return &prepPayload{
		inputInsts: len(obj.Text),
		stats:      *sqStats,
		obj:        objBuf.Bytes(),
		prof:       profBuf.Bytes(),
	}, nil
}

// benchFromPayload decodes a payload into a fresh Bench. Both cache hits and
// misses go through here, so the two paths cannot diverge.
func benchFromPayload(spec mediabench.Spec, p *prepPayload) (*Bench, error) {
	sqObj, err := objfile.ReadObject(bytes.NewReader(p.obj))
	if err != nil {
		return nil, fmt.Errorf("cached object: %w", err)
	}
	im, err := objfile.Link("main", sqObj)
	if err != nil {
		return nil, err
	}
	counts, err := profile.ReadCounts(bytes.NewReader(p.prof))
	if err != nil {
		return nil, fmt.Errorf("cached profile: %w", err)
	}
	stats := p.stats
	return &Bench{
		Spec:         spec,
		InputInsts:   p.inputInsts,
		SqueezeStats: &stats,
		SqObj:        sqObj,
		SqImage:      im,
		Profile:      counts,
	}, nil
}

// scaleSize applies the suite's input scale to one byte count. Truncation
// must never reach zero: a benchmark with an empty profiling or timing input
// is degenerate (nothing executes the input loop), so tiny scales clamp to a
// single byte.
func scaleSize(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// prepWarnf receives non-fatal preparation warnings (a failed disk-cache
// write). Tests swap it to capture the message.
var prepWarnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// prepareCachedObs is prepare() behind the two cache layers, with the
// caller's per-bench span (nil for none); the preparation stages appear as
// its children on a cache miss. It reports whether the result came from a
// cache (memory or disk).
func prepareCachedObs(spec mediabench.Spec, scale float64, dir string, sp *obs.Span) (*Bench, bool, error) {
	if scale != 1.0 {
		spec.ProfBytes = scaleSize(spec.ProfBytes, scale)
		spec.TimeBytes = scaleSize(spec.TimeBytes, scale)
	}
	key := prepKey(spec)
	if v, ok := prepMem.Load(key); ok {
		b, err := benchFromPayload(spec, v.(*prepPayload))
		return b, true, err
	}
	if dir != "" {
		if p, err := readPrepFile(prepFilePath(dir, key)); err == nil {
			prepMem.Store(key, p)
			b, err := benchFromPayload(spec, p)
			return b, true, err
		}
		// Unreadable or corrupt entries fall through to a recompute, which
		// rewrites the file.
	}
	p, err := buildPayload(spec, sp)
	if err != nil {
		return nil, false, err
	}
	prepMem.Store(key, p)
	if dir != "" {
		// The payload is already computed and stored in memory; a failed
		// disk write (read-only or full cache directory) only costs the
		// *next* process a recompute, so it degrades to a warning.
		if err := writePrepFile(dir, key, p); err != nil {
			prepWarnf("experiments: %s: prep cache write failed, continuing uncached: %v", spec.Name, err)
		}
	}
	b, err := benchFromPayload(spec, p)
	return b, false, err
}

// PrepareSpec prepares one named benchmark through the content-keyed cache
// layers (always-on memory, optional disk under cacheDir), for callers
// outside the suite loader — the squash daemon serves named-benchmark
// requests through it. It reports whether the preparation came from a cache.
func PrepareSpec(name string, scale float64, cacheDir string) (*Bench, bool, error) {
	spec, ok := mediabench.SpecByName(name)
	if !ok {
		return nil, false, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	return prepareCachedObs(spec, scale, cacheDir, nil)
}

// --- disk layer ----------------------------------------------------------

func prepFilePath(dir string, key [32]byte) string {
	return filepath.Join(dir, fmt.Sprintf("%x.prep", key))
}

// marshalPayload encodes a payload:
//
//	magic "EMC1" | inputInsts u32 | squeeze stats (8 × u32)
//	| obj len u32, obj bytes | prof len u32, prof bytes
func marshalPayload(p *prepPayload) []byte {
	le := binary.LittleEndian
	out := []byte(prepMagic)
	for _, v := range p.ints() {
		out = le.AppendUint32(out, uint32(*v))
	}
	out = append(le.AppendUint32(out, uint32(len(p.obj))), p.obj...)
	return append(le.AppendUint32(out, uint32(len(p.prof))), p.prof...)
}

// ints lists the payload's integer fields in encoding order.
func (p *prepPayload) ints() []*int {
	st := &p.stats
	return []*int{&p.inputInsts, &st.InputInsts, &st.OutputInsts, &st.FuncsRemoved, &st.BlocksRemoved,
		&st.InstsUnreachable, &st.NopsRemoved, &st.AbstractedFuncs, &st.AbstractedSavings}
}

func unmarshalPayload(data []byte) (*prepPayload, error) {
	r := binfmt.NewReader(data, "prep cache")
	if string(r.Bytes(len(prepMagic))) != prepMagic {
		return nil, fmt.Errorf("prep cache: bad magic")
	}
	p := &prepPayload{}
	for _, v := range p.ints() {
		*v = int(r.U32())
	}
	p.obj = append([]byte(nil), r.Bytes(int(r.U32()))...)
	p.prof = append([]byte(nil), r.Bytes(int(r.U32()))...)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return p, nil
}

func readPrepFile(path string) (*prepPayload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return unmarshalPayload(data)
}

// writePrepFile writes atomically (tmp + rename) so a concurrent reader
// never sees a half-written entry.
func writePrepFile(dir string, key [32]byte, p *prepPayload) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := prepFilePath(dir, key)
	tmp, err := os.CreateTemp(dir, "*.prep.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(marshalPayload(p)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
