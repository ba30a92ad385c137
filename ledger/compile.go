package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/objfile"
	"repro/internal/obs"
)

// thetas are the compile workload's cold-code thresholds.
var thetas = []float64{0, 1e-5, 5e-5, 1e-4}

// compileWL squashes every (program, θ) pair in a seeded order with one
// closed-loop caller, and writes each image out.
type compileWL struct {
	progs []*program
	pairs []pair // in op order
	sz    sizes
	// digest holds each pair's image digest: the set-up squash for
	// θ = runTheta, the first op's image for the others.
	digest map[pair][32]byte
}

type pair struct {
	prog  int
	theta float64
}

func newCompile(progs []*program, sz sizes, seed int64) *compileWL {
	var all []pair
	for i := range progs {
		for _, th := range thetas {
			all = append(all, pair{i, th})
		}
	}
	w := &compileWL{progs: progs, sz: sz, digest: map[pair][32]byte{}}
	for _, k := range order(seed, len(all)) {
		w.pairs = append(w.pairs, all[k])
	}
	for i, p := range progs {
		w.digest[pair{i, runTheta}] = p.sqSum
	}
	return w
}

func (w *compileWL) inputDigest() [32]byte {
	h := sha256.New()
	for _, p := range w.pairs {
		fmt.Fprintf(h, "%s/%g\n", w.progs[p.prog].name, p.theta)
	}
	return [32]byte(h.Sum(nil))
}

func (w *compileWL) corrupt() {
	k := pair{0, runTheta}
	d := w.digest[k]
	d[0] ^= 1
	w.digest[k] = d
}

func (w *compileWL) close() error { return nil }

// measure runs the squashes serially on one P. On a 2-vCPU host that
// other tenants share, a squash whose workers and garbage collector spread
// over both vCPUs waits for whichever is busier: next to a process
// thrashing memory on and off, its latency spread about three times as
// much from run to run as the serial squash's, which was no slower. The
// image is the same either way.
func (w *compileWL) measure(d time.Duration, tr *tracer) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := newResult()
	var ratios, regions []float64
	var buf bytes.Buffer
	start := time.Now()
	for pass := 0; more(w.sz, pass, start, d); pass++ {
		for key, k := range w.pairs {
			if !more(w.sz, pass, start, d) {
				break
			}
			op := res.attempted
			res.attempted++
			root := tr.start("compile.op", op, 0, nil)
			t0 := time.Now()
			var rec *obs.Recorder
			if tr != nil {
				rec = &obs.Recorder{Trace: obs.NewTracer()}
			}
			conf := squashConfig(k.theta)
			conf.Workers = 1
			out, err := core.SquashObs(w.progs[k.prog].obj, w.progs[k.prog].counts, conf, rec)
			if err == nil {
				sp := tr.start(spanWrite, op, 0, root)
				buf.Reset()
				_, err = out.Image.WriteTo(&buf)
				sp.end()
			}
			lat := time.Since(t0)
			root.end()
			if err == nil && rec != nil {
				err = root.mergeObs(rec.Trace, t0)
			}
			if err == nil {
				err = w.check(k, buf.Bytes())
			}
			if err != nil {
				res.fail(err)
				continue
			}
			if res.completed(key, lat) {
				ratios = append(ratios, sizeRatio(out.Stats))
				regions = append(regions, float64(out.Stats.RegionCount))
			}
		}
	}
	res.elapsed = time.Since(start)
	res.values["size_ratio"] = geomean(ratios)
	res.values["core.regions_per_op"] = mean(regions)
	if tr != nil {
		self, total := tr.perOp()
		for name, span := range map[string]string{
			"cfg.decode_ms":           spanDecode,
			"regions.select_ms":       spanSelect,
			"buffersafe.analyze_ms":   spanBufferSafe,
			"core.layout_ms":          spanLayout,
			"core.build_link_ms":      spanBuildLink,
			"streamcomp.seq_build_ms": spanSeqBuild,
			"huffman.train_ms":        spanTrain,
			"core.finalize_ms":        spanFinalize,
			"core.other_ms":           spanSquash,
			"objfile.write_ms":        spanWrite,
		} {
			res.values[name] = opMedian(self[span])
		}
		res.values["streamcomp.encode_ms"] = opMedian(total[spanEncode])
	}
	return res, nil
}

// check verifies one squashed image: it must read back through ReadImage
// and UnmarshalMeta to the same bytes, and match the digest of every
// earlier squash of the same pair.
func (w *compileWL) check(k pair, img []byte) error {
	im, err := objfile.ReadImage(bytes.NewReader(img))
	if err != nil {
		return fmt.Errorf("read image: %w", err)
	}
	var again bytes.Buffer
	if _, err := im.WriteTo(&again); err != nil {
		return err
	}
	if !bytes.Equal(again.Bytes(), img) {
		return fmt.Errorf("%s θ=%g: image does not round-trip", w.progs[k.prog].name, k.theta)
	}
	meta, err := core.UnmarshalMeta(im.Meta)
	if err != nil {
		return fmt.Errorf("unmarshal meta: %w", err)
	}
	mb, err := meta.MarshalBinary()
	if err != nil {
		return err
	}
	if !bytes.Equal(mb, im.Meta) {
		return fmt.Errorf("%s θ=%g: squash metadata does not round-trip", w.progs[k.prog].name, k.theta)
	}
	sum := sha256.Sum256(img)
	if want, ok := w.digest[k]; !ok {
		w.digest[k] = sum
	} else if sum != want {
		return fmt.Errorf("%s θ=%g: image digest differs from an earlier squash", w.progs[k.prog].name, k.theta)
	}
	return nil
}
