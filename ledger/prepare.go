package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/squeeze"
	"repro/internal/vm"
)

// sizes fixes how much work each input carries.
type sizes struct {
	// programs names the mediabench programs to use; nil means all 11.
	programs []string
	// profBytes is the profiling input length (a prefix of the spec's).
	profBytes int
	// runCycles and pathCycles are the simulated cycles a squashed run on
	// a timing and on a pathology input is cut to; timeBytes and
	// pathBytes are the input prefixes that calibrate the cut.
	runCycles, pathCycles uint64
	timeBytes, pathBytes  int
	// steadyBytes is the input behind each serve push.
	steadyBytes int
	// frames is the length of the serve workload's read and push
	// sequences, which its callers cycle through.
	frames int
	// passes, when > 0, measures exactly that many passes over a
	// workload's op sequence instead of running for a duration.
	passes int
}

// fullSizes is the benchmark's configuration: a profiling input a tenth
// of the paper-sized one, and run inputs cut so that one op takes
// 10-40 ms, short enough for each program to run dozens of times a run.
var fullSizes = sizes{
	profBytes: 40000,
	runCycles: 4_000_000, pathCycles: 100_000_000, timeBytes: 2000, pathBytes: 200,
	steadyBytes: 4000, frames: 1024,
}

// runTheta is the threshold of the images the run and serve
// workloads use, and of the squash every set-up performs.
const runTheta = 1e-4

// squashConfig is cmd/squash's default configuration at θ.
func squashConfig(theta float64) core.Config {
	c := core.DefaultConfig()
	c.Theta = theta
	return c
}

// program is one mediabench benchmark prepared for the workloads.
type program struct {
	name string
	// obj is the squeezed object; image is it linked, the unsquashed
	// reference every squashed run is checked against.
	obj      *objfile.Object
	objBytes []byte
	image    *objfile.Image
	counts   profile.Counts
	// profBytes is counts in EMP1 form.
	profBytes []byte
	// sq is the squash at runTheta, sqBytes its image file.
	sq      *core.Output
	sqBytes []byte
	sqSum   [32]byte
	// inputs is the spec with its seed mixed with the benchmark seed: it
	// generates the timing and pathology inputs, never the program.
	inputs mediabench.Spec
}

// setupTimes is the time one set-up spent in each layer, summed over
// programs.
type setupTimes struct {
	assemble, squeeze, link, profile, squash time.Duration
}

func (s *setupTimes) add(o setupTimes) {
	s.assemble += o.assemble
	s.squeeze += o.squeeze
	s.link += o.link
	s.profile += o.profile
	s.squash += o.squash
}

// selectSpecs returns the specs named in sz (all when none are named).
func selectSpecs(sz sizes) ([]mediabench.Spec, error) {
	if sz.programs == nil {
		return mediabench.Specs(), nil
	}
	var out []mediabench.Spec
	for _, n := range sz.programs {
		s, ok := mediabench.SpecByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown mediabench program %q", n)
		}
		out = append(out, s)
	}
	return out, nil
}

// mixSeed derives a program's input seed from its spec seed and the
// benchmark seed (splitmix64 finaliser).
func mixSeed(specSeed, seed int64) int64 {
	z := uint64(specSeed)*0x9E3779B97F4A7C15 ^ uint64(seed)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

// prepare builds every program from source: assemble, squeeze, link, run
// the profiling input, and squash at runTheta. Programs are prepared in
// parallel, one worker per CPU; the times are summed over programs.
func prepare(sz sizes, seed int64) ([]*program, setupTimes, error) {
	specs, err := selectSpecs(sz)
	if err != nil {
		return nil, setupTimes{}, err
	}
	times := make([]setupTimes, len(specs))
	progs, err := parallel.Map(len(specs), 0, func(i int) (*program, error) {
		p, err := prepareOne(specs[i], sz, seed, &times[i])
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", specs[i].Name, err)
		}
		return p, nil
	})
	var total setupTimes
	for _, t := range times {
		total.add(t)
	}
	return progs, total, err
}

func prepareOne(spec mediabench.Spec, sz sizes, seed int64, t *setupTimes) (*program, error) {
	t0 := time.Now()
	obj, err := asm.Assemble(spec.Generate())
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	p, err := cfg.Build(obj, "main")
	if err != nil {
		return nil, err
	}
	if _, err := squeeze.Run(p); err != nil {
		return nil, err
	}
	sqObj, err := cfg.Lower(p)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	im, err := objfile.Link("main", sqObj)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	profIn := spec.ProfilingInput()
	m := vm.New(im, profIn[:min(len(profIn), sz.profBytes)])
	m.EnableProfile()
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("profiling run: %w", err)
	}
	counts := profile.Counts(m.ProfileCounts())
	t4 := time.Now()
	sq, err := core.Squash(sqObj, counts, squashConfig(runTheta))
	if err != nil {
		return nil, err
	}
	t5 := time.Now()
	t.assemble, t.squeeze, t.link, t.profile, t.squash = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)

	var objBuf, profBuf, sqBuf bytes.Buffer
	if _, err := sqObj.WriteTo(&objBuf); err != nil {
		return nil, err
	}
	if _, err := counts.WriteTo(&profBuf); err != nil {
		return nil, err
	}
	if _, err := sq.Image.WriteTo(&sqBuf); err != nil {
		return nil, err
	}
	inputs := spec
	inputs.Seed = mixSeed(spec.Seed, seed)
	return &program{
		name:      spec.Name,
		obj:       sqObj,
		objBytes:  objBuf.Bytes(),
		image:     im,
		counts:    counts,
		profBytes: profBuf.Bytes(),
		sq:        sq,
		sqBytes:   sqBuf.Bytes(),
		sqSum:     sha256.Sum256(sqBuf.Bytes()),
		inputs:    inputs,
	}, nil
}

// timingInput is n bytes of p's seeded timing input.
func (p *program) timingInput(n int) []byte {
	s := p.inputs
	s.TimeBytes = n
	return s.TimingInput()
}

// pathologyInput is n bytes of p's seeded pathology input, where
// profile-cold code loops.
func (p *program) pathologyInput(n int) []byte {
	s := p.inputs
	s.TimeBytes = 2 * n
	return s.PathologyInput()
}

// sizeRatio is the squashed footprint over the squeezed input (Fig. 7a).
func sizeRatio(st core.Stats) float64 {
	return float64(st.SquashedBytes) / float64(st.InputBytes)
}

// order returns a seeded permutation of [0, n).
func order(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
