// Command em-run executes an EM32 binary on the simulator. It accepts a
// linked image (.exe) or a relocatable object (.o, linked on the fly with
// entry "main"). Squashed images (carrying decompression metadata) get the
// runtime decompressor installed automatically.
//
// Usage:
//
//	em-run prog.exe < input > output
//	em-run -in input.bin -profile prog.prof prog.o
//	em-run -stats prog.exe
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/vm"
)

// pushMaxInput caps the input bytes shipped with a -profile-push so a huge
// workload file cannot balloon the push frame; the collector only needs a
// representative drifted input, and mediabench inputs are far smaller.
const pushMaxInput = 4 << 20

func main() {
	inFile := flag.String("in", "", "input byte stream file (default: stdin)")
	profOut := flag.String("profile", "", "write a basic-block execution profile to this file")
	profPush := flag.String("profile-push", "", "after the run, push the execution profile to a squashprofd collector at this address (warn-only on failure)")
	stats := flag.Bool("stats", false, "print execution statistics to stderr")
	statsJSON := flag.String("stats-json", "", "write execution statistics as JSON to this file (\"-\" for stderr; program output stays on stdout)")
	limit := flag.Uint64("limit", 0, "instruction limit (0 = default)")
	noFast := flag.Bool("nofastpath", false, "force the reference decode/dispatch paths (identical simulated behaviour; used by the CI equivalence guard)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: em-run [-in file] [-profile out] [-profile-push addr] [-stats] prog.{exe,o}")
		os.Exit(2)
	}

	im, raw, err := loadBinary(flag.Arg(0))
	if err != nil {
		fail(err)
	}

	var input []byte
	if *inFile != "" {
		if input, err = os.ReadFile(*inFile); err != nil {
			fail(err)
		}
	} else if input, err = io.ReadAll(os.Stdin); err != nil {
		fail(err)
	}

	m := vm.New(im, input)
	m.MaxInstructions = *limit
	m.DisableFastPath = *noFast
	if *profOut != "" || *profPush != "" || *statsJSON != "" {
		m.EnableProfile()
	}
	var rt *core.Runtime
	if len(im.Meta) > 0 {
		meta, err := core.UnmarshalMeta(im.Meta)
		if err != nil {
			fail(fmt.Errorf("binary carries unreadable squash metadata: %w", err))
		}
		if rt, err = core.NewRuntime(meta); err != nil {
			fail(err)
		}
		rt.SetFastPath(!*noFast)
		rt.Install(m)
	}
	if err := m.Run(); err != nil {
		fail(err)
	}
	os.Stdout.Write(m.Output)

	if *profOut != "" {
		f, err := os.Create(*profOut)
		if err != nil {
			fail(err)
		}
		if _, err := profile.Counts(m.Profile).WriteTo(f); err != nil {
			fail(err)
		}
		f.Close()
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "exit status %d, %d instructions, %d cycles\n",
			m.Status, m.Instructions, m.Cycles)
		if rt != nil {
			fmt.Fprintf(os.Stderr, "decompressions %d, bits read %d, restore stubs created %d (max live %d)\n",
				rt.Stats.Decompressions, rt.Stats.BitsRead, rt.Stats.CreateStubMisses, rt.Stats.MaxLiveStubs)
		}
	}
	if *statsJSON != "" {
		if err := writeStatsJSON(*statsJSON, m, rt); err != nil {
			fail(err)
		}
	}
	if *profPush != "" {
		// Fleet telemetry must never fail the workload: a dead collector
		// costs a warning, not the run's exit status.
		if err := pushProfile(*profPush, raw, input, m, rt); err != nil {
			fmt.Fprintln(os.Stderr, "em-run: profile push failed:", err)
		}
	}
	os.Exit(int(m.Status))
}

// pushProfile ships the run's execution profile to a squashprofd collector:
// the image's content key (sha256 of the binary's file bytes, the identity
// it was registered under), the EMP1 counts, the run's metadata, and the
// (capped) input bytes that drove it.
func pushProfile(addr string, raw, input []byte, m *vm.Machine, rt *core.Runtime) error {
	var prof bytes.Buffer
	if _, err := profile.Counts(m.ProfileCounts()).WriteTo(&prof); err != nil {
		return err
	}
	if len(input) > pushMaxInput {
		input = input[:pushMaxInput]
	}
	host, _ := os.Hostname()
	run := &serve.RunMeta{
		Instructions: m.Instructions,
		Cycles:       m.Cycles,
		ExitStatus:   m.Status,
		Source:       host,
	}
	if rt != nil {
		run.Decompressions = rt.Stats.Decompressions
		run.Evictions = rt.Stats.Evictions
		run.BitsRead = rt.Stats.BitsRead
	}
	c, err := serve.DialClient(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	resp, err := c.Do(&serve.Request{
		Op:       serve.OpProfilePush,
		ImageKey: fmt.Sprintf("%x", sha256.Sum256(raw)),
		Profile:  prof.Bytes(),
		Input:    input,
		Run:      run,
	})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("collector rejected push: %s", resp.Err)
	}
	return nil
}

// runStats is the -stats-json payload: the simulated observables (status,
// instructions, cycles, runtime stats — identical with the fast paths on or
// off) plus host-side telemetry (vm fast-path counters, decode memo, and
// Huffman decode-path counts), which may differ under -nofastpath.
type runStats struct {
	ExitStatus   int    `json:"exit_status"`
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`

	VM        vm.Counters `json:"vm"`
	FastSteps uint64      `json:"fast_steps"`

	Runtime *core.RuntimeStats     `json:"runtime,omitempty"`
	Memo    *core.RuntimeTelemetry `json:"memo,omitempty"`
	Huffman *huffman.DecodeStats   `json:"huffman,omitempty"`
	Profile *profStats             `json:"profile,omitempty"`
}

// profStats summarizes the run's execution profile for -stats-json: the
// total dynamic instruction weight and the cold-mass curve over the standard
// θ sweep (the experiments axis points), so drift tooling reads the θ
// partition straight from run statistics.
type profStats struct {
	TotalWeight uint64                  `json:"total_weight"`
	ColdMass    []profile.ThetaColdMass `json:"cold_mass"`
}

// statsThetaSet mirrors experiments.ThetaSet (the paper's θ axis points)
// without pulling the experiments harness into the runner binary.
var statsThetaSet = []float64{0, 0.00001, 0.00005, 0.0001, 0.001, 0.01, 1.0}

func writeStatsJSON(path string, m *vm.Machine, rt *core.Runtime) error {
	st := runStats{
		ExitStatus:   int(m.Status),
		Instructions: m.Instructions,
		Cycles:       m.Cycles,
		VM:           m.Telem,
		FastSteps:    m.FastSteps(),
	}
	if rt != nil {
		st.Runtime = &rt.Stats
		st.Memo = &rt.Telem
		ds := rt.DecodeStats()
		st.Huffman = &ds
	}
	if c := profile.Counts(m.ProfileCounts()); c != nil {
		st.Profile = &profStats{
			TotalWeight: profile.Total(c),
			ColdMass:    profile.ColdMasses(c, statsThetaSet),
		}
	}
	w := os.Stderr
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// loadBinary reads path as an image or relocatable object (linked on the
// fly) and also returns the raw file bytes — their sha256 is the content key
// a squashed image is registered under with the profile collector.
func loadBinary(path string) (*objfile.Image, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if im, err := objfile.ReadImage(bytes.NewReader(data)); err == nil {
		return im, data, nil
	}
	obj, err := objfile.ReadObject(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("%s is neither an image nor an object", path)
	}
	im, err := objfile.Link("main", obj)
	return im, data, err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "em-run:", err)
	os.Exit(1)
}
