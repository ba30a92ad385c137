// Package profile implements execution-profile handling and the paper's
// cold-code identification (§5): given a threshold θ, the cold code is the
// largest set of lowest-frequency basic blocks whose combined runtime
// instruction contribution stays within θ of the program's total dynamic
// instruction count.
package profile

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/binfmt"
	"repro/internal/cfg"
)

// Counts is a per-text-word execution count vector, as produced by the
// simulator's profiler.
type Counts []uint64

// WriteTo serializes the counts: magic "EMP1", then the count of counts
// and each count, all uvarints.
func (c Counts) WriteTo(w io.Writer) (int64, error) {
	buf := binary.AppendUvarint([]byte("EMP1"), uint64(len(c)))
	for _, v := range c {
		buf = binary.AppendUvarint(buf, v)
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadCounts deserializes a profile written by WriteTo.
func ReadCounts(src io.Reader) (Counts, error) {
	data, err := io.ReadAll(src)
	if err != nil {
		return nil, err
	}
	r := binfmt.NewReader(data, "profile")
	if string(r.Bytes(4)) != "EMP1" {
		return nil, fmt.Errorf("profile: bad magic")
	}
	out := make(Counts, r.Count(r.Uvarint(), 1, "count"))
	for i := range out {
		out[i] = r.Uvarint()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// ColdSet is the result of cold-code identification.
type ColdSet struct {
	// Cold maps block labels identified as cold.
	Cold map[string]bool
	// MaxFreq is the largest execution frequency N admitted as cold.
	MaxFreq uint64
	// ColdInsts and TotalInsts count static instructions (cold vs all).
	ColdInsts  int
	TotalInsts int
	// ColdWeight and TotalWeight count dynamic instructions.
	ColdWeight  uint64
	TotalWeight uint64
}

// ColdFraction reports the static fraction of code identified as cold.
func (s *ColdSet) ColdFraction() float64 {
	if s.TotalInsts == 0 {
		return 0
	}
	return float64(s.ColdInsts) / float64(s.TotalInsts)
}

// IdentifyCold classifies blocks of a profiled program as cold for a given
// threshold θ ∈ [0, 1], implementing §5 of the paper:
//
//	Consider all basic blocks b in increasing order of execution frequency
//	and determine the largest frequency N such that
//	    Σ_{freq(b) ≤ N} weight(b) ≤ θ · tot_instr_ct.
//	Any block with freq(b) ≤ N is cold.
//
// θ = 0 admits only never-executed code; θ = 1 admits everything. The
// program must have had AttachProfile called on it.
func IdentifyCold(p *cfg.Program, theta float64) *ColdSet {
	if theta < 0 {
		theta = 0
	}
	if theta > 1 {
		theta = 1
	}
	var blocks []*cfg.Block
	for _, f := range p.Funcs {
		blocks = append(blocks, f.Blocks...)
	}
	sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].Freq < blocks[j].Freq })

	tot := p.TotalWeight()
	budget := uint64(float64(tot) * theta)
	if theta >= 1 {
		budget = tot
	}

	s := &ColdSet{Cold: make(map[string]bool), TotalWeight: tot}
	var cum uint64
	var maxFreq uint64
	// Walk frequency classes in ascending order; a class is admitted only
	// in full (all blocks of equal frequency in or out together).
	i := 0
	for i < len(blocks) {
		j := i
		var classWeight uint64
		for j < len(blocks) && blocks[j].Freq == blocks[i].Freq {
			classWeight += blocks[j].Weight
			j++
		}
		if cum+classWeight > budget {
			break
		}
		cum += classWeight
		maxFreq = blocks[i].Freq
		i = j
	}
	s.MaxFreq = maxFreq
	s.ColdWeight = cum
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			s.TotalInsts += len(b.Insts)
			if b.Freq <= maxFreq {
				s.Cold[b.Label] = true
				s.ColdInsts += len(b.Insts)
			}
		}
	}
	return s
}
