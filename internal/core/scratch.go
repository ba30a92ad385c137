// Arena-style per-request scratch for the squash pipeline.
//
// Phase 3 of the encoder builds one final instruction sequence per region.
// The sequence lengths are known exactly once the layouts exist (every block
// instruction encodes to exactly one sequence entry, plus one entry per knit
// branch the layout inserted), so instead of growing one slice per region the
// encoder carves disjoint, exact-capacity subslices out of a single arena.
// The arena and its slice headers recycle through a sync.Pool, making the
// warm squashd request O(1) allocations for sequence building regardless of
// region count.
//
// Nothing reachable from Output aliases the arena: the sequences are
// consumed by coder training, compression, and metrics inside run() and the
// scratch is released when run() returns.
package core

import (
	"sync"

	"repro/internal/huffman"
	"repro/internal/isa"
)

// SetPooling enables (the default) or disables every object pool on the
// squash path: the bit I/O and coder-scratch pools (which share the huffman
// package's switch) and the encoder's sequence arena. The produced images
// are byte-identical either way — pooling is deliberately a process-level
// switch, not a Config field, because Config travels in squashd's wire
// protocol and keys the result cache, and an allocation strategy must never
// partition cache entries.
func SetPooling(on bool) { huffman.SetPooling(on) }

// encodeScratch is one request's sequence-building working set.
type encodeScratch struct {
	arena  []isa.Inst   // backing storage for every region's sequence
	seqs   [][]isa.Inst // per-region subslice headers, indexed by region ID
	counts []int        // per-region sequence lengths, indexed by region ID
}

var encodeScratchPool = sync.Pool{New: func() any { return new(encodeScratch) }}

func getEncodeScratch() *encodeScratch {
	if huffman.PoolingEnabled() {
		return encodeScratchPool.Get().(*encodeScratch)
	}
	return new(encodeScratch)
}

func putEncodeScratch(sc *encodeScratch) {
	if !huffman.PoolingEnabled() {
		return
	}
	// Drop the per-region headers so a retired, larger arena from a previous
	// request can't stay pinned through stale subslice pointers.
	for i := range sc.seqs {
		sc.seqs[i] = nil
	}
	encodeScratchPool.Put(sc)
}

// partition sizes the arena for total instructions across n regions and
// returns per-region sequence storage: seqs[id] is an empty slice whose
// capacity is exactly counts[id], and the subslices are disjoint, so
// parallel region builds append into private memory with no reallocation.
func (sc *encodeScratch) partition(counts []int) [][]isa.Inst {
	total := 0
	for _, c := range counts {
		total += c
	}
	if cap(sc.arena) < total {
		sc.arena = make([]isa.Inst, 0, total)
	}
	arena := sc.arena[:total]
	if cap(sc.seqs) < len(counts) {
		sc.seqs = make([][]isa.Inst, len(counts))
	}
	seqs := sc.seqs[:len(counts)]
	off := 0
	for id, c := range counts {
		seqs[id] = arena[off : off : off+c]
		off += c
	}
	return seqs
}

// seqCounts computes the exact sequence length of every region from its
// blocks and layout, into recycled storage.
func (sc *encodeScratch) seqCounts(e *encoder) []int {
	if cap(sc.counts) < len(e.res.Regions) {
		sc.counts = make([]int, len(e.res.Regions))
	}
	counts := sc.counts[:len(e.res.Regions)]
	for _, r := range e.res.Regions {
		n := 0
		for _, b := range r.Blocks {
			n += len(b.Insts)
		}
		counts[r.ID] = n + len(e.layouts[r.ID].inserted)
	}
	return counts
}
