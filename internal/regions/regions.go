// Package regions implements the paper's compressible-region formation
// (§4). The unit of compression is not the source-level function but an
// arbitrary region of cold basic blocks, chosen to balance the size of the
// runtime buffer (which must hold the largest decompressed region) against
// the number of entry stubs and function-offset-table entries.
//
// The optimization problem is NP-hard (the paper reduces PARTITION to it),
// so, as in the paper, a heuristic is used: bounded depth-first search over
// the control-flow graph forms initial single-function regions, a
// profitability test (entry-stub cost versus expected compression savings)
// filters them, and a packing pass repeatedly merges the pair of regions
// with the greatest savings while respecting the buffer bound.
package regions

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/parallel"
)

// Config parameterizes region formation.
type Config struct {
	// K is the runtime buffer bound in bytes (paper default: 512).
	K int
	// Gamma is the assumed compression factor γ < 1: a region of I
	// instructions is expected to compress to γ·I instructions' worth of
	// bits (paper: split-stream coding achieves ≈0.66).
	Gamma float64
	// Pack enables the region-packing pass (on in the paper; switchable
	// for the ablation benchmarks).
	Pack bool
	// Strategy selects the construction algorithm (the paper's DFS, or the
	// loop-aware extension of §9's future work).
	Strategy Strategy
	// Workers bounds the goroutines used by the per-function analysis
	// passes (predecessor graph, compressibility classification); <= 0
	// means one per CPU. Region construction itself stays sequential — the
	// greedy DFS shares an assignment set — so results are identical at
	// any worker count.
	Workers int
}

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig() Config { return Config{K: 512, Gamma: 0.66, Pack: true} }

// EntryStubWords is the size of one entry stub: a call to the decompressor
// plus a tag word (paper: "the constant 2 is the number of words required
// for an entry stub").
const EntryStubWords = 2

// Region is one unit of compression/decompression.
type Region struct {
	ID     int
	Blocks []*cfg.Block // layout order
}

// NumInsts reports the region's size in instructions.
func (r *Region) NumInsts() int {
	n := 0
	for _, b := range r.Blocks {
		n += len(b.Insts)
	}
	return n
}

// Result is the outcome of partitioning.
type Result struct {
	Regions []*Region
	// InRegion maps block label to region ID, or absent if uncompressed.
	InRegion map[string]int
	// Excluded maps cold-but-uncompressible block labels to the reason.
	Excluded map[string]string
	// ColdInsts and CompressibleInsts support the Figure 4 reproduction.
	ColdInsts         int
	CompressibleInsts int
	TotalInsts        int
}

// Entries reports the labels of region r's entry blocks: blocks reachable
// from outside the region (branch/fallthrough predecessors outside r, call
// targets, address-taken blocks, or the program entry). These each require
// an entry stub.
func (res *Result) Entries(p *Preds, r *Region) []string {
	var out []string
	for _, b := range r.Blocks {
		entry := p.alwaysEntry(b.Label)
		if !entry {
			entry, _ = p.externalPreds(b.Label, res.InRegion, r.ID, r.ID)
		}
		if entry {
			out = append(out, b.Label)
		}
	}
	return out
}

// alwaysEntry reports whether control may arrive at block label from
// anywhere: its address escapes, or it is the program entry.
func (p *Preds) alwaysEntry(label string) bool {
	return p.AddressTaken[label] || p.ProgramEntry == label
}

// externalPreds reports whether block label has a flow or call predecessor
// outside region own, and whether it has one outside both own and partner
// (region membership by ID in inRegion).
func (p *Preds) externalPreds(label string, inRegion map[string]int, own, partner int) (outOwn, outBoth bool) {
	for _, preds := range [2]map[string]bool{p.FlowPreds[label], p.CallPreds[label]} {
		for pred := range preds {
			id, in := inRegion[pred]
			if in && id == own {
				continue
			}
			outOwn = true
			if !in || id != partner {
				return true, true
			}
		}
	}
	return outOwn, false
}

// Preds is the program-wide predecessor index used for entry-point and
// packing computations.
type Preds struct {
	// FlowPreds[b] = blocks with a branch or fallthrough edge to b.
	FlowPreds map[string]map[string]bool
	// CallPreds[entry] = blocks containing a call to the function whose
	// entry block is entry.
	CallPreds map[string]map[string]bool
	// AddressTaken marks labels whose address escapes into data or into a
	// register (la): control may arrive from anywhere.
	AddressTaken map[string]bool
	ProgramEntry string
	owner        map[string]*cfg.Func
}

// predEdges is one function's contribution to the predecessor graph.
type predEdges struct {
	flow, call [][2]string // (to, from) pairs
	addrTaken  []string
}

// BuildPredsWorkers indexes the program, with the per-function edge scan
// fanned out over the given worker count (<= 0 means one per CPU). The edge sets
// are unions, so the merged graph is identical at any worker count.
func BuildPredsWorkers(p *cfg.Program, workers int) *Preds {
	pr := &Preds{
		FlowPreds:    map[string]map[string]bool{},
		CallPreds:    map[string]map[string]bool{},
		AddressTaken: map[string]bool{},
		ProgramEntry: p.Entry,
		owner:        map[string]*cfg.Func{},
	}
	add := func(m map[string]map[string]bool, to, from string) {
		if m[to] == nil {
			m[to] = map[string]bool{}
		}
		m[to][from] = true
	}
	labels := map[string]bool{}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			labels[b.Label] = true
			pr.owner[b.Label] = f
		}
	}
	scans, _ := parallel.Map(len(p.Funcs), workers, func(fi int) (predEdges, error) {
		var e predEdges
		for _, b := range p.Funcs[fi].Blocks {
			succs, _ := b.Succs()
			for _, s := range succs {
				e.flow = append(e.flow, [2]string{s, b.Label})
			}
			for _, c := range b.Calls() {
				if c.Callee != "" && labels[c.Callee] {
					e.call = append(e.call, [2]string{c.Callee, b.Label})
				}
			}
			for _, in := range b.Insts {
				// A la of a code label takes its address (indirect call or
				// computed branch target).
				if in.Kind == cfg.TargetLo16 && labels[in.Target] {
					e.addrTaken = append(e.addrTaken, in.Target)
				}
			}
		}
		return e, nil
	})
	for _, e := range scans {
		for _, fl := range e.flow {
			add(pr.FlowPreds, fl[0], fl[1])
		}
		for _, c := range e.call {
			add(pr.CallPreds, c[0], c[1])
		}
		for _, l := range e.addrTaken {
			pr.AddressTaken[l] = true
		}
	}
	for _, r := range p.DataRelocs {
		if labels[r.Sym] {
			pr.AddressTaken[r.Sym] = true
		}
	}
	return pr
}

// BufferWords reports the exact number of runtime-buffer words region r
// occupies when decompressed: the leading dispatch jump, the instructions
// themselves, one branch per fallthrough edge broken by the layout or
// leaving the region, and one extra word per call expanded into the
// CreateStub sequence (c_i in the paper's cost model). safeCallee reports
// callees proven buffer-safe (§6.1), whose calls are not expanded; pass nil
// for the conservative bound.
func BufferWords(r *Region, safeCallee func(string) bool) int {
	words := 1 // leading jump to the entry offset
	for i, b := range r.Blocks {
		words += len(b.Insts)
		if b.FallsTo != "" {
			next := ""
			if i+1 < len(r.Blocks) {
				next = r.Blocks[i+1].Label
			}
			if b.FallsTo != next {
				words++ // explicit branch inserted by the region layout
			}
		}
		// Every call from the buffer to a non-buffer-safe callee expands
		// into the CreateStub pair — including calls to targets in the
		// same region, whose bodies may still branch to other regions.
		for _, c := range b.Calls() {
			if safeCallee != nil && c.Callee != "" && safeCallee(c.Callee) {
				continue
			}
			words++
		}
	}
	return words
}

// compressible classifies which cold blocks may be compressed at all, and
// records exclusion reasons for the rest (paper: §2.2 setjmp, §4 unknown
// control flow, §6.2 unresolved jump tables).
func compressible(p *cfg.Program, cold map[string]bool, workers int) (map[string]*cfg.Block, map[string]string) {
	type verdict struct {
		block  *cfg.Block
		reason string // empty when compressible
	}
	scans, _ := parallel.Map(len(p.Funcs), workers, func(fi int) ([]verdict, error) {
		f := p.Funcs[fi]
		setjmp := f.CallsSetjmp()
		// An unresolved indirect jump poisons the whole function: any block
		// could be its target.
		poisoned := false
		for _, b := range f.Blocks {
			if _, known := b.Succs(); !known {
				poisoned = true
			}
		}
		var out []verdict
		for _, b := range f.Blocks {
			if !cold[b.Label] {
				continue
			}
			v := verdict{block: b}
			switch {
			case setjmp:
				v.reason = "function calls setjmp"
			case poisoned:
				v.reason = "function contains unresolved indirect jump"
			case hasRaw(b):
				v.reason = "block contains data words"
			case endsInTableJump(b):
				v.reason = "block ends in jump-table dispatch (not unswitched)"
			case hasIndirectUnknownCall(b):
				v.reason = "block contains indirect call with unknown target"
			}
			out = append(out, v)
		}
		return out, nil
	})
	ok := map[string]*cfg.Block{}
	excluded := map[string]string{}
	for _, scan := range scans {
		for _, v := range scan {
			if v.reason == "" {
				ok[v.block.Label] = v.block
			} else {
				excluded[v.block.Label] = v.reason
			}
		}
	}
	return ok, excluded
}

func hasRaw(b *cfg.Block) bool {
	for _, in := range b.Insts {
		if in.Raw {
			return true
		}
	}
	return false
}

func endsInTableJump(b *cfg.Block) bool {
	if len(b.Insts) == 0 {
		return false
	}
	last := b.Insts[len(b.Insts)-1]
	return !last.Raw && last.Format == isa.FormatJump && last.JFunc == isa.JmpJMP
}

func hasIndirectUnknownCall(b *cfg.Block) bool {
	for _, c := range b.Calls() {
		if c.Indirect && c.Callee == "" {
			return true
		}
	}
	return false
}

// blockCost is what one block contributes to any region holding it,
// computed once per Partition.
type blockCost struct {
	// words is the block's own share of BufferWords(r, nil): its
	// instructions plus one word per call, each expanded into the
	// CreateStub pair under the conservative bound.
	words int
	// callees are the block's resolved call targets, in call order.
	callees []string
}

// costs holds the cost of every candidate block.
type costs map[*cfg.Block]blockCost

func blockCosts(candidates map[string]*cfg.Block) costs {
	c := make(costs, len(candidates))
	for _, b := range candidates {
		bc := blockCost{words: len(b.Insts)}
		for _, cs := range b.Calls() {
			bc.words++
			if cs.Callee != "" {
				bc.callees = append(bc.callees, cs.Callee)
			}
		}
		c[b] = bc
	}
	return c
}

// appendWords is the change in buffer words from appending b to a block
// sequence whose last block is tail (nil for an empty sequence): b's own
// words, a branch if b falls through (nothing follows it yet), less the
// branch tail no longer needs if it falls through to b.
func (c costs) appendWords(tail, b *cfg.Block) int {
	w := c[b].words
	if b.FallsTo != "" {
		w++
	}
	if tail != nil && tail.FallsTo == b.Label {
		w--
	}
	return w
}

// concatWords is the buffer words of region a's blocks followed by region
// b's, given wa and wb, their own: the two share one leading jump, and the
// branch after a's last block goes if it falls through to b's first.
func concatWords(a, b *Region, wa, wb int) int {
	w := wa + wb - 1
	if a.Blocks[len(a.Blocks)-1].FallsTo == b.Blocks[0].Label {
		w--
	}
	return w
}

// Partition forms compressible regions from the cold blocks of a profiled
// program.
func Partition(p *cfg.Program, cold map[string]bool, conf Config) (*Result, *Preds, error) {
	if conf.K <= 0 || conf.Gamma <= 0 || conf.Gamma >= 1 {
		return nil, nil, fmt.Errorf("regions: invalid config K=%d gamma=%v", conf.K, conf.Gamma)
	}
	maxWords := conf.K / isa.WordSize
	preds := BuildPredsWorkers(p, conf.Workers)
	candidates, excluded := compressible(p, cold, conf.Workers)
	cost := blockCosts(candidates)

	res := &Result{
		InRegion: map[string]int{},
		Excluded: excluded,
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			res.TotalInsts += len(b.Insts)
			if cold[b.Label] {
				res.ColdInsts += len(b.Insts)
			}
		}
	}

	// Initial regions: optionally seed from natural loops (loop-aware
	// strategy), then bounded DFS per function in block layout order. A
	// region's ID is its index in res.Regions.
	assigned := map[string]bool{}
	noRetry := map[string]bool{}
	if conf.Strategy == StrategyLoopAware {
		res.Regions = append(res.Regions,
			seedLoopRegions(p, preds, candidates, assigned, res, maxWords, conf.Gamma)...)
	}
	for _, f := range p.Funcs {
		for _, root := range f.Blocks {
			if assigned[root.Label] || noRetry[root.Label] || candidates[root.Label] == nil {
				continue
			}
			tree := dfsTree(f, root, candidates, preds.owner, assigned, cost, maxWords)
			if len(tree) == 0 {
				continue
			}
			r := &Region{ID: len(res.Regions), Blocks: tree}
			for _, b := range tree {
				res.InRegion[b.Label] = r.ID
			}
			if profitable(res, preds, r, conf.Gamma) {
				for _, b := range tree {
					assigned[b.Label] = true
				}
				res.Regions = append(res.Regions, r)
			} else {
				for _, b := range tree {
					delete(res.InRegion, b.Label)
				}
				noRetry[root.Label] = true
			}
		}
	}

	if conf.Pack {
		packRegions(res, preds, cost, maxWords)
	}

	// Final bookkeeping: exclusion reasons for cold blocks left out.
	for label := range candidates {
		if _, in := res.InRegion[label]; !in {
			if _, already := res.Excluded[label]; !already {
				res.Excluded[label] = "not profitable to compress"
			}
		}
	}
	for _, r := range res.Regions {
		res.CompressibleInsts += r.NumInsts()
	}
	// Sanity: every region respects the buffer bound.
	for _, r := range res.Regions {
		if w := BufferWords(r, nil); w > maxWords {
			return nil, nil, fmt.Errorf("regions: region %d needs %d words, bound is %d", r.ID, w, maxWords)
		}
	}
	return res, preds, nil
}

// dfsTree grows a region from root by depth-first search over successor
// edges, restricted to compressible, unassigned blocks of function f,
// keeping the exact buffer requirement within maxWords. The requirement is
// kept incrementally: the tree only grows, and a block that would exceed
// the bound is skipped with the count left as it was.
func dfsTree(f *cfg.Func, root *cfg.Block, candidates map[string]*cfg.Block, owner map[string]*cfg.Func,
	assigned map[string]bool, cost costs, maxWords int) []*cfg.Block {
	var tree []*cfg.Block
	words := 1 // leading jump to the entry offset
	seen := map[string]bool{}
	var visit func(b *cfg.Block)
	visit = func(b *cfg.Block) {
		if seen[b.Label] || assigned[b.Label] {
			return
		}
		var tail *cfg.Block
		if len(tree) > 0 {
			tail = tree[len(tree)-1]
		}
		w := words + cost.appendWords(tail, b)
		if w > maxWords {
			return
		}
		seen[b.Label] = true
		tree = append(tree, b)
		words = w
		succs, _ := b.Succs()
		for _, s := range succs {
			if nb := candidates[s]; nb != nil && owner[s] == f {
				visit(nb)
			}
		}
	}
	visit(root)
	return tree
}

// profitable implements the paper's test: a region of I instructions saves
// (1-γ)·I instructions when compressed and costs E instructions of entry
// stubs; compress only when E < (1-γ)·I.
func profitable(res *Result, preds *Preds, r *Region, gamma float64) bool {
	e := EntryStubWords * len(res.Entries(preds, r))
	i := r.NumInsts()
	return float64(e) < (1-gamma)*float64(i)
}

// packRegions repeatedly merges the pair of regions with the greatest
// savings without exceeding the buffer bound (paper, §4). Savings per merge:
// entry stubs for blocks whose external predecessors all lie in the partner
// region, restore-stub machinery for calls between the regions, a jump for
// fallthrough edges knitted by concatenation, and one function-offset-table
// word for the eliminated region.
//
// For tractability the pass runs in two phases: greedy best-pair merging
// over *related* regions (pairs connected by a control-flow edge, a call, or
// a fallthrough — the only pairs whose savings exceed the one-word table
// saving), followed by first-fit-decreasing packing of the remainder, which
// realizes the table-word savings the paper attributes to packing small
// fragmented regions together.
//
// Each live region carries its buffer words, so a merge's size is O(1)
// (concatWords). Phase 1 keeps each related pair's score; merging y into x
// changes the entries, calls, knit and size of pairs touching x or y only,
// so y's pairs are dropped, x's are re-scored and every other score stays
// exact. Each merge then picks the best score by one scan.
func packRegions(res *Result, preds *Preds, cost costs, maxWords int) {
	const restoreStubSavingWords = 3 // stub code words plus the buffer word

	// live[id] is region id until it is merged away; words[id] is its
	// buffer words.
	live := make([]*Region, len(res.Regions))
	words := make([]int, len(res.Regions))
	for _, r := range res.Regions {
		live[r.ID] = r
		words[r.ID] = BufferWords(r, nil)
	}

	// merge appends region y's blocks to region x.
	merge := func(x, y *Region) {
		words[x.ID] = concatWords(x, y, words[x.ID], words[y.ID])
		x.Blocks = append(x.Blocks, y.Blocks...)
		for _, blk := range y.Blocks {
			res.InRegion[blk.Label] = x.ID
		}
		live[y.ID] = nil
	}

	savings := func(a, b *Region) int {
		s := 1 // one fewer function-offset-table entry
		for _, pair := range [2][2]*Region{{a, b}, {b, a}} {
			own, partner := pair[0], pair[1]
			for _, blk := range own.Blocks {
				// An entry whose external predecessors all lie in the
				// partner needs no stub after the merge.
				if !preds.alwaysEntry(blk.Label) {
					if outOwn, outBoth := preds.externalPreds(blk.Label, res.InRegion, own.ID, partner.ID); outOwn && !outBoth {
						s += EntryStubWords
					}
				}
				// Calls between the two regions become intra-region.
				for _, callee := range cost[blk].callees {
					if id, in := res.InRegion[callee]; in && id == partner.ID {
						s += restoreStubSavingWords
					}
				}
			}
		}
		// Fallthrough knitting: the last block of a falling through to the
		// first block of b saves the inserted branch.
		if a.Blocks[len(a.Blocks)-1].FallsTo == b.Blocks[0].Label {
			s++
		}
		return s
	}

	// Related regions: connected by flow, call, or fallthrough.
	adj := make([]map[int]bool, len(live))
	relate := func(x, y int) {
		if x == y {
			return
		}
		for _, e := range [2][2]int{{x, y}, {y, x}} {
			if adj[e[0]] == nil {
				adj[e[0]] = map[int]bool{}
			}
			adj[e[0]][e[1]] = true
		}
	}
	for _, r := range live {
		for _, blk := range r.Blocks {
			succs, _ := blk.Succs()
			for _, s := range succs {
				if id, in := res.InRegion[s]; in {
					relate(r.ID, id)
				}
			}
			for _, callee := range cost[blk].callees {
				if id, in := res.InRegion[callee]; in {
					relate(r.ID, id)
				}
			}
		}
	}

	// Phase 1: greedy merging of related pairs, best savings first; ties go
	// to the lowest (lo, hi), so the result does not depend on map order.
	// scores holds every related pair (lo < hi) that fits the bound and
	// saves more than the table word.
	scores := map[[2]int]int{}
	score := func(x, y int) {
		if x > y {
			x, y = y, x
		}
		pr := [2]int{x, y}
		delete(scores, pr)
		a, b := live[x], live[y]
		if concatWords(a, b, words[x], words[y]) > maxWords {
			return
		}
		if s := savings(a, b); s > 1 {
			scores[pr] = s
		}
	}
	for x, near := range adj {
		for y := range near {
			if x < y {
				score(x, y)
			}
		}
	}
	for len(scores) > 0 {
		best, bestS := [2]int{}, 0
		for pr, s := range scores {
			if s > bestS || s == bestS && (pr[0] < best[0] || pr[0] == best[0] && pr[1] < best[1]) {
				best, bestS = pr, s
			}
		}
		x, y := live[best[0]], live[best[1]]
		merge(x, y)
		for z := range adj[y.ID] {
			delete(scores, [2]int{min(y.ID, z), max(y.ID, z)})
			delete(adj[z], y.ID)
			if z != x.ID {
				adj[x.ID][z] = true
				adj[z][x.ID] = true
			}
		}
		adj[y.ID] = nil
		for z := range adj[x.ID] {
			score(x.ID, z)
		}
	}

	// Phase 2: first-fit-decreasing packing of what remains, for the
	// function-offset-table savings.
	var ids []int
	for id, r := range live {
		if r != nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		wi, wj := words[ids[i]], words[ids[j]]
		if wi != wj {
			return wi > wj
		}
		return ids[i] < ids[j]
	})
	var bins []*Region
	for _, id := range ids {
		r := live[id]
		placed := false
		for _, bin := range bins {
			if concatWords(bin, r, words[bin.ID], words[id]) <= maxWords {
				merge(bin, r)
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, r)
		}
	}

	// Renumber compactly in ascending original-ID order.
	var out []*Region
	remap := make([]int, len(live))
	for _, r := range live {
		if r != nil {
			remap[r.ID] = len(out)
			r.ID = len(out)
			out = append(out, r)
		}
	}
	for l, id := range res.InRegion {
		res.InRegion[l] = remap[id]
	}
	res.Regions = out
}
