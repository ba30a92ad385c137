// Package buffersafe implements the paper's buffer-safe function analysis
// (§6.1). A function is buffer-safe if neither it nor anything it can call
// or branch to will invoke the decompressor. A call from compressed code to
// a buffer-safe callee can be left unchanged: the runtime buffer cannot be
// overwritten during the callee's execution, so no restore stub and no
// extra buffer instruction are needed, and no re-decompression of the
// caller happens on return.
//
// The analysis is the paper's straightforward iterative one: seed the
// not-buffer-safe set with every function that owns a compressed block or
// contains an indirect call with unknown targets, then propagate backwards
// along call and branch edges until a fixed point.
package buffersafe

import (
	"repro/internal/cfg"
	"repro/internal/parallel"
)

// Result maps function names to buffer-safety.
type Result struct {
	Safe map[string]bool
}

// IsSafe reports whether the named function is buffer-safe; unknown names
// are unsafe.
func (r *Result) IsSafe(fn string) bool { return r.Safe[fn] }

// SafeCount reports how many functions are buffer-safe.
func (r *Result) SafeCount() int {
	n := 0
	for _, s := range r.Safe {
		if s {
			n++
		}
	}
	return n
}

// funcScan is the per-function slice of the call graph, computed
// independently per function and merged in function order.
type funcScan struct {
	callees            map[string]bool
	hasUnknownIndirect bool
	ownsCompressed     bool
}

// AnalyzeWorkers computes buffer safety for every function. compressed maps
// block labels chosen for compression. A function whose address escapes may
// be called from anywhere, including compressed code, but that does not
// make it unsafe by itself — only being unable to enumerate *its* callees
// does. The per-function call-graph scan is fanned out over the given
// worker count (<= 0 means one per CPU). Each function's scan touches only
// that function's blocks, and the merged graph is a set union, so the
// result is identical at any worker count.
func AnalyzeWorkers(p *cfg.Program, compressed map[string]bool, workers int) *Result {
	owner := map[string]string{} // block label -> function name
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			owner[b.Label] = f.Name
		}
	}

	// Call graph and "branches into" edges, function-level.
	scans, _ := parallel.Map(len(p.Funcs), workers, func(fi int) (funcScan, error) {
		f := p.Funcs[fi]
		s := funcScan{callees: map[string]bool{}}
		for _, b := range f.Blocks {
			for _, c := range b.Calls() {
				if c.Callee == "" {
					s.hasUnknownIndirect = true
					continue
				}
				s.callees[owner[c.Callee]] = true
			}
			succs, known := b.Succs()
			if !known {
				s.hasUnknownIndirect = true
			}
			for _, succ := range succs {
				if o := owner[succ]; o != f.Name {
					// Inter-function branch (possible after rewriting).
					s.callees[o] = true
				}
			}
			if compressed[b.Label] {
				s.ownsCompressed = true
			}
		}
		return s, nil
	})
	callees := map[string]map[string]bool{} // caller fn -> callee fns
	unsafe := map[string]bool{}
	for fi, f := range p.Funcs {
		callees[f.Name] = scans[fi].callees
		if scans[fi].hasUnknownIndirect || scans[fi].ownsCompressed {
			unsafe[f.Name] = true
		}
	}

	// Propagate: a function that can reach an unsafe function is unsafe.
	for changed := true; changed; {
		changed = false
		for _, f := range p.Funcs {
			if unsafe[f.Name] {
				continue
			}
			for callee := range callees[f.Name] {
				if unsafe[callee] {
					unsafe[f.Name] = true
					changed = true
					break
				}
			}
		}
	}

	res := &Result{Safe: map[string]bool{}}
	for _, f := range p.Funcs {
		res.Safe[f.Name] = !unsafe[f.Name]
	}
	return res
}

// CallSiteStats reports, over all call sites inside compressed blocks, how
// many have buffer-safe callees — the calls §6.1's optimization leaves
// unchanged. This is the statistic the paper summarizes as the fraction of
// buffer-safe callees among compressible regions' calls (≈12.5% on average
// for its benchmark suite).
func CallSiteStats(p *cfg.Program, compressed map[string]bool, r *Result) (safeCalls, totalCalls int) {
	owner := map[string]string{}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			owner[b.Label] = f.Name
		}
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if !compressed[b.Label] {
				continue
			}
			for _, c := range b.Calls() {
				totalCalls++
				if c.Callee != "" && r.IsSafe(owner[c.Callee]) {
					safeCalls++
				}
			}
		}
	}
	return safeCalls, totalCalls
}
