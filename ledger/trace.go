package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer keeps the benchmark's spans in memory until the run ends. A span
// is recorded by the benchmark's own code around a call into one layer,
// or merged in from a core.SquashObs stage trace. Every span carries the
// id of the op (one request, squash or program run) it belongs to, so a
// per-op breakdown and the Chrome trace come from the same records. All
// methods are no-ops on a nil tracer, which is how the untraced run
// records nothing.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	next  int
}

type span struct {
	name       string
	id, parent int // parent is -1 for an op's root
	op         int
	tid        int
	start, end time.Duration // since t0
	args       map[string]any
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span; end records it.
type active struct {
	t *tracer
	s span
}

// start opens a span at now. parent may be nil for an op's root span.
func (t *tracer) start(name string, op, tid int, parent *active) *active {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	id := t.next
	t.next++
	t.mu.Unlock()
	p := -1
	if parent != nil {
		p = parent.s.id
	}
	return &active{t: t, s: span{name: name, id: id, parent: p, op: op, tid: tid, start: now.Sub(t.t0)}}
}

// end closes the span and records it.
func (a *active) end() {
	if a == nil {
		return
	}
	a.s.end = time.Since(a.t.t0)
	a.t.add(a.s)
}

// child records an already measured interval under a.
func (a *active) child(name string, from time.Time, d time.Duration, args map[string]any) {
	if a == nil {
		return
	}
	t := a.t
	t.mu.Lock()
	id := t.next
	t.next++
	t.mu.Unlock()
	st := from.Sub(t.t0)
	t.add(span{name: name, id: id, parent: a.s.id, op: a.s.op, tid: a.s.tid, start: st, end: st + d, args: args})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mergeObs folds the spans of an obs tracer (a core.SquashObs run whose
// tracer was created at origin) under parent. obs exports its spans only
// as Chrome trace events, so they are read back from that export: the
// tree is rebuilt by containment on each track, and a span on another
// track than its parent's (a Fork) hangs under the innermost root-track
// span containing it. Forked spans get a ".fork" suffix so their
// parallel time is summarised apart from the stage that forked them.
func (a *active) mergeObs(tr *obs.Tracer, origin time.Time) error {
	if a == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return fmt.Errorf("read squash trace: %w", err)
	}
	t := a.t
	base := origin.Sub(t.t0)
	us := func(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }
	var evs []span
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		st := base + us(e.Ts)
		evs = append(evs, span{name: e.Name, tid: e.Tid, start: st, end: st + us(e.Dur), args: e.Args})
	}
	// Outer spans first at equal start times, so containment finds parents.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].start != evs[j].start {
			return evs[i].start < evs[j].start
		}
		return evs[i].end > evs[j].end
	})
	var root []span // root-track spans seen so far
	t.mu.Lock()
	for i := range evs {
		evs[i].id = t.next
		t.next++
	}
	t.mu.Unlock()
	rootTid := 0
	if len(evs) > 0 {
		rootTid = evs[0].tid
	}
	for i := range evs {
		e := &evs[i]
		e.op, e.parent = a.s.op, a.s.id
		if e.tid != rootTid {
			e.name += ".fork"
		}
		// Innermost root-track span that contains e.
		for j := len(root) - 1; j >= 0; j-- {
			if root[j].start <= e.start && e.end <= root[j].end {
				e.parent = root[j].id
				break
			}
		}
		if e.tid == rootTid {
			root = append(root, *e)
		}
		e.tid = a.s.tid*100 + e.tid // keep the op's track; forks get their own
	}
	t.mu.Lock()
	t.spans = append(t.spans, evs...)
	t.mu.Unlock()
	return nil
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, indexed like t.spans.
func selfTimes(spans []span) []time.Duration {
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.id] = i
	}
	kids := make(map[int][]int)
	for i, s := range spans {
		if _, ok := idx[s.parent]; ok {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var iv [][2]time.Duration
		for _, k := range kids[s.id] {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, cur := time.Duration(0), s.start
		for _, v := range iv {
			lo := max(v[0], cur)
			if v[1] > lo {
				covered += v[1] - lo
				cur = v[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// perOp sums, for every op, the self time and the whole duration of the
// spans with each name. Both results map name -> op -> milliseconds.
func (t *tracer) perOp() (self, total map[string]map[int]float64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfT := selfTimes(spans)
	self, total = map[string]map[int]float64{}, map[string]map[int]float64{}
	for i, s := range spans {
		if self[s.name] == nil {
			self[s.name], total[s.name] = map[int]float64{}, map[int]float64{}
		}
		self[s.name][s.op] += ms(selfT[i])
		total[s.name][s.op] += ms(s.end - s.start)
	}
	return self, total
}

// summaryRow aggregates every span of one name.
type summaryRow struct {
	Name                   string
	Count                  int
	TotalMS, SelfMS, MaxMS float64
}

// summary aggregates the spans by name, largest self time first, so that
// a squash's hundreds of per-region spans read as one line.
func (t *tracer) summary() []summaryRow {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	rows := map[string]*summaryRow{}
	for i, s := range spans {
		r := rows[s.name]
		if r == nil {
			r = &summaryRow{Name: s.name}
			rows[s.name] = r
		}
		d := ms(s.end - s.start)
		r.Count++
		r.TotalMS += d
		r.SelfMS += ms(self[i])
		r.MaxMS = max(r.MaxMS, d)
	}
	out := make([]summaryRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeSummary prints the aggregated spans as an aligned table.
func writeSummary(w io.Writer, rows []summaryRow) error {
	if _, err := fmt.Fprintf(w, "%-28s %9s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "max_ms"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f %10.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS, r.MaxMS); err != nil {
			return err
		}
	}
	return nil
}

// writeChrome writes the spans in Chrome trace-event format (load it in
// chrome://tracing or ui.perfetto.dev).
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"op": s.op}
		for k, v := range s.args {
			args[k] = v
		}
		evs = append(evs, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
