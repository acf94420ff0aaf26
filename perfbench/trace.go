package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// code around the public call it makes or the func field it wraps. The
// layer is the name's first dot-separated element.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a lane root
	Lane   string `json:"lane"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// poolLane marks a span that ran on one of an anonymous worker pool's
// goroutines: analyze assigns each such span to a numbered worker lane.
const poolLane = "pool"

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs share the traced code path.
type Tracer struct {
	run   string
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(run string) *Tracer { return &Tracer{run: run, epoch: time.Now()} }

// ref is a handle on an open span; the zero ref (from a nil tracer)
// ignores every call.
type ref struct {
	t  *Tracer
	id int
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *Tracer) open(parent int, lane, name string) ref {
	if t == nil {
		return ref{}
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Lane: lane, Name: name, Run: t.run, Start: start, End: -1})
	return ref{t, id}
}

// root opens a lane root.
func (t *Tracer) root(lane, name string) ref { return t.open(0, lane, name) }

// child opens a span under r on r's lane.
func (r ref) child(name string) ref {
	if r.t == nil {
		return ref{}
	}
	r.t.mu.Lock()
	lane := r.t.spans[r.id-1].Lane
	r.t.mu.Unlock()
	return r.t.open(r.id, lane, name)
}

// pooled opens a span under r that runs on a worker-pool goroutine.
func (r ref) pooled(name string) ref {
	if r.t == nil {
		return ref{}
	}
	return r.t.open(r.id, poolLane, name)
}

func (r ref) end() {
	if r.t == nil {
		return
	}
	end := r.t.now()
	r.t.mu.Lock()
	r.t.spans[r.id-1].End = end
	r.t.mu.Unlock()
}

// timed runs fn inside a child span of parent and returns its wall
// time, which is measured whether or not a tracer records the span.
func timed(parent ref, name string, fn func()) time.Duration {
	sp := parent.child(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	sp.end()
	return d
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

func (t *Tracer) writeJSON(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf names the layer a span belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// LaneReport is one lane's self-time accounting: its root's wall time,
// and how much of it no layer span covered.
type LaneReport struct {
	Lane          string  `json:"lane"`
	WallS         float64 `json:"wall_s"`
	LayerSelfS    float64 `json:"layer_self_s"`   // sum of non-root self times
	UncoveredS    float64 `json:"uncovered_s"`    // the root's own self time
	UncoveredFrac float64 `json:"uncovered_frac"` // UncoveredS / WallS
}

// TraceReport is the analysed trace.
type TraceReport struct {
	SelfS map[string]float64 `json:"self_s"` // layer -> self time, summed over lanes
	Lanes []LaneReport       `json:"lanes"`
}

// analyze computes self times. A span's self time is the part of its
// interval during which none of its children on the same lane run;
// where concurrent sibling spans overlap on one lane (a snapshot's three
// record streams) the overlap is split equally among the innermost
// running spans, so on every lane the self times add up to the lane
// root's wall time and the root's own self time is the time no layer
// span covered. Spans opened with pooled ran on a pool of poolSize
// goroutines; they are packed onto that many worker lanes, earliest
// free first, and each worker lane's root is an "idle" span over the
// pool parent's interval, so a worker's idle time is its root's self
// time. Children are clamped into their parent's interval first.
func analyze(spans []Span, poolSize int) TraceReport {
	spans = append([]Span(nil), spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	// Worker-lane roots are appended below, so index by ID only after.
	isPoolRoot := func(s *Span) bool {
		return s.Lane == poolLane && s.Parent > 0 && spans[s.Parent-1].Lane != poolLane
	}
	for i := range spans {
		if spans[i].End < spans[i].Start {
			spans[i].End = spans[i].Start // never ended: an aborted call
		}
	}

	var pool []int
	poolParents := map[int]bool{}
	for i := range spans {
		if isPoolRoot(&spans[i]) {
			pool = append(pool, i)
			poolParents[spans[i].Parent] = true
		}
	}
	sort.Slice(pool, func(a, b int) bool { return spans[pool[a]].Start < spans[pool[b]].Start })
	type worker struct {
		root int   // ID of the lane's idle root
		free int64 // end of the lane's last span
		last int   // index of the lane's last span
	}
	var workers []*worker
	for _, i := range pool {
		s := &spans[i]
		if len(workers) < max(poolSize, 1) {
			p := spans[s.Parent-1]
			lane := fmt.Sprintf("worker-%d", len(workers)+1)
			id := len(spans) + 1
			spans = append(spans, Span{ID: id, Lane: lane, Name: "idle." + lane, Run: p.Run, Start: p.Start, End: p.End})
			s = &spans[i]
			workers = append(workers, &worker{root: id, free: s.End, last: i})
			s.Lane, s.Parent = lane, id
			continue
		}
		w := workers[0]
		for _, c := range workers[1:] {
			if c.free < w.free {
				w = c
			}
		}
		if w.free > s.Start {
			// The pool's end timestamps land a little after the worker
			// moved on; the next start is the better end.
			spans[w.last].End = s.Start
		}
		s.Lane, s.Parent = spans[w.root-1].Lane, w.root
		w.free, w.last = s.End, i
	}
	// Spans under a pool span inherit its worker lane (parents have
	// smaller IDs), then every child is clamped into its parent.
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		p := &spans[s.Parent-1]
		if s.Lane == poolLane {
			s.Lane = p.Lane
		}
		s.Start = min(max(s.Start, p.Start), p.End)
		s.End = min(max(s.End, s.Start), p.End)
	}

	lanes := map[string][]*Span{}
	var laneNames []string
	for i := range spans {
		s := &spans[i]
		if _, ok := lanes[s.Lane]; !ok {
			laneNames = append(laneNames, s.Lane)
		}
		lanes[s.Lane] = append(lanes[s.Lane], s)
	}
	sort.Strings(laneNames)

	rep := TraceReport{SelfS: map[string]float64{}}
	for _, lane := range laneNames {
		self := selfTimes(lanes[lane])
		lr := LaneReport{Lane: lane}
		for _, s := range lanes[lane] {
			sec := self[s.ID] / 1e9
			if s.Parent == 0 || spans[s.Parent-1].Lane != lane {
				lr.WallS += float64(s.End-s.Start) / 1e9
				lr.UncoveredS += sec
				continue
			}
			lr.LayerSelfS += sec
			if poolParents[s.ID] {
				continue // its time is the worker lanes' to account for
			}
			rep.SelfS[layerOf(s.Name)] += sec
		}
		if lr.WallS > 0 {
			lr.UncoveredFrac = lr.UncoveredS / lr.WallS
		}
		rep.Lanes = append(rep.Lanes, lr)
	}
	return rep
}

// selfTimes sweeps one lane's spans in time order and credits each
// instant to the innermost running spans, split equally among them.
func selfTimes(spans []*Span) map[int]float64 {
	byID := make(map[int]*Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	inLane := func(id int) bool { return byID[id] != nil }
	depth := map[int]int{}
	var depthOf func(s *Span) int
	depthOf = func(s *Span) int {
		if d, ok := depth[s.ID]; ok {
			return d
		}
		d := 0
		if p := byID[s.Parent]; p != nil {
			d = depthOf(p) + 1
		}
		depth[s.ID] = d
		return d
	}
	type event struct {
		at    int64
		start bool
		s     *Span
	}
	events := make([]event, 0, 2*len(spans))
	for _, s := range spans {
		if s.End > s.Start { // an empty span has no self time
			events = append(events, event{s.Start, true, s}, event{s.End, false, s})
		}
	}
	// At equal times ends go before starts, so back-to-back spans never
	// overlap; parents start before and end after their children.
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		switch {
		case a.at != b.at:
			return a.at < b.at
		case a.start != b.start:
			return !a.start
		case a.start:
			return depthOf(a.s) < depthOf(b.s)
		default:
			return depthOf(a.s) > depthOf(b.s)
		}
	})
	self := make(map[int]float64, len(spans))
	running := map[int]int{} // running span -> running children on the lane
	leaves := map[int]bool{}
	var prev int64
	for _, e := range events {
		if dt := e.at - prev; dt > 0 && len(leaves) > 0 {
			share := float64(dt) / float64(len(leaves))
			for id := range leaves {
				self[id] += share
			}
		}
		prev = e.at
		p := e.s.Parent
		_, parentRunning := running[p]
		parentRunning = parentRunning && inLane(p)
		if e.start {
			running[e.s.ID] = 0
			leaves[e.s.ID] = true
			if parentRunning {
				running[p]++
				delete(leaves, p)
			}
			continue
		}
		delete(running, e.s.ID)
		delete(leaves, e.s.ID)
		if parentRunning {
			running[p]--
			if running[p] == 0 {
				leaves[p] = true
			}
		}
	}
	return self
}
