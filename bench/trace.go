package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// (a registry pass, a job, a sweep) share a trace ID; a span's
// parent is the span whose work caused it.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace_id"`
	ID     uint64 `json:"span_id"`
	Parent uint64 `json:"parent_id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id allocates a span ID (0 on a nil tracer).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span.
func (t *tracer) record(name string, trace, id, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Trace: trace, ID: id, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span named name and returns its duration.
func (t *tracer) timed(name string, trace, parent uint64, fn func(id uint64)) time.Duration {
	id := t.id()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.record(name, trace, id, parent, start, end)
	return end.Sub(start)
}

// spanTotals is the summed duration and self time of every span of a name.
type spanTotals struct {
	total int64
	self  int64
}

// window is the interval [from, to) of one phase.
type window struct{ from, to time.Time }

// totals folds by name the spans that started in any of the windows, or
// every span when there are none. A span's self time is its duration minus
// the part of that interval its children cover.
func (t *tracer) totals(windows ...window) map[string]*spanTotals {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	inWindow := func(start int64) bool {
		if len(windows) == 0 {
			return true
		}
		for _, w := range windows {
			if start >= w.from.Sub(t.epoch).Nanoseconds() && start < w.to.Sub(t.epoch).Nanoseconds() {
				return true
			}
		}
		return false
	}
	out := make(map[string]*spanTotals)
	for _, s := range spans {
		if !inWindow(s.Start) {
			continue
		}
		tot := out[s.Name]
		if tot == nil {
			tot = &spanTotals{}
			out[s.Name] = tot
		}
		dur := s.End - s.Start
		tot.total += dur
		tot.self += dur - covered(s, children[s.ID])
	}
	return out
}

// selfOf is the summed self time, in nanoseconds, of the spans named name.
func selfOf(tot map[string]*spanTotals, name string) int64 {
	if t := tot[name]; t != nil {
		return t.self
	}
	return 0
}

// totalOf is the summed duration, in nanoseconds, of the spans named name.
func totalOf(tot map[string]*spanTotals, name string) int64 {
	if t := tot[name]; t != nil {
		return t.total
	}
	return 0
}

// covered is how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = start, end
		} else if end > curEnd {
			curEnd = end
		}
	}
	return total + curEnd - curStart
}

// count is how many spans were recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Trace context crosses the HTTP boundary in these headers, so a server
// span can name the client span that caused it.
const (
	traceHeader  = "X-Bench-Trace"
	parentHeader = "X-Bench-Parent"
)

// traceHeaders is the header set carrying a span's trace context.
func traceHeaders(trace, parent uint64) map[string]string {
	return map[string]string{
		traceHeader:  strconv.FormatUint(trace, 10),
		parentHeader: strconv.FormatUint(parent, 10),
	}
}

// timedHandler records one span per request served by next, named
// prefix + the request's route, under the trace context the request
// carries (none for requests the benchmark did not send).
type timedHandler struct {
	next   http.Handler
	tr     *tracer
	prefix string
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	trace, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
	h.tr.timed(h.prefix+route(r), trace, parent, func(uint64) { h.next.ServeHTTP(w, r) })
}

// route names a request by method and path shape.
func route(r *http.Request) string {
	p, get := r.URL.Path, r.Method == http.MethodGet
	switch {
	case r.Method == http.MethodPost && p == "/jobs":
		return "post_jobs"
	case r.Method == http.MethodPost && p == "/sweeps":
		return "post_sweeps"
	case get && strings.HasPrefix(p, "/jobs/") && strings.HasSuffix(p, "/result"):
		return "get_result"
	case get && strings.HasPrefix(p, "/jobs/"):
		return "get_job"
	case get && strings.HasPrefix(p, "/sweeps/") && strings.HasSuffix(p, "/result"):
		return "sweep_result"
	case get && strings.HasPrefix(p, "/sweeps/"):
		return "get_sweep"
	}
	return "other"
}
