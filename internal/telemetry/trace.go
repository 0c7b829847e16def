package telemetry

// This file is the per-query tracer: a request that asks for tracing (or
// runs under a slow-query threshold) gets a root Span, the engine layers
// hang child spans off it as they work — plan, per-shard evaluation,
// merge, checkpoint phases — and the finished tree serializes to JSON for
// the ?trace=1 response or the slow-query log line. Tracing is strictly
// opt-in per request: an untraced request carries a nil *Span, and every
// Span method is nil-safe, so the disabled path costs one pointer
// comparison per instrumentation site and allocates nothing.

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxSpans bounds one trace's total span count. A query fanning
// out over many shards and segments produces a handful of spans; the cap
// exists so a pathological request (or an instrumentation bug in a loop)
// cannot make a trace allocate without bound. Spans requested past the
// cap are counted as dropped, not recorded.
const DefaultMaxSpans = 512

// Tracer hands out root spans and accounts for the process's tracing
// activity: spans started, spans dropped at the per-trace cap. One Tracer
// serves all concurrent requests; all methods are safe for concurrent use
// and nil-safe (a nil Tracer starts only nil spans).
type Tracer struct {
	maxSpans int
	started  atomic.Uint64
	dropped  atomic.Uint64
}

// NewTracer returns a tracer with the default per-trace span cap.
func NewTracer() *Tracer {
	return &Tracer{maxSpans: DefaultMaxSpans}
}

// Start begins a new root span. Returns nil on a nil tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	s := &Span{name: name, start: time.Now(), tracer: t}
	s.budget = new(int32)
	atomic.StoreInt32(s.budget, int32(t.maxSpans)-1)
	return s
}

// Started returns the number of spans started process-wide (roots and
// children).
func (t *Tracer) Started() uint64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

// Dropped returns the number of child spans refused at the per-trace cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Annotation is one key/value note on a span.
type Annotation struct {
	Key   string
	Value string
}

// Span is one node of a trace tree: a named, timed operation with
// key/value annotations and child spans. Child and Annotate are safe for
// concurrent use (parallel shard fan-out hangs children off one parent
// concurrently); End is idempotent. All methods are nil-safe, so
// instrumented code threads a possibly-nil span without branching.
type Span struct {
	name   string
	start  time.Time
	tracer *Tracer
	budget *int32 // remaining spans for the whole trace, shared by the tree

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	notes    []Annotation
	children []*Span
}

// Child begins a sub-span. Returns nil on a nil span or when the trace's
// span budget is exhausted (the tracer counts the drop).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	if atomic.AddInt32(s.budget, -1) < 0 {
		s.tracer.drop()
		return nil
	}
	s.tracer.count()
	c := &Span{name: name, start: time.Now(), tracer: s.tracer, budget: s.budget}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ChildDone records a completed sub-span with an explicit duration — the
// idiom for phases that were timed anyway for a histogram observation —
// and returns it so the caller can annotate it (nil as for Child).
func (s *Span) ChildDone(name string, d time.Duration) *Span {
	c := s.Child(name)
	if c == nil {
		return nil
	}
	c.mu.Lock()
	c.dur = d
	c.ended = true
	c.mu.Unlock()
	return c
}

func (t *Tracer) count() {
	if t != nil {
		t.started.Add(1)
	}
}

func (t *Tracer) drop() {
	if t != nil {
		t.dropped.Add(1)
	}
}

// Annotate attaches a key/value note (value rendered with %v).
func (s *Span) Annotate(key string, value any) {
	if s == nil {
		return
	}
	note := Annotation{Key: key, Value: fmt.Sprint(value)}
	s.mu.Lock()
	s.notes = append(s.notes, note)
	s.mu.Unlock()
}

// End fixes the span's duration. The first call wins; later calls are
// no-ops, so a handler may End a span for response rendering and an outer
// middleware may End it again as a safety net.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Duration returns the span's fixed duration, or the running duration if
// it has not ended (0 on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SpanJSON is the serialized form of one span tree node.
type SpanJSON struct {
	Name       string            `json:"name"`
	DurationMS float64           `json:"duration_ms"`
	Notes      map[string]string `json:"notes,omitempty"`
	Children   []SpanJSON        `json:"children,omitempty"`
}

// Tree converts the span (ending it if still running) and its descendants
// to the serializable form. Nil returns a zero tree.
func (s *Span) Tree() SpanJSON {
	if s == nil {
		return SpanJSON{}
	}
	s.End()
	s.mu.Lock()
	out := SpanJSON{
		Name:       s.name,
		DurationMS: float64(s.dur.Microseconds()) / 1000,
	}
	if len(s.notes) > 0 {
		out.Notes = make(map[string]string, len(s.notes))
		for _, n := range s.notes {
			out.Notes[n.Key] = n.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.Tree())
	}
	return out
}

// MarshalJSON renders the span tree, so a *Span drops straight into a
// JSON response or a structured log attribute.
func (s *Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Tree())
}

// Walk visits the span and every descendant depth-first. A nil span is an
// empty walk.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		c.Walk(fn)
	}
}
