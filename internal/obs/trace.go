package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one timed region of a request. Spans form a tree rooted at
// the HTTP layer; child spans are created through StartSpan with the
// parent's context, or attached post-hoc with Child (for phases whose
// timings were measured elsewhere, like the solver's internal phases).
//
// All methods are nil-safe: code instruments unconditionally and an
// untraced request (nil span in context) costs one pointer check.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	duration time.Duration // guarded by mu; zero until End
	attrs    []Label       // guarded by mu
	children []*Span       // guarded by mu
	grafted  []*SpanOut    // guarded by mu; pre-rendered subtrees (e.g. an upstream's trace)
}

type spanCtxKey struct{}

// NewTrace creates a root span and returns a context carrying it.
// The HTTP layer calls this for traced requests; everything below picks
// the span up via StartSpan.
func NewTrace(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{name: name, start: time.Now()}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// SpanFromContext returns the current span, or nil when the request is
// not being traced.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartSpan opens a child span under the context's current span and
// returns a context carrying the child. When the request is untraced it
// returns (ctx, nil) without allocating; the nil child's End/SetAttr
// are no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := &Span{name: name, start: time.Now()}
	parent.mu.Lock()
	parent.children = append(parent.children, child)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, child), child
}

// End closes the span, fixing its duration. Safe to call once; later
// calls are ignored so defer sp.End() composes with early explicit ends.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.duration == 0 {
		sp.duration = time.Since(sp.start)
	}
	sp.mu.Unlock()
}

// SetAttr attaches a key/value annotation to the span.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.attrs = append(sp.attrs, Label{Key: key, Value: value})
	sp.mu.Unlock()
}

// Child attaches a pre-measured child span (start + duration known)
// and returns it. This is how post-hoc phase timings — the solver
// reports presolve/cuts/search durations after the fact — enter the
// tree without plumbing span starts through the engine.
func (sp *Span) Child(name string, start time.Time, d time.Duration) *Span {
	if sp == nil {
		return nil
	}
	child := &Span{name: name, start: start, duration: d}
	sp.mu.Lock()
	sp.children = append(sp.children, child)
	sp.mu.Unlock()
	return child
}

// Graft attaches an already-rendered subtree as a child. The router
// uses this to splice an upstream's returned trace under the proxy
// attempt span, producing one router→handler→solve tree.
func (sp *Span) Graft(sub *SpanOut) {
	if sp == nil || sub == nil {
		return
	}
	sp.mu.Lock()
	sp.grafted = append(sp.grafted, sub)
	sp.mu.Unlock()
}

// SpanOut is the JSON wire form of a span tree. Start is wall-clock
// (unix microseconds) so trees rendered on different processes — the
// router's and the upstream node's — line up on one timeline.
type SpanOut struct {
	Name       string            `json:"name"`
	StartUnixU int64             `json:"start_us"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []*SpanOut        `json:"children,omitempty"`
}

// Render produces the JSON form of the tree rooted at sp. Open spans
// render with their duration-so-far.
func (sp *Span) Render() *SpanOut {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	d := sp.duration
	if d == 0 {
		d = time.Since(sp.start)
	}
	out := &SpanOut{
		Name:       sp.name,
		StartUnixU: sp.start.UnixMicro(),
		DurationMS: float64(d) / float64(time.Millisecond),
	}
	if len(sp.attrs) > 0 {
		out.Attrs = make(map[string]string, len(sp.attrs))
		for _, a := range sp.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), sp.children...)
	grafted := append([]*SpanOut(nil), sp.grafted...)
	sp.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.Render())
	}
	out.Children = append(out.Children, grafted...)
	return out
}

// Duration returns the span's duration (so-far if still open).
func (sp *Span) Duration() time.Duration {
	if sp == nil {
		return 0
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.duration == 0 {
		return time.Since(sp.start)
	}
	return sp.duration
}

// TraceEntry is one retained slow trace.
type TraceEntry struct {
	Duration time.Duration `json:"duration_ns"`
	Trace    *SpanOut      `json:"trace"`
}

// TraceRing retains the most recent traces that crossed a slowness
// threshold, bounded in count: a crash-cart view of "what was slow
// lately" without external infrastructure.
type TraceRing struct {
	mu        sync.Mutex
	max       int
	threshold time.Duration
	entries   []TraceEntry // guarded by mu; oldest first
}

// NewTraceRing returns a ring keeping at most max traces whose duration
// is >= threshold. max <= 0 defaults to 32.
func NewTraceRing(max int, threshold time.Duration) *TraceRing {
	if max <= 0 {
		max = 32
	}
	return &TraceRing{max: max, threshold: threshold}
}

// Keeps reports whether Offer would retain a trace of duration d, so a
// caller can skip rendering a tree the ring would drop. Nil-safe.
func (tr *TraceRing) Keeps(d time.Duration) bool {
	return tr != nil && d >= tr.threshold
}

// Offer retains the trace if it is slow enough, evicting the oldest
// entry when full. Nil-safe.
func (tr *TraceRing) Offer(t *SpanOut, d time.Duration) {
	if t == nil || !tr.Keeps(d) {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.entries) >= tr.max {
		tr.entries = append(tr.entries[:0], tr.entries[len(tr.entries)-tr.max+1:]...)
	}
	tr.entries = append(tr.entries, TraceEntry{Duration: d, Trace: t})
}

// Snapshot returns the retained traces, most recent last.
func (tr *TraceRing) Snapshot() []TraceEntry {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]TraceEntry(nil), tr.entries...)
}

type requestIDKey struct{}

// WithRequestID stores the request id in the context for handlers and
// loggers downstream.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFromContext returns the request id, or "".
func RequestIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
