// Package trace is the request-scoped tracing layer of the observability
// stack: W3C-style trace/span identifiers propagated through context, a
// per-request span recorder feeding one "wide event" per scored scene, a
// ring-buffer flight recorder, and the HTTP side both serving tiers share:
// the request envelope (Handle) and the /debug/requests handler.
//
// Design constraints mirror internal/telemetry:
//
//  1. Zero overhead off the request path. Recorder methods are nil-safe, so
//     instrumented packages (sti, reach) write `rec.Annotate(...)` without a
//     guard; an untraced call costs one nil check.
//  2. Safe under concurrency. One Recorder belongs to one request, but the
//     request fans out over the evaluator pool, so the recorder serialises
//     its appends behind a mutex.
//  3. No dependencies beyond the standard library.
package trace

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"time"
)

// ID is a 128-bit trace identifier, rendered as 32 lowercase hex digits
// (the W3C traceparent trace-id field). The zero ID is invalid.
type ID [16]byte

// SpanID is a 64-bit span identifier, rendered as 16 lowercase hex digits.
// The zero SpanID is invalid.
type SpanID [8]byte

// idRand is a process-local PRNG for identifier generation, seeded once
// from the OS entropy pool. Identifiers need uniqueness, not secrecy, so a
// fast seeded generator beats a syscall per request.
var idRand = func() *rand.Rand {
	var seed [32]byte
	if _, err := crand.Read(seed[:]); err != nil {
		// Entropy pool unavailable: fall back to the clock. Uniqueness per
		// process still holds via the ChaCha8 stream.
		binary.LittleEndian.PutUint64(seed[:], uint64(time.Now().UnixNano()))
	}
	return rand.New(rand.NewChaCha8(seed))
}()

var idMu sync.Mutex

// NewID returns a fresh non-zero trace ID.
func NewID() ID {
	idMu.Lock()
	defer idMu.Unlock()
	var id ID
	for id == (ID{}) {
		binary.LittleEndian.PutUint64(id[:8], idRand.Uint64())
		binary.LittleEndian.PutUint64(id[8:], idRand.Uint64())
	}
	return id
}

// NewSpanID returns a fresh non-zero span ID.
func NewSpanID() SpanID {
	idMu.Lock()
	defer idMu.Unlock()
	var id SpanID
	for id == (SpanID{}) {
		binary.LittleEndian.PutUint64(id[:], idRand.Uint64())
	}
	return id
}

// String renders the ID as 32 hex digits.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid zero value.
func (id ID) IsZero() bool { return id == ID{} }

// String renders the span ID as 16 hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseID parses a 32-hex-digit trace ID. The zero ID is rejected, so a
// successfully parsed ID is always valid.
func ParseID(s string) (ID, bool) {
	var id ID
	if len(s) != 2*len(id) {
		return ID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || id.IsZero() {
		return ID{}, false
	}
	return id, true
}

// ParseOrNew returns the trace ID encoded in s (a caller-supplied
// X-Trace-Id header) when valid, or a freshly generated one. The second
// result reports whether the caller's ID was honoured.
func ParseOrNew(s string) (ID, bool) {
	if id, ok := ParseID(s); ok {
		return id, true
	}
	return NewID(), false
}

// Span is one completed timed region of a request. Offsets are relative to
// the enclosing recorder's start, so a wide event replays as a waterfall
// without clock bookkeeping.
type Span struct {
	Name    string         `json:"name"`
	SpanID  string         `json:"span_id"`
	Parent  string         `json:"parent_span_id,omitempty"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Recorder accumulates the spans and annotations of one request. It is
// created by the serving middleware, travels in the request context, and is
// drained into a WideEvent when the request completes. All methods are safe
// on a nil receiver (no-ops), so deep layers can record unconditionally.
type Recorder struct {
	traceID ID
	rootID  SpanID
	start   time.Time

	mu    sync.Mutex
	spans []Span
	attrs map[string]any
}

// NewRecorder starts a recorder for one request under the given trace ID,
// minting a fresh root span ID.
func NewRecorder(id ID) *Recorder {
	return &Recorder{traceID: id, rootID: NewSpanID(), start: time.Now()}
}

// TraceID returns the trace this recorder belongs to (zero ID when nil).
func (r *Recorder) TraceID() ID {
	if r == nil {
		return ID{}
	}
	return r.traceID
}

// RootSpanID returns the request's root span ID (zero when nil).
func (r *Recorder) RootSpanID() SpanID {
	if r == nil {
		return SpanID{}
	}
	return r.rootID
}

// Start returns when the recorder was created (zero time when nil).
func (r *Recorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// Annotate attaches a request-level key/value (risk provenance, queue wait,
// cache state). Later writes to the same key win.
func (r *Recorder) Annotate(key string, value any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attrs == nil {
		r.attrs = make(map[string]any, 8)
	}
	r.attrs[key] = value
}

// StartSpan opens a child of the root span. End completes it; an
// unfinished span is simply absent from the wide event. Safe on nil.
func (r *Recorder) StartSpan(name string) *ActiveSpan {
	if r == nil {
		return nil
	}
	return &ActiveSpan{rec: r, name: name, parent: r.rootID, id: NewSpanID(), start: time.Now()}
}

// ActiveSpan is an open span; nil is inert.
type ActiveSpan struct {
	rec    *Recorder
	name   string
	parent SpanID
	id     SpanID
	start  time.Time
	attrs  map[string]any
}

// Annotate attaches a span-level key/value. Safe on nil.
func (s *ActiveSpan) Annotate(key string, value any) *ActiveSpan {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	return s
}

// End completes the span, appending it to the recorder, and returns its
// duration. Safe on nil.
func (s *ActiveSpan) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{
		Name:    s.name,
		SpanID:  s.id.String(),
		Parent:  s.parent.String(),
		StartUS: s.start.Sub(r.start).Microseconds(),
		DurUS:   d.Microseconds(),
		Attrs:   s.attrs,
	})
	return d
}

// Spans returns a copy of the completed spans so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Attrs returns a copy of the request-level annotations so far.
func (r *Recorder) Attrs() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.attrs))
	for k, v := range r.attrs {
		out[k] = v
	}
	return out
}

// ctxKey keys the recorder in a context.
type ctxKey struct{}

// NewContext returns ctx carrying rec.
func NewContext(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, ctxKey{}, rec)
}

// FromContext returns the recorder carried by ctx, or nil. The nil result
// composes with the nil-safe Recorder methods, so callers never branch.
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(ctxKey{}).(*Recorder)
	return rec
}
