package scene

// Provenance is the optional explanation block of a scoring response,
// returned when the client opts in with ?explain=1. It answers "where did
// this risk number come from": the engine that scored the scene, the cache
// and certificate shortcuts taken, each actor's counterfactual
// contribution, and the span timings of the evaluation — enough to replay
// the request's waterfall without server-side state. The block is part of
// the versioned wire format; absent fields marshal away so v1 decoders
// ignore it entirely.
type Provenance struct {
	// TraceID is the request's trace identifier (32 hex digits), matching
	// the X-Trace-Id response header and the server's wide-event journal.
	TraceID string `json:"trace_id"`
	// Engine is the counterfactual engine used: "shared", "legacy" or
	// "empty" (actor-free scene).
	Engine string `json:"engine"`
	// CacheState is the empty-volume cache outcome: "hit", "miss" or
	// "bypass".
	CacheState string `json:"cache_state"`
	// MaskWidth is the number of actors the shared expansion carried as
	// world-mask bits (zero on the legacy engine). Segmented masks carry
	// every actor, so on the shared engine this equals the actor count.
	MaskWidth int `json:"mask_width,omitempty"`
	// MaskWords is the number of 64-bit words in the shared expansion's
	// world masks (1 for at most 63 actors; zero on the legacy engine).
	MaskWords int `json:"mask_words,omitempty"`
	// ElidedActors counts per-actor counterfactual tubes skipped by a
	// certificate (never-blocking actor or dead-band).
	ElidedActors int `json:"elided_actors,omitempty"`
	// WarmHit reports that a session evaluation validated its previous
	// tick's expansion state and reused path-sweep verdicts (temporal
	// coherence). Always absent on stateless scoring.
	WarmHit bool `json:"warm_hit,omitempty"`
	// WarmReused / WarmInvalidated count previous-tick verdicts reused
	// versus recomputed on a warm hit.
	WarmReused      int `json:"warm_reused,omitempty"`
	WarmInvalidated int `json:"warm_invalidated,omitempty"`
	// Actors is each actor's STI contribution and backing counterfactual
	// volume, index-aligned with the request's actors.
	Actors []ActorProvenance `json:"actors,omitempty"`
	// Spans is the evaluation's timing waterfall, offsets relative to
	// request start.
	Spans []SpanTiming `json:"spans,omitempty"`
}

// ActorProvenance is one actor's contribution to the scene's risk.
type ActorProvenance struct {
	ID            int     `json:"id"`
	STI           float64 `json:"sti"`
	WithoutVolume float64 `json:"without_volume"`
}

// SpanTiming is one timed region of the request, in microseconds relative
// to the request's start.
type SpanTiming struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}
