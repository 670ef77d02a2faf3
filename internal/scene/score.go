package scene

// Scoring and session wire format (iprism.score/v1), spoken by the scoring
// service (internal/server) and passed through by the gateway tier:
//
//	POST /v1/score                 Scene                -> 200 ScoreResponse
//	POST /v1/score/batch           BatchRequest         -> 200 BatchResponse
//	POST /v1/sessions              SessionCreateRequest -> 201 SessionCreateResponse
//	POST /v1/sessions/{id}/observe Scene                -> 200 SessionObserveResponse
//	GET  /v1/sessions/{id}/risk    -> 200 SessionRiskResponse
//
// Every non-2xx answer carries an ErrorResponse body.

// ScoreVersion tags scoring and session responses, mirroring the request
// codec's Version.
const ScoreVersion = "iprism.score/v1"

// ScoreResponse is the JSON answer to one scored scene.
type ScoreResponse struct {
	Version  string  `json:"version"`
	Combined float64 `json:"combined_sti"`
	// MostThreatening is the ID of the highest-STI actor, or -1.
	MostThreatening int          `json:"most_threatening"`
	Actors          []ActorScore `json:"actors,omitempty"`
	BaseVolume      float64      `json:"base_volume"`
	EmptyVolume     float64      `json:"empty_volume"`
	// Provenance explains how the score was derived; present only when the
	// client asked with ?explain=1.
	Provenance *Provenance `json:"provenance,omitempty"`
	// Error is set instead of scores on per-scene failures inside batch
	// responses.
	Error string `json:"error,omitempty"`
}

// ActorScore is one actor's STI and backing counterfactual volume.
type ActorScore struct {
	ID            int     `json:"id"`
	STI           float64 `json:"sti"`
	WithoutVolume float64 `json:"without_volume"`
}

// BatchRequest scores many scenes in one round-trip; the scenes fan out
// over the evaluator pool as independent jobs.
type BatchRequest struct {
	Scenes []Scene `json:"scenes"`
}

// BatchResponse answers a BatchRequest, results index-aligned with the
// request's scenes.
type BatchResponse struct {
	Version string          `json:"version"`
	Results []ScoreResponse `json:"results"`
}

// ErrorResponse is the body of every error answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// SessionCreateRequest opens a session. All fields are optional.
type SessionCreateRequest struct {
	// Stride is accepted for parity with the in-process monitor but the
	// HTTP session records every observation the client sends (the client
	// already chose what to send); it must be >= 0.
	Stride int `json:"stride,omitempty"`
	// ID is a client-assigned session identifier ([A-Za-z0-9_.-], at most
	// 64 bytes). The gateway tier assigns IDs so a session's owner backend
	// is derivable from the ID alone by consistent hashing; an ID already
	// in use answers 409. Empty lets the server mint one.
	ID string `json:"id,omitempty"`
}

// SessionCreateResponse returns the new session's handle.
type SessionCreateResponse struct {
	ID string `json:"id"`
}

// SessionObserveResponse echoes the recorded sample. The same document is
// the `data:` payload of the session's SSE risk stream, where Seq is also
// the SSE event ID (the Last-Event-ID resume cursor). TTC and DistCIPA
// are -1 when no in-path actor exists (JSON has no Inf).
type SessionObserveResponse struct {
	Version         string  `json:"version"`
	Seq             uint64  `json:"seq,omitempty"`
	Time            float64 `json:"time"`
	STI             float64 `json:"sti"`
	TTC             float64 `json:"ttc"`
	DistCIPA        float64 `json:"dist_cipa"`
	MostThreatening int     `json:"most_threatening"`
	// Provenance explains how the tick was scored (engine, cache, warm-start
	// outcome); present only when the client asked with ?explain=1, and only
	// on the HTTP response — SSE risk events never carry it (it is attached
	// after the event is published).
	Provenance *Provenance `json:"provenance,omitempty"`
}

// SessionRiskResponse summarises the episode so far.
type SessionRiskResponse struct {
	Version        string       `json:"version"`
	Samples        int          `json:"samples"`
	PeakSTI        float64      `json:"peak_sti"`
	Threshold      float64      `json:"threshold"`
	RiskyIntervals [][2]float64 `json:"risky_intervals"`
}
