package sti

// Engine and cache-state labels reported by Provenance. Strings, not
// enums, because they go straight onto the wire (scene provenance block)
// and into wide events.
const (
	EngineShared = "shared" // one masked expansion (reach.ComputeCounterfactuals)
	EngineLegacy = "legacy" // per-actor counterfactual tubes
	EngineEmpty  = "empty"  // actor-free scene, single tube

	CacheHit    = "hit"
	CacheMiss   = "miss"
	CacheBypass = "bypass"
)

// Provenance explains how an evaluation arrived at its Result: which
// counterfactual engine ran, how the empty-volume cache behaved, and how
// much per-actor work the certificates skipped. It is returned by
// EvaluateTraced and carried into the serving tier's wide events and the
// ?explain=1 response block; the untraced Evaluate discards it.
type Provenance struct {
	// Engine is EngineShared, EngineLegacy or EngineEmpty.
	Engine string
	// CacheState is the empty-volume cache outcome for |T^∅|: CacheHit,
	// CacheMiss, or CacheBypass (map family not cacheable, or a straight
	// road scored near a segment end).
	CacheState string
	// MaskWidth is the number of actors carried as explicit world-mask bits
	// by the shared expansion (zero on the legacy engine). Since masks
	// became segmented this is every actor in the scene.
	MaskWidth int
	// MaskWords is the number of 64-bit words in each state's world mask:
	// ceil((1+MaskWidth)/64), 1 for at most 63 actors, zero on the legacy
	// engine.
	MaskWords int
	// ElidedActors is the number of per-actor counterfactual tubes skipped
	// by a certificate (never an exclusive blocker, or the dead-band
	// certificate covering the whole scene).
	ElidedActors int
	// WarmHit reports whether a warm evaluation validated its previous-tick
	// state (ego root, config, map and actor count all unchanged) and could
	// reuse path-sweep verdicts. Always false on cold entry points.
	WarmHit bool
	// WarmReused / WarmInvalidated count previous-tick path-sweep verdicts
	// that were reused versus recomputed because an actor's swept AABB
	// touched the verdict's path region. Both zero unless WarmHit.
	WarmReused      int
	WarmInvalidated int
}
