package obs

// PhaseTiming is one phase's aggregate, in the shape the search API
// returns to clients; span.Tracer.PhaseTimings derives it from a
// query's span tree.
type PhaseTiming struct {
	// Name identifies the phase (e.g. "validate", "hsp.chunk").
	Name string `json:"name"`
	// DurationMS is the accumulated wall time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Count is how many measurements were accumulated.
	Count int64 `json:"count"`
	// Parallel marks a phase whose measurements overlapped in time
	// (parallel subspace workers): DurationMS then sums CPU time across
	// workers and may exceed the query's wall time.
	Parallel bool `json:"parallel,omitempty"`
}
