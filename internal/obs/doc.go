// Package obs is the repository's stdlib-only telemetry subsystem: the
// operational companion to the per-search work counters of
// internal/stats. It provides independent facilities that together
// answer "why was this query slow" in production:
//
//   - a concurrent metrics Registry (counters, gauges, fixed-bucket
//     histograms, all with label support) that renders the Prometheus
//     text exposition format for a /metrics endpoint;
//   - the PhaseTiming shape in which a query's per-phase wall time is
//     reported (derived from the span tree of internal/obs/span, the
//     one tracing mechanism the engine and the algorithms emit into);
//   - structured JSON request logging helpers over log/slog, with
//     generated request IDs carried through contexts.
//
// Like internal/stats, obs is a leaf package: it imports nothing from
// this module (enforced by the seqlint layering policy), so every layer
// above it can report into it without ever seeing the server.
package obs
