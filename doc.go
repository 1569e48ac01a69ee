// Package repro reproduces "Surrogate Parenthood: Protected and
// Informative Graphs" (Blaustein, Chapman, Seligman, Allen, Rosenthal —
// PVLDB 4(8), 2011): protected accounts of sensitive graphs built with
// surrogate nodes and edges, the path/node utility and opacity measures,
// the maximally informative Surrogate Generation Algorithm, and the PLUS
// provenance substrate the paper evaluated on.
//
// The implementation lives under internal/:
//
//	internal/graph      directed attributed graphs and traversals
//	internal/privilege  privilege-predicate lattices, lowest(), high-water sets
//	internal/policy     Visible/Hide/Surrogate incidence markings
//	internal/surrogate  surrogate-node registry with infoScores
//	internal/account    protected-account generation, incremental
//	                    maintenance (Maintain) and verification
//	internal/measure    path/node utility and opacity
//	internal/plus       the PLUS substrate: pluggable storage backends
//	                    with a change feed (ChangesSince / DeltaSince /
//	                    Notify) and epoch-stamped durable cursors,
//	                    snapshot-isolated lineage engine, delta-scoped
//	                    answer cache and the HTTP API (the
//	                    principal-scoped v2 with batch ingest, the
//	                    resumable change-feed protocol, and the
//	                    authenticated trust surface: HMAC-signed
//	                    stateless session tokens over a rotatable
//	                    keyring, with the ingest/replicate/query/admin
//	                    capability split — see plus/auth.go)
//	internal/plusql     PLUSQL: datalog-style queries over protected
//	                    lineage (grammar reference in its doc.go);
//	                    views refresh incrementally from the change feed
//	                    instead of rebuilding on every write
//	internal/obs        dependency-free telemetry: atomic counters,
//	                    gauges, log-linear p50/p95/p99 histograms, a
//	                    named registry with Prometheus-text and JSON
//	                    renderers, request-ID context plumbing and the
//	                    slow-query ring buffer
//	internal/workload   evaluation motifs and synthetic graph generator
//	internal/eval       regeneration of every table and figure
//	internal/core       builder and one-call Protect / Compare, and the
//	                    spec-file format of cmd/protect and cmd/audit
//
// The one public package is pkg/plusclient: the typed, context-first Go
// SDK for the v2 wire API — signed session tokens with automatic
// refresh before expiry (typed ErrUnauthorized/ErrForbidden), atomic
// batch ingest, and a change-feed follower with durable cursors and
// automatic snapshot resync. Integrations should consume the server
// through it rather than hand-rolled HTTP calls.
//
// See README.md for a tour, how to run the plusd server and plusctl
// client, the v2 endpoint table and cursor semantics, and the
// storage-backend options. Its "Operations" section catalogues the
// /v2/metrics families, the slow-query log and request-tracing
// headers, pprof, SIGHUP keyring rotation, and the plusctl top /
// slowlog commands.
package repro
