// Package plusql implements PLUSQL, a small datalog-inspired query
// language over protected lineage graphs. A query is a conjunction of
// node, edge and transitive-closure atoms with attribute filters,
// evaluated entirely against an immutable storage snapshot and — crucially
// — against the *protected account* of that snapshot for the querying
// viewer: every binding a query can produce is a node of the account the
// Surrogate Generation Algorithm would release to that viewer, so a
// Public consumer's query traverses surrogates exactly as a protected
// account would and can never observe what Protect hides.
//
// # Grammar
//
//	query   = [ head ":-" ] body [ "limit" INT ] .
//	head    = IDENT "(" VAR { "," VAR } ")" .
//	body    = atom { "," atom } .
//	atom    = PRED "(" term { "," term } ")" .
//	term    = VAR | STRING | IDENT .
//
// Variables begin with an upper-case letter ("X", "Proc"); everything
// else is a constant. STRING constants are double-quoted with Go-style
// escapes; bare IDENT constants ("data", "report") are sugar for the same
// string. Comparisons are exact-match.
//
// # Predicates
//
//	node(X)              X is any node of the protected account
//	kind(X, k)           X's "kind" feature equals k (data | invocation)
//	name(X, n)           X's "name" feature equals n
//	attr(X, key, val)    X's feature key equals val
//	surrogate(X)         X is a surrogate node (not an original)
//	edge(X, Y)           a direct account edge X -> Y exists
//	edge(X, Y, l)        ... with label l ("surrogate" for interposed edges)
//	ancestor(X, Y)       X -> Y is a direct edge (X is a parent of Y)
//	descendant(X, Y)     Y -> X is a direct edge
//	ancestor*(X, Y)      a directed path X -> ... -> Y exists (1+ hops)
//	descendant*(X, Y)    a directed path Y -> ... -> X exists (1+ hops)
//
// Node-position terms (X, Y above) may be variables or node-id constants;
// value positions (k, n, key, val, l) must be constants. The optional
// head projects a subset of the body's variables; without a head every
// variable is projected in order of first appearance. Results use set
// semantics (duplicate rows are suppressed) and are ordered
// deterministically; "limit" bounds the row count and stops execution
// early.
//
// # Example
//
//	ans(X) :- ancestor*(X, "report"), kind(X, data), attr(X, "owner", "alice") limit 10
//
// finds up to ten data nodes owned by alice in the lineage of "report" —
// where "lineage" is the protected lineage the viewer is entitled to see.
//
// # Pipeline
//
// Parse produces a typed AST with position-tagged errors. Compile orders
// the atoms by estimated selectivity (bound constants first, indexed
// scans before full scans, closures only once one side is bound) and
// pushes kind/name/attr predicates down into the generating scans, so a
// query like "kind(X, data), ancestor*(X, \"t\")" never enumerates the
// whole store. Execution is a pull-based backtracking join over the
// compiled steps: iterators yield one binding at a time, so "limit"
// short-circuits all upstream work. A closure atom evaluated as a check
// with one constant end searches that constant's memoised closure, so
// "kind(X, k), ancestor*(X, \"t\")" costs one backward walk from t however
// many X the scan offers.
//
// Point predicates additionally lower into the view's own postings
// (kind, name and (attr key, value) -> nodes, built with
// the view and kept current by Advance; see view.go): a kind/name/attr
// probe is a hash lookup instead of a scan, which is what keeps point
// queries sublinear on million-node graphs (BENCH_index.json).
//
// # Views, slots and refresh
//
// Engine keeps one protected view per (viewer, mode) — a slot — behind a
// sync.RWMutex. A query takes the read side, checks the view is at the
// store's revision, and keeps the lock through planning and execution;
// result rows are plain strings, so nothing of the view outlives it. The
// first query to find the view behind takes the write side instead and
// refreshes it once for everyone: it pulls the backend change feed
// (Snapshot.DeltaSince) and View.Advance applies the delta IN PLACE — the
// spec record-for-record, the protected account by the anchor pairs the
// delta's new edges create (account.Maintain), the posting lists and
// adjacency where the delta lands — dropping only the reachability memos
// an added edge extends.
// Queries of the same viewer that arrive during the refresh wait for it
// and then read the advanced view; other viewers' slots are untouched.
//
// The trade this makes: an advance waits for that viewer's in-flight
// queries (microseconds to milliseconds; a long closure scan holds it
// longer) and queries queue behind a waiting advance, where building a
// successor view beside the readers would not wait — but would clone the
// account and every index on every write: 35 ms per advance at 10 000
// nodes against 0.03 ms in place. Queries never block writers: the store
// is read through immutable snapshots and the feed.
//
// A slot rebuilds from a snapshot only on first use, when the feed no
// longer retains the view's revision window, or when a delta fails to
// apply; every refresh is counted by outcome and cause
// (plus_plusql_view_refresh_total) and named in the slow-query log.
package plusql
