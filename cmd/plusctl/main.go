// Command plusctl is the CLI client for a plusd server.
//
// Usage:
//
//	plusctl [-server http://localhost:7337] [-token T] [-tls-ca ca.pem] <command> [args]
//
// Commands:
//
//	put-object -id ID -kind data|invocation -name NAME [-lowest P] [-protect surrogate|hide]
//	put-edge -from ID -to ID [-label L] [-protect-at P] [-protect-mode surrogate|hide]
//	put-surrogate -for ID -id ID -name NAME [-lowest P] [-score F]
//	get [-viewer P] ID
//	lineage -start ID [-direction ancestors|descendants|both] [-depth N] [-viewer P] [-mode surrogate|hide] [-label L] [-kind data|invocation]
//	query [-viewer P] [-mode surrogate|hide] [-limit N] [-format table|json] [-explain] 'PLUSQL'
//	batch [-viewer P] [-token T] [-file batch.json]
//	follow [-viewer P] [-token T] [-cursor C] [-tail] [-wait D] [-max N] [-no-resync]
//	session mint -keys keyring -viewer P [-caps ingest,query] [-ttl 1h] [-key ID]
//	session inspect [-keys keyring] TOKEN
//	top [-interval 2s] [-n N] [-once]
//	slowlog
//	healthz
//	export-opm
//	import-opm [-file doc.json]
//
// top polls GET /v2/metrics?format=json and renders a live operator
// table (store gauges, cache efficiency, per-route traffic and latency
// quantiles, backend and engine phase timings); slowlog dumps the
// server's slow-query ring (populated when plusd runs with
// -slow-query). Both need the admin capability on an authenticated
// server.
//
// Every subcommand speaks the v2 API through the Go SDK (pkg/plusclient).
// put-* ingest one record each; batch ingests a {"objects": [...],
// "edges": [...], "surrogates": [...]} document atomically and prints the
// resulting revision and change-feed cursor; follow streams the change
// feed as JSON lines, resuming from -cursor, and exits at the first
// catch-up unless -tail keeps it attached. Any non-2xx server answer
// exits non-zero.
//
// session mint signs a stateless session token offline from a keyring
// file (one "id:secret" line per key, first key signs) — the operator's
// bootstrap for a plusd running with -auth-keys. session inspect decodes
// a token's claims and, given the keyring, verifies its signature and
// expiry. The global -token (before the subcommand) authenticates every
// subcommand as the X-Plus-Session header; the batch/follow -token flag
// overrides it per call. A token fixes the viewer, so -viewer beside a
// token is refused: mint a token for that viewer instead.
//
// The global -tls-ca verifies an https server against a custom PEM CA
// bundle — the cert.pem a plusd running with -tls-self-signed serves
// with.
//
// status renders the healthz payload as an operator summary; against a
// follower (plusd -follow) it includes the replication block — role,
// primary, applied/primary revision, lag, resyncs — and -max-lag D
// exits non-zero when the follower is stalled more than D behind the
// primary, so probes can evict it from a read pool.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/pkg/plusclient"
)

// commands lists every subcommand with a one-line synopsis; the usage
// listing and the dispatcher's unknown-command error are built from it.
var commands = []struct{ name, synopsis string }{
	{"put-object", `put-object -id ID -kind data|invocation -name NAME [-lowest P] [-protect surrogate|hide]`},
	{"put-edge", `put-edge -from ID -to ID [-label L] [-protect-at P] [-protect-mode surrogate|hide]`},
	{"put-surrogate", `put-surrogate -for ID -id ID -name NAME [-lowest P] [-score F]`},
	{"get", `get [-viewer P] ID`},
	{"lineage", `lineage -start ID [-direction ancestors|descendants|both] [-depth N] [-viewer P] [-mode surrogate|hide] [-label L] [-kind data|invocation]`},
	{"query", `query [-viewer P] [-mode surrogate|hide] [-limit N] [-format table|json] [-explain] 'PLUSQL query'`},
	{"batch", `batch [-viewer P] [-token T] [-file batch.json]`},
	{"follow", `follow [-viewer P] [-token T] [-cursor C] [-tail] [-wait D] [-max N] [-no-resync]`},
	{"session", `session mint -keys keyring -viewer P [-caps ingest,replicate,query,admin] [-ttl 1h] [-key ID] | session inspect [-keys keyring] TOKEN`},
	{"status", `status [-max-lag D]`},
	{"top", `top [-interval 2s] [-n N] [-once]`},
	{"slowlog", `slowlog`},
	{"healthz", `healthz`},
	{"export-opm", `export-opm`},
	{"import-opm", `import-opm [-file doc.json]`},
}

// usageListing renders the full subcommand reference printed on unknown
// or missing subcommands.
func usageListing() string {
	var sb strings.Builder
	sb.WriteString("usage: plusctl [-server URL] [-token T] [-tls-ca ca.pem] <command> [args]\n\ncommands:\n")
	for _, c := range commands {
		sb.WriteString("  " + c.synopsis + "\n")
	}
	return sb.String()
}

func usage() {
	fmt.Fprint(os.Stderr, usageListing())
	os.Exit(2)
}

func synopsisOf(name string) string {
	for _, c := range commands {
		if c.name == name {
			return c.synopsis
		}
	}
	return name
}

// printQueryTable renders a query answer as an aligned table: one column
// per variable, surrogate bindings marked with "~", followed by a row
// count and the work counters (and the plan under -explain).
func printQueryTable(w *os.File, resp *plusql.QueryResponse) error {
	if resp.Plan != "" {
		fmt.Fprint(w, resp.Plan)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(resp.Vars, "\t"))
	for _, row := range resp.Rows {
		cells := make([]string, len(row))
		for i, b := range row {
			cell := b.ID
			if b.Surrogate {
				cell += "~"
			}
			if b.Name != "" {
				cell += " (" + b.Name + ")"
			}
			cells[i] = cell
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	more := ""
	if resp.Truncated {
		more = " (truncated: more rows available, raise -limit)"
	}
	fmt.Fprintf(w, "%d row(s)%s, %d candidate(s) examined, %dus\n",
		resp.Stats.Rows, more, resp.Stats.Examined, resp.TookUS)
	return nil
}

// printStatus renders the healthz payload as a human-readable summary:
// store counts plus the delta-scoped cache counters of the lineage answer
// cache and the PLUSQL view cache.
func printStatus(w *os.File, h plus.HealthzResponse) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "status\t%s\n", h.Status)
	fmt.Fprintf(tw, "objects\t%d\n", h.Objects)
	fmt.Fprintf(tw, "edges\t%d\n", h.Edges)
	fmt.Fprintf(tw, "revision\t%d\n", h.Revision)
	if lc := h.LineageCache; lc != nil {
		fmt.Fprintf(tw, "lineage cache\t%d entries (%d closure nodes), %d hits, %d misses\n",
			lc.Entries, lc.ClosureNodes, lc.Hits, lc.Misses)
		fmt.Fprintf(tw, "  delta scoping\t%d evicted, %d full wipes\n",
			lc.DeltaEvictions, lc.Wipes)
		fmt.Fprintf(tw, "  size bound\t%d evicted for capacity\n", lc.CapacityEvictions)
	}
	if qc := h.QueryCache; qc != nil {
		fmt.Fprintf(tw, "query views\t%d cached, %d hits, %d misses\n",
			qc.Views, qc.Hits, qc.Misses)
		fmt.Fprintf(tw, "  refresh\t%d advanced, %d advance-rebuilds, %d full builds, %d fallbacks\n",
			qc.Advanced, qc.AdvanceRebuilds, qc.FullBuilds, qc.Fallbacks)
	}
	if ix := h.Index; ix != nil {
		fmt.Fprintf(tw, "index\t%d name entries, %d probes\n", ix.NameEntries, ix.Hits)
	}
	if in := h.Intern; in != nil {
		fmt.Fprintf(tw, "intern table\t%d strings, %d bytes\n", in.Strings, in.Bytes)
	}
	if rep := h.Replica; rep != nil {
		fmt.Fprintf(tw, "replication\t%s of %s (%s)\n", rep.Role, rep.Primary, rep.State)
		fmt.Fprintf(tw, "  applied\t%d of %d (lag %d revisions, %.1fs)\n",
			rep.AppliedRev, rep.PrimaryRev, rep.LagRevisions, rep.LagSeconds)
		fmt.Fprintf(tw, "  apply\t%d events in %d batches, %.1f/s\n",
			rep.Applied, rep.Batches, rep.ApplyPerSec)
		fmt.Fprintf(tw, "  recovery\t%d resyncs, %d reconnects\n", rep.Resyncs, rep.Reconnects)
	}
	return tw.Flush()
}

// replicaExit turns a stalled follower into a non-zero exit for probes:
// a replica present in the payload and continuously behind the primary
// for longer than maxLag fails the status command.
func replicaExit(h plus.HealthzResponse, maxLag time.Duration) error {
	if maxLag <= 0 || h.Replica == nil {
		return nil
	}
	rep := h.Replica
	if rep.State == "failed" {
		return fmt.Errorf("follower failed (replication stopped)")
	}
	if rep.LagRevisions > 0 && rep.LagSeconds > maxLag.Seconds() {
		return fmt.Errorf("follower stalled: %d revisions behind for %.1fs (max-lag %s)",
			rep.LagRevisions, rep.LagSeconds, maxLag)
	}
	return nil
}

func printJSON(v interface{}) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// target is the server every subcommand talks to: the -server base URL,
// the transport (carrying -tls-ca trust) and the global -token.
type target struct {
	base  string
	http  *http.Client
	token string
}

// sdkClient builds the SDK client for one subcommand call, with an
// optional viewer or signed-token principal; an empty token falls back to
// the global -token. A token fixes the viewer, so a viewer beside one is
// an error rather than silently ignored.
func sdkClient(t target, viewer, token string) (*plusclient.Client, error) {
	if token == "" {
		token = t.token
	}
	opts := []plusclient.Option{plusclient.WithHTTPClient(t.http)}
	switch {
	case token != "" && viewer != "":
		return nil, fmt.Errorf("-viewer %s cannot override the session token's viewer; mint a token for it with: plusctl session mint -keys KEYRING -viewer %s", viewer, viewer)
	case token != "":
		opts = append(opts, plusclient.WithToken(token))
	case viewer != "":
		opts = append(opts, plusclient.WithViewer(viewer))
	}
	return plusclient.New(t.base, opts...), nil
}

// sessionMint signs a token offline from a keyring file.
func sessionMint(rest []string) error {
	fs := flag.NewFlagSet("session mint", flag.ExitOnError)
	keys := fs.String("keys", "", "keyring file (id:secret per line, first key signs)")
	viewer := fs.String("viewer", "", "privilege-predicate the token acts as (required)")
	caps := fs.String("caps", "", "comma-separated capabilities (default: all)")
	ttl := fs.Duration("ttl", time.Hour, "token lifetime")
	keyID := fs.String("key", "", "sign with this key id instead of the active (first) key")
	_ = fs.Parse(rest)
	if *keys == "" || *viewer == "" {
		return fmt.Errorf("usage: plusctl %s", synopsisOf("session"))
	}
	if *ttl <= 0 {
		return fmt.Errorf("-ttl must be positive (got %s)", *ttl)
	}
	kr, err := plus.LoadKeyring(*keys)
	if err != nil {
		return err
	}
	capList := plus.AllCapabilities()
	if *caps != "" {
		capList, err = plus.ParseCapabilities(strings.Split(*caps, ","))
		if err != nil {
			return err
		}
		if len(capList) == 0 {
			return fmt.Errorf("empty capability list")
		}
	}
	now := time.Now()
	token, err := kr.Mint(plus.Claims{
		Viewer:       *viewer,
		Capabilities: capList,
		IssuedAt:     now.Unix(),
		ExpiresAt:    now.Add(*ttl).Unix(),
		KeyID:        *keyID,
	})
	if err != nil {
		return err
	}
	fmt.Println(token)
	return nil
}

// sessionInspect decodes (and, with -keys, verifies) a token.
func sessionInspect(rest []string) error {
	fs := flag.NewFlagSet("session inspect", flag.ExitOnError)
	keys := fs.String("keys", "", "keyring file to verify the signature against")
	_ = fs.Parse(rest)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: plusctl %s", synopsisOf("session"))
	}
	token := fs.Arg(0)
	claims, err := plus.DecodeTokenClaims(token)
	if err != nil {
		return err
	}
	out := struct {
		plus.Claims
		ExpiresAtTime string `json:"expiresAtTime"`
		Expired       bool   `json:"expired"`
		Signature     string `json:"signature"`
	}{
		Claims:        claims,
		ExpiresAtTime: claims.Expiry().UTC().Format(time.RFC3339),
		Expired:       !time.Now().Before(claims.Expiry()),
		Signature:     "unverified (no -keys)",
	}
	var verifyErr error
	if *keys != "" {
		kr, err := plus.LoadKeyring(*keys)
		if err != nil {
			return err
		}
		if _, verr := kr.Verify(token, time.Now()); verr != nil {
			out.Signature = "INVALID: " + verr.Error()
			verifyErr = fmt.Errorf("token does not verify against %s", *keys)
		} else {
			out.Signature = "valid (key " + claims.KeyID + ")"
		}
	}
	if err := printJSON(out); err != nil {
		return err
	}
	// Scripts keying on the exit code must see a failed verification.
	return verifyErr
}

// healthzExit turns a degraded probe answer into a non-zero exit: the
// payload printed fine, but scripts keying on the exit code must see the
// failure (a 503 probe answer used to exit 0).
func healthzExit(h plus.HealthzResponse) error {
	if h.Status != "ok" {
		return fmt.Errorf("server unavailable (status %q)", h.Status)
	}
	return nil
}

func run() error {
	server := flag.String("server", "http://localhost:7337", "plusd base URL")
	token := flag.String("token", "", "signed session token sent with every request (X-Plus-Session)")
	tlsCA := flag.String("tls-ca", "", "PEM CA bundle verifying an https server (self-signed chains)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	t := target{base: *server, http: &http.Client{}, token: *token}
	if *tlsCA != "" {
		hc, err := plusclient.NewTLSHTTPClient(*tlsCA)
		if err != nil {
			return err
		}
		t.http = hc
	}
	return execute(t, args[0], args[1:])
}

// execute dispatches one subcommand against the server; split from run so
// tests can drive it without the process-global flag state.
func execute(t target, cmd string, rest []string) error {
	ctx := context.Background()
	// Subcommands without a -viewer of their own act as the global -token
	// (or anonymously): with no viewer there is no conflict to report.
	c, _ := sdkClient(t, "", "")
	switch cmd {
	case "put-object":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		id := fs.String("id", "", "object id")
		kind := fs.String("kind", "data", "data or invocation")
		name := fs.String("name", "", "display name")
		lowest := fs.String("lowest", "", "lowest privilege-predicate")
		protect := fs.String("protect", "", "incidence protection: surrogate or hide")
		_ = fs.Parse(rest)
		return c.PutObject(ctx, plus.Object{
			ID: *id, Kind: plus.ObjectKind(*kind), Name: *name, Lowest: *lowest, Protect: *protect,
		})
	case "put-edge":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		from := fs.String("from", "", "source object id")
		to := fs.String("to", "", "destination object id")
		label := fs.String("label", "", "edge label")
		at := fs.String("protect-at", "", "predicate at or above which the edge is fully visible")
		mode := fs.String("protect-mode", "surrogate", "surrogate or hide")
		_ = fs.Parse(rest)
		e := plus.Edge{From: *from, To: *to, Label: *label}
		if *at != "" {
			e.Lowest = *at
			e.Marking = *mode
		}
		return c.PutEdge(ctx, e)
	case "put-surrogate":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		forID := fs.String("for", "", "original object id")
		id := fs.String("id", "", "surrogate id")
		name := fs.String("name", "", "surrogate display name")
		lowest := fs.String("lowest", "", "lowest privilege-predicate")
		score := fs.Float64("score", 0.5, "infoScore in [0,1]")
		_ = fs.Parse(rest)
		return c.PutSurrogate(ctx, plus.SurrogateSpec{
			ForID: *forID, ID: *id, Name: *name, Lowest: *lowest, InfoScore: *score,
		})
	case "get":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		viewer := fs.String("viewer", "", "consumer privilege-predicate")
		_ = fs.Parse(rest)
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: plusctl %s", synopsisOf("get"))
		}
		c, err := sdkClient(t, *viewer, "")
		if err != nil {
			return err
		}
		o, err := c.GetObject(ctx, fs.Arg(0))
		if err != nil {
			return err
		}
		return printJSON(o)
	case "lineage":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		start := fs.String("start", "", "starting object id")
		direction := fs.String("direction", "ancestors", "ancestors, descendants or both")
		depth := fs.Int("depth", 0, "max hops (0 = unbounded)")
		viewer := fs.String("viewer", "", "consumer privilege-predicate")
		mode := fs.String("mode", "surrogate", "surrogate or hide")
		label := fs.String("label", "", "restrict traversal to this edge label")
		kind := fs.String("kind", "", "restrict traversal to data or invocation objects")
		_ = fs.Parse(rest)
		c, err := sdkClient(t, *viewer, "")
		if err != nil {
			return err
		}
		resp, err := c.Lineage(ctx, plusclient.LineageRequest{
			Start: *start, Direction: *direction, Depth: *depth, Mode: *mode,
			Label: *label, Kind: *kind,
		})
		if err != nil {
			return err
		}
		return printJSON(resp)
	case "query":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		viewer := fs.String("viewer", "", "consumer privilege-predicate")
		mode := fs.String("mode", "", "surrogate or hide")
		limit := fs.Int("limit", 0, "cap result rows (0 = server default)")
		format := fs.String("format", "table", "output format: table or json")
		explain := fs.Bool("explain", false, "print the executed plan")
		_ = fs.Parse(rest)
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: plusctl %s", synopsisOf("query"))
		}
		if *format != "table" && *format != "json" {
			return fmt.Errorf("unknown format %q (want table or json)", *format)
		}
		c, err := sdkClient(t, *viewer, "")
		if err != nil {
			return err
		}
		resp, err := c.Query(ctx, fs.Arg(0), plusclient.QueryOptions{
			Mode: *mode, Limit: *limit, Explain: *explain,
		})
		if err != nil {
			return err
		}
		if *format == "json" {
			return printJSON(resp)
		}
		return printQueryTable(os.Stdout, resp)
	case "session":
		if len(rest) == 0 {
			return fmt.Errorf("usage: plusctl %s", synopsisOf("session"))
		}
		switch rest[0] {
		case "mint":
			return sessionMint(rest[1:])
		case "inspect":
			return sessionInspect(rest[1:])
		default:
			return fmt.Errorf("unknown session subcommand %q (want mint or inspect)", rest[0])
		}
	case "batch":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		viewer := fs.String("viewer", "", "privilege-predicate principal (X-Plus-Viewer)")
		token := fs.String("token", "", "signed session token principal (X-Plus-Session)")
		file := fs.String("file", "", "batch JSON document to ingest (default stdin)")
		_ = fs.Parse(rest)
		in := io.Reader(os.Stdin)
		if *file != "" {
			f, err := os.Open(*file)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		var b plusclient.BatchRequest
		dec := json.NewDecoder(in)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&b); err != nil {
			return fmt.Errorf("batch document: %w", err)
		}
		c, err := sdkClient(t, *viewer, *token)
		if err != nil {
			return err
		}
		resp, err := c.Batch(ctx, b)
		if err != nil {
			return err
		}
		return printJSON(resp)
	case "follow":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		viewer := fs.String("viewer", "", "privilege-predicate principal (X-Plus-Viewer)")
		token := fs.String("token", "", "signed session token principal (X-Plus-Session)")
		cursor := fs.String("cursor", "", "resume position (from a previous event, batch or snapshot)")
		tail := fs.Bool("tail", false, "keep following after catching up (default: exit at first sync)")
		wait := fs.Duration("wait", 10*time.Second, "per-connection long-poll budget when tailing")
		maxEvents := fs.Int("max", 0, "stop after this many change events (0 = unbounded)")
		noResync := fs.Bool("no-resync", false, "fail with the 410 instead of auto-resyncing from a snapshot")
		_ = fs.Parse(rest)
		c, err := sdkClient(t, *viewer, *token)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		changes := 0
		return c.Follow(ctx, *cursor,
			plusclient.FollowOptions{Wait: *wait, DisableResync: *noResync},
			func(ev plusclient.Event) error {
				if err := enc.Encode(ev); err != nil {
					return err
				}
				switch ev.Type {
				case plusclient.EventChange:
					changes++
					if *maxEvents > 0 && changes >= *maxEvents {
						return plusclient.ErrStopFollow
					}
				case plusclient.EventSync:
					if !*tail {
						return plusclient.ErrStopFollow
					}
				}
				return nil
			})
	case "top":
		return topCommand(ctx, c, t.base, rest)
	case "slowlog":
		entries, err := c.Slowlog(ctx)
		if err != nil {
			return err
		}
		return printJSON(entries)
	case "status":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		maxLag := fs.Duration("max-lag", 0, "exit non-zero when a follower has been stalled longer than this (0 = off)")
		_ = fs.Parse(rest)
		// A degraded probe still carries its payload: render it, then fail.
		h, err := c.Healthz(ctx)
		if err != nil && h.Status == "" {
			return err
		}
		if err := printStatus(os.Stdout, h); err != nil {
			return err
		}
		if err := healthzExit(h); err != nil {
			return err
		}
		return replicaExit(h, *maxLag)
	case "healthz":
		h, err := c.Healthz(ctx)
		if err != nil && h.Status == "" {
			return err
		}
		if err := printJSON(h); err != nil {
			return err
		}
		return healthzExit(h)
	case "export-opm":
		return c.ExportOPM(ctx, os.Stdout)
	case "import-opm":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		file := fs.String("file", "", "OPM JSON document to import (default stdin)")
		_ = fs.Parse(rest)
		in := os.Stdin
		if *file != "" {
			f, err := os.Open(*file)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		return c.ImportOPM(ctx, in)
	default:
		fmt.Fprint(os.Stderr, usageListing())
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "plusctl:", err)
		os.Exit(1)
	}
}
