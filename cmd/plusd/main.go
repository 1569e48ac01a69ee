// Command plusd serves a PLUS provenance store over HTTP with
// privilege-aware lineage queries.
//
// Usage:
//
//	plusd -db /var/lib/plus.log -addr :7337 [-backend log|mem] [-lattice lattice.json] [-sync]
//	      [-auth-keys keyring] [-auth-anonymous] [-session-ttl 1h]
//	      [-slow-query 50ms] [-request-log] [-pprof localhost:6060]
//	      [-tls cert.pem,key.pem | -tls-self-signed DIR] [-tls-ca ca.pem]
//	      [-follow https://primary:7337 [-follow-token T] [-follow-proxy-writes] [-follow-state F]
//	       [-follow-coalesce 100ms]]
//
// The -backend flag selects the storage engine: "log" (default) is the
// durable CRC-guarded append-only log at -db; "mem" is the same store
// core without the log, for read-heavy serving (contents die with the
// process; -db and -sync are ignored). On either backend -change-horizon
// bounds how many recent changes the change feed that drives incremental
// cache and view maintenance retains.
//
// Caches are delta-scoped: a write evicts only the lineage answers and
// PLUSQL views whose account region it touches; GET /v1/healthz reports
// the cache and delta counters.
//
// The API is the principal-scoped /v2 (X-Plus-Viewer header or
// POST /v2/sessions tokens, POST /v2/batch atomic ingest, the
// GET /v2/changes durable-cursor change feed with GET /v2/snapshot
// resync, POST /v2/query, GET|POST /v2/opm) beside the principal-free
// GET /v1/healthz probe. The Go SDK is pkg/plusclient; every plusctl
// subcommand rides on it. The log backend persists its change-feed epoch,
// so cursors survive restarts.
//
// Authentication: -auth-keys loads an HMAC keyring (one "id:secret" line
// per file line, first key signs; see plusctl session mint) and turns on
// required auth — every request must carry a signed stateless session
// token whose capability set (ingest, replicate, query, admin) covers
// the endpoint. Nodes sharing a keyring accept each other's tokens, so a
// fleet needs no session replication. -auth-anonymous additionally keeps
// the legacy read-only surface open: tokenless requests may query (with
// a validated client-asserted viewer) but not ingest, replicate or
// administer. Without -auth-keys the daemon runs in the legacy open mode
// (validated but client-asserted principals, every capability).
//
// Observability: the daemon always keeps a metric registry (HTTP route
// latency, backend op latency, cache and change-feed counters — the
// full catalogue is in the README's Operations section) and serves it
// behind the admin capability at GET /v2/metrics, as Prometheus text
// exposition or JSON with ?format=json (what plusctl top renders).
// -slow-query D captures queries taking ≥ D — with per-phase timings
// and the request's trace ID — in a ring served at GET /v2/slowlog;
// -request-log writes one structured JSON line per request to stderr;
// -pprof ADDR serves net/http/pprof on a side listener that bypasses
// the API's auth (bind it to localhost). SIGHUP reloads -auth-keys in
// place, so keys rotate without dropping a request.
//
// Replication: -follow URL runs the daemon as a read replica of that
// primary (internal/replica documents the mechanics). Boot bootstraps
// the local backend from the primary's snapshot — or, with a durable
// backend and its -follow-state cursor file (default <db>.replica for
// the log backend), resumes exactly where it stopped — then applies the
// primary's change feed continuously, resyncing automatically when the
// cursor falls behind. The privilege lattice is adopted from the
// primary (-lattice is ignored). Every query endpoint serves locally;
// writes answer a structured 403 "read_only", or are forwarded to the
// primary with -follow-proxy-writes. -follow-token carries the
// replication credential (a session with the replicate capability,
// minted from the shared keyring); followers sharing the primary's
// -auth-keys keyring verify client tokens locally. -follow-coalesce D
// turns on group commit: replicated changes buffer up to D before one
// batched local apply, trading that much extra read staleness for far
// fewer cache invalidations under heavy primary ingest. Replication
// state is visible in /v1/healthz ("replica" block), the plus_replica_*
// metrics and `plusctl status`.
//
// TLS: -tls cert.pem,key.pem serves the API over HTTPS; -tls-self-signed
// DIR generates (once) and serves a self-signed pair whose cert.pem
// doubles as the CA bundle clients verify with (plusctl/SDK -tls-ca).
// -tls-ca verifies this daemon's own outbound link to an https -follow
// primary.
//
// The lattice file is a JSON array of [dominator, dominated] predicate
// pairs, e.g. [["High-1","Low-2"],["High-2","Low-2"]]; "Public" is the
// implicit bottom. Without -lattice the server uses the two-level
// Protected/Public lattice.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/internal/replica"
	"repro/pkg/plusclient"
)

// buildAuth resolves the -auth-* flags into the server's trust
// configuration.
func buildAuth(keysPath string, anonymous bool, sessionTTL, maxTTL time.Duration) (plus.AuthConfig, error) {
	if sessionTTL > maxTTL {
		return plus.AuthConfig{}, fmt.Errorf("-session-ttl %s exceeds -session-max-ttl %s", sessionTTL, maxTTL)
	}
	if keysPath == "" {
		if anonymous {
			return plus.AuthConfig{}, fmt.Errorf("-auth-anonymous requires -auth-keys")
		}
		return plus.AuthConfig{DefaultTTL: sessionTTL, MaxTTL: maxTTL}, nil
	}
	kr, err := plus.LoadKeyring(keysPath)
	if err != nil {
		return plus.AuthConfig{}, err
	}
	return plus.AuthConfig{
		Keyring:       kr,
		Require:       true,
		AnonymousRead: anonymous,
		DefaultTTL:    sessionTTL,
		MaxTTL:        maxTTL,
	}, nil
}

func loadLattice(path string) (*privilege.Lattice, error) {
	if path == "" {
		return privilege.TwoLevel(), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lat, err := privilege.ParseLatticeJSON(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return lat, nil
}

// splitTLSPair parses the -tls flag's "cert.pem,key.pem".
func splitTLSPair(s string) (cert, key string, err error) {
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 || strings.TrimSpace(parts[0]) == "" || strings.TrimSpace(parts[1]) == "" {
		return "", "", fmt.Errorf(`-tls wants "cert.pem,key.pem", got %q`, s)
	}
	return strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), nil
}

// listenAndServe starts the API listener, plain or under TLS depending
// on the -tls/-tls-self-signed flags.
func listenAndServe(addr string, h http.Handler, tlsPair, tlsSelfDir string) error {
	switch {
	case tlsPair != "" && tlsSelfDir != "":
		return fmt.Errorf("-tls and -tls-self-signed are mutually exclusive")
	case tlsPair != "":
		cert, key, err := splitTLSPair(tlsPair)
		if err != nil {
			return err
		}
		return http.ListenAndServeTLS(addr, cert, key, h)
	case tlsSelfDir != "":
		cert, key, err := plus.WriteSelfSignedCert(tlsSelfDir)
		if err != nil {
			return err
		}
		log.Printf("plusd: serving TLS with self-signed %s (hand it to clients as -tls-ca)", cert)
		return http.ListenAndServeTLS(addr, cert, key, h)
	default:
		return http.ListenAndServe(addr, h)
	}
}

// openBackend builds the storage engine the -backend flag selected.
func openBackend(kind, db string, horizon int, sync bool) (plus.Backend, error) {
	var b interface {
		plus.Backend
		SetChangeHorizon(int)
	}
	switch kind {
	case "log":
		l, err := plus.Open(db, plus.Options{Sync: sync})
		if err != nil {
			return nil, err
		}
		b = l
	case "mem":
		b = plus.NewMemBackend(0)
	default:
		return nil, fmt.Errorf("unknown backend %q (want log or mem)", kind)
	}
	if horizon > 0 {
		b.SetChangeHorizon(horizon)
	}
	return b, nil
}

func run() error {
	addr := flag.String("addr", ":7337", "listen address")
	db := flag.String("db", "plus.log", "path to the store log file (log backend)")
	backendKind := flag.String("backend", "log", "storage backend: log (durable) or mem (in-memory, no log)")
	horizon := flag.Int("change-horizon", 0, "recent changes the change feed retains (0 = default)")
	latticePath := flag.String("lattice", "", "path to a JSON lattice spec (default: two-level)")
	sync := flag.Bool("sync", false, "fsync every append (log backend)")
	authKeys := flag.String("auth-keys", "", "HMAC keyring file; requires signed session tokens on every request")
	authAnon := flag.Bool("auth-anonymous", false, "with -auth-keys: keep the legacy read-only (query) surface open to tokenless requests")
	sessionTTL := flag.Duration("session-ttl", plus.DefaultSessionTTL, "default lifetime of tokens minted by POST /v2/sessions")
	maxTTL := flag.Duration("session-max-ttl", plus.DefaultMaxTTL, "cap on requested session lifetimes")
	slowQuery := flag.Duration("slow-query", 0, "record lineage/PLUSQL queries at or above this duration in GET /v2/slowlog (0 = off)")
	slowLogSize := flag.Int("slow-query-log-size", 128, "slow-query ring capacity")
	requestLog := flag.Bool("request-log", false, "write a structured (JSON) log line per request to stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060; empty = off)")
	follow := flag.String("follow", "", "run as a read replica of this primary base URL")
	followToken := flag.String("follow-token", "", "session token for the primary link (needs the replicate capability)")
	followProxy := flag.Bool("follow-proxy-writes", false, "forward writes to the primary instead of answering 403 read_only")
	followState := flag.String("follow-state", "", "replication cursor file (default <db>.replica for the log backend)")
	followCoalesce := flag.Duration("follow-coalesce", 0, "group-commit window for applying replicated changes: trade up to this much extra read staleness for batched applies (0 = apply per sync)")
	tlsPair := flag.String("tls", "", `serve HTTPS with this "cert.pem,key.pem" pair`)
	tlsSelf := flag.String("tls-self-signed", "", "generate (once) a self-signed cert/key pair in this directory and serve HTTPS with it")
	tlsCA := flag.String("tls-ca", "", "PEM CA bundle verifying the outbound https -follow link")
	flag.Parse()

	auth, err := buildAuth(*authKeys, *authAnon, *sessionTTL, *maxTTL)
	if err != nil {
		return err
	}
	backend, err := openBackend(*backendKind, *db, *horizon, *sync)
	if err != nil {
		return err
	}
	defer backend.Close()

	// Observability: the metric registry is always on (exposed behind
	// the admin capability at GET /v2/metrics), the slow-query ring and
	// request log are opt-in.
	reg := obs.NewRegistry()
	var slow *obs.SlowLog
	if *slowQuery > 0 {
		slow = obs.NewSlowLog(*slowLogSize, *slowQuery)
	}
	var reqLogger *slog.Logger
	if *requestLog {
		reqLogger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	telemetry := plus.NewObservability(reg, slow, reqLogger)
	observed := plus.NewObserveBackend(backend, reg)

	// Follower mode: bootstrap (or resume) the local store from the
	// primary before any engine sees it, and adopt the primary's
	// lattice so protection decisions agree across the fleet.
	var lat *privilege.Lattice
	var rep *replica.Replica
	var extraOpts []plus.ServerOption
	if *follow != "" {
		if *latticePath != "" {
			log.Printf("plusd: -lattice ignored in follower mode (lattice adopted from the primary)")
		}
		statePath := *followState
		if statePath == "" && *backendKind == "log" {
			statePath = replica.DefaultStatePath(*db)
		}
		rep, err = replica.New(replica.Config{
			Primary:   *follow,
			Token:     *followToken,
			CAFile:    *tlsCA,
			Backend:   observed,
			StatePath: statePath,
			Coalesce:  *followCoalesce,
			Logf:      log.Printf,
		})
		if err != nil {
			return err
		}
		if err := rep.Start(context.Background()); err != nil {
			return err
		}
		lat = rep.Lattice()
		rep.RegisterMetrics(reg)
		extraOpts = append(extraOpts, plus.WithReplicaHealth(rep.Health))
		if *followProxy {
			var phc *http.Client
			if *tlsCA != "" {
				if phc, err = plusclient.NewTLSHTTPClient(*tlsCA); err != nil {
					return err
				}
			}
			proxy, perr := replica.WriteProxy(*follow, phc)
			if perr != nil {
				return perr
			}
			extraOpts = append(extraOpts, plus.WithReadOnly(proxy))
		} else {
			extraOpts = append(extraOpts, plus.WithReadOnly(nil))
		}
	} else {
		if lat, err = loadLattice(*latticePath); err != nil {
			return err
		}
	}

	opts := append([]plus.ServerOption{plus.WithAuth(auth), plus.WithObservability(telemetry)}, extraOpts...)
	srv := plus.NewServer(plus.NewEngine(observed, lat), opts...)
	// PLUSQL declarative queries: POST /v2/query.
	plusql.Attach(srv, plusql.NewEngine(observed, lat))

	// The apply loop runs for the life of the process: it keeps serving
	// the last applied state and retrying through primary outages, so
	// only divergence (unrecoverable by definition) stops it.
	if rep != nil {
		go func() {
			if err := rep.Run(context.Background()); err != nil {
				log.Printf("plusd: replication stopped: %v", err)
			}
		}()
	}

	// SIGHUP swaps the keyring in place (key rotation without dropping
	// a request); meaningless without -auth-keys.
	if *authKeys != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := srv.ReloadKeyringFromFile(*authKeys); err != nil {
					log.Printf("plusd: SIGHUP keyring reload failed (keeping current keys): %v", err)
					continue
				}
				log.Printf("plusd: SIGHUP reloaded keyring %s (keys %v)", *authKeys, srv.Keyring().KeyIDs())
			}
		}()
	}

	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("plusd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("plusd: pprof listener: %v", err)
			}
		}()
	}

	mode := "open (no authentication)"
	switch {
	case auth.Require && auth.AnonymousRead:
		mode = fmt.Sprintf("authenticated (keys %v, anonymous read-only allowed)", auth.Keyring.KeyIDs())
	case auth.Require:
		mode = fmt.Sprintf("authenticated (keys %v)", auth.Keyring.KeyIDs())
	}
	role := "primary"
	if rep != nil {
		role = fmt.Sprintf("follower of %s", *follow)
	}
	log.Printf("plusd: serving %s backend on %s as %s (%d objects, %d edges, epoch=%s, auth=%s)",
		*backendKind, *addr, role, backend.NumObjects(), backend.NumEdges(), backend.Epoch(), mode)
	return listenAndServe(*addr, srv, *tlsPair, *tlsSelf)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "plusd:", err)
		os.Exit(1)
	}
}
