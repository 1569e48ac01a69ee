package main

import (
	"context"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/pkg/plusclient"
)

func testClient(t *testing.T) target {
	c, _ := testClientStore(t)
	return c
}

// testTarget serves s and returns the plusctl target pointed at it.
func testTarget(t *testing.T, s *plus.Server) target {
	t.Helper()
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return target{base: srv.URL, http: srv.Client()}
}

// sdk is the principal-free SDK client of a test target.
func sdk(c target) *plusclient.Client {
	cl, _ := sdkClient(c, "", "")
	return cl
}

func testClientStore(t *testing.T) (target, *plus.LogBackend) {
	t.Helper()
	dir := t.TempDir()
	store, err := plus.Open(dir+"/plus.log", plus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	lat := privilege.TwoLevel()
	s := plus.NewServer(plus.NewEngine(store, lat))
	plusql.Attach(s, plusql.NewEngine(store, lat))
	return testTarget(t, s), store
}

func TestExecuteWorkflow(t *testing.T) {
	c := testClient(t)
	steps := [][]string{
		{"put-object", "-id", "src", "-kind", "data", "-name", "raw"},
		{"put-object", "-id", "proc", "-kind", "invocation", "-name", "step", "-lowest", "Protected", "-protect", "surrogate"},
		{"put-object", "-id", "out", "-kind", "data", "-name", "result"},
		{"put-edge", "-from", "src", "-to", "proc", "-label", "input-to"},
		{"put-edge", "-from", "proc", "-to", "out", "-label", "generated"},
		{"put-surrogate", "-for", "proc", "-id", "proc~", "-name", "a step", "-score", "0.4"},
		{"get", "src"},
		{"get", "-viewer", "Protected", "proc"},
		{"lineage", "-start", "out", "-direction", "ancestors", "-viewer", "Public", "-mode", "surrogate"},
		{"lineage", "-start", "out", "-depth", "1"},
		{"lineage", "-name", "result", "-direction", "ancestors"},
		{"status"},
		{"healthz"},
	}
	for _, s := range steps {
		if err := execute(c, s[0], s[1:]); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
	if err := execute(c, "lineage", []string{"-start", "out", "-name", "result"}); err == nil {
		t.Error("lineage with both -start and -name accepted")
	}
}

// TestPrintStatus renders the healthz payload including the delta-scoped
// cache counters.
func TestPrintStatus(t *testing.T) {
	lc := plus.LineageCacheStats{Entries: 2, ClosureNodes: 31, Hits: 7, Misses: 3, DeltaEvictions: 1, CapacityEvictions: 6}
	qc := plus.QueryCacheHealth{Views: 1, Hits: 4, Misses: 2, Advanced: 5, FullBuilds: 1}
	ix := plus.IndexStats{NameEntries: 8, Hits: 21}
	h := plus.HealthzResponse{
		Status: "ok", Objects: 9, Edges: 4, Revision: 13,
		LineageCache: &lc, QueryCache: &qc, Index: &ix,
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := printStatus(w, h); err != nil {
		t.Fatal(err)
	}
	w.Close()
	buf := make([]byte, 4096)
	n, _ := r.Read(buf)
	out := string(buf[:n])
	for _, want := range []string{
		"status", "ok", "revision", "13",
		"2 entries (31 closure nodes)", "7 hits", "1 evicted", "6 evicted for capacity",
		"1 cached", "5 advanced", "1 full builds",
		"8 name entries, 21 probes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}
}

func TestExecuteEdgeProtection(t *testing.T) {
	c := testClient(t)
	for _, s := range [][]string{
		{"put-object", "-id", "a", "-kind", "data", "-name", "a"},
		{"put-object", "-id", "b", "-kind", "data", "-name", "b"},
		{"put-edge", "-from", "a", "-to", "b", "-protect-at", "Protected", "-protect-mode", "hide"},
	} {
		if err := execute(c, s[0], s[1:]); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
	resp, err := sdk(c).Lineage(context.Background(), plusclient.LineageRequest{Start: "b", Direction: "ancestors"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Edges) != 0 {
		t.Errorf("hidden edge leaked: %+v", resp.Edges)
	}
}

func TestExecuteOPM(t *testing.T) {
	c := testClient(t)
	for _, s := range [][]string{
		{"put-object", "-id", "a", "-kind", "data", "-name", "a"},
		{"export-opm"},
	} {
		if err := execute(c, s[0], s[1:]); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
	// import-opm from a file.
	doc := `{"artifacts":[{"id":"z","value":"zed"}],"processes":[],"used":[],"wasGeneratedBy":[]}`
	path := t.TempDir() + "/doc.json"
	if err := osWriteFile(path, doc); err != nil {
		t.Fatal(err)
	}
	if err := execute(c, "import-opm", []string{"-file", path}); err != nil {
		t.Fatal(err)
	}
	if err := execute(c, "get", []string{"z"}); err != nil {
		t.Errorf("imported object missing: %v", err)
	}
	if err := execute(c, "import-opm", []string{"-file", path + ".missing"}); err == nil {
		t.Error("missing import file accepted")
	}
}

func osWriteFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestHealthzExitCodeOnUnavailable is the exit-code regression test: a
// degraded probe answer (HTTP 503, status "unavailable") must make the
// healthz and status subcommands fail, not print the payload and exit 0.
func TestHealthzExitCodeOnUnavailable(t *testing.T) {
	c, store := testClientStore(t)
	if err := execute(c, "healthz", nil); err != nil {
		t.Fatalf("healthy probe failed: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := execute(c, "healthz", nil); err == nil {
		t.Error("healthz against an unavailable server exited 0")
	}
	if err := execute(c, "status", nil); err == nil {
		t.Error("status against an unavailable server exited 0")
	}
}

// TestExecuteBatchAndFollow drives the v2 SDK subcommands: batch ingests
// a document atomically, follow drains the change feed and exits at the
// first catch-up.
func TestExecuteBatchAndFollow(t *testing.T) {
	c := testClient(t)
	doc := `{
		"objects": [
			{"id": "a", "kind": "data", "name": "a"},
			{"id": "b", "kind": "data", "name": "b"}
		],
		"edges": [{"from": "a", "to": "b", "label": "feeds"}]
	}`
	path := t.TempDir() + "/batch.json"
	if err := osWriteFile(path, doc); err != nil {
		t.Fatal(err)
	}
	if err := execute(c, "batch", []string{"-file", path}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if o, err := sdk(c).GetObject(context.Background(), "b"); err != nil || o.Name != "b" {
		t.Fatalf("batched object = %+v, %v", o, err)
	}

	// An invalid batch applies nothing and exits non-zero.
	bad := `{"objects": [{"id": "x", "kind": "data"}], "edges": [{"from": "x", "to": "ghost"}]}`
	if err := osWriteFile(path, bad); err != nil {
		t.Fatal(err)
	}
	if err := execute(c, "batch", []string{"-file", path}); err == nil {
		t.Error("invalid batch exited 0")
	}
	if _, err := sdk(c).GetObject(context.Background(), "x"); err == nil {
		t.Error("invalid batch left partial state")
	}

	for _, args := range [][]string{
		{"follow"},
		{"follow", "-max", "2"},
		{"follow", "-viewer", "Protected"},
	} {
		if err := execute(c, args[0], args[1:]); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	if err := execute(c, "follow", []string{"-viewer", "Nope"}); err == nil {
		t.Error("unknown follow viewer exited 0")
	}
	if err := execute(c, "follow", []string{"-cursor", "garbage"}); err == nil {
		t.Error("garbage cursor exited 0")
	}
}

func TestExecuteErrors(t *testing.T) {
	c := testClient(t)
	if err := execute(c, "banana", nil); err == nil {
		t.Error("unknown command accepted")
	}
	if err := execute(c, "get", nil); err == nil {
		t.Error("get without id accepted")
	}
	if err := execute(c, "get", []string{"missing"}); err == nil {
		t.Error("get of missing object accepted")
	}
	if err := execute(c, "put-object", []string{"-id", "p", "-kind", "data", "-lowest", "Protected"}); err != nil {
		t.Fatal(err)
	}
	if err := execute(c, "get", []string{"p"}); err == nil {
		t.Error("Public get of a Protected object accepted")
	}
	if err := execute(c, "put-object", []string{"-id", "", "-kind", "data"}); err == nil {
		t.Error("invalid object accepted")
	}
	if err := execute(c, "lineage", []string{"-start", "nope"}); err == nil {
		t.Error("lineage of missing object accepted")
	}
}

func TestExecuteQuery(t *testing.T) {
	c := testClient(t)
	for _, s := range [][]string{
		{"put-object", "-id", "src", "-kind", "data", "-name", "raw"},
		{"put-object", "-id", "proc", "-kind", "invocation", "-name", "step", "-lowest", "Protected"},
		{"put-object", "-id", "out", "-kind", "data", "-name", "result"},
		{"put-edge", "-from", "src", "-to", "proc", "-label", "input-to"},
		{"put-edge", "-from", "proc", "-to", "out", "-label", "generated"},
		{"put-surrogate", "-for", "proc", "-id", "proc~", "-name", "a step", "-score", "0.4"},
	} {
		if err := execute(c, s[0], s[1:]); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
	for _, args := range [][]string{
		{`ancestor*(X, "out")`},
		{"-format", "json", `ancestor*(X, "out"), kind(X, data)`},
		{"-viewer", "Protected", "-explain", "-limit", "2", `node(X)`},
	} {
		if err := execute(c, "query", args); err != nil {
			t.Fatalf("query %v: %v", args, err)
		}
	}
	// Bad query text fails with the server's positioned parse error.
	if err := execute(c, "query", []string{`bogus(X)`}); err == nil {
		t.Error("bad query did not fail")
	}
	// Missing query argument is a usage error.
	if err := execute(c, "query", nil); err == nil {
		t.Error("missing query argument did not fail")
	}
	// Unknown output format is rejected instead of silently defaulting.
	if err := execute(c, "query", []string{"-format", "csv", `node(X)`}); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestUnknownCommandListsUsage(t *testing.T) {
	c := testClient(t)
	if err := execute(c, "frob", nil); err == nil {
		t.Fatal("unknown command did not fail")
	}
	// The usage listing names every subcommand on its own line.
	listing := usageListing()
	for _, cmd := range commands {
		if !strings.Contains(listing, "\n  "+cmd.name) {
			t.Errorf("usage listing missing %q:\n%s", cmd.name, listing)
		}
	}
	if !strings.Contains(listing, "usage: plusctl") {
		t.Errorf("usage listing missing header:\n%s", listing)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = orig
	w.Close()
	var buf strings.Builder
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

// TestSessionMintAndInspect drives the operator tooling round trip:
// mint a token offline from a keyring file, inspect it, and watch
// inspection fail against the wrong keyring.
func TestSessionMintAndInspect(t *testing.T) {
	c := testClient(t)
	dir := t.TempDir()
	keys := dir + "/keyring"
	if err := osWriteFile(keys, "k2:fresh-signing-secret-material\nk1:older-retained-secret-bytes\n"); err != nil {
		t.Fatal(err)
	}

	out, err := captureStdout(t, func() error {
		return execute(c, "session", []string{"mint", "-keys", keys, "-viewer", "Protected", "-caps", "ingest,query", "-ttl", "30m"})
	})
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	token := strings.TrimSpace(out)
	claims, err := plus.DecodeTokenClaims(token)
	if err != nil {
		t.Fatalf("minted token does not decode: %v", err)
	}
	if claims.Viewer != "Protected" || claims.KeyID != "k2" {
		t.Errorf("claims = %+v", claims)
	}
	if !claims.Can(plus.CapIngest) || !claims.Can(plus.CapQuery) || claims.Can(plus.CapAdmin) {
		t.Errorf("capabilities = %v", claims.Capabilities)
	}

	// Mint with the retained (non-active) key id.
	out, err = captureStdout(t, func() error {
		return execute(c, "session", []string{"mint", "-keys", keys, "-viewer", "Public", "-key", "k1"})
	})
	if err != nil {
		t.Fatalf("mint -key: %v", err)
	}
	oldKey := strings.TrimSpace(out)
	if cl, err := plus.DecodeTokenClaims(oldKey); err != nil || cl.KeyID != "k1" {
		t.Errorf("old-key claims = %+v, %v", cl, err)
	}

	// Inspect verifies against the keyring, and reports the signer.
	out, err = captureStdout(t, func() error {
		return execute(c, "session", []string{"inspect", "-keys", keys, token})
	})
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if !strings.Contains(out, `"valid (key k2)"`) || !strings.Contains(out, `"Protected"`) {
		t.Errorf("inspect output:\n%s", out)
	}

	// Against a different keyring the signature must not verify, and the
	// command exits non-zero.
	other := dir + "/other"
	if err := osWriteFile(other, "kx:completely-different-secret\n"); err != nil {
		t.Fatal(err)
	}
	out, err = captureStdout(t, func() error {
		return execute(c, "session", []string{"inspect", "-keys", other, token})
	})
	if err == nil {
		t.Error("inspect against the wrong keyring exited 0")
	}
	if !strings.Contains(out, "INVALID") {
		t.Errorf("inspect output missing INVALID:\n%s", out)
	}

	// Inspect without -keys still decodes the claims.
	out, err = captureStdout(t, func() error {
		return execute(c, "session", []string{"inspect", token})
	})
	if err != nil || !strings.Contains(out, "unverified") {
		t.Errorf("bare inspect: err=%v output:\n%s", err, out)
	}

	// Usage errors.
	if err := execute(c, "session", nil); err == nil {
		t.Error("bare session accepted")
	}
	if err := execute(c, "session", []string{"frobnicate"}); err == nil {
		t.Error("unknown session subcommand accepted")
	}
	if err := execute(c, "session", []string{"mint", "-keys", keys}); err == nil {
		t.Error("mint without -viewer accepted")
	}
	if err := execute(c, "session", []string{"mint", "-keys", keys, "-viewer", "P", "-caps", "root"}); err == nil {
		t.Error("mint with unknown capability accepted")
	}
}

// TestBatchAndFollowWithToken drives the v2 subcommands against an
// auth-required server: tokenless fails, -token succeeds.
func TestBatchAndFollowWithToken(t *testing.T) {
	kr, err := plus.NewKeyring(plus.Key{ID: "k1", Secret: []byte("ctl-test-secret-material")})
	if err != nil {
		t.Fatal(err)
	}
	m := plus.NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	lat := privilege.TwoLevel()
	c := testTarget(t, plus.NewServer(plus.NewEngine(m, lat), plus.WithAuth(plus.AuthConfig{Keyring: kr, Require: true})))

	keys := t.TempDir() + "/keyring"
	if err := osWriteFile(keys, "k1:ctl-test-secret-material\n"); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return execute(c, "session", []string{"mint", "-keys", keys, "-viewer", "Protected"})
	})
	if err != nil {
		t.Fatal(err)
	}
	token := strings.TrimSpace(out)

	doc := `{"objects": [{"id": "a", "kind": "data", "name": "a"}]}`
	path := t.TempDir() + "/batch.json"
	if err := osWriteFile(path, doc); err != nil {
		t.Fatal(err)
	}
	if err := execute(c, "batch", []string{"-file", path}); err == nil {
		t.Error("tokenless batch against auth-required server exited 0")
	}
	if _, err := captureStdout(t, func() error {
		return execute(c, "batch", []string{"-token", token, "-file", path})
	}); err != nil {
		t.Fatalf("batch -token: %v", err)
	}
	if err := execute(c, "follow", []string{"-token", token}); err != nil {
		t.Fatalf("follow -token: %v", err)
	}
	if err := execute(c, "follow", nil); err == nil {
		t.Error("tokenless follow against auth-required server exited 0")
	}
}

// authTarget serves a MemBackend (with PLUSQL) that requires tokens
// signed by a one-key keyring, and returns the target plus a token minted
// offline for viewer with every capability.
func authTarget(t *testing.T, viewer string) (target, string) {
	t.Helper()
	kr, err := plus.NewKeyring(plus.Key{ID: "k1", Secret: []byte("ctl-global-secret-material")})
	if err != nil {
		t.Fatal(err)
	}
	m := plus.NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	lat := privilege.TwoLevel()
	s := plus.NewServer(plus.NewEngine(m, lat), plus.WithAuth(plus.AuthConfig{Keyring: kr, Require: true}))
	plusql.Attach(s, plusql.NewEngine(m, lat))
	c := testTarget(t, s)

	keys := t.TempDir() + "/keyring"
	if err := osWriteFile(keys, "k1:ctl-global-secret-material\n"); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return execute(c, "session", []string{"mint", "-keys", keys, "-viewer", viewer})
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, strings.TrimSpace(out)
}

// TestGlobalTokenOnEverySubcommand: the global -token authenticates every
// server-facing subcommand against an auth-required server.
func TestGlobalTokenOnEverySubcommand(t *testing.T) {
	c, token := authTarget(t, "Protected")
	if err := execute(c, "put-object", []string{"-id", "a", "-kind", "data", "-name", "a"}); err == nil {
		t.Fatal("tokenless write against auth-required server exited 0")
	}
	c.token = token
	doc := t.TempDir() + "/doc.json"
	if err := osWriteFile(doc, `{"artifacts":[{"id":"z","value":"zed"}],"processes":[],"used":[],"wasGeneratedBy":[]}`); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{
		{"put-object", "-id", "a", "-kind", "data", "-name", "a"},
		{"put-object", "-id", "p", "-kind", "invocation", "-name", "p", "-lowest", "Protected"},
		{"put-edge", "-from", "a", "-to", "p"},
		{"put-surrogate", "-for", "p", "-id", "p2", "-name", "a step"},
		{"get", "p"}, // the token's viewer, Protected, may read it
		{"lineage", "-start", "p"},
		{"query", `node(X)`},
		{"export-opm"},
		{"import-opm", "-file", doc},
		{"follow"},
		{"slowlog"},
		{"top", "-once"},
		{"status"},
	} {
		if _, err := captureStdout(t, func() error { return execute(c, args[0], args[1:]) }); err != nil {
			t.Errorf("%v with global token: %v", args, err)
		}
	}
}

// TestViewerBesideTokenIsRefused: a token fixes the principal, so a
// -viewer next to one (global or per-command) is an error naming the fix,
// never silently dropped in favour of the token's viewer.
func TestViewerBesideTokenIsRefused(t *testing.T) {
	c, token := authTarget(t, "Protected")
	path := t.TempDir() + "/batch.json"
	if err := osWriteFile(path, `{"objects": [{"id": "a", "kind": "data", "name": "a"}]}`); err != nil {
		t.Fatal(err)
	}
	perCommand := [][]string{
		{"batch", "-viewer", "Public", "-token", token, "-file", path},
		{"follow", "-viewer", "Public", "-token", token},
	}
	for _, args := range perCommand {
		err := execute(c, args[0], args[1:])
		if err == nil || !strings.Contains(err.Error(), "session mint") {
			t.Errorf("%v: err = %v, want a -viewer conflict naming session mint", args, err)
		}
	}
	c.token = token
	global := [][]string{
		{"get", "-viewer", "Public", "a"},
		{"lineage", "-viewer", "Public", "-start", "a"},
		{"query", "-viewer", "Public", `node(X)`},
		{"batch", "-viewer", "Public", "-file", path},
		{"follow", "-viewer", "Public"},
	}
	for _, args := range global {
		err := execute(c, args[0], args[1:])
		if err == nil || !strings.Contains(err.Error(), "session mint") {
			t.Errorf("%v with global token: err = %v, want a -viewer conflict naming session mint", args, err)
		}
	}
}
