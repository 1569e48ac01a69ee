package plusclient

import (
	"context"
	"crypto/tls"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/plus"
	"repro/internal/privilege"
)

// newTLSTestServer serves a MemBackend over HTTPS with a fresh
// self-signed cert and returns the server plus the CA file path clients
// must trust.
func newTLSTestServer(t *testing.T) (*httptest.Server, string, *plus.MemBackend) {
	t.Helper()
	dir := t.TempDir()
	certPath, keyPath, err := plus.WriteSelfSignedCert(dir)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := tls.LoadX509KeyPair(certPath, keyPath)
	if err != nil {
		t.Fatal(err)
	}
	m := plus.NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	ts := httptest.NewUnstartedServer(plus.NewServer(plus.NewEngine(m, privilege.TwoLevel())))
	ts.TLS = &tls.Config{Certificates: []tls.Certificate{pair}}
	ts.StartTLS()
	t.Cleanup(ts.Close)
	return ts, certPath, m
}

func TestNewTLSHTTPClientTrustsCustomCA(t *testing.T) {
	ts, caFile, _ := newTLSTestServer(t)

	hc, err := NewTLSHTTPClient(caFile)
	if err != nil {
		t.Fatal(err)
	}
	c := New(ts.URL, WithHTTPClient(hc))
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz over TLS with custom CA: %v", err)
	}

	// The system pool must NOT trust the self-signed chain.
	c = New(ts.URL)
	if _, err := c.Healthz(context.Background()); err == nil {
		t.Fatal("healthz succeeded without trusting the CA")
	}
}

func TestWithCAFileOption(t *testing.T) {
	ts, caFile, _ := newTLSTestServer(t)

	c := New(ts.URL, WithCAFile(caFile))
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz with WithCAFile: %v", err)
	}
}

func TestWithCAFileBadPathSurfacesOnFirstRequest(t *testing.T) {
	c := New("http://localhost:1", WithCAFile(filepath.Join(t.TempDir(), "absent.pem")))
	_, err := c.Healthz(context.Background())
	if err == nil {
		t.Fatal("missing CA file did not fail the request")
	}
}

func TestWithCAFileGarbageContent(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "ca.pem")
	if err := os.WriteFile(bad, []byte("not a certificate"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New("http://localhost:1", WithCAFile(bad))
	if _, err := c.Healthz(context.Background()); err == nil {
		t.Fatal("garbage CA file did not fail the request")
	}
}

// WithCAFile layered over a caller-supplied client must clone, not
// mutate: the base client must not inherit the custom trust.
func TestWithCAFileDoesNotMutateBaseClient(t *testing.T) {
	ts, caFile, _ := newTLSTestServer(t)
	base := &http.Client{Transport: &http.Transport{}}

	c := New(ts.URL, WithHTTPClient(base), WithCAFile(caFile))
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	// base still distrusts the self-signed chain; only c's clone trusts it.
	if resp, err := base.Get(ts.URL + "/v1/healthz"); err == nil {
		resp.Body.Close()
		t.Error("base client gained the custom CA trust")
	}
}

// WithCAFile must hold whatever the option order: a WithHTTPClient
// given after it still verifies against the CA bundle.
func TestWithCAFileSurvivesLaterWithHTTPClient(t *testing.T) {
	ts, caFile, _ := newTLSTestServer(t)

	c := New(ts.URL, WithCAFile(caFile), WithHTTPClient(&http.Client{}))
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz with WithCAFile before WithHTTPClient: %v", err)
	}
}
