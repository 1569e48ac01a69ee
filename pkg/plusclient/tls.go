package plusclient

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net/http"
	"os"
)

// NewTLSHTTPClient builds an *http.Client whose transport verifies
// servers against the PEM CA bundle at caFile — how tools talk to an
// https plusd serving a self-signed chain (plusd -tls-self-signed writes
// the cert.pem to hand here). plusctl's -tls-ca rides on it.
func NewTLSHTTPClient(caFile string) (*http.Client, error) {
	pool, err := loadCAPool(caFile)
	if err != nil {
		return nil, err
	}
	return httpClientWithTLS(nil, &tls.Config{RootCAs: pool}), nil
}

// loadCAPool reads the PEM CA bundle at path into a certificate pool.
func loadCAPool(path string) (*x509.CertPool, error) {
	pemBytes, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("plusclient: tls ca: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pemBytes) {
		return nil, fmt.Errorf("plusclient: tls ca: no certificates in %s", path)
	}
	return pool, nil
}

// httpClientWithTLS derives a client from base (nil = fresh) whose
// transport carries tc, cloning rather than mutating shared transports.
func httpClientWithTLS(base *http.Client, tc *tls.Config) *http.Client {
	out := &http.Client{}
	if base != nil {
		*out = *base
	}
	switch tr := out.Transport.(type) {
	case nil:
		dt, ok := http.DefaultTransport.(*http.Transport)
		if !ok {
			out.Transport = &http.Transport{TLSClientConfig: tc}
			break
		}
		ct := dt.Clone()
		ct.TLSClientConfig = tc
		out.Transport = ct
	case *http.Transport:
		ct := tr.Clone()
		ct.TLSClientConfig = tc
		out.Transport = ct
	default:
		// An exotic RoundTripper the package cannot rewrap; leave it and
		// trust the caller configured its TLS themselves.
	}
	return out
}

// WithCAFile points the client's TLS verification at the PEM CA bundle
// at path, for https servers whose chain the system roots do not cover.
// New applies it after every other option, so it also covers a client
// given by WithHTTPClient in either order. A read or parse failure is
// deferred: it surfaces as the error of the first request, so New stays
// infallible.
func WithCAFile(path string) Option {
	return func(c *Client) {
		c.caPool, c.initErr = loadCAPool(path)
	}
}
