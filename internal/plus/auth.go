package plus

import (
	"errors"
	"net/http"
	"time"

	"repro/internal/privilege"
)

// This file is the server-side authorization of the API. The dispatcher
// (server.go) resolves every caller through principal and judges it with
// authorize against the capability its endpoint declares; there is
// deliberately exactly one resolution path, so a missing token, a bad
// signature, an expired token, a viewer conflict and a missing
// capability fail identically on every endpoint — structured
// {error, code} bodies, never a silent Public fallback.
//
// Three server modes, selected by AuthConfig:
//
//   - Open (default, no keyring configured): back-compat. Principals
//     are validated but client-asserted (X-Plus-Viewer), every caller
//     holds every capability, and POST /v2/sessions signs tokens with
//     an ephemeral per-process key — the stateless replacement for the
//     old in-memory session table, with identical process-bound
//     lifetime.
//   - Authenticated (Require): every request needs a token signed by
//     the configured keyring. Missing/invalid tokens are 401; a valid
//     token without the endpoint's capability is 403.
//   - Authenticated + AnonymousRead: as above, but tokenless requests
//     keep the legacy read-only surface — the query capability with a
//     client-asserted (validated) viewer. Writes, replication and admin
//     still demand tokens.

// AuthConfig configures the server's trust surface.
type AuthConfig struct {
	// Keyring verifies and signs session tokens. Nil means an ephemeral
	// per-process key (open mode's session signer).
	Keyring *Keyring
	// Require rejects requests that do not carry a valid token (401).
	Require bool
	// AnonymousRead, with Require, lets tokenless requests keep the
	// legacy read-only surface: query endpoints with a client-asserted
	// validated viewer. Ingest, replication and admin still need tokens.
	// CAUTION: "client-asserted" means exactly what it meant in open
	// mode — an anonymous caller may assert ANY lattice-known viewer and
	// read at that privilege. The flag exists to migrate deployments
	// whose readers live inside the legacy trust boundary; it is not an
	// access-control mode for reads.
	AnonymousRead bool
	// DefaultTTL is the session lifetime POST /v2/sessions grants when
	// the request names none (default 1h).
	DefaultTTL time.Duration
	// MaxTTL caps requested session lifetimes (default 24h).
	MaxTTL time.Duration
}

// Auth config defaults.
const (
	DefaultSessionTTL = time.Hour
	DefaultMaxTTL     = 24 * time.Hour
)

// normalize fills config defaults; the keyring falls back to an
// ephemeral per-process key.
func (c AuthConfig) normalize() AuthConfig {
	if c.Keyring == nil {
		c.Keyring = ephemeralKeyring()
	}
	if c.DefaultTTL <= 0 {
		c.DefaultTTL = DefaultSessionTTL
	}
	if c.MaxTTL <= 0 {
		c.MaxTTL = DefaultMaxTTL
	}
	if c.DefaultTTL > c.MaxTTL {
		c.DefaultTTL = c.MaxTTL
	}
	return c
}

// Principal is the resolved identity of one request: who is asking and
// what they may do.
type Principal struct {
	// Viewer is the privilege-predicate answers are protected for.
	Viewer privilege.Predicate
	// Capabilities is what the caller may do.
	Capabilities []Capability
	// Token holds the verified claims when the caller authenticated
	// with a signed token; nil for open-mode and anonymous-read
	// principals (client-asserted, validated only).
	Token *Claims
}

// Can reports whether the principal holds capability cap.
func (p Principal) Can(cap Capability) bool { return capsHave(p.Capabilities, cap) }

// authorize judges a resolved principal against the capability need a
// route declares, counting the decision. resolveErr is principal's
// failure, which stands (counted as unauthorized). A principal missing
// need is 403 forbidden — 401 for an anonymous-read principal, whose fix
// is to authenticate.
func (s *Server) authorize(p Principal, resolveErr *APIError, need Capability) *APIError {
	if resolveErr != nil {
		s.obs.authz.With(string(need), "unauthorized").Inc()
		return resolveErr
	}
	if !p.Can(need) {
		s.obs.authz.With(string(need), "forbidden").Inc()
		if s.auth.Require && p.Token == nil {
			return v2Errorf(http.StatusUnauthorized, CodeUnauthorized,
				"plus: the %q capability requires an authenticated session token", need)
		}
		return v2Errorf(http.StatusForbidden, CodeForbidden,
			"plus: principal %q lacks the %q capability", p.Viewer, need)
	}
	s.obs.authz.With(string(need), "ok").Inc()
	return nil
}

// principal resolves who is asking, before any capability check:
//
//   - An X-Plus-Session token is verified against the keyring
//     (constant-time): expired is 401 token_expired, unknown key id or
//     bad signature 401 bad_token, a viewer the lattice does not know
//     403, an X-Plus-Viewer header contradicting the token 400.
//   - Without a token: 401 unauthorized when auth is required (unless
//     AnonymousRead admits it with the query capability alone);
//     otherwise the legacy open-mode principal — validated X-Plus-Viewer
//     header or Public, holding every capability.
func (s *Server) principal(r *http.Request) (Principal, *APIError) {
	token := r.Header.Get(HeaderSession)
	header := privilege.Predicate(r.Header.Get(HeaderViewer))
	if token != "" {
		claims, err := s.Keyring().Verify(token, time.Now())
		if err != nil {
			outcome := "bad"
			if errors.Is(err, ErrTokenExpired) {
				outcome = "expired"
			}
			s.obs.tokenVerify.With(outcome).Inc()
			return Principal{}, tokenError(err)
		}
		s.obs.tokenVerify.With("ok").Inc()
		viewer := privilege.Predicate(claims.Viewer)
		if header != "" && header != viewer {
			return Principal{}, v2Errorf(http.StatusBadRequest, CodeViewerConflict,
				"plus: %s %q contradicts the token's viewer %q", HeaderViewer, header, viewer)
		}
		if !s.lattice.Known(viewer) {
			// A well-signed token for a predicate this node's lattice never
			// declared: the credential is real but grants nothing here.
			return Principal{}, v2Errorf(http.StatusForbidden, CodeForbidden,
				"plus: token viewer %q is not in this server's lattice", viewer)
		}
		return Principal{Viewer: viewer, Capabilities: claims.Capabilities, Token: &claims}, nil
	}
	if s.auth.Require && !s.auth.AnonymousRead {
		return Principal{}, v2Errorf(http.StatusUnauthorized, CodeUnauthorized,
			"plus: missing session token (mint one with POST /v2/sessions or plusctl session mint)")
	}
	viewer := privilege.Public
	if header != "" {
		if !s.lattice.Known(header) {
			return Principal{}, v2Errorf(http.StatusBadRequest, CodeUnknownViewer,
				"plus: unknown viewer predicate %q", header)
		}
		viewer = header
	}
	if s.auth.Require {
		// AnonymousRead: the legacy client-asserted surface, read-only.
		return Principal{Viewer: viewer, Capabilities: []Capability{CapQuery}}, nil
	}
	// Open mode: back-compat, every capability.
	return Principal{Viewer: viewer, Capabilities: AllCapabilities()}, nil
}

// tokenError maps a keyring verification failure onto its 401.
func tokenError(err error) *APIError {
	code := CodeBadToken
	if errors.Is(err, ErrTokenExpired) {
		code = CodeTokenExpired
	}
	return v2Errorf(http.StatusUnauthorized, code, "%s", err)
}
