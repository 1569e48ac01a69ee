package plus

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// This file is the stateless session-token layer of the v2 trust surface.
// A token is a signed statement — "the holder acts as viewer V with
// capabilities C until T" — that any server sharing the keyring can
// verify without shared session state: principal, capability set, expiry
// and signing-key id travel inside the token, and the HMAC-SHA256
// signature proves a keyring holder minted it. That makes request
// authentication shared-nothing: a fleet of plusd nodes behind a load
// balancer accepts each other's tokens with no session replication, and
// a server restart invalidates nothing (the keyring, not process memory,
// is the root of trust).
//
// Key rotation is first-class: a keyring holds several keys, the first
// is the signing (active) key, and verification accepts any listed key
// by its id. Rotating means prepending a new key while keeping the old
// one listed until every token signed with it has expired, then dropping
// it — at which point those tokens stop verifying.

// Capability names one operation class a token is allowed to perform.
// The capability model splits the surface into provider and consumer
// roles: an organisation's ingest pipeline holds "ingest", a replica
// holds "replicate", an analyst's tool holds "query", an operator holds
// "admin" — none of them needs the others' powers.
type Capability string

const (
	// CapIngest authorises writes: POST /v2/batch and OPM import.
	CapIngest Capability = "ingest"
	// CapReplicate authorises raw-record reads: GET /v2/changes,
	// GET /v2/snapshot and OPM export — the replication surface, which
	// bypasses protection because a replica must hold the full graph.
	CapReplicate Capability = "replicate"
	// CapQuery authorises protected reads: lineage, PLUSQL and point
	// fetches, always scoped to the token's viewer.
	CapQuery Capability = "query"
	// CapAdmin authorises operational endpoints: compaction, metrics and
	// the slow-query log.
	CapAdmin Capability = "admin"
)

// AllCapabilities returns every defined capability, sorted.
func AllCapabilities() []Capability {
	return []Capability{CapAdmin, CapIngest, CapQuery, CapReplicate}
}

// ParseCapabilities validates, dedupes and sorts a wire capability list.
func ParseCapabilities(names []string) ([]Capability, error) {
	seen := map[Capability]bool{}
	for _, n := range names {
		c := Capability(strings.TrimSpace(n))
		switch c {
		case CapIngest, CapReplicate, CapQuery, CapAdmin:
			seen[c] = true
		case "":
			// Ignore empty entries (trailing commas in CLI lists).
		default:
			return nil, fmt.Errorf("plus: unknown capability %q", n)
		}
	}
	out := make([]Capability, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// capsHave reports whether caps contains c.
func capsHave(caps []Capability, c Capability) bool {
	for _, have := range caps {
		if have == c {
			return true
		}
	}
	return false
}

// capsSubset reports whether every capability in want is present in have.
func capsSubset(want, have []Capability) bool {
	for _, c := range want {
		if !capsHave(have, c) {
			return false
		}
	}
	return true
}

// capStrings renders a capability list for wire payloads.
func capStrings(caps []Capability) []string {
	out := make([]string, len(caps))
	for i, c := range caps {
		out[i] = string(c)
	}
	return out
}

// minSecretLen is the smallest accepted HMAC key: anything shorter is
// guessable enough to defeat the point of signing.
const minSecretLen = 16

// Key is one keyring entry: an operator-chosen id (it travels in every
// token, so keep it short) and the HMAC secret.
type Key struct {
	ID     string
	Secret []byte
}

// Keyring is an ordered set of signing keys. The first key signs new
// tokens; every listed key verifies, which is what makes rotation
// gapless: prepend the new key, keep the old until its tokens expire,
// then drop it.
type Keyring struct {
	keys []Key
	byID map[string][]byte
}

// NewKeyring builds a keyring from keys, first key active.
func NewKeyring(keys ...Key) (*Keyring, error) {
	if len(keys) == 0 {
		return nil, errors.New("plus: keyring needs at least one key")
	}
	kr := &Keyring{byID: make(map[string][]byte, len(keys))}
	for _, k := range keys {
		if k.ID == "" || strings.ContainsAny(k.ID, ": \t\n") {
			return nil, fmt.Errorf("plus: bad key id %q (no colons or whitespace)", k.ID)
		}
		if len(k.Secret) < minSecretLen {
			return nil, fmt.Errorf("plus: key %q secret is %d bytes, need >= %d", k.ID, len(k.Secret), minSecretLen)
		}
		if _, dup := kr.byID[k.ID]; dup {
			return nil, fmt.Errorf("plus: duplicate key id %q", k.ID)
		}
		kr.keys = append(kr.keys, Key{ID: k.ID, Secret: append([]byte(nil), k.Secret...)})
		kr.byID[k.ID] = kr.keys[len(kr.keys)-1].Secret
	}
	return kr, nil
}

// ParseKeyring reads the keyring file format: one "id:secret" pair per
// line, first entry the active signing key; blank lines and #-comments
// are skipped. Secrets are opaque strings (>= 16 bytes); generate them
// with e.g. `openssl rand -hex 32`.
func ParseKeyring(data []byte) (*Keyring, error) {
	var keys []Key
	sc := bufio.NewScanner(bytes.NewReader(data))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		id, secret, ok := strings.Cut(text, ":")
		if !ok {
			return nil, fmt.Errorf("plus: keyring line %d: want id:secret", line)
		}
		keys = append(keys, Key{ID: strings.TrimSpace(id), Secret: []byte(strings.TrimSpace(secret))})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("plus: keyring: %w", err)
	}
	if len(keys) == 0 {
		return nil, errors.New("plus: keyring file holds no keys")
	}
	return NewKeyring(keys...)
}

// LoadKeyring reads a keyring file (see ParseKeyring for the format).
func LoadKeyring(path string) (*Keyring, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("plus: keyring: %w", err)
	}
	kr, err := ParseKeyring(data)
	if err != nil {
		return nil, fmt.Errorf("plus: keyring %s: %w", path, err)
	}
	return kr, nil
}

// ephemeralKeyring mints a single-key keyring with a random secret. A
// server with no configured keyring signs its sessions with one: tokens
// then die with the process, which is exactly the lifetime the old
// in-memory session table gave them, through the same code path the
// durable keyring uses.
func ephemeralKeyring() *Keyring {
	var secret [32]byte
	if _, err := rand.Read(secret[:]); err != nil {
		panic(fmt.Sprintf("plus: keyring entropy unavailable: %v", err))
	}
	var id [4]byte
	if _, err := rand.Read(id[:]); err != nil {
		panic(fmt.Sprintf("plus: keyring entropy unavailable: %v", err))
	}
	kr, err := NewKeyring(Key{ID: "eph-" + hex.EncodeToString(id[:]), Secret: secret[:]})
	if err != nil {
		panic(err) // unreachable: the key is well-formed by construction
	}
	return kr
}

// Active returns the signing key's id.
func (kr *Keyring) Active() string { return kr.keys[0].ID }

// KeyIDs lists every verifying key id, active first.
func (kr *Keyring) KeyIDs() []string {
	out := make([]string, len(kr.keys))
	for i, k := range kr.keys {
		out[i] = k.ID
	}
	return out
}

// Claims is the signed content of a session token.
type Claims struct {
	// Viewer is the privilege-predicate the holder acts as.
	Viewer string `json:"viewer"`
	// Capabilities lists what the holder may do (sorted).
	Capabilities []Capability `json:"caps"`
	// IssuedAt / ExpiresAt bound the token's life (unix seconds).
	IssuedAt  int64 `json:"iat"`
	ExpiresAt int64 `json:"exp"`
	// KeyID names the keyring entry that signed the token.
	KeyID string `json:"kid"`
}

// Expiry returns ExpiresAt as a time.
func (c Claims) Expiry() time.Time { return time.Unix(c.ExpiresAt, 0) }

// Can reports whether the claims grant capability cap.
func (c Claims) Can(cap Capability) bool { return capsHave(c.Capabilities, cap) }

// Token verification errors. Handlers map them onto 401s with distinct
// codes so clients can tell "re-mint" (expired) from "misconfigured"
// (bad signature / unknown key).
var (
	// ErrBadToken reports a malformed token or a signature no keyring
	// key reproduces.
	ErrBadToken = errors.New("plus: invalid session token")
	// ErrTokenExpired reports a well-signed token past its expiry.
	ErrTokenExpired = errors.New("plus: session token expired")
	// ErrUnknownKey reports a token signed by a key id the keyring does
	// not list (rotated out, or another keyring entirely).
	ErrUnknownKey = errors.New("plus: token signed with unknown key")
)

// tokenPrefix versions the wire encoding of session tokens.
const tokenPrefix = "plusv2t."

// Mint signs claims with the keyring's active key (or c.KeyID when set,
// which must be listed) and returns the wire token:
//
//	plusv2t.<base64url(claims JSON)>.<base64url(HMAC-SHA256)>
func (kr *Keyring) Mint(c Claims) (string, error) {
	if c.Viewer == "" {
		return "", errors.New("plus: mint: empty viewer")
	}
	if len(c.Capabilities) == 0 {
		return "", errors.New("plus: mint: empty capability set")
	}
	if c.ExpiresAt <= 0 {
		return "", errors.New("plus: mint: missing expiry")
	}
	if c.KeyID == "" {
		c.KeyID = kr.Active()
	}
	secret, ok := kr.byID[c.KeyID]
	if !ok {
		return "", fmt.Errorf("plus: mint: %w (%q)", ErrUnknownKey, c.KeyID)
	}
	sort.Slice(c.Capabilities, func(i, j int) bool { return c.Capabilities[i] < c.Capabilities[j] })
	body, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("plus: mint: %w", err)
	}
	payload := tokenPrefix + base64.RawURLEncoding.EncodeToString(body)
	return payload + "." + base64.RawURLEncoding.EncodeToString(sign(secret, payload)), nil
}

// sign computes the HMAC-SHA256 tag of payload under secret.
func sign(secret []byte, payload string) []byte {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(payload))
	return mac.Sum(nil)
}

// DecodeTokenClaims parses a token's claims WITHOUT verifying the
// signature or expiry — for inspection and debugging only (plusctl
// session inspect). Never authorise anything off an unverified decode.
func DecodeTokenClaims(token string) (Claims, error) {
	payload, _, err := splitToken(token)
	if err != nil {
		return Claims{}, err
	}
	return decodeClaims(payload)
}

// splitToken separates a wire token into its signed payload and its
// signature bytes.
func splitToken(token string) (payload string, sig []byte, err error) {
	if !strings.HasPrefix(token, tokenPrefix) {
		return "", nil, fmt.Errorf("%w: missing %q prefix", ErrBadToken, tokenPrefix)
	}
	dot := strings.LastIndexByte(token, '.')
	if dot <= len(tokenPrefix) {
		return "", nil, fmt.Errorf("%w: missing signature", ErrBadToken)
	}
	sig, err = base64.RawURLEncoding.DecodeString(token[dot+1:])
	if err != nil {
		return "", nil, fmt.Errorf("%w: bad signature encoding", ErrBadToken)
	}
	return token[:dot], sig, nil
}

// decodeClaims parses the payload half of a token.
func decodeClaims(payload string) (Claims, error) {
	body, err := base64.RawURLEncoding.DecodeString(strings.TrimPrefix(payload, tokenPrefix))
	if err != nil {
		return Claims{}, fmt.Errorf("%w: bad payload encoding", ErrBadToken)
	}
	var c Claims
	if err := json.Unmarshal(body, &c); err != nil {
		return Claims{}, fmt.Errorf("%w: bad payload", ErrBadToken)
	}
	if c.Viewer == "" || c.KeyID == "" || c.ExpiresAt <= 0 {
		return Claims{}, fmt.Errorf("%w: incomplete claims", ErrBadToken)
	}
	return c, nil
}

// Verify checks a wire token against the keyring at time now: the key id
// must be listed, the HMAC must match (constant-time), and the expiry
// must be in the future. It returns the verified claims.
func (kr *Keyring) Verify(token string, now time.Time) (Claims, error) {
	payload, sig, err := splitToken(token)
	if err != nil {
		return Claims{}, err
	}
	c, err := decodeClaims(payload)
	if err != nil {
		return Claims{}, err
	}
	secret, ok := kr.byID[c.KeyID]
	if !ok {
		return Claims{}, fmt.Errorf("%w: %q", ErrUnknownKey, c.KeyID)
	}
	if !hmac.Equal(sig, sign(secret, payload)) {
		return Claims{}, fmt.Errorf("%w: signature mismatch", ErrBadToken)
	}
	if !now.Before(c.Expiry()) {
		return Claims{}, fmt.Errorf("%w (at %s)", ErrTokenExpired, c.Expiry().UTC().Format(time.RFC3339))
	}
	return c, nil
}
