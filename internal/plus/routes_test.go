package plus_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
)

// routeTableServer builds a server with PLUSQL attached, so its table
// holds every route plusd serves.
func routeTableServer(t *testing.T, opts ...plus.ServerOption) (*plus.Server, string) {
	t.Helper()
	m := plus.NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	lat := privilege.TwoLevel()
	srv := plus.NewServer(plus.NewEngine(m, lat), opts...)
	plusql.Attach(srv, plusql.NewEngine(m, lat))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// routePath is a concrete path the endpoint's pattern matches.
func routePath(e plus.Endpoint) string {
	if strings.HasSuffix(e.Pattern, "/") {
		return e.Pattern + "x"
	}
	return e.Pattern
}

// routeCall sends one bodyless request and returns the status, the
// structured error code (if any) and the Allow header.
func routeCall(t *testing.T, method, url, token string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set(plus.HeaderSession, token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Code string `json:"code"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body.Code, resp.Header.Get("Allow")
}

// TestRouteTable walks the server's own endpoint table, so a route added
// later is covered without editing this test. Per (route, method): a
// wrong method is the structured 405 listing the route's methods; under
// required auth a tokenless call is 401 (the readiness probe aside) and
// AnonymousRead admits only query routes; a token lacking the route's
// capability is 403; a follower refuses every write with 403 read_only
// before authorization and gates no read.
func TestRouteTable(t *testing.T) {
	kr, err := plus.NewKeyring(plus.Key{ID: "k1", Secret: []byte("route-table-secret-k1")})
	if err != nil {
		t.Fatal(err)
	}
	open, openURL := routeTableServer(t)
	_, reqURL := routeTableServer(t, plus.WithAuth(plus.AuthConfig{Keyring: kr, Require: true}))
	_, anonURL := routeTableServer(t, plus.WithAuth(plus.AuthConfig{Keyring: kr, Require: true, AnonymousRead: true}))
	_, roURL := routeTableServer(t, plus.WithAuth(plus.AuthConfig{Keyring: kr, Require: true}), plus.WithReadOnly(nil))

	endpoints := plus.EndpointsOf(open)
	methods := map[string][]string{}
	for _, e := range endpoints {
		methods[e.Pattern] = append(methods[e.Pattern], e.Method)
	}
	if _, ok := methods["/v2/query"]; !ok {
		t.Fatal("POST /v2/query is not in the table with PLUSQL attached")
	}

	for pattern, served := range methods {
		url := openURL + routePath(plus.Endpoint{Pattern: pattern})
		for _, m := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete} {
			if slices.Contains(served, m) {
				continue
			}
			st, code, allow := routeCall(t, m, url, "")
			if st != http.StatusMethodNotAllowed || code != plus.CodeMethodNotAllowed || allow != strings.Join(served, ", ") {
				t.Errorf("%s %s = %d %q Allow %q, want 405 %q Allow %q",
					m, pattern, st, code, allow, plus.CodeMethodNotAllowed, strings.Join(served, ", "))
			}
		}
	}

	for _, e := range endpoints {
		name := e.Method + " " + e.Pattern
		path := routePath(e)

		st, code, _ := routeCall(t, e.Method, reqURL+path, "")
		if e.Need == plus.NeedAnyone {
			if st != http.StatusOK {
				t.Errorf("%s tokenless under required auth = %d, want 200", name, st)
			}
		} else if st != http.StatusUnauthorized || code != plus.CodeUnauthorized {
			t.Errorf("%s tokenless under required auth = %d %q, want 401 %q", name, st, code, plus.CodeUnauthorized)
		}

		st, _, _ = routeCall(t, e.Method, anonURL+path, "")
		admitted := st != http.StatusUnauthorized && st != http.StatusForbidden
		if want := e.Need == plus.CapQuery || e.Need == plus.NeedAnyone; admitted != want {
			t.Errorf("%s tokenless under AnonymousRead = %d, admitted %v, want %v", name, st, admitted, want)
		}

		if e.Need != plus.NeedAnyone && e.Need != plus.NeedAnyPrincipal {
			var others []plus.Capability
			for _, c := range plus.AllCapabilities() {
				if c != e.Need {
					others = append(others, c)
				}
			}
			now := time.Now()
			tok, err := kr.Mint(plus.Claims{Viewer: "Protected", Capabilities: others,
				IssuedAt: now.Unix(), ExpiresAt: now.Add(time.Hour).Unix()})
			if err != nil {
				t.Fatal(err)
			}
			if st, code, _ := routeCall(t, e.Method, reqURL+path, tok); st != http.StatusForbidden || code != plus.CodeForbidden {
				t.Errorf("%s with a token lacking %q = %d %q, want 403 %q", name, e.Need, st, code, plus.CodeForbidden)
			}
		}

		st, code, _ = routeCall(t, e.Method, roURL+path, "")
		if e.Write {
			if st != http.StatusForbidden || code != plus.CodeReadOnly {
				t.Errorf("%s tokenless on a follower = %d %q, want 403 %q before auth", name, st, code, plus.CodeReadOnly)
			}
		} else if code == plus.CodeReadOnly {
			t.Errorf("%s is a read but the follower gated it", name)
		}
	}
}
