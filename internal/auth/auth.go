// Package auth is the one constant-time Bearer-token check every admin
// surface shares. csrserver's monolithic /admin routes, the wire shard
// workers, and the ingestion endpoint all guard mutating endpoints with
// the same scheme: a server-side token configured at boot (empty
// disables the surface) matched constant-time against the request's
// Authorization header.
package auth

import (
	"crypto/subtle"
	"encoding/json"
	"net/http"
	"strings"
)

// Verdict classifies one Bearer check.
type Verdict int

const (
	// OK: the request carried the configured token.
	OK Verdict = iota
	// Disabled: no token is configured server-side, so the surface is
	// off regardless of what the request carried.
	Disabled
	// Missing: the request carried no (or an empty) bearer token.
	Missing
	// Bad: a token was presented and it is not the configured one.
	Bad
)

// CheckBearer classifies the Authorization header value against the
// configured token. The token comparison is constant-time; the scheme
// prefix is not secret and is matched directly.
func CheckBearer(header, want string) Verdict {
	if want == "" {
		return Disabled
	}
	token, ok := strings.CutPrefix(header, "Bearer ")
	if !ok || token == "" {
		return Missing
	}
	if subtle.ConstantTimeCompare([]byte(token), []byte(want)) != 1 {
		return Bad
	}
	return OK
}

// Require checks r's bearer token against want and reports whether the
// handler may proceed. On failure it writes the standard response — 403
// for a disabled surface or a wrong token, 401 (with a WWW-Authenticate
// challenge) for a missing one, each with a {"error": msg} JSON body —
// and returns false.
func Require(w http.ResponseWriter, r *http.Request, want string) bool {
	status, msg := http.StatusForbidden, "bad token"
	switch CheckBearer(r.Header.Get("Authorization"), want) {
	case OK:
		return true
	case Disabled:
		msg = "admin endpoints disabled: no admin token configured"
	case Missing:
		w.Header().Set("WWW-Authenticate", "Bearer")
		status, msg = http.StatusUnauthorized, "missing bearer token"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
	return false
}
