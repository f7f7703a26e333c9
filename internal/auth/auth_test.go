package auth

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestCheckBearer(t *testing.T) {
	cases := []struct {
		name   string
		header string
		want   string
		verd   Verdict
	}{
		{"ok", "Bearer s3cret", "s3cret", OK},
		{"disabled ignores valid-looking header", "Bearer s3cret", "", Disabled},
		{"disabled ignores empty header", "", "", Disabled},
		{"missing header", "", "s3cret", Missing},
		{"wrong scheme", "Basic s3cret", "s3cret", Missing},
		{"empty token after scheme", "Bearer ", "s3cret", Missing},
		{"bad token", "Bearer nope", "s3cret", Bad},
		{"token is a prefix of the real one", "Bearer s3c", "s3cret", Bad},
		{"real token is a prefix of the presented one", "Bearer s3cret-and-more", "s3cret", Bad},
		{"case-sensitive scheme", "bearer s3cret", "s3cret", Missing},
	}
	for _, tc := range cases {
		if got := CheckBearer(tc.header, tc.want); got != tc.verd {
			t.Errorf("%s: CheckBearer(%q, %q) = %v, want %v", tc.name, tc.header, tc.want, got, tc.verd)
		}
	}
}

func TestRequireWritesStandardResponses(t *testing.T) {
	cases := []struct {
		name      string
		header    string
		want      string
		ok        bool
		status    int
		challenge bool
		body      string
	}{
		{"ok", "Bearer tok", "tok", true, http.StatusOK, false, ""},
		{"disabled", "Bearer tok", "", false, http.StatusForbidden, false, `{"error":"admin endpoints disabled: no admin token configured"}` + "\n"},
		{"missing", "", "tok", false, http.StatusUnauthorized, true, `{"error":"missing bearer token"}` + "\n"},
		{"bad", "Bearer wrong", "tok", false, http.StatusForbidden, false, `{"error":"bad token"}` + "\n"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/admin/x", nil)
		if tc.header != "" {
			req.Header.Set("Authorization", tc.header)
		}
		got := Require(rec, req, tc.want)
		if got != tc.ok {
			t.Errorf("%s: Require = %v, want %v", tc.name, got, tc.ok)
		}
		if !tc.ok && rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.status)
		}
		if hasChallenge := rec.Header().Get("WWW-Authenticate") != ""; hasChallenge != tc.challenge {
			t.Errorf("%s: WWW-Authenticate present=%v, want %v", tc.name, hasChallenge, tc.challenge)
		}
		if got := rec.Body.String(); got != tc.body {
			t.Errorf("%s: body %q, want %q", tc.name, got, tc.body)
		}
		if !tc.ok && rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", tc.name, rec.Header().Get("Content-Type"))
		}
	}
}
