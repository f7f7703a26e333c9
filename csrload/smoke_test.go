//go:build cluster

package main

import (
	"os"
	"testing"
	"time"
)

// TestSmoke boots all four topologies from a prebuilt csrserver — the
// 2-worker cluster and the ingest restart included — under the same build
// tag and CSRSERVER_BIN convention as internal/cluster's process tests:
//
//	go build -o /tmp/csrserver ./cmd/csrserver
//	cd csrload && CSRSERVER_BIN=/tmp/csrserver go test -tags cluster -run TestSmoke .
func TestSmoke(t *testing.T) {
	bin := os.Getenv("CSRSERVER_BIN")
	if bin == "" {
		t.Skip("CSRSERVER_BIN not set; build cmd/csrserver and point CSRSERVER_BIN at it")
	}
	t.Cleanup(stopAll)
	start := time.Now()
	if err := run("", 1, 0, false, "..", t.TempDir(), bin, true, 0, false); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Errorf("smoke run took %v, the budget is 30 s", took)
	}
}
