// A shard worker (-shardworker) is the one csrserver process with no
// frontend: it serves one node-range shard over the wire protocol to a
// -shardaddrs router, and the two compose into a multi-process cluster
// whose answers are bitwise-identical to a single csrserver — see
// internal/wire and DESIGN.md §14.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/serve"
	"csrplus/internal/wire"
)

// runShardWorker is the -shardworker mode: boot one shard from its own
// snapshot directory (<snapshots>/shard-<s>) and serve the wire protocol
// until SIGINT/SIGTERM. SIGHUP reloads the newest snapshot in place, the
// same trigger a frontend honours. No graph flags are needed — the
// snapshot carries the shard's whole identity.
func runShardWorker(cfg *config) {
	shardIdx, addr := cfg.shardWorker, cfg.addr
	w, err := wire.BootWorker(wire.WorkerConfig{
		Shard:       shardIdx,
		SnapshotDir: core.ShardDir(cfg.snapDir, shardIdx),
		AdminToken:  cfg.adminToken,
	})
	if err != nil {
		log.Fatalln("csrserver:", err)
	}
	slot := w.Slot()
	log.Printf("shard worker %d: serving nodes [%d, %d) of n=%d r=%d mapped=%t on %s",
		shardIdx, slot.Lo(), slot.Hi(), slot.N(), slot.Rank(), w.Mapped(), addr)

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			log.Printf("shard worker %d: SIGHUP, reloading snapshot ...", shardIdx)
			if _, err := w.Reload(); err != nil {
				log.Printf("shard worker %d: reload failed: %v", shardIdx, err)
			}
		}
	}()
	srv := &http.Server{Addr: addr, Handler: w.Handler(), ReadHeaderTimeout: 5 * time.Second}
	serveAndWait(srv, nil, fmt.Sprintf("shard worker %d", shardIdx))
}

// serveAndWait runs srv until SIGINT/SIGTERM, then drains it gracefully.
// sv, when non-nil, is closed after HTTP shutdown so queued requests are
// answered before the process exits. name labels the log lines.
//
// Every mode, frontend or shard worker, comes here once, straight from its
// boot load, which left several times the index in garbage (phase I's
// scratch, a snapshot's decode buffers). A /topk allocates a few KB, so
// serving no longer brings the next collection forward: without this one
// the process would sit at its load-time peak until the runtime's
// two-minute forced GC, which is also what returns a reload's garbage.
func serveAndWait(srv *http.Server, sv *serve.Server, name string) {
	debug.FreeOSMemory()
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalln("csrserver:", err)
		}
	}()
	log.Printf("csrserver: %s listening on %s", name, srv.Addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Printf("csrserver: %s shutting down ...", name)
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Println("csrserver: shutdown:", err)
	}
	if sv != nil {
		sv.Close()
	}
	log.Printf("csrserver: %s drained", name)
}
