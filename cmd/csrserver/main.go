// Command csrserver serves CoSimRank similarity search over HTTP — the
// "online multi-source query" phase of CSR+ as a long-lived service: the
// index is precomputed once at startup or loaded from -snapshots, and
// queries are answered from it.
//
// Requests are routed through internal/serve, which answers each one on
// its handler's goroutine: it sheds load once -workers + -pending requests
// are held (HTTP 429), bounds concurrent engine calls at -workers,
// enforces per-request deadlines (504) and drains gracefully on
// SIGINT/SIGTERM. Every request is its own engine call: /topk streams
// score bands into a selector and /similarity scores just the target rows,
// so neither materialises a column for concurrent requests to share.
//
// Usage:
//
//	csrserver -dataset WT -addr :8080
//	csrserver -graph edges.txt -n 100000 -r 8 -snapshots /var/lib/csr
//	csrserver -dataset WT -snapshots /var/lib/csr -waldir /var/lib/csr/wal -admintoken T
//	csrserver -snapshots /var/lib/csr -waldir /var/lib/csr/wal -admintoken T   # a restart: the snapshot carries the graph
//	csrserver -shardworker 2 -snapshots /var/lib/csr -addr :9102
//	csrserver -shardaddrs host0:9100,host1:9101,host2:9102 -addr :8080
//
// There is one serving path. Every index generation is a shard.Router
// over K node-range slots, and the answer is bitwise the same at every
// K: a plain server is the K=1 router over the whole index, and
// -shardaddrs puts each of K slots in its own -shardworker process behind
// the wire protocol (csrstat -convert DIR -split K writes the directories
// the workers boot from). Which flags each of those modes reads is one
// table (flags.go); a flag the mode does not read is rejected, never
// ignored. Where generations come from, and who owns their memory, is
// source.go.
//
// The snapshot directory (-snapshots) is the process's one on-disk
// contract. A boot or reload serves its newest index-<gen>.csrx that loads,
// and an index the process builds is published there first and served from
// the file it was published as. To serve a pre-built or quantized index, or
// to roll back to an older generation, publish it as the newest:
// csrstat -index FILE -convert DIR [-quantize].
//
// The index hot-reloads with zero downtime: SIGHUP (or an authenticated
// POST /admin/reload) loads the next generation off the serving path —
// the newest snapshot in -snapshots DIR that loads (index-<gen>.csrx), or
// every worker's own reload with -shardaddrs — scans its factors for a
// non-finite score, validates it with a smoke query and swaps it in while
// in-flight engine calls drain on the old one. The boot generation passes
// the same two checks or the process does not start.
//
// With -waldir the graph is mutable: POST /admin/edges appends edge
// batches to a write-ahead log (the 200 means fsynced), applies them to
// the live graph, and charges the drift they cause to every answer's
// error_bound; past -driftbudget a rebuild from the live graph is
// triggered. A restart starts the live graph from the snapshot's graph
// section and replays only the log tail past it; each publish prunes the
// log segments every kept generation already holds.
//
// Endpoints:
//
//	GET /health, /healthz             liveness (process up)
//	GET /readyz                       readiness (generation serving, WAL replayed, breaker closed)
//	GET /stats                        graph + index + per-shard + serving counters
//	GET /metrics                      serving metrics (engine calls, queue, remote slots)
//	GET /topk?node=17&k=10            top-k most similar to one node
//	GET /topk?nodes=17,42&k=10        top-k by aggregate similarity
//	GET /similarity?node=17&targets=1,2,3   raw scores for chosen pairs
//	GET /admin/index                  live generation: source, path, build cost, shards
//	POST /admin/reload                trigger a reload (Bearer -admintoken)
//	POST /admin/edges                 append edges durably (-waldir; Bearer -admintoken)
//
// A -shardworker serves /shard/* (internal/wire) plus /healthz, /readyz
// and POST /admin/reload instead.
//
// Every answer is computed at the index's full rank r, whatever the load:
// pressure sheds (429) or expires (504) a request, never changes its
// scores. An answer is tagged with a "degraded" object only when a shard
// could not contribute or the drift budget is exhausted. A reload is one
// attempt; a failed one
// leaves the old generation serving and is re-triggered by the operator.
// Five consecutive failed reloads open a circuit breaker for ten seconds,
// surfaced on /readyz.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"csrplus/internal/auth"
	"csrplus/internal/ingest"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
	"csrplus/internal/simd"
	"csrplus/internal/wire"
)

func main() {
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatalln("csrserver:", err)
	}
	armFaultsFromEnv()
	if cfg.mode == modeWorker {
		runShardWorker(cfg)
		return
	}
	s, err := boot(context.Background(), cfg)
	if err != nil {
		log.Fatalln("csrserver:", err)
	}
	if s.ing != nil {
		// Replay off the serving path: the listener comes up immediately,
		// /readyz reports not-ready and /admin/edges 503s until the tail is
		// back inside the graph. A log the boot factors can't replay onto
		// is fatal — serving would silently drop acknowledged edges.
		go func() {
			start := time.Now()
			if err := s.ing.Recover(); err != nil {
				log.Fatalln("csrserver: WAL recovery failed:", err)
			}
			st := s.ing.Stats()
			log.Printf("csrserver: WAL replay complete in %v (seq %d, drift %.3g)", time.Since(start), st.LastSeq, st.Drift)
			s.ing.TriggerIfExceeded()
		}()
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go s.reloadOnHUP(hup)
	srv := &http.Server{Addr: cfg.addr, Handler: s.mux(), ReadHeaderTimeout: 5 * time.Second}
	serveAndWait(srv, s.sv, "server")
}

// server is the booted serving stack: one serve.Server over the router
// generations of one source, whatever the mode.
type server struct {
	sv         *serve.Server
	man        *reload.Manager
	ing        *ingest.Service // nil without -waldir
	adminToken string
}

// boot opens cfg's source and wires its first generation through the
// serve layer and the reload manager.
func boot(ctx context.Context, cfg *config) (*server, error) {
	start := time.Now()
	src, err := openSource(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// The boot generation passes the smoke test every later one must.
	validateStart := time.Now()
	if err := reload.Validate(src.boot); err != nil {
		if src.boot.Release != nil {
			src.boot.Release()
		}
		if src.ing != nil {
			_ = src.ing.Close()
		}
		return nil, err
	}
	meta := src.boot.Meta
	slots := meta.ShardStatus()
	shards := len(slots)
	stored, indexBytes := indexSize(slots)
	// Clocked from before the graph load, so the figure is the process's
	// set-up time as a caller polling /readyz sees it, less exec and flags.
	// validate= is the boot generation's smoke test, the last thing before
	// ready; the source's own clocks come before it.
	// kernels= is the tier of register tiles the CPU check chose for the
	// dense and sparse kernels (simd.Detected): what the precompute ran on.
	log.Printf("ready in %v (source=%s shards=%d n=%d r=%d rows_stored=%d index_bytes=%d mapped=%t kernels=%v peak %d bytes VmHWM %d bytes) graph=%v%s validate=%v", time.Since(start),
		meta.Source, shards, meta.N, meta.Rank, stored, indexBytes, allMapped(slots), simd.Detected(), meta.PeakBytes, vmHWM(), src.graphLoad, clocksSuffix(meta), clockSince(validateStart))

	sv := serve.NewRanked(src.boot.Ranked, cfg.serve)
	sv.Metrics().SetShards(shards)
	if len(src.engines) > 0 {
		sv.Metrics().RegisterExtra("wire_shards", func() any {
			stats := make([]wire.SlotStats, len(src.engines))
			for i, e := range src.engines {
				stats[i] = e.Stats()
			}
			return stats
		})
	}
	man := reload.New(sv, src.next, meta)
	// The boot generation may pin a snapshot mapping too; the Manager
	// frees it after the first successful reload swaps it out.
	man.SetBootRelease(src.boot.Release)
	s := &server{sv: sv, man: man, ing: src.ing, adminToken: cfg.adminToken}
	if s.ing != nil {
		s.ing.SetRebuildTrigger(func() {
			log.Println("csrserver: drift budget exceeded, rebuilding from the live graph ...")
			st, err := s.reload(context.Background())
			if err != nil {
				log.Println("csrserver: drift rebuild failed:", err)
				return
			}
			logGeneration(st)
		})
	}
	return s, nil
}

// reload runs one reload and settles the ingest drift baseline: a
// successful swap absorbs everything up to the loader's cut
// (RebuildDone(true)); a failure keeps the old baseline — and its honest
// drift accounting — so the next over-budget append re-fires the rebuild
// trigger. A coalesced trigger is left to the in-flight reload's own
// commit.
func (s *server) reload(ctx context.Context) (reload.Status, error) {
	st, err := s.man.Reload(ctx)
	if s.ing != nil && !errors.Is(err, reload.ErrCoalesced) {
		s.ing.RebuildDone(err == nil)
	}
	return st, err
}

// reloadOnHUP runs one reload per SIGHUP — the operator's signal that a
// new snapshot was published (or that the graph should be re-indexed).
// Failures are logged and the previous generation keeps serving.
func (s *server) reloadOnHUP(ch <-chan os.Signal) {
	for range ch {
		log.Println("csrserver: SIGHUP, reloading index ...")
		st, err := s.reload(context.Background())
		if err != nil {
			log.Println("csrserver: reload failed:", err)
			continue
		}
		logGeneration(st)
	}
}

// logGeneration reports a generation a reload just put in service.
func logGeneration(st reload.Status) {
	log.Printf("csrserver: serving generation %d (source=%s path=%s build=%v mapped=%t peak %d bytes VmHWM %d bytes)%s",
		st.Generation, st.Source, st.Path, time.Duration(st.BuildSeconds*float64(time.Second)), allMapped(st.ShardStatus()), st.PeakBytes, vmHWM(), clocksSuffix(st.Meta))
}

// vmHWM is the process's peak resident set so far as the kernel counts it
// — what the analytic peak beside it in the log lines models — or 0 where
// /proc does not say.
func vmHWM() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(status), "VmHWM:")
	if !ok {
		return 0
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 || fields[1] != "kB" {
		return 0
	}
	kb, _ := strconv.ParseInt(fields[0], 10, 64)
	return kb << 10
}

// indexSize sums what the slots hold: the factor rows stored — of the n the
// index covers; the rest are implicit zero rows nothing maps, checks or
// scans — and their resident bytes.
func indexSize(slots []shard.ShardStatus) (stored int, bytes int64) {
	for _, sl := range slots {
		stored, bytes = stored+sl.Stored, bytes+sl.Bytes
	}
	return stored, bytes
}

// servedBuild names the index build every slot serves, or "mixed" while a
// roll has slots on different builds.
func servedBuild(slots []shard.ShardStatus) string {
	if len(slots) == 0 {
		return ""
	}
	for _, sl := range slots[1:] {
		if sl.Build != slots[0].Build {
			return "mixed"
		}
	}
	return slots[0].Build
}

// allMapped reports whether every slot serves its rows from a mapped file.
func allMapped(slots []shard.ShardStatus) bool {
	return len(slots) > 0 && !slices.ContainsFunc(slots, func(sl shard.ShardStatus) bool { return !sl.Mapped })
}

// clocksSuffix renders where a generation's build time went, for the boot
// and reload log lines; empty when the source clocked nothing.
func clocksSuffix(meta reload.Meta) string {
	if meta.Clocks == "" {
		return ""
	}
	return " " + meta.Clocks
}

// mux wires the HTTP routes: query traffic goes through the serve layer;
// the reload manager answers /stats and the /admin routes. adminToken
// guards the POST /admin/* routes; empty disables them. With an ingest
// service the mux also registers POST /admin/edges, gates /readyz on WAL
// replay, and adds an "ingest" section to /stats.
func (s *server) mux() *http.ServeMux {
	man, sv, adminToken, svc := s.man, s.sv, s.adminToken, s.ing
	mux := http.NewServeMux()
	// /health and /healthz are liveness: the process is up and able to
	// answer HTTP. They stay 200 through failed reloads and degraded mode
	// — restarting the process would not fix either.
	liveness := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
	mux.HandleFunc("/health", liveness)
	mux.HandleFunc("/healthz", liveness)
	// /readyz is readiness: a generation is serving and the reload
	// breaker is closed. An open breaker means the index source is
	// persistently broken — traffic still gets answers from the old
	// generation, but orchestrators should stop preferring this replica.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		st := man.Current()
		b := man.Breaker()
		body := map[string]interface{}{
			"generation":     st.Generation,
			"source":         st.Source,
			"snapshot_gen":   st.SnapshotGen,
			"recovered":      st.Recovered,
			"reload_breaker": b,
		}
		if svc != nil {
			body["ingest_ready"] = svc.Ready()
		}
		switch {
		case st.Generation == 0:
			body["status"] = "no generation"
			writeJSON(w, http.StatusServiceUnavailable, body)
		case svc != nil && !svc.Ready():
			// A generation is serving but acknowledged edges are still
			// being replayed: answers would silently miss them.
			body["status"] = "ingest replay in progress"
			writeJSON(w, http.StatusServiceUnavailable, body)
		case b.Open:
			body["status"] = "reload breaker open"
			writeJSON(w, http.StatusServiceUnavailable, body)
		default:
			body["status"] = "ready"
			writeJSON(w, http.StatusOK, body)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		st := man.Current()
		shards := st.ShardStatus()
		stored, indexBytes := indexSize(shards)
		body := map[string]interface{}{
			"algorithm":          st.Algorithm,
			"n":                  st.N,
			"rows_stored":        stored,
			"index_bytes":        indexBytes,
			"build":              servedBuild(shards),
			"m":                  st.M,
			"generation":         st.Generation,
			"source":             st.Source,
			"precompute_seconds": st.BuildSeconds,
			"peak_bytes":         st.PeakBytes,
			"shards":             shards,
			"serving":            sv.Metrics().Snapshot(),
			"reload_breaker":     man.Breaker(),
			"kernels":            simd.Detected().String(),
		}
		if svc != nil {
			body["ingest"] = svc.Stats()
		}
		writeJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("/admin/index", func(w http.ResponseWriter, r *http.Request) {
		st := man.Current()
		writeJSON(w, http.StatusOK, struct {
			reload.Status
			Shards []shard.ShardStatus `json:"shards"`
		}{st, st.ShardStatus()})
	})
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("reload requires POST"))
			return
		}
		if !auth.Require(w, r, adminToken, failAuth) {
			return
		}
		st, err := s.reload(r.Context())
		switch {
		case errors.Is(err, reload.ErrCoalesced):
			// The trigger was folded into the in-flight reload's pending
			// re-run: accepted, will happen, nothing for the caller to do.
			writeJSON(w, http.StatusAccepted, map[string]interface{}{
				"status": "coalesced", "current": st,
			})
		case errors.Is(err, reload.ErrBreakerOpen):
			// Whole seconds until the breaker admits a probe, never 0 — not
			// even when the cooldown ran out since the reload was refused.
			wait := 0.0
			if at := man.Breaker().RetryAt; at != nil {
				wait = time.Until(*at).Seconds()
			}
			w.Header().Set("Retry-After", strconv.Itoa(max(1, int(math.Ceil(wait)))))
			writeError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			writeError(w, http.StatusInternalServerError, err)
		default:
			writeJSON(w, http.StatusOK, st)
		}
	})
	// /admin/edges is the durable ingestion door: the batch is validated,
	// WAL-appended (the 200 means it survived fsync), and applied to the
	// live graph before the response. It exists only when -waldir is set.
	if svc != nil {
		mux.HandleFunc("/admin/edges", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				w.Header().Set("Allow", http.MethodPost)
				writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("edge ingestion requires POST"))
				return
			}
			if !auth.Require(w, r, adminToken, failAuth) {
				return
			}
			var req struct {
				Edges []ingest.Edge `json:"edges"`
			}
			dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
			if err := dec.Decode(&req); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad ingest body: %v", err))
				return
			}
			seq, drift, err := svc.Append(req.Edges)
			switch {
			case errors.Is(err, ingest.ErrNotReady):
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, err)
			case errors.Is(err, ingest.ErrBadEdge):
				writeError(w, http.StatusBadRequest, err)
			case err != nil:
				writeError(w, http.StatusInternalServerError, err)
			default:
				writeJSON(w, http.StatusOK, map[string]interface{}{
					"seq":         seq,
					"drift_bound": drift,
				})
			}
		})
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, sv.Metrics().Snapshot())
	})
	mux.HandleFunc("/topk", func(w http.ResponseWriter, r *http.Request) {
		queries, err := queryNodes(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		k := 10
		if ks := r.URL.Query().Get("k"); ks != "" {
			if k, err = strconv.Atoi(ks); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad k %q", ks))
				return
			}
		}
		res, err := sv.Search(r.Context(), queries, k)
		if err != nil {
			writeServeError(w, err)
			return
		}
		body := map[string]interface{}{"queries": queries, "matches": res.Matches}
		if res.Info.Degraded {
			body["degraded"] = res.Info
		}
		writeJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("/similarity", func(w http.ResponseWriter, r *http.Request) {
		queries, err := queryNodes(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		targets, err := parseIDs(r.URL.Query().Get("targets"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		res, err := sv.Score(r.Context(), queries, targets)
		if err != nil {
			writeServeError(w, err)
			return
		}
		body := map[string]interface{}{"pairs": res.Pairs}
		if res.Info.Degraded {
			body["degraded"] = res.Info
		}
		writeJSON(w, http.StatusOK, body)
	})
	return mux
}

// writeServeError maps the serve layer's typed errors onto HTTP status
// codes: shed load is 429 and a shard slot the answer cannot do without
// 503 (both retryable), deadline expiry 504, shutdown 503, validation 400.
func writeServeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, shard.ErrSlotDown):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, serve.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, serve.ErrBadRequest):
		writeError(w, http.StatusBadRequest, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func queryNodes(r *http.Request) ([]int, error) {
	q := r.URL.Query()
	if s := q.Get("nodes"); s != "" {
		return parseIDs(s)
	}
	if s := q.Get("node"); s != "" {
		return parseIDs(s)
	}
	return nil, fmt.Errorf("node or nodes parameter required")
}

func parseIDs(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty id list")
	}
	parts := strings.Split(s, ",")
	ids := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad node id %q", p)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Println("csrserver: encode:", err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// failAuth adapts writeError to the shared Bearer-auth helper.
func failAuth(w http.ResponseWriter, status int, msg string) {
	writeError(w, status, errors.New(msg))
}
