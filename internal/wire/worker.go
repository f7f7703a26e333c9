package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"csrplus/internal/auth"
	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
)

// maxBody bounds a worker request body: the largest legitimate payload is
// a /shard/query UQ broadcast (|Q| x rank float64s), which at the serving
// batch sizes is kilobytes. 64 MiB leaves three orders of magnitude of
// headroom while keeping a confused client from ballooning worker memory.
const maxBody = 64 << 20

// WorkerConfig configures one shard worker process.
type WorkerConfig struct {
	// Shard is the slot index this worker serves (its snapshot dir is
	// <snapshots>/shard-<Shard>).
	Shard int
	// SnapshotDir is the worker's own shard-<s> snapshot directory —
	// where Reload looks for the next generation.
	SnapshotDir string
	// AdminToken authenticates POST /admin/reload. Empty disables the
	// endpoint (403), matching csrserver's monolithic admin surface.
	AdminToken string
	// Log receives worker lifecycle lines; nil uses the standard logger.
	Log *log.Logger
}

// Worker serves one core.IndexShard over HTTP behind the same
// atomic-generation slot an in-process router uses, so a reload swaps
// factors under in-flight requests with identical semantics: each request
// pins the generation it resolved at entry and finishes on it, and a
// reload unmaps the shard file it retired only once the slot's swap has
// drained every such pin.
type Worker struct {
	cfg    WorkerConfig
	slot   *shard.Local
	mapped atomic.Bool // the serving generation's factors are a mapped file

	reloadMu sync.Mutex      // serialises Reload's load→validate→swap→close
	snapGen  uint64          // snapshot generation serving; guarded by reloadMu
	file     *core.ShardFile // the serving generation's file, nil for a shard built in process; guarded by reloadMu
}

// closeFile releases a retired generation's file; a variable so a test can
// count and order the closes.
var closeFile = (*core.ShardFile).Close

// NewWorker wraps an already-loaded shard. snapGen names the snapshot
// generation it came from (0 when built in process).
func NewWorker(sh *core.IndexShard, snapGen uint64, cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg, slot: shard.NewLocal(sh), snapGen: snapGen}
}

// BootWorker recovers the newest loadable snapshot from cfg.SnapshotDir
// (core.RecoverShardSnapshot's fallback ladder) — mapped where the
// platform allows — validates it, and returns a worker serving it.
func BootWorker(cfg WorkerConfig) (*Worker, error) {
	f, snap, recovered, err := core.RecoverShardSnapshot(cfg.SnapshotDir)
	if err != nil {
		return nil, fmt.Errorf("wire: booting shard %d from %s: %w", cfg.Shard, cfg.SnapshotDir, err)
	}
	if err := reload.ValidateShard(f.IndexShard); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wire: booting shard %d: %w", cfg.Shard, err)
	}
	if recovered {
		logf(cfg.Log, "shard %d: recovered to snapshot generation %d (skipped a newer one: %v)", cfg.Shard, snap.Gen, snap.Skipped)
	}
	w := NewWorker(f.IndexShard, snap.Gen, cfg)
	w.file = f
	w.mapped.Store(f.Mapped())
	return w, nil
}

// Slot exposes the worker's slot for in-process embedding (tests, and a
// future hybrid local+remote deployment).
func (w *Worker) Slot() *shard.Local { return w.slot }

// Mapped reports whether the serving generation's factors are a mapped
// snapshot file rather than heap memory.
func (w *Worker) Mapped() bool { return w.mapped.Load() }

// Reload loads the newest snapshot from the worker's directory, validates
// it against the serving slot's shape, and swaps it in; once the swap has
// drained the old generation, its file is closed. A reload that fails at
// any stage leaves the old generation serving.
func (w *Worker) Reload() (ReloadResponse, error) {
	w.reloadMu.Lock()
	defer w.reloadMu.Unlock()
	f, snap, recovered, err := core.RecoverShardSnapshot(w.cfg.SnapshotDir)
	if err != nil {
		return ReloadResponse{}, fmt.Errorf("wire: reloading shard %d: %w", w.cfg.Shard, err)
	}
	cur, sh := w.slot, f.IndexShard
	if sh.N() != cur.N() || sh.Lo() != cur.Lo() || sh.Hi() != cur.Hi() || sh.Rank() != cur.Rank() || sh.Damping() != cur.Damping() {
		_ = f.Close()
		return ReloadResponse{}, fmt.Errorf("wire: shard %d snapshot covers [%d, %d) of n=%d r=%d, serving [%d, %d) of n=%d r=%d: %w",
			w.cfg.Shard, sh.Lo(), sh.Hi(), sh.N(), sh.Rank(), cur.Lo(), cur.Hi(), cur.N(), cur.Rank(), shard.ErrShard)
	}
	if err := reload.ValidateShard(sh); err != nil {
		_ = f.Close()
		return ReloadResponse{}, fmt.Errorf("wire: reloading shard %d: %w", w.cfg.Shard, err)
	}
	gen := w.slot.Swap(sh) // returns once nothing can touch the old generation
	w.mapped.Store(f.Mapped())
	if w.file != nil {
		_ = closeFile(w.file)
	}
	w.file, w.snapGen = f, snap.Gen
	logf(w.cfg.Log, "shard %d: serving generation %d (snapshot %d%s)", w.cfg.Shard, gen, snap.Gen,
		map[bool]string{true: ", recovered", false: ""}[recovered])
	return ReloadResponse{Generation: gen, SnapshotGen: snap.Gen, Recovered: recovered}, nil
}

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", w.handleHealth)
	mux.HandleFunc("/readyz", w.handleHealth)
	mux.HandleFunc("/shard/meta", w.handleMeta)
	mux.HandleFunc("/shard/urows", w.handleURows)
	mux.HandleFunc("/shard/query", w.handleQuery)
	mux.HandleFunc("/shard/scores", w.handleScores)
	mux.HandleFunc("/admin/reload", w.handleReload)
	return mux
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	// A constructed worker always has a serving generation (boot fails
	// otherwise), so liveness and readiness coincide; /readyz still
	// exists separately so orchestration configured against the
	// monolithic csrserver surface works unchanged.
	writeJSON(rw, http.StatusOK, ReadyResponse{Status: "ok", Shard: w.cfg.Shard, Generation: w.slot.Generation()})
}

func (w *Worker) handleMeta(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(rw, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	sh, gen, release := w.slot.Pin()
	meta := MetaResponse{
		N: sh.N(), Lo: sh.Lo(), Hi: sh.Hi(), Rank: sh.Rank(), Damping: sh.Damping(), Build: sh.Build(),
		Generation: gen, Bytes: sh.Bytes(), Stored: sh.Stored(), Tier: sh.Tier().String(), Mapped: w.mapped.Load(),
		FMax: sh.ColMaxes(), FErr: slices.Clone(sh.QuantErrs()), Clamp: sh.ClampBound(),
	}
	release()
	writeJSON(rw, http.StatusOK, meta)
}

// Every handler below validates its request against the slot's shape,
// which no swap changes, then pins the serving generation for the compute
// alone: the pin is dropped before the response is written, so a slow
// reader never holds up a reload's drain.

func (w *Worker) handleURows(rw http.ResponseWriter, r *http.Request) {
	var req URowsRequest
	if !readJSON(rw, r, &req) {
		return
	}
	if len(req.Nodes) == 0 {
		writeError(rw, http.StatusBadRequest, errors.New("empty node set"))
		return
	}
	if len(req.Nodes) > serve.MaxQueryNodes {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("%d query nodes exceeds %d per request", len(req.Nodes), serve.MaxQueryNodes))
		return
	}
	for _, q := range req.Nodes {
		if q < w.slot.Lo() || q >= w.slot.Hi() {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("node %d outside shard [%d, %d)", q, w.slot.Lo(), w.slot.Hi()))
			return
		}
	}
	sh, gen, release := w.slot.Pin()
	rows := make([]float64, 0, len(req.Nodes)*sh.Rank())
	for _, q := range req.Nodes {
		rows = append(rows, sh.URow(q)...)
	}
	release()
	writeJSON(rw, http.StatusOK, URowsResponse{Generation: gen, Rows: rows})
}

// decodeUQ validates and shapes the query broadcast common to /shard/query
// and /shard/scores, under the frontend's cap on |Q|.
func decodeUQ(sl *shard.Local, queries []int, uq F64s) (*dense.Mat, error) {
	if len(queries) == 0 {
		return nil, errors.New("empty query set")
	}
	if len(queries) > serve.MaxQueryNodes {
		return nil, fmt.Errorf("%d query nodes exceeds %d per request", len(queries), serve.MaxQueryNodes)
	}
	for _, q := range queries {
		if q < 0 || q >= sl.N() {
			return nil, fmt.Errorf("query node %d not in [0, %d)", q, sl.N())
		}
	}
	if len(uq) != len(queries)*sl.Rank() {
		return nil, fmt.Errorf("uq has %d floats, want %d (|Q|=%d x r=%d)", len(uq), len(queries)*sl.Rank(), len(queries), sl.Rank())
	}
	return dense.NewMatFrom(len(queries), sl.Rank(), uq), nil
}

func (w *Worker) handleQuery(rw http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !readJSON(rw, r, &req) {
		return
	}
	uq, err := decodeUQ(w.slot, req.Queries, req.UQ)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if n := w.slot.N(); req.K < 1 || req.K > n {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("k must be in [1, %d], got %d", n, req.K))
		return
	}
	sh, gen, release := w.slot.Pin()
	items, err := sh.PartialTopK(r.Context(), req.Queries, uq, req.K)
	release()
	if err != nil {
		writeScanError(rw, err)
		return
	}
	resp := QueryResponse{Generation: gen, Nodes: make([]int, len(items)), Scores: make(F64s, len(items))}
	for i, it := range items {
		resp.Nodes[i] = it.Node
		resp.Scores[i] = it.Score
	}
	writeJSON(rw, http.StatusOK, resp)
}

func (w *Worker) handleScores(rw http.ResponseWriter, r *http.Request) {
	var req ScoresRequest
	if !readJSON(rw, r, &req) {
		return
	}
	uq, err := decodeUQ(w.slot, req.Queries, req.UQ)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	sh, gen, release := w.slot.Pin()
	scores, err := sh.ScoreRows(r.Context(), req.Queries, uq, req.Rows)
	release()
	if err != nil {
		writeScanError(rw, err)
		return
	}
	writeJSON(rw, http.StatusOK, ScoresResponse{Generation: gen, Scores: scores})
}

// writeScanError answers a failed /shard/query or /shard/scores scan. A
// request the scan refused — core.ErrParams or core.ErrQuery, such as a
// non-finite uq row — is the caller's 400, which the client neither
// retries nor charges to the slot's breaker; anything else is a 500.
func writeScanError(rw http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if errors.Is(err, core.ErrParams) || errors.Is(err, core.ErrQuery) {
		code = http.StatusBadRequest
	}
	writeError(rw, code, err)
}

func (w *Worker) handleReload(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	if !auth.Require(rw, r, w.cfg.AdminToken, func(rw http.ResponseWriter, status int, msg string) {
		writeError(rw, status, errors.New(msg))
	}) {
		return
	}
	resp, err := w.Reload()
	switch {
	case err == nil:
		writeJSON(rw, http.StatusOK, resp)
	case errors.Is(err, shard.ErrShard) || errors.Is(err, reload.ErrValidation) || errors.Is(err, core.ErrNoSnapshot):
		// The worker refused the snapshot directory — a wrong shape, a
		// candidate that fails ValidateShard, no servable generation.
		// Asking again before someone publishes gets the same answer, so
		// this is not a transport failure a client should retry or charge
		// to the breaker that also gates its queries. An error the worker
		// did not decide, such as I/O, is a 500.
		writeError(rw, http.StatusConflict, err)
	default:
		writeError(rw, http.StatusInternalServerError, err)
	}
}

func readJSON(rw http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, errors.New("POST only"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxBody))
	if err := dec.Decode(dst); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeError(rw http.ResponseWriter, code int, err error) {
	writeJSON(rw, code, ErrorResponse{Error: err.Error()})
}

func logf(l *log.Logger, format string, args ...any) {
	if l != nil {
		l.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}
