// Package fault is a deterministic, seedable fault-injection registry for
// chaos testing the serving stack. Production code is instrumented with
// named sites — fault.Hit(fault.SiteBatchQuery), fault.Writer(site, w) —
// and a chaos test arms a subset of sites with a Plan (probabilistic
// errors, torn writes, latency spikes) under a fixed seed, then asserts
// the system's invariants hold while the faults fire.
//
// The package has two builds selected by the `faultinject` build tag:
//
//   - Without the tag (the default, what production binaries and tier-1
//     tests compile), every hook is an empty function returning the zero
//     value. The compiler inlines them to nothing, so an instrumented hot
//     path costs exactly what an uninstrumented one does.
//   - With -tags faultinject, the hooks consult the registry. Chaos tests
//     carry the same tag, so `go test -tags faultinject -race ./...` runs
//     the full suite and a plain `go test ./...` cannot even express an
//     armed fault.
//
// Determinism: every site draws from its own RNG seeded by the global seed
// XOR a hash of the site name, so the fault sequence at one site does not
// depend on how often other sites are hit, and a fixed seed reproduces the
// same faults across runs (modulo goroutine interleaving, which decides
// which request absorbs each fault but not how many fire).
package fault

import (
	"errors"
	"time"
)

// Injection sites compiled into the serving stack. A site name is an
// address: Arm(site, plan) makes the hooks at that site start firing.
const (
	// SiteIndexWrite guards every payload write of a snapshot publish
	// (core.WriteSnapshot, core.WriteShardSnapshot, core.PublishSnapshot)
	// — torn/short writes and write errors land mid-file, upstream of the
	// CRC, exactly like a disk filling up or a kernel page-out failure.
	SiteIndexWrite = "core/index.write"
	// SiteIndexSync guards the payload fsync of a snapshot publish, before
	// the file is read back and gets its name.
	SiteIndexSync = "core/index.fsync"
	// SiteIndexRead guards the disk reads of every snapshot file load
	// (core.LoadIndex, core.LoadShard, a publish's read-back): the mapped
	// load's header read and the buffered decode. Probabilistic read
	// errors and latency model a degraded disk or a network filesystem
	// hiccup during reload.
	SiteIndexRead = "core/index.read"
	// SiteIndexMap fires immediately before the mmap syscall of every
	// snapshot map, whole index or shard file. An injected fault models
	// mmap refusal (ulimit, address-space fragmentation) — an
	// environmental failure, so core.LoadIndex and core.LoadShard degrade
	// to the buffered decode path instead of failing the load.
	SiteIndexMap = "core/index.mmap"
	// SiteIndexVerify fires before the factor-block CRC pass of a v5
	// snapshot. Unlike a map fault, a verify failure means the bytes
	// cannot be trusted, so it fails the load and drives the recovery
	// ladder.
	SiteIndexVerify = "core/index.verify"
	// SiteSnapshotLink fires where a publish links its verified temp file
	// in under its generation name — a failed placement, which must leave
	// the directory serving its previous newest generation.
	SiteSnapshotLink = "core/snapshot.link"
	// SiteReloadLoad fires at the top of every reload.Manager load
	// attempt, before the LoadFunc runs: a flapping snapshot source.
	SiteReloadLoad = "reload/load"
	// SiteBatchQuery fires on a serve worker immediately before each
	// engine call — one request's top-k or targeted scores: engine-level
	// latency spikes and failures, once per request. (The name predates
	// the removal of request coalescing.)
	SiteBatchQuery = "serve/batch.query"
	// SiteWireDial fires in the wire client immediately before each HTTP
	// request to a shard worker — the place a connect timeout, refused
	// connection, or DNS failure would surface.
	SiteWireDial = "wire/dial"
	// SiteWireRead guards the wire client's response-body reads, so chaos
	// can model a worker dying mid-response (truncated or erroring body
	// after a healthy status line).
	SiteWireRead = "wire/read"
	// SiteWALAppend guards every frame write of the ingest WAL: torn
	// writes here are the crash-mid-append a replay must truncate, and
	// write errors are the full disk an Append must surface before
	// acknowledging durability.
	SiteWALAppend = "ingest/wal.append"
	// SiteWALSync guards the group-commit fsync in the ingest WAL. A
	// failed sync means none of the records in the batch may be
	// acknowledged — the batch is the durability unit.
	SiteWALSync = "ingest/wal.fsync"
	// SiteWALReplay guards the segment reads of WAL recovery: a flapping
	// disk during boot replay, which must fail the open (transient)
	// rather than silently truncate acknowledged records.
	SiteWALReplay = "ingest/wal.replay"
)

// ErrInjected is the default error delivered by an armed site whose Plan
// does not override Err. Chaos tests branch on it to tell injected
// failures from organic ones.
var ErrInjected = errors.New("fault: injected error")

// Plan arms one site. Probabilities are in [0, 1]; 1 fires every hit.
// The zero Plan never fires (arming it effectively disarms the site).
type Plan struct {
	// ErrProb is the probability Hit (and wrapped reader/writer
	// operations) return Err.
	ErrProb float64
	// Err overrides ErrInjected as the delivered error.
	Err error
	// LatencyProb is the probability a hit sleeps for Latency first.
	// Latency injection composes with error injection: a hit can be slow
	// and then fail, like real storage.
	LatencyProb float64
	Latency     time.Duration
	// TornProb is the probability a wrapped writer tears the stream: it
	// writes TornBytes of the offending chunk, then fails every
	// subsequent write on that writer — a crashed process mid-file.
	TornProb  float64
	TornBytes int
}

func (p Plan) err() error {
	if p.Err != nil {
		return p.Err
	}
	return ErrInjected
}
