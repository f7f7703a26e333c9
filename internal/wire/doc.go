// Package wire is the process split for sharded serving: each shard of
// the factor index runs in its own csrserver -shardworker process,
// serving its node range over HTTP, and a RemoteEngine client implements
// the same shard.Slot contract the in-process router consumes — so the
// router's exact scatter–gather merge, generation-keyed bound cache, and
// degradation tagging work unchanged across the wire.
//
// # Protocol
//
// Workers expose a small JSON protocol. Bulk float64 payloads travel as
// base64-encoded little-endian IEEE-754 bit patterns (proto.go's F64s),
// which round-trips every value bitwise by construction — the wire must
// not be the place the bitwise-exactness contract dies. Every payload is
// sized by the request, never by the shard: K·|Q|·k partial top-k items,
// |T|·|Q| targeted scores, |Q|·r gathered F rows. No call of the
// shard.Slot contract returns a column, so there is none to refuse.
//
//	GET  /healthz       liveness: the process is up.
//	GET  /readyz        readiness: a generation is loaded and serving.
//	GET  /shard/meta    shape, node range, build, generation, tier, mapped, bound terms.
//	POST /shard/urows   F rows of owned nodes (the query-broadcast gather).
//	POST /shard/query   partial top-k of owned nodes for a query set.
//	POST /shard/scores  targeted row scores (the /similarity primitive).
//	POST /admin/reload  bearer-authenticated snapshot reload (next
//	                    generation from the worker's shard-<s>/ dir).
//
// Every data response carries the generation that answered it, so the
// router's bound cache observes worker rolls the way it observes a local
// slot's swap.
//
// # Failure model
//
// The client wraps each logical call in bounded retries with jittered
// exponential backoff — every attempt is exactly one HTTP request, so one
// response per logical call reaches the merge and a shard's partials are
// never counted twice — and trips a per-shard circuit breaker after
// consecutive failures so a dead worker costs a fast local error instead
// of a timeout per query. All of these surface as shard.ErrSlotDown to the
// router, which skips the shard and tags the response degraded with an
// inflated error_bound (shard.Router.TopKTagged); queries whose own query
// nodes live on the dead shard still fail, because every other shard's
// partial needs their F rows.
//
// A rolling reload (RollWorkers) walks the workers one at a time,
// triggering each worker's own load→validate→swap (a worker that fails
// validation keeps serving its old generation), and aborts on the first
// failure. The mixed cluster it leaves keeps serving, but not exactly: a
// query's F rows come from their owner's factors and each partial from its
// own shard's, so when workers hold shards of different index builds an
// answer mixes them, matches neither build, and is still tagged exact
// (missing 0, bound 0). The router cannot see it: a slot's generation is
// the worker's process-local swap count, not the build its factors came
// from. A restarted worker counts from 1 again while the client keeps the
// highest generation it has seen, so its bound terms are not re-fetched
// either. Answers are exact again once every worker serves one build.
package wire
