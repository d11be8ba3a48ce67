// Coordinator mode: shard POST /v1/sweep across a fleet of stock workers
// (ARCHITECTURE.md "Distributed sweeps").
//
// One sqzserved started with --workers host:port,... stops simulating
// sweeps itself and becomes a dispatcher: the sweep's design points are
// routed over the WorkerPool's consistent-hash ring (a point lands on the
// same worker sweep after sweep), grouped into chunks, and posted to
// workers as ordinary /v1/sweep requests over serve/httpclient. Chunk
// results are recorded in the same core::SweepLedger the local engine
// keeps its books in, and the response is rendered by the same tail
// (serve::sweep_response) — so by the journal round-trip property
// (util/json.h shortest round-trip numbers) the distributed dump is
// byte-identical to the uninterrupted single-node run.
//
// Worker death is a routine event, not an error:
//   * a failed chunk (refused connection, timeout, 5xx, injected
//     "coord.dispatch" fault) is requeued to the next worker on the ring,
//     up to max_requeues; exhaustion surfaces each point as a structured
//     PointError with phase "dispatch" — the sweep never hangs or aborts;
//   * chunks in flight longer than straggler_ms are re-dispatched to a
//     different usable worker (work stealing); the first valid result
//     wins and the loser is discarded by point identity. The
//     "coord.steal" fault point stalls a primary dispatch to force this
//     path deterministically;
//   * a worker that deregisters (graceful drain) leaves the ring at once,
//     but its deregister is answered only once every chunk already routed
//     to it has been answered (the deregister fence), so planned
//     maintenance requeues nothing;
//   * with a --sweep-journal, every completed point is appended to the
//     coordinator's own journal as its chunk lands, before the response
//     reports it, so a coordinator SIGKILL + restart re-dispatches only the
//     unfinished points and the resumed dump is byte-identical.
//
// How a run waits: each run has one mutex guarding its chunk states and
// dispatch queue and one condition variable carrying every event. The
// run's dispatcher threads wait for queued chunks. The calling thread (the
// run's monitor) waits until every chunk has settled or its earliest
// deadline passes: an in-flight chunk's straggler deadline, or the requeue
// time of a chunk parked because no worker was usable. Nothing sleeps and
// nothing polls.
//
// /v1/simulate is always served locally by a coordinator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/api.h"
#include "serve/workerpool.h"

namespace sqz::core {
class SweepJournal;
}

namespace sqz::serve {

struct CoordinatorOptions {
  /// The static fleet, as "host:port" strings (sqzserved --workers).
  /// These members never expire. May be empty when accept_registrations is
  /// set (a coordinator that starts with zero workers and waits for --join
  /// registrations).
  std::vector<std::string> workers;

  /// Serve POST /v1/workers/register|deregister — dynamic membership.
  /// Coordinator mode is active when this is set or `workers` is nonempty.
  bool accept_registrations = false;

  /// Lease TTL granted to a registration that does not name one.
  std::int64_t default_lease_ms = 5000;

  ProbePolicy probe;  ///< Health-check cadence and ejection thresholds.

  int chunk_points = 4;     ///< Design points per dispatched chunk.
  int straggler_ms = 2000;  ///< In-flight age that triggers work stealing.

  /// Per-dispatch HTTP budget: attempts against one worker (with the
  /// httpclient backoff/jitter discipline) and the response deadline.
  int dispatch_attempts = 2;
  int dispatch_base_ms = 50;
  int dispatch_timeout_ms = 60000;

  /// Re-dispatches of one chunk to other workers after its dispatch
  /// failed; exhaustion turns the chunk's points into "dispatch"
  /// PointErrors.
  int max_requeues = 3;
};

class Coordinator {
 public:
  /// Parses and validates the worker list (throws std::invalid_argument on
  /// a malformed endpoint). `metrics` may be null.
  Coordinator(const CoordinatorOptions& options, Metrics* metrics);
  ~Coordinator();  ///< Calls stop().

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  void start();  ///< Start the worker-health prober.
  void stop();

  WorkerPool& pool() { return pool_; }
  const CoordinatorOptions& options() const { return options_; }

  /// Handle one POST /v1/workers/register: admit (or renew) the worker's
  /// lease and count coord_registers. `lease_ms` <= 0 requests the default
  /// TTL. Throws ApiError(503) under the "coord.register" fault point — the
  /// wire a joining worker's jittered retry is drilled on.
  WorkerPool::Registration register_worker(const HostPort& addr,
                                           std::int64_t lease_ms);

  /// Handle one POST /v1/workers/deregister (graceful drain): depart the
  /// worker, then wait — at most dispatch_timeout_ms — until every chunk
  /// already routed to it has been answered. A draining worker keeps its
  /// listener open until this returns, so no chunk lands on a closed port.
  /// Returns false when the worker was not an alive member.
  bool deregister_worker(const HostPort& addr);

  /// Shard, dispatch, and merge one sweep. Blocking; safe to call from
  /// multiple connection handlers concurrently (each call dispatches its
  /// own chunks). Journals completed points to `journal` (may be null) as
  /// chunks land.
  std::string run_sweep(const SweepRequest& req, core::SweepJournal* journal,
                        SweepRunStats* stats);

 private:
  CoordinatorOptions options_;
  Metrics* metrics_;
  WorkerPool pool_;
};

}  // namespace sqz::serve
