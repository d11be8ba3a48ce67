// Request counters and latency aggregates for the simulation service,
// rendered as Prometheus text exposition on GET /metrics.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "serve/plancache.h"
#include "serve/simcache.h"

namespace sqz::serve {

class Metrics {
 public:
  struct Snapshot {
    std::uint64_t requests_total = 0;   ///< Responses sent, any status.
    std::uint64_t responses_2xx = 0;
    std::uint64_t responses_4xx = 0;
    std::uint64_t responses_5xx = 0;
    std::uint64_t in_flight = 0;        ///< Accepted, response not yet sent.
    double latency_min_s = 0.0;         ///< 0 until the first request.
    double latency_mean_s = 0.0;
    double latency_max_s = 0.0;
    // Fault-tolerance counters (ARCHITECTURE.md "Fault tolerance").
    std::uint64_t shed_total = 0;        ///< 503s from the connection cap.
    std::uint64_t timeouts_total = 0;    ///< Request deadlines that expired.
    std::uint64_t oversize_total = 0;    ///< 413s (body or headers over cap).
    std::uint64_t idle_closed_total = 0; ///< Keep-alive conns reaped idle.
    std::uint64_t accept_backoff_total = 0;  ///< EMFILE/ENFILE accept stalls.
    // Sweep counters (ARCHITECTURE.md "Crash safety & resumable sweeps").
    std::uint64_t sweep_points_total = 0;        ///< Points evaluated OK.
    std::uint64_t sweep_point_errors_total = 0;  ///< Structured PointErrors.
    std::uint64_t sweeps_partial_total = 0;  ///< Responses with >=1 error.
    std::uint64_t sweep_resumed_total = 0;   ///< Points served from journal.
    // Coordinator mode (ARCHITECTURE.md "Distributed sweeps"). All zero on a
    // stock worker.
    std::uint64_t coord_workers_up = 0;          ///< Usable workers (gauge).
    std::uint64_t coord_points_dispatched = 0;   ///< Points posted to workers.
    std::uint64_t coord_points_requeued = 0;     ///< Points re-dispatched.
    std::uint64_t coord_steals = 0;              ///< Straggler re-dispatches.
    std::uint64_t coord_worker_ejections = 0;    ///< Workers newly ejected.
    std::uint64_t coord_retries = 0;             ///< Extra same-worker attempts.
    std::uint64_t coord_chunks_inflight = 0;     ///< Chunks on the wire (gauge).
    // Dynamic membership & coordinator HA (ARCHITECTURE.md "Dynamic
    // membership & coordinator HA").
    std::uint64_t coord_registers = 0;           ///< Registrations + renewals.
    std::uint64_t coord_lease_expirations = 0;   ///< Leases that lapsed.
    std::uint64_t coord_epoch = 0;               ///< Ring version (gauge).
    std::uint64_t coord_takeovers = 0;           ///< Standby promotions.
    std::uint64_t worker_joined = 0;             ///< --join registrations won.
    std::uint64_t worker_drains = 0;             ///< Graceful SIGTERM drains.
  };

  void request_started();
  void request_finished();

  /// Record one served request: wall-clock handle time and response status.
  void record_request(double seconds, int status);

  /// Record one executed sweep's point/error/resume counts.
  void record_sweep(std::uint64_t points, std::uint64_t point_errors,
                    std::uint64_t resumed);

  void record_shed();
  void record_timeout();
  void record_oversize();
  void record_idle_closed();
  void record_accept_backoff();

  // Coordinator-mode feeds (serve/workerpool.h, serve/coordinator.h).
  void set_coord_workers_up(std::uint64_t up);
  void record_coord_dispatch(std::uint64_t points);  ///< One chunk posted.
  void record_coord_requeue(std::uint64_t points);   ///< One chunk requeued.
  void record_coord_steal();
  void record_coord_ejection();
  void record_coord_retries(std::uint64_t retries);
  void coord_chunk_started();
  void coord_chunk_finished();
  // Dynamic membership feeds (serve/workerpool.h, serve/joiner.h,
  // serve/server.h standby promotion).
  void record_coord_register();
  void record_coord_lease_expiration();
  void set_coord_epoch(std::uint64_t epoch);
  void record_coord_takeover();
  void record_worker_joined();
  void record_worker_drain();

  Snapshot snapshot() const;

  /// The /metrics body: request/latency gauges plus the result cache's and
  /// plan cache's counters (`plans` defaults to all-zero when the plan
  /// cache is disabled).
  std::string render(const SimCache::Stats& cache,
                     const PlanCache::Stats& plans = {}) const;

 private:
  mutable std::mutex mu_;
  Snapshot s_;
  double latency_sum_s_ = 0.0;
};

}  // namespace sqz::serve
