// Worker-side dynamic membership: the --join heartbeat loop
// (ARCHITECTURE.md "Dynamic membership & coordinator HA").
//
// A worker started with `sqzserved --join host:port[,host:port...]` owns a
// Joiner. It registers this worker with a coordinator over
// POST /v1/workers/register on boot, then renews the lease at a third of
// the TTL the coordinator actually *granted* (parsed from the register
// response — the grant may clamp or substitute the requested TTL, and a
// cadence computed from the wrong number would let the lease lapse between
// renewals), so two heartbeats can be lost before the coordinator expires
// the member. Registration is idempotent on the coordinator (a renewal is just
// a register of the same host:port), which makes partition recovery free:
// when heartbeats start failing the Joiner falls back to jittered-backoff
// retries, rotating round-robin through the configured endpoints (a
// primary and its standby, typically), and whichever coordinator answers
// next simply re-admits the worker. The worker serves /v1/sweep chunks the
// whole time — membership is about routing, not ability.
//
// Graceful drain: drain() stops the heartbeat and best-effort deregisters,
// so a SIGTERM'd worker leaves the ring *before* its listener closes. The
// coordinator answers the deregister only once the chunks it routed here
// have been answered, so planned maintenance causes zero chunk requeues
// (the Server sequences this in stop()). An unplanned death simply stops
// renewing; the lease expires one TTL later.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/httpclient.h"

namespace sqz::serve {

class Metrics;

struct JoinerOptions {
  /// Coordinator endpoints to register with, tried round-robin. Empty =
  /// joining disabled.
  std::vector<HostPort> endpoints;

  /// This worker's address as the coordinator should dial it.
  std::string advertise_host = "127.0.0.1";
  int advertise_port = 0;

  /// Requested TTL. The renewal cadence comes from the TTL the coordinator
  /// grants in its register response (granted / 3), falling back to this
  /// value when the response carries no parseable grant.
  std::int64_t lease_ms = 5000;

  /// Jittered-backoff schedule while no coordinator answers.
  int retry_base_ms = 200;
  int retry_cap_ms = 2000;

  int timeout_ms = 2000;  ///< Per-register HTTP deadline.
};

class Joiner {
 public:
  /// `metrics` (may be null) receives worker_joined / worker_drains counts.
  Joiner(const JoinerOptions& options, Metrics* metrics);
  ~Joiner();  ///< Calls stop() (no deregistration — that is drain()).

  Joiner(const Joiner&) = delete;
  Joiner& operator=(const Joiner&) = delete;

  void start();  ///< Spawn the heartbeat thread. Idempotent with stop().

  /// Stop heartbeating without deregistering (the lease just expires).
  void stop();

  /// Graceful exit: stop heartbeating, then best-effort deregister from the
  /// coordinator that last accepted us (counted in worker_drains on
  /// success), waiting up to `timeout_ms` for its answer — the coordinator
  /// holds it until chunks already routed here are answered. Safe to call
  /// more than once.
  void drain(int timeout_ms);

  bool joined() const { return joined_.load(); }

  /// The endpoint currently (or last) registered with, "host:port"; for
  /// the /healthz membership block.
  std::string current_endpoint() const;

  /// The lease TTL the coordinator last granted (the requested TTL until a
  /// register response says otherwise). The heartbeat renews at a third of
  /// this; surfaced on the /healthz membership block.
  std::int64_t granted_lease_ms() const { return granted_lease_ms_.load(); }

 private:
  bool post_registration(const HostPort& coordinator, bool deregister,
                         int timeout_ms);
  void heartbeat_loop();

  JoinerOptions options_;
  Metrics* metrics_;

  std::atomic<bool> joined_{false};
  std::atomic<std::int64_t> granted_lease_ms_;  ///< Last granted TTL.
  mutable std::mutex mu_;
  std::size_t endpoint_ = 0;  ///< Round-robin cursor; guarded by mu_.

  std::thread heartbeat_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;  ///< Guarded by stop_mu_.
  std::atomic<bool> drained_{false};
};

}  // namespace sqz::serve
