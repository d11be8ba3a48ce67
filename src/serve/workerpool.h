// Health-checked, lease-based worker registry for coordinator mode
// (serve/coordinator.h).
//
// The fleet is *dynamic*: a worker is either a static member (named on the
// coordinator's --workers list at boot; never expires) or a lease-based
// member (self-registered over POST /v1/workers/register with a TTL that
// its heartbeat renews). A lease that is not renewed in time expires and
// the worker departs the ring — exactly as if an operator had deregistered
// it. Every membership change (join, rejoin, deregister, lease expiry)
// bumps the pool's *epoch*, a monotonically increasing version of the ring.
//
// Health is tracked per member through a small state machine fed by two
// signals of equal weight: periodic GET /healthz probes and chunk-dispatch
// outcomes (a failed POST is as strong a death rattle as a failed probe):
//
//   Healthy  --fail-->  Suspect  --(consecutive fails >= threshold)--> Ejected
//   Suspect  --ok-->    Healthy
//   Ejected  --(probation_ms elapsed)--> Probation   (a single trial probe)
//   Probation --ok--> Healthy        --fail--> Ejected (the timer restarts)
//
// Health and membership are orthogonal: ejection keeps a member on the
// books (its arcs stay parked until a probe readmits it), while departure
// (deregister / lease expiry) removes its arcs from the ring entirely. A
// departed worker that registers again rejoins with a fresh state machine.
// The machine itself (WorkerStateMachine) is pure — time is a parameter, no
// threads, no sockets — so tests table-drive the full transition graph, and
// the lease bookkeeping is equally time-parameterized (expire_leases,
// register_worker take now_ms).
//
// Routing is a consistent-hash ring (util/hash.h FNV-1a over
// "host:port#vnode", kVirtualNodes virtual nodes per worker, each position
// and each looked-up hash mixed by the splitmix64 finalizer) over the
// *alive* members: a design point's key hashes to the first usable worker
// clockwise, so each worker's simcache/plancache stays hot on a stable
// shard of the design space. Because a member's arc positions depend only
// on its own host:port, membership churn moves only the joining/departing
// worker's arcs — every survivor's shard is untouched, which is what keeps
// fleet-wide cache warmth through rolling restarts. Chunks dispatched under
// an older epoch are still accepted when their results land (first valid
// result wins, as with work stealing): the epoch versions the routing
// table, not the validity of results.
//
// Fault points (util/faultinject.h): "coord.health" fails probes
// deterministically; "coord.lease" force-expires one leased member per shot
// so lease-expiry drills need not wait out a real TTL.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/httpclient.h"

namespace sqz::serve {

class Metrics;

/// Probe cadence and ejection thresholds.
struct ProbePolicy {
  int interval_ms = 500;     ///< Prober pass period.
  int timeout_ms = 2000;     ///< Per-probe HTTP deadline.
  int fail_threshold = 3;    ///< Consecutive failures that eject a worker.
  int probation_ms = 2000;   ///< Ejected -> Probation (trial probe) delay.
};

enum class WorkerHealth { Healthy, Suspect, Ejected, Probation };

const char* worker_health_name(WorkerHealth health);

/// The pure per-worker state machine. Time enters as `now_ms` (any
/// monotonic millisecond clock) so the transition graph is unit-testable
/// without waiting out real probation windows.
class WorkerStateMachine {
 public:
  explicit WorkerStateMachine(const ProbePolicy& policy) : policy_(policy) {}

  WorkerHealth health() const noexcept { return health_; }
  int consecutive_failures() const noexcept { return failures_; }

  /// Dispatchable? Healthy and Suspect take chunks; Ejected and Probation
  /// do not.
  bool usable() const noexcept {
    return health_ == WorkerHealth::Healthy || health_ == WorkerHealth::Suspect;
  }

  /// Should the prober contact this worker now? Healthy/Suspect/Probation:
  /// always. Ejected: only once probation_ms has elapsed — at which point
  /// the machine moves to Probation (a single trial) and answers true.
  bool probe_due(std::int64_t now_ms);

  struct Transition {
    WorkerHealth from = WorkerHealth::Healthy;
    WorkerHealth to = WorkerHealth::Healthy;
    bool ejected = false;  ///< This outcome newly ejected the worker.
  };

  /// Feed one probe (or dispatch) outcome at `now_ms`.
  Transition on_result(bool ok, std::int64_t now_ms);

 private:
  ProbePolicy policy_;
  WorkerHealth health_ = WorkerHealth::Healthy;
  int failures_ = 0;               ///< Consecutive failures observed.
  std::int64_t ejected_at_ms_ = 0; ///< Probation timer origin.
};

/// Alive members by health state, plus departed slots — the /healthz
/// membership block's worker census.
struct MemberCounts {
  std::size_t healthy = 0;
  std::size_t suspect = 0;
  std::size_t ejected = 0;
  std::size_t probation = 0;
  std::size_t departed = 0;  ///< Deregistered or lease-expired slots.
};

/// One row of the lease table (for /healthz and tests).
struct LeaseInfo {
  std::string address;       ///< "host:port".
  WorkerHealth health = WorkerHealth::Healthy;
  bool alive = true;         ///< False once departed (dereg / expiry).
  std::int64_t lease_ms = 0; ///< TTL; 0 = static member, never expires.
  std::int64_t age_ms = 0;   ///< Since the last register/renewal.
};

/// The thread-safe registry + epoch-versioned ring, with an optional
/// background prober (which also runs lease expiry).
class WorkerPool {
 public:
  static constexpr int kVirtualNodes = 64;
  /// Floor on accepted lease TTLs: anything shorter would let ordinary
  /// scheduling jitter expire a healthy worker between heartbeats.
  static constexpr std::int64_t kMinLeaseMs = 100;

  /// `workers` become static members (no lease). `metrics` (may be null)
  /// receives workers_up/epoch gauge updates and ejection/expiry counts.
  WorkerPool(std::vector<HostPort> workers, const ProbePolicy& policy,
             Metrics* metrics = nullptr);
  ~WorkerPool();  ///< Calls stop().

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Spawn the background prober thread (probes + lease expiry). Idempotent
  /// with stop().
  void start();
  void stop();

  /// Total member slots ever created, departed included. Slots are never
  /// reused for a different address, so a slot index held by an in-flight
  /// dispatch stays valid across any amount of membership churn.
  std::size_t size() const;
  /// The slot's endpoint, by value: the slot vector grows under membership
  /// churn, so references must not escape the lock.
  HostPort address(std::size_t worker) const;
  WorkerHealth health(std::size_t worker) const;
  std::size_t usable_count() const;   ///< Alive and Healthy/Suspect.
  std::size_t member_count() const;   ///< Alive members (any health).
  std::uint64_t epoch() const;        ///< Ring version; bumps on every change.

  struct Registration {
    std::uint64_t epoch = 0;    ///< Epoch after the operation.
    bool newly_added = false;   ///< New member or rejoin (vs. a renewal).
    std::int64_t lease_ms = 0;  ///< The granted (clamped) TTL.
  };

  /// Register a new member, re-admit a departed one, or renew an existing
  /// lease (a renewal also feeds a health success — a heartbeat is proof of
  /// life). `lease_ms` <= 0 grants a static membership that never expires;
  /// positive TTLs are floored at kMinLeaseMs.
  Registration register_worker(const HostPort& addr, std::int64_t lease_ms,
                               std::int64_t now_ms);

  /// Graceful departure: remove the member's arcs from the ring. Returns
  /// false when the address is unknown or already departed.
  bool deregister_worker(const HostPort& addr, std::int64_t now_ms);

  /// Depart every leased member whose TTL has lapsed at `now_ms`; returns
  /// the departed addresses ("host:port"). The "coord.lease" fault point
  /// force-expires one leased member per armed shot, so chaos drills need
  /// not wait out a real TTL. Called by the prober each pass; tests call it
  /// directly with a synthetic clock.
  std::vector<std::string> expire_leases(std::int64_t now_ms);

  /// The deregister fence: wait until every dispatch acquire()d for `addr`
  /// has been report()ed, or `timeout_ms` passes. Call after
  /// deregister_worker, which stops new routes to the member. False on
  /// timeout (an unknown address has nothing outstanding: true).
  bool await_dispatches(const HostPort& addr, std::int64_t timeout_ms);

  MemberCounts member_counts() const;
  std::vector<LeaseInfo> lease_table(std::int64_t now_ms) const;

  /// Consistent-hash route: the first usable worker clockwise from `hash`,
  /// skipping workers listed in `exclude`. Returns -1 when no usable
  /// worker remains outside the exclusion set.
  int route(std::uint64_t hash, const std::vector<int>& exclude = {}) const;

  /// route() for a dispatch about to be sent: the chosen worker's count of
  /// outstanding dispatches goes up in the same critical section, so a
  /// deregistration either sees the dispatch or prevents the route.
  int acquire(std::uint64_t hash, const std::vector<int>& exclude = {});

  /// Feed one dispatch outcome for `worker` into its state machine and
  /// retire one of its outstanding dispatches (see await_dispatches).
  void report(std::size_t worker, bool ok);

  /// One synchronous probe pass over every due alive worker (the prober
  /// thread calls this each interval; tests call it directly for
  /// determinism).
  void probe_all(std::int64_t now_ms);

  /// Milliseconds on the steady clock — the `now_ms` the pool itself uses.
  static std::int64_t now_ms();

 private:
  struct Member {
    bool alive = true;
    std::int64_t lease_ms = 0;       ///< 0 = static, never expires.
    std::int64_t renewed_at_ms = 0;  ///< Last register/renewal.
    int dispatches = 0;              ///< Acquired, not yet reported.
  };

  bool probe_worker(std::size_t worker) const;  ///< HTTP probe, fault-gated.
  int route_locked(std::uint64_t hash, const std::vector<int>& exclude) const;
  void apply_result_locked(std::size_t worker, bool ok, std::int64_t now);
  std::size_t usable_count_locked() const;
  std::size_t add_member_locked(const HostPort& addr, std::int64_t lease_ms,
                                std::int64_t now_ms);
  void rebuild_ring_locked();   ///< Arcs of the alive members only.
  void bump_epoch_locked();     ///< Also publishes the epoch gauge.
  void publish_gauges_locked();
  void prober_loop();

  ProbePolicy policy_;
  Metrics* metrics_;

  struct RingEntry {
    std::uint64_t hash;
    int worker;
  };

  mutable std::mutex mu_;
  std::vector<HostPort> addrs_;               ///< Guarded by mu_; grows only.
  std::vector<WorkerStateMachine> machines_;  ///< Guarded by mu_.
  std::vector<Member> members_;               ///< Guarded by mu_.
  std::unordered_map<std::string, std::size_t> index_;  ///< "host:port"->slot.
  std::vector<RingEntry> ring_;  ///< Sorted by hash; rebuilt on churn.
  std::uint64_t epoch_ = 1;      ///< Guarded by mu_.
  std::condition_variable reported_cv_;  ///< With mu_: a dispatch retired.

  std::thread prober_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;  ///< Guarded by stop_mu_.
};

}  // namespace sqz::serve
