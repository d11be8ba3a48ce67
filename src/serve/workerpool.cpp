#include "serve/workerpool.h"

#include <algorithm>
#include <chrono>

#include "serve/metrics.h"
#include "util/faultinject.h"
#include "util/hash.h"

namespace sqz::serve {

namespace {

std::string addr_key(const HostPort& addr) {
  return addr.host + ":" + std::to_string(addr.port);
}

// The splitmix64 finalizer. FNV-1a of strings that differ only in their last
// bytes ("host:40005#v" vs "host:40006#v") lands in clustered runs, which
// would hand one worker of an adjacent-port pair almost the whole ring; ring
// positions and looked-up hashes both pass through this mix so arcs spread
// evenly. util::fnv1a64 itself stays as is: cache and journal keys use it.
std::uint64_t ring_position(std::uint64_t h) {
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

}  // namespace

const char* worker_health_name(WorkerHealth health) {
  switch (health) {
    case WorkerHealth::Healthy: return "healthy";
    case WorkerHealth::Suspect: return "suspect";
    case WorkerHealth::Ejected: return "ejected";
    case WorkerHealth::Probation: return "probation";
  }
  return "?";
}

bool WorkerStateMachine::probe_due(std::int64_t now_ms) {
  if (health_ != WorkerHealth::Ejected) return true;
  if (now_ms - ejected_at_ms_ < policy_.probation_ms) return false;
  health_ = WorkerHealth::Probation;
  return true;
}

WorkerStateMachine::Transition WorkerStateMachine::on_result(
    bool ok, std::int64_t now_ms) {
  Transition t;
  t.from = health_;
  if (ok) {
    failures_ = 0;
    // Any success readmits: a Suspect recovers, a Probation trial passes.
    // A success observed while Ejected (a straggling in-flight dispatch
    // that finally landed) readmits too — the worker evidently lives.
    health_ = WorkerHealth::Healthy;
  } else {
    ++failures_;
    if (health_ == WorkerHealth::Probation || failures_ >= policy_.fail_threshold) {
      // A failed trial (or the last straw) ejects; the probation timer
      // restarts so a dead worker is retried ever after at probation_ms
      // cadence, never faster.
      t.ejected = health_ != WorkerHealth::Ejected;
      health_ = WorkerHealth::Ejected;
      ejected_at_ms_ = now_ms;
      failures_ = 0;
    } else if (health_ == WorkerHealth::Healthy) {
      health_ = WorkerHealth::Suspect;
    }
  }
  t.to = health_;
  return t;
}

WorkerPool::WorkerPool(std::vector<HostPort> workers,
                       const ProbePolicy& policy, Metrics* metrics)
    : policy_(policy), metrics_(metrics) {
  const std::int64_t now = now_ms();
  std::lock_guard<std::mutex> lock(mu_);
  for (HostPort& w : workers) add_member_locked(w, /*lease_ms=*/0, now);
  rebuild_ring_locked();
  publish_gauges_locked();
  if (metrics_) metrics_->set_coord_epoch(epoch_);
}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::start() {
  if (prober_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = false;
  }
  prober_ = std::thread([this] { prober_loop(); });
}

void WorkerPool::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

std::int64_t WorkerPool::now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t WorkerPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return addrs_.size();
}

HostPort WorkerPool::address(std::size_t worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  return addrs_[worker];
}

WorkerHealth WorkerPool::health(std::size_t worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  return machines_[worker].health();
}

std::size_t WorkerPool::usable_count_locked() const {
  std::size_t n = 0;
  for (std::size_t w = 0; w < machines_.size(); ++w)
    n += (members_[w].alive && machines_[w].usable()) ? 1 : 0;
  return n;
}

std::size_t WorkerPool::usable_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return usable_count_locked();
}

std::size_t WorkerPool::member_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Member& m : members_) n += m.alive ? 1 : 0;
  return n;
}

std::uint64_t WorkerPool::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

std::size_t WorkerPool::add_member_locked(const HostPort& addr,
                                          std::int64_t lease_ms,
                                          std::int64_t now_ms) {
  const std::size_t w = addrs_.size();
  addrs_.push_back(addr);
  machines_.emplace_back(policy_);
  members_.push_back(Member{true, lease_ms, now_ms});
  index_[addr_key(addr)] = w;
  return w;
}

void WorkerPool::rebuild_ring_locked() {
  ring_.clear();
  for (std::size_t w = 0; w < addrs_.size(); ++w) {
    if (!members_[w].alive) continue;
    const std::string base = addr_key(addrs_[w]) + "#";
    for (int v = 0; v < kVirtualNodes; ++v)
      ring_.push_back(
          {ring_position(util::fnv1a64(base + std::to_string(v))),
           static_cast<int>(w)});
  }
  std::sort(ring_.begin(), ring_.end(), [](const RingEntry& a,
                                           const RingEntry& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.worker < b.worker;
  });
}

void WorkerPool::bump_epoch_locked() {
  ++epoch_;
  if (metrics_) metrics_->set_coord_epoch(epoch_);
}

void WorkerPool::publish_gauges_locked() {
  if (metrics_) metrics_->set_coord_workers_up(usable_count_locked());
}

WorkerPool::Registration WorkerPool::register_worker(const HostPort& addr,
                                                     std::int64_t lease_ms,
                                                     std::int64_t now_ms) {
  if (lease_ms < 0) lease_ms = 0;
  if (lease_ms > 0 && lease_ms < kMinLeaseMs) lease_ms = kMinLeaseMs;
  Registration r;
  r.lease_ms = lease_ms;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(addr_key(addr));
  if (it == index_.end()) {
    add_member_locked(addr, lease_ms, now_ms);
    r.newly_added = true;
    rebuild_ring_locked();
    bump_epoch_locked();
  } else {
    const std::size_t w = it->second;
    Member& m = members_[w];
    m.lease_ms = lease_ms;
    m.renewed_at_ms = now_ms;
    if (!m.alive) {
      // Rejoin after a drain or expiry: fresh state machine (old health
      // evidence is stale), arcs back on the ring, new epoch.
      m.alive = true;
      machines_[w] = WorkerStateMachine(policy_);
      r.newly_added = true;
      rebuild_ring_locked();
      bump_epoch_locked();
    } else {
      // Renewal. A heartbeat is proof of life: feed a success so a Suspect
      // or Probation member readmits without waiting for the next probe.
      machines_[w].on_result(true, now_ms);
    }
  }
  publish_gauges_locked();
  r.epoch = epoch_;
  return r;
}

bool WorkerPool::deregister_worker(const HostPort& addr,
                                   std::int64_t now_ms) {
  (void)now_ms;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(addr_key(addr));
  if (it == index_.end() || !members_[it->second].alive) return false;
  members_[it->second].alive = false;
  rebuild_ring_locked();
  bump_epoch_locked();
  publish_gauges_locked();
  return true;
}

std::vector<std::string> WorkerPool::expire_leases(std::int64_t now_ms) {
  std::vector<std::string> expired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // "coord.lease" fault point: each armed shot force-expires the first
    // alive leased member whose TTL has *not* lapsed, so expiry drills run
    // at test speed instead of waiting out a real lease window.
    bool force_one = util::fault::enabled() &&
                     util::fault::at("coord.lease").kind ==
                         util::fault::Kind::Errno;
    for (std::size_t w = 0; w < members_.size(); ++w) {
      Member& m = members_[w];
      if (!m.alive || m.lease_ms == 0) continue;
      const bool lapsed = now_ms - m.renewed_at_ms > m.lease_ms;
      if (!lapsed) {
        if (!force_one) continue;
        force_one = false;
      }
      m.alive = false;
      expired.push_back(addr_key(addrs_[w]));
    }
    if (!expired.empty()) {
      rebuild_ring_locked();
      bump_epoch_locked();
      if (metrics_)
        for (std::size_t i = 0; i < expired.size(); ++i)
          metrics_->record_coord_lease_expiration();
      publish_gauges_locked();
    }
  }
  return expired;
}

bool WorkerPool::await_dispatches(const HostPort& addr,
                                  std::int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = index_.find(addr_key(addr));
  if (it == index_.end()) return true;
  const std::size_t w = it->second;
  return reported_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [&] { return members_[w].dispatches == 0; });
}

MemberCounts WorkerPool::member_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  MemberCounts c;
  for (std::size_t w = 0; w < members_.size(); ++w) {
    if (!members_[w].alive) {
      ++c.departed;
      continue;
    }
    switch (machines_[w].health()) {
      case WorkerHealth::Healthy: ++c.healthy; break;
      case WorkerHealth::Suspect: ++c.suspect; break;
      case WorkerHealth::Ejected: ++c.ejected; break;
      case WorkerHealth::Probation: ++c.probation; break;
    }
  }
  return c;
}

std::vector<LeaseInfo> WorkerPool::lease_table(std::int64_t now_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LeaseInfo> table;
  table.reserve(members_.size());
  for (std::size_t w = 0; w < members_.size(); ++w) {
    LeaseInfo info;
    info.address = addr_key(addrs_[w]);
    info.health = machines_[w].health();
    info.alive = members_[w].alive;
    info.lease_ms = members_[w].lease_ms;
    info.age_ms = now_ms - members_[w].renewed_at_ms;
    table.push_back(std::move(info));
  }
  return table;
}

int WorkerPool::route(std::uint64_t hash,
                      const std::vector<int>& exclude) const {
  std::lock_guard<std::mutex> lock(mu_);
  return route_locked(hash, exclude);
}

int WorkerPool::acquire(std::uint64_t hash, const std::vector<int>& exclude) {
  std::lock_guard<std::mutex> lock(mu_);
  const int w = route_locked(hash, exclude);
  if (w >= 0) ++members_[static_cast<std::size_t>(w)].dispatches;
  return w;
}

int WorkerPool::route_locked(std::uint64_t hash,
                             const std::vector<int>& exclude) const {
  if (ring_.empty()) return -1;
  // First ring entry clockwise from `hash`, then walk; each distinct worker
  // is considered at most once, so the scan is bounded even when every arc
  // belongs to unusable workers.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), ring_position(hash),
      [](const RingEntry& e, std::uint64_t h) { return e.hash < h; });
  std::vector<char> seen(addrs_.size(), 0);
  std::size_t considered = 0;
  for (std::size_t step = 0;
       step < ring_.size() && considered < addrs_.size(); ++step, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    const int w = it->worker;
    if (seen[w]) continue;
    seen[w] = 1;
    ++considered;
    if (!members_[w].alive || !machines_[w].usable()) continue;
    if (std::find(exclude.begin(), exclude.end(), w) != exclude.end())
      continue;
    return w;
  }
  return -1;
}

void WorkerPool::apply_result_locked(std::size_t worker, bool ok,
                                     std::int64_t now) {
  const WorkerStateMachine::Transition t = machines_[worker].on_result(ok, now);
  if (metrics_) {
    if (t.ejected && members_[worker].alive) metrics_->record_coord_ejection();
    metrics_->set_coord_workers_up(usable_count_locked());
  }
}

void WorkerPool::report(std::size_t worker, bool ok) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    apply_result_locked(worker, ok, now_ms());
    if (members_[worker].dispatches > 0) --members_[worker].dispatches;
  }
  reported_cv_.notify_all();
}

bool WorkerPool::probe_worker(std::size_t worker) const {
  const util::fault::Action a = util::fault::at("coord.health");
  if (a.kind == util::fault::Kind::Errno) return false;
  const HostPort addr = address(worker);
  try {
    HttpRequest req;
    req.method = "GET";
    req.target = "/healthz";
    return http_fetch(addr.host, addr.port, std::move(req),
                      policy_.timeout_ms)
               .status == 200;
  } catch (const FetchError&) {
    return false;
  }
}

void WorkerPool::probe_all(std::int64_t now_ms) {
  // Collect the due set under the lock, probe without it (each probe is a
  // blocking HTTP exchange), then feed outcomes back in. Departed members
  // are not probed — their slots stay only so in-flight indices hold.
  std::vector<std::size_t> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t w = 0; w < machines_.size(); ++w)
      if (members_[w].alive && machines_[w].probe_due(now_ms))
        due.push_back(w);
  }
  for (const std::size_t w : due) {
    const bool ok = probe_worker(w);
    std::lock_guard<std::mutex> lock(mu_);
    if (members_[w].alive) apply_result_locked(w, ok, WorkerPool::now_ms());
  }
}

void WorkerPool::prober_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      if (stop_cv_.wait_for(lock,
                            std::chrono::milliseconds(policy_.interval_ms),
                            [this] { return stopping_; }))
        return;
    }
    probe_all(now_ms());
    expire_leases(now_ms());
  }
}

}  // namespace sqz::serve
