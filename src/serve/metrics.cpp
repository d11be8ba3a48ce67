#include "serve/metrics.h"

#include <sstream>

#include "util/json.h"

namespace sqz::serve {

void Metrics::request_started() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.in_flight;
}

void Metrics::request_finished() {
  std::lock_guard<std::mutex> lock(mu_);
  if (s_.in_flight > 0) --s_.in_flight;
}

void Metrics::record_request(double seconds, int status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (s_.requests_total == 0 || seconds < s_.latency_min_s)
    s_.latency_min_s = seconds;
  if (seconds > s_.latency_max_s) s_.latency_max_s = seconds;
  latency_sum_s_ += seconds;
  ++s_.requests_total;
  s_.latency_mean_s = latency_sum_s_ / static_cast<double>(s_.requests_total);
  if (status >= 500) ++s_.responses_5xx;
  else if (status >= 400) ++s_.responses_4xx;
  else if (status >= 200 && status < 300) ++s_.responses_2xx;
}

void Metrics::record_sweep(std::uint64_t points, std::uint64_t point_errors,
                           std::uint64_t resumed) {
  std::lock_guard<std::mutex> lock(mu_);
  s_.sweep_points_total += points;
  s_.sweep_point_errors_total += point_errors;
  if (point_errors > 0) ++s_.sweeps_partial_total;
  s_.sweep_resumed_total += resumed;
}

void Metrics::record_shed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.shed_total;
}

void Metrics::record_timeout() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.timeouts_total;
}

void Metrics::record_oversize() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.oversize_total;
}

void Metrics::record_idle_closed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.idle_closed_total;
}

void Metrics::record_accept_backoff() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.accept_backoff_total;
}

void Metrics::set_coord_workers_up(std::uint64_t up) {
  std::lock_guard<std::mutex> lock(mu_);
  s_.coord_workers_up = up;
}

void Metrics::record_coord_dispatch(std::uint64_t points) {
  std::lock_guard<std::mutex> lock(mu_);
  s_.coord_points_dispatched += points;
}

void Metrics::record_coord_requeue(std::uint64_t points) {
  std::lock_guard<std::mutex> lock(mu_);
  s_.coord_points_requeued += points;
}

void Metrics::record_coord_steal() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.coord_steals;
}

void Metrics::record_coord_ejection() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.coord_worker_ejections;
}

void Metrics::record_coord_retries(std::uint64_t retries) {
  std::lock_guard<std::mutex> lock(mu_);
  s_.coord_retries += retries;
}

void Metrics::coord_chunk_started() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.coord_chunks_inflight;
}

void Metrics::coord_chunk_finished() {
  std::lock_guard<std::mutex> lock(mu_);
  if (s_.coord_chunks_inflight > 0) --s_.coord_chunks_inflight;
}

void Metrics::record_coord_register() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.coord_registers;
}

void Metrics::record_coord_lease_expiration() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.coord_lease_expirations;
}

void Metrics::set_coord_epoch(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  s_.coord_epoch = epoch;
}

void Metrics::record_coord_takeover() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.coord_takeovers;
}

void Metrics::record_worker_joined() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.worker_joined;
}

void Metrics::record_worker_drain() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.worker_drains;
}

Metrics::Snapshot Metrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return s_;
}

std::string Metrics::render(const SimCache::Stats& cache,
                            const PlanCache::Stats& plans) const {
  const Snapshot s = snapshot();
  std::ostringstream out;
  const auto counter = [&](const char* name, const char* help, double v) {
    out << "# HELP " << name << " " << help << "\n";
    out << "# TYPE " << name
        << (std::string(name).find("_total") != std::string::npos ? " counter"
                                                                  : " gauge")
        << "\n";
    out << name << " " << util::json_number(v) << "\n";
  };
  counter("sqzserved_requests_total", "Requests served (any status).",
          static_cast<double>(s.requests_total));
  counter("sqzserved_responses_2xx_total", "Successful responses.",
          static_cast<double>(s.responses_2xx));
  counter("sqzserved_responses_4xx_total", "Client-error responses.",
          static_cast<double>(s.responses_4xx));
  counter("sqzserved_responses_5xx_total", "Server-error responses.",
          static_cast<double>(s.responses_5xx));
  counter("sqzserved_requests_in_flight", "Accepted, response not yet sent.",
          static_cast<double>(s.in_flight));
  counter("sqzserved_request_latency_seconds_min",
          "Fastest request so far (0 before the first).", s.latency_min_s);
  counter("sqzserved_request_latency_seconds_mean",
          "Mean request handle time.", s.latency_mean_s);
  counter("sqzserved_request_latency_seconds_max",
          "Slowest request so far.", s.latency_max_s);
  counter("sqzserved_shed_total",
          "Connections shed with 503 at the --max-connections cap.",
          static_cast<double>(s.shed_total));
  counter("sqzserved_timeouts_total",
          "Requests that hit the --request-timeout-ms deadline.",
          static_cast<double>(s.timeouts_total));
  counter("sqzserved_oversize_total",
          "Requests rejected with 413 (body or headers over cap).",
          static_cast<double>(s.oversize_total));
  counter("sqzserved_idle_closed_total",
          "Keep-alive connections closed at the idle deadline.",
          static_cast<double>(s.idle_closed_total));
  counter("sqzserved_accept_backoff_total",
          "Accept failures (EMFILE/ENFILE/ENOMEM) absorbed by backoff.",
          static_cast<double>(s.accept_backoff_total));
  counter("sqzserved_sweep_points_total",
          "Design points evaluated successfully across sweeps.",
          static_cast<double>(s.sweep_points_total));
  counter("sqzserved_sweep_point_errors_total",
          "Design points that failed and were reported as structured errors.",
          static_cast<double>(s.sweep_point_errors_total));
  counter("sqzserved_sweeps_partial_total",
          "Sweep responses that carried at least one point error.",
          static_cast<double>(s.sweeps_partial_total));
  counter("sqzserved_sweep_resumed_total",
          "Design points restored from the sweep journal without re-simulating.",
          static_cast<double>(s.sweep_resumed_total));
  counter("sqzserved_coord_workers_up",
          "Usable (Healthy or Suspect) workers in the coordinator fleet.",
          static_cast<double>(s.coord_workers_up));
  counter("sqzserved_coord_points_dispatched_total",
          "Design points posted to workers (steals and requeues included).",
          static_cast<double>(s.coord_points_dispatched));
  counter("sqzserved_coord_points_requeued_total",
          "Design points re-dispatched after a failed chunk.",
          static_cast<double>(s.coord_points_requeued));
  counter("sqzserved_coord_steals_total",
          "Straggler chunks re-dispatched to another worker (work stealing).",
          static_cast<double>(s.coord_steals));
  counter("sqzserved_coord_worker_ejections_total",
          "Workers ejected from the ring by the health state machine.",
          static_cast<double>(s.coord_worker_ejections));
  counter("sqzserved_coord_retries_total",
          "Extra same-worker HTTP attempts beyond the first, per dispatch.",
          static_cast<double>(s.coord_retries));
  counter("sqzserved_coord_chunks_inflight",
          "Chunks currently posted to workers, response pending.",
          static_cast<double>(s.coord_chunks_inflight));
  counter("sqzserved_coord_registers_total",
          "Worker registrations accepted (first joins, rejoins, renewals).",
          static_cast<double>(s.coord_registers));
  counter("sqzserved_coord_lease_expirations_total",
          "Worker leases that lapsed without renewal (member departed).",
          static_cast<double>(s.coord_lease_expirations));
  counter("sqzserved_coord_epoch",
          "Consistent-hash ring version; bumps on every membership change.",
          static_cast<double>(s.coord_epoch));
  counter("sqzserved_coord_takeovers_total",
          "Standby coordinator promotions after a primary failure.",
          static_cast<double>(s.coord_takeovers));
  counter("sqzserved_worker_joined_total",
          "Times this worker's --join registration was (re)established.",
          static_cast<double>(s.worker_joined));
  counter("sqzserved_worker_drains_total",
          "Graceful SIGTERM drains completed (deregistered before exit).",
          static_cast<double>(s.worker_drains));
  counter("sqzserved_cache_hits_total", "Simulation results served from cache.",
          static_cast<double>(cache.hits));
  counter("sqzserved_cache_disk_hits_total",
          "Cache hits that came from the disk tier.",
          static_cast<double>(cache.disk_hits));
  counter("sqzserved_cache_misses_total", "Simulations executed.",
          static_cast<double>(cache.misses));
  counter("sqzserved_cache_evictions_total", "Memory-tier LRU evictions.",
          static_cast<double>(cache.evictions));
  counter("sqzserved_cache_entries", "Memory-tier resident entries.",
          static_cast<double>(cache.entries));
  counter("sqzserved_cache_quarantined_total",
          "Corrupt disk-cache entries quarantined (*.bad).",
          static_cast<double>(cache.disk_quarantined));
  counter("sqzserved_cache_disk_errors_total",
          "Disk-tier read/write failures absorbed.",
          static_cast<double>(cache.disk_errors));
  counter("sqzserved_cache_disk_demoted",
          "1 when persistent disk failures demoted the cache to memory-only.",
          cache.disk_demoted ? 1.0 : 0.0);
  counter("sqzserved_plan_hits_total",
          "Simulations served from a cached compiled plan (no compile search).",
          static_cast<double>(plans.hits));
  counter("sqzserved_plan_disk_hits_total",
          "Plan-cache hits that came from the disk tier.",
          static_cast<double>(plans.disk_hits));
  counter("sqzserved_plan_misses_total",
          "Simulations that compiled a fresh plan.",
          static_cast<double>(plans.misses));
  counter("sqzserved_plan_corrupt_total",
          "Defective plan artifacts quarantined (*.bad).",
          static_cast<double>(plans.corrupt));
  counter("sqzserved_plan_entries", "Plan-cache memory-tier resident entries.",
          static_cast<double>(plans.entries));
  counter("sqzserved_plan_disk_errors_total",
          "Plan-cache disk read/write failures absorbed.",
          static_cast<double>(plans.disk_errors));
  return out.str();
}

}  // namespace sqz::serve
