#include "serve/joiner.h"

#include <algorithm>
#include <chrono>

#include "serve/metrics.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/json_parse.h"
#include "util/logging.h"

namespace sqz::serve {

namespace {

/// xorshift64* — deterministic per-worker jitter stream, seeded off the
/// advertised address so a fleet booting in lockstep does not stampede one
/// coordinator with synchronized retries.
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545f4914f6cdd1dULL;
}

}  // namespace

Joiner::Joiner(const JoinerOptions& options, Metrics* metrics)
    : options_(options), metrics_(metrics),
      granted_lease_ms_(options.lease_ms) {}

Joiner::~Joiner() { stop(); }

void Joiner::start() {
  if (options_.endpoints.empty() || heartbeat_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = false;
  }
  heartbeat_ = std::thread([this] { heartbeat_loop(); });
}

void Joiner::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
}

std::string Joiner::current_endpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.endpoints.empty()) return "";
  const HostPort& ep = options_.endpoints[endpoint_];
  return ep.host + ":" + std::to_string(ep.port);
}

bool Joiner::post_registration(const HostPort& coordinator, bool deregister,
                               int timeout_ms) {
  std::string body;
  util::JsonWriter w(body, /*indent=*/0);
  w.begin_object();
  w.member("host", options_.advertise_host);
  w.member("port", options_.advertise_port);
  if (!deregister) w.member("lease_ms", options_.lease_ms);
  w.end_object();
  try {
    HttpRequest req;
    req.method = "POST";
    req.target = deregister ? "/v1/workers/deregister" : "/v1/workers/register";
    req.headers.emplace_back("Content-Type", "application/json");
    req.body = std::move(body);
    const HttpResponse resp = http_fetch(coordinator.host, coordinator.port,
                                         std::move(req), timeout_ms);
    if (resp.status != 200) return false;
    if (!deregister) {
      // The coordinator may clamp or substitute the requested TTL; the
      // renewal cadence must come from what it actually granted, or the
      // lease can lapse between heartbeats. An unparseable body falls back
      // to the last known grant.
      try {
        const std::int64_t granted =
            util::parse_json(resp.body).at("lease_ms").as_int();
        if (granted > 0) granted_lease_ms_.store(granted);
      } catch (const std::exception&) {
      }
    }
    return true;
  } catch (const FetchError&) {
    return false;
  }
}

void Joiner::heartbeat_loop() {
  std::uint64_t rng =
      util::fnv1a64(options_.advertise_host + ":" +
                    std::to_string(options_.advertise_port)) |
      1;
  int backoff_ms = options_.retry_base_ms;
  for (;;) {
    std::size_t ep;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ep = endpoint_;
    }
    const bool ok = post_registration(
        options_.endpoints[ep], /*deregister=*/false, options_.timeout_ms);
    std::int64_t sleep_ms;
    if (ok) {
      if (!joined_.exchange(true)) {
        if (metrics_) metrics_->record_worker_joined();
        SQZ_LOG(Info) << "joiner: registered with "
                      << options_.endpoints[ep].host << ":"
                      << options_.endpoints[ep].port << " (granted lease "
                      << granted_lease_ms_.load() << " ms)";
      }
      backoff_ms = options_.retry_base_ms;
      // Renew at a third of the *granted* TTL: two heartbeats can be lost
      // before the lease lapses.
      sleep_ms = std::max<std::int64_t>(1, granted_lease_ms_.load() / 3);
    } else {
      if (joined_.exchange(false))
        SQZ_LOG(Warn) << "joiner: lost coordinator "
                      << options_.endpoints[ep].host << ":"
                      << options_.endpoints[ep].port << "; retrying";
      {
        // Rotate to the next endpoint (a standby, typically) so a dead
        // primary does not monopolize the retry budget.
        std::lock_guard<std::mutex> lock(mu_);
        endpoint_ = (endpoint_ + 1) % options_.endpoints.size();
      }
      // Decorrelated jitter: uniform in [base, backoff], then widen.
      const std::int64_t span =
          std::max<std::int64_t>(1, backoff_ms - options_.retry_base_ms + 1);
      sleep_ms = options_.retry_base_ms +
                 static_cast<std::int64_t>(next_rand(rng) % span);
      backoff_ms = std::min(backoff_ms * 2, options_.retry_cap_ms);
    }
    std::unique_lock<std::mutex> lock(stop_mu_);
    if (stop_cv_.wait_for(lock, std::chrono::milliseconds(sleep_ms),
                          [this] { return stopping_; }))
      return;
  }
}

void Joiner::drain(int timeout_ms) {
  if (drained_.exchange(true)) return;
  stop();
  if (!joined_.load()) return;
  std::size_t ep;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ep = endpoint_;
  }
  if (post_registration(options_.endpoints[ep], /*deregister=*/true,
                        timeout_ms)) {
    if (metrics_) metrics_->record_worker_drain();
    SQZ_LOG(Info) << "joiner: deregistered from "
                  << options_.endpoints[ep].host << ":"
                  << options_.endpoints[ep].port << " (graceful drain)";
  }
  joined_.store(false);
}

}  // namespace sqz::serve
