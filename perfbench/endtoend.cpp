// The end-to-end run: set up the workload's servers (several times; the
// median set-up is reported), drive them with a closed loop for the timed
// window, then check the bytes and the workload's own guards.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_set>

#include "bodies.h"
#include "core/dse.h"
#include "nn/serialize.h"
#include "runs.h"
#include "serve/api.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up is repeated at least kMinSetupReps times and until kSetupSeconds
// have passed (at most kMaxSetupReps times): a cold set-up takes only tens of
// milliseconds, too short for a median of five to be steady.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 100;
constexpr double kSetupSeconds = 3.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median over the window's blocks of requests (LoopSpec::block) of the
/// block's throughput, or of its process CPU per request. Each block holds
/// whole rotations of the body stream, so every block carries the same mix
/// of work, and a slow spell of the host that covers fewer than half the
/// blocks does not move the median.
double block_median(const std::vector<Tick>& ticks, bool cpu_per_request) {
  std::vector<double> v;
  Tick prev;
  for (const Tick& t : ticks) {
    const double n = static_cast<double>(t.done - prev.done);
    v.push_back(cpu_per_request ? 1000.0 * (t.cpu_s - prev.cpu_s) / n
                                : n / (t.t - prev.t));
    prev = t;
  }
  return median(v);
}

/// Median over the same blocks of each block's q-percentile latency. Blocks
/// are consecutive requests in send order (480 or 2,400 simulate requests,
/// so every block has at least 48 samples beyond its p90).
double block_percentile(const std::vector<Outcome>& outcomes, std::size_t block,
                        double q) {
  std::vector<double> per_block;
  std::vector<double> lat;
  for (const Outcome& o : outcomes) {
    lat.push_back(o.latency_ms);
    if (lat.size() == block) {
      per_block.push_back(percentile(lat, q));
      lat.clear();
    }
  }
  return median(per_block);
}

}  // namespace

std::string check_distinct(Workload w, const std::vector<std::string>& bodies) {
  std::unordered_set<std::string> keys;
  std::unordered_set<std::string> points;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    std::string key;
    if (is_sweep(w)) {
      const sqz::serve::SweepRequest req =
          sqz::serve::parse_sweep_request(bodies[i]);
      key = sqz::serve::canonical_key(req);
      const std::string text = sqz::nn::serialize_model(req.base.model);
      for (const auto& [label, cfg] : sqz::serve::sweep_configs(req))
        if (!points
                 .insert(sqz::core::design_point_key(
                     text, label, cfg, req.base.options.objective))
                 .second)
          return "design point " + label + " of body " + std::to_string(i) +
                 " repeats";
    } else {
      key = sqz::serve::canonical_key(
          sqz::serve::parse_simulate_request(bodies[i]));
    }
    if (!keys.insert(key).second)
      return "canonical key of body " + std::to_string(i) + " repeats";
  }
  return "";
}

std::string reference_response(Workload w, const std::string& body) {
  return is_sweep(w) ? sqz::serve::run_sweep(sqz::serve::parse_sweep_request(body))
                     : sqz::serve::run_simulate(
                           sqz::serve::parse_simulate_request(body));
}

void check_guards(Workload w, const Counters& front0, const Counters& front1,
                  const Counters& back0, const Counters& back1,
                  std::size_t requests, RunResult& r) {
  const double n = static_cast<double>(requests);
  const auto d_all = [&](const std::string& name) {
    return delta(front0, front1, name) + delta(back0, back1, name);
  };
  const double hits = d_all("sqzserved_cache_hits_total");
  const double misses = d_all("sqzserved_cache_misses_total");
  if (w == Workload::SimulateWarm) {
    if (misses != 0 || hits != n)
      r.fail("result-cache hit ratio is not 1.0 on simulate_warm");
  } else if (hits != 0) {
    r.fail("result cache hit on a workload of new design points");
  }
  if (d_all("sqzserved_plan_hits_total") != 0) r.fail("plan cache hit");
  if (w == Workload::SweepLocal &&
      delta(front0, front1, "sqzserved_sweep_points_total") != kSweepPoints * n)
    r.fail("sweep_points_total is not 64 per sweep");
  if (w == Workload::SweepFleet) {
    if (delta(front0, front1, "sqzserved_coord_points_dispatched_total") !=
        kSweepPoints * n)
      r.fail("coord points_dispatched is not 64 per sweep");
    if (delta(front0, front1, "sqzserved_coord_points_requeued_total") != 0)
      r.fail("coordinator requeued points");
    if (delta(front0, front1, "sqzserved_coord_steals_total") != 0)
      r.fail("coordinator stole chunks");
  }
}

RunResult run_end_to_end(const RunSpec& spec) {
  const Workload w = spec.workload;
  const std::string route = route_of(w);
  RunResult r;

  // Every body is generated before anything is timed. The timed stream is
  // sized for several times the rate the seed serves on a 4-core host
  // (about 550 cold, 5,500 warm, 12-21 sweeps per second), so a faster
  // program still never runs out.
  const std::size_t cap = static_cast<std::size_t>(spec.seconds) + 1;
  std::vector<std::string> warmup;
  std::vector<std::string> bodies;
  std::vector<std::size_t> order;
  switch (w) {
    case Workload::SimulateCold:
      warmup = simulate_bodies(0, 2 * kZooSize, /*reserved=*/true);
      bodies = simulate_bodies(spec.seed, 3000 * cap + kMinSamples);
      break;
    case Workload::SimulateWarm:
      bodies = simulate_bodies(spec.seed, kWarmSet);
      warmup = bodies;
      order = replay_order(spec.seed, 50000 * cap + kMinSamples, kWarmSet);
      break;
    case Workload::SweepLocal:
    case Workload::SweepFleet:
      warmup = sweep_bodies(0, 2, /*reserved=*/true);
      bodies = sweep_bodies(spec.seed, 100 * cap + kMinSamples);
      break;
  }

  // Set-up: servers (and fleet) start-up plus the warm-up traffic.
  std::vector<double> setup;
  std::unique_ptr<Deployment> dep;
  const Clock::time_point setup0 = Clock::now();
  for (int rep = 0; rep < kMinSetupReps ||
                    (rep < kMaxSetupReps && seconds_since(setup0) < kSetupSeconds);
       ++rep) {
    dep.reset();
    const Clock::time_point t0 = Clock::now();
    dep = std::make_unique<Deployment>(w, spec.scratch);
    LoopSpec ws;
    ws.port = dep->port();
    ws.route = route;
    ws.bodies = &warmup;
    ws.clients = clients_of(w);
    ws.min_requests = warmup.size();
    const LoopResult wr = closed_loop(ws);
    setup.push_back(seconds_since(t0));
    for (const Outcome& o : wr.outcomes)
      if (o.status != 200 || o.point_errors)
        r.fail("warm-up request " + std::to_string(o.seq) + " answered " +
               std::to_string(o.status));
  }

  const std::vector<int> ports = dep->ports();
  const std::vector<int> front{ports.front()};
  const std::vector<int> back(ports.begin() + 1, ports.end());
  const Counters front0 = scrape(front), back0 = scrape(back);

  LoopSpec ts;
  ts.port = dep->port();
  ts.route = route;
  ts.bodies = &bodies;
  ts.order = order.empty() ? nullptr : &order;
  ts.clients = clients_of(w);
  ts.seconds = spec.seconds;
  // Blocks of whole 48-request rotations; memory is read after a fixed
  // amount of work (result cache full on simulate_cold), so it does not
  // scale with how fast this window happened to run.
  ts.block = is_sweep(w) ? 48 : w == Workload::SimulateWarm ? 2400 : 480;
  ts.rss_after = is_sweep(w) ? kMinSamples : 2000;
  // At least 100 requests (10 beyond p90) and three blocks to take a median.
  ts.min_requests = std::max(kMinSamples, 3 * ts.block);
  ts.keep_every = is_sweep(w) ? 16 : w == Workload::SimulateWarm ? 256 : 64;
  ts.seed = spec.seed;
  const LoopResult lr = closed_loop(ts);

  const Counters front1 = scrape(front), back1 = scrape(back);
  dep.reset();

  // --- correctness, outside the window -----------------------------------
  const double n = static_cast<double>(lr.outcomes.size());
  r.attempted = lr.outcomes.size();
  std::vector<double> lat;
  std::size_t checked = 0;
  for (const Outcome& o : lr.outcomes) {
    lat.push_back(o.latency_ms);
    bool bad = o.status != 200 || o.point_errors;
    if (!bad && !o.body.empty()) {
      const std::string& body = bodies[order.empty() ? o.seq : order[o.seq]];
      ++checked;
      if (o.body != reference_response(w, body)) {
        bad = true;
        r.notes.push_back("byte mismatch on request " + std::to_string(o.seq));
      }
    }
    if (bad) ++r.failed;
  }
  if (r.failed > 0)
    r.fail(std::to_string(r.failed) + " of " + std::to_string(r.attempted) +
           " requests failed");
  if (lr.exhausted) r.fail("ran out of generated bodies before the deadline");
  if (beyond(lat.size(), 0.9) < 10 || lr.ticks.size() < 3)
    r.fail("fewer than 10 samples beyond p90 or fewer than 3 blocks");

  if (w == Workload::SimulateCold &&
      r.attempted <= sqz::serve::ServerOptions{}.cache_entries)
    r.fail("simulate_cold sent no more points than the result cache holds");
  if (w == Workload::SimulateWarm) {
    if (const std::string e = check_distinct(w, bodies); !e.empty())
      r.fail("warm working set: " + e);
  } else {
    std::vector<std::string> sent = warmup;
    sent.insert(sent.end(), bodies.begin(),
                bodies.begin() + static_cast<std::ptrdiff_t>(lr.outcomes.size()));
    if (const std::string e = check_distinct(w, sent); !e.empty())
      r.fail(e);
  }

  check_guards(w, front0, front1, back0, back1, lr.outcomes.size(), r);

  // --- metrics ------------------------------------------------------------
  // Simulate blocks are large enough for a p90 of their own; a 48-sweep
  // block is not, so sweep percentiles pool the whole window.
  const auto latency = [&](double q) {
    return is_sweep(w) ? percentile(lat, q)
                       : block_percentile(lr.outcomes, ts.block, q);
  };
  const double rps_whole = n / lr.elapsed_s;
  const double cpu_whole = 1000.0 * lr.cpu_s / n;
  r.metrics = {
      {"setup_s", median(setup), "s"},
      {"requests_per_s", block_median(lr.ticks, false), "1/s"},
      {"latency_p50_ms", latency(0.5), "ms"},
      {"latency_p90_ms", latency(0.9), "ms"},
      {"cpu_ms_per_request", block_median(lr.ticks, true), "ms"},
      {"peak_rss_mb", lr.rss_mb, "MiB"},
  };
  char line[320];
  std::snprintf(line, sizeof line,
                "%s: %zu requests in %.2f s (%zu beyond the pooled p90), "
                "%zu blocks of %zu, %zu byte-checked; whole window %.4g req/s, "
                "%.4g cpu ms/req, p50 %.4g ms, p90 %.4g ms; host steal %.2f s",
                workload_name(w), r.attempted, lr.elapsed_s,
                beyond(lat.size(), 0.9), lr.ticks.size(), ts.block, checked,
                rps_whole, cpu_whole, percentile(lat, 0.5), percentile(lat, 0.9),
                lr.steal_s);
  r.summary = line;
  return r;
}

}  // namespace perfbench
