// The traced run: every body of the workload's stream goes once over HTTP
// to the workload's servers and twice through an in-process mirror of the
// server's pipeline (serve/api.cpp SimService) with caches of the server's
// sizes — once with a span around each layer's public function, once
// without. The traced pass yields per-layer self times, the untraced pass
// the in-process time that transport and tracing overhead are measured
// against, and both must reproduce the HTTP response byte for byte.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <thread>

#include "bodies.h"
#include "core/cli.h"
#include "core/config_io.h"
#include "core/dse.h"
#include "core/report.h"
#include "core/sweepjournal.h"
#include "core/validate.h"
#include "nn/serialize.h"
#include "runs.h"
#include "sched/network_sim.h"
#include "sched/plan_io.h"
#include "sched/residency.h"
#include "serve/api.h"
#include "sim/layer_sim.h"
#include "tracer.h"
#include "util/json.h"

namespace perfbench {
namespace {

using Clock = Tracer::Clock;
namespace serve = sqz::serve;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

const char* simulate_span(const sqz::sched::SimulationOptions& o) {
  return o.tile_timeline ? "sched.simulate_timeline" : "sched.simulate_flat";
}

/// The server's request pipeline, in process, with the server's default
/// cache sizes. Each stage is one public call, wrapped in a span when a
/// tracer is given.
class Pipeline {
 public:
  Pipeline() : cache_(serve::ServerOptions{}.cache_entries),
               plans_(serve::ServerOptions{}.plan_cache_entries) {}

  /// SimService::simulate: parse, canonicalize, result cache, plan cache,
  /// then simulate + compile + render on a miss.
  std::string simulate(const std::string& body, Tracer* t, std::uint64_t req) {
    Scope root(t, "request", req);
    const serve::SimulateRequest q = [&] {
      Scope s(t, "api.parse", req);
      return serve::parse_simulate_request(body);
    }();
    const std::string key = [&] {
      Scope s(t, "api.canonicalize", req);
      return serve::canonical_key(q);
    }();
    {
      Scope s(t, "simcache.get", req);
      if (auto hit = cache_.get(key)) return *hit;
    }
    {
      Scope s(t, "plancache.get", req);
      if (plans_.get(key, sqz::sched::model_identity_hash(q.model), q.config,
                     q.options))
        ++plan_hits;
    }
    const sqz::sim::NetworkResult result = [&] {
      Scope s(t, simulate_span(q.options), req);
      return sqz::sched::simulate_network(q.model, q.config, q.options);
    }();
    {
      Scope s(t, "plancache.compile_put", req);
      plans_.put(key, sqz::sched::plan_from_result(q.model, q.config, q.options,
                                                   result));
    }
    std::string out = [&] {
      Scope s(t, "core.render", req);
      return sqz::core::json_report_string(q.model, result, q.options.units);
    }();
    Scope s(t, "simcache.put", req);
    cache_.put(key, out);
    return out;
  }

  /// SimService::sweep + serve::run_sweep: parse, canonicalize, result
  /// cache, then evaluate (at the pinned pool width) and render on a miss.
  std::string sweep(const std::string& body, Tracer* t, std::uint64_t req,
                    sqz::core::SweepOutcome* outcome_out = nullptr) {
    Scope root(t, "request", req);
    const serve::SweepRequest q = [&] {
      Scope s(t, "api.parse", req);
      return serve::parse_sweep_request(body);
    }();
    const std::string key = [&] {
      Scope s(t, "api.canonicalize", req);
      return serve::canonical_key(q);
    }();
    {
      Scope s(t, "simcache.get", req);
      if (auto hit = cache_.get(key)) return *hit;
    }
    const auto configs = [&] {
      Scope s(t, "api.sweep_configs", req);
      return serve::sweep_configs(q);
    }();
    sqz::core::SweepOptions opt;
    opt.objective = q.base.options.objective;
    opt.units = q.base.options.units;
    opt.tile_timeline = q.base.options.tile_timeline;
    opt.double_buffered = q.base.options.double_buffered;
    opt.tile_search = q.base.options.tile_search;
    opt.fuse_pool_drain = q.base.options.fuse_pool_drain;
    const sqz::core::SweepOutcome outcome = [&] {
      Scope s(t, "dse.evaluate", req);
      return sqz::core::evaluate_designs_checked(q.base.model, configs, opt);
    }();
    std::string out = [&] {
      Scope s(t, "core.render_sweep", req);
      std::ostringstream os;
      sqz::core::write_sweep_outcome_json(q.knob + " on " + q.base.model_label,
                                          outcome, os);
      return os.str();
    }();
    if (outcome_out) *outcome_out = outcome;
    Scope s(t, "simcache.put", req);
    cache_.put(key, out);
    return out;
  }

  std::size_t plan_hits = 0;

 private:
  serve::SimCache cache_;
  serve::PlanCache plans_;
};

/// Per-point probes of one sweep, run serially on the benchmark thread:
/// validate_design, design_point_key and simulate_network per point. Returns
/// the summed simulate time in milliseconds (the serial cost of the sweep).
double probe_sweep_points(const std::string& body, Tracer& t, std::uint64_t req) {
  const serve::SweepRequest q = serve::parse_sweep_request(body);
  const std::string text = [&] {
    Scope s(&t, "nn.serialize", req);
    return sqz::nn::serialize_model(q.base.model);
  }();
  const char* sim_name = simulate_span(q.base.options);
  double serial_ms = 0.0;
  for (const auto& [label, cfg] : serve::sweep_configs(q)) {
    {
      Scope s(&t, "dse.validate", req);
      (void)sqz::core::validate_design(q.base.model, cfg);
    }
    {
      Scope s(&t, "dse.key", req);
      (void)sqz::core::design_point_key(text, label, cfg,
                                        q.base.options.objective);
    }
    const int id = t.begin(sim_name, req);
    (void)sqz::sched::simulate_network(q.base.model, cfg, q.base.options);
    t.end(id);
    serial_ms += Tracer::us(t.spans()[static_cast<std::size_t>(id)]) / 1000.0;
  }
  return serial_ms;
}

/// Per-layer simulator cost over every layer of each zoo model at the
/// Squeezelerator config: sim::simulate_layer under both dataflows on
/// hybrid convs (as the selector does), the forced dataflow elsewhere, and
/// sim::retime_layer with tile search on the chosen result.
void probe_layers(Tracer& t, std::uint64_t req) {
  using sqz::sim::Dataflow;
  const sqz::sim::AcceleratorConfig config =
      sqz::sim::AcceleratorConfig::squeezelerator();
  for (const char* name : kZoo) {
    const sqz::nn::Model model = sqz::core::zoo_model_by_name(name);
    const sqz::sched::ResidencyPlan plan =
        sqz::sched::plan_residency(model, config);
    Scope root(&t, "probe.layers", req);
    for (int i = 1; i < model.layer_count(); ++i) {
      const sqz::nn::Layer& l = model.layer(i);
      const char* kind = l.is_depthwise() ? "sim.dwconv"
                         : l.is_conv()    ? "sim.conv"
                         : l.is_fc()      ? "sim.fc"
                                          : "sim.simd";
      const sqz::sim::TensorPlacement placement = plan.placement_for(model, i);
      sqz::sim::LayerResult chosen;
      if (l.is_conv() && config.support == sqz::sim::DataflowSupport::Hybrid) {
        Scope s(&t, kind, req);
        const auto ws = sqz::sim::simulate_layer(
            model, i, config, Dataflow::WeightStationary, placement);
        const auto os = sqz::sim::simulate_layer(
            model, i, config, Dataflow::OutputStationary, placement);
        chosen = ws.total_cycles <= os.total_cycles ? ws : os;
      } else {
        Scope s(&t, kind, req);
        chosen = sqz::sim::simulate_layer(
            model, i, config,
            sqz::sim::effective_dataflow(l, config, Dataflow::WeightStationary),
            placement);
      }
      Scope s(&t, "sim.retime", req);
      (void)sqz::sim::retime_layer(model, chosen, config, placement,
                                   /*double_buffered=*/true,
                                   /*search_tiles=*/true);
    }
  }
}

/// The coordinator's chunking, posted straight to workers: the sweep's
/// values in chunks of CoordinatorOptions::chunk_points, in the chunk body
/// form the coordinator sends, round-robin over `ports` from as many
/// threads as the coordinator dispatches with. Returns the wall time in
/// milliseconds; chunk latencies are recorded as spans on their own tracks.
double post_chunks_direct(const std::string& body, const std::vector<int>& ports,
                          Tracer& t, std::uint64_t req, bool& ok) {
  const serve::SweepRequest q = serve::parse_sweep_request(body);
  const std::string text = sqz::nn::serialize_model(q.base.model);
  const std::string ini = sqz::core::config_to_ini(q.base.config);
  const serve::CoordinatorOptions copt;
  const std::size_t per = static_cast<std::size_t>(copt.chunk_points);
  std::vector<std::string> chunks;
  for (std::size_t at = 0; at < q.values.size(); at += per) {
    std::ostringstream os;
    sqz::util::JsonWriter w(os, /*indent=*/0);
    w.begin_object();
    w.member("model_text", text);
    w.member("config_ini", ini);
    w.key("options");
    w.begin_object();
    w.member("objective", q.base.options.objective ==
                                  sqz::sched::Objective::Energy
                              ? "energy"
                              : "cycles");
    w.member("timeline", q.base.options.tile_timeline);
    w.member("double_buffered", q.base.options.double_buffered);
    w.member("tile_search", q.base.options.tile_search);
    w.member("fuse", q.base.options.fuse_pool_drain);
    w.end_object();
    w.key("sweep");
    w.begin_object();
    w.member("knob", q.knob);
    w.key("values");
    w.begin_array();
    for (std::size_t i = at; i < std::min(q.values.size(), at + per); ++i)
      w.value(q.values[i]);
    w.end_array();
    w.end_object();
    w.end_object();
    chunks.push_back(os.str());
  }
  // The coordinator's dispatcher width: min(max(2, 2 x workers), 8).
  const std::size_t width =
      std::min<std::size_t>(std::max<std::size_t>(2, 2 * ports.size()), 8);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> all_ok{true};
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>> laps(width);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t d = 0; d < width; ++d)
    threads.emplace_back([&, d] {
      for (std::size_t c; (c = next.fetch_add(1)) < chunks.size();) {
        const Clock::time_point a = Clock::now();
        try {
          const auto resp = post(ports[c % ports.size()], "/v1/sweep", chunks[c]);
          if (resp.status != 200 ||
              resp.body.find("\"errors\"") != std::string::npos)
            all_ok = false;
        } catch (const std::exception&) {
          all_ok = false;
        }
        laps[d].emplace_back(a, Clock::now());
      }
    });
  for (std::thread& th : threads) th.join();
  const double wall = ms_between(t0, Clock::now());
  for (std::size_t d = 0; d < width; ++d)
    for (const auto& [a, b] : laps[d])
      t.add("coord.chunk", req, 1 + static_cast<int>(d), a, b);
  ok = all_ok.load();
  return wall;
}

double ratio(double hits, double misses) {
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

}  // namespace

RunResult run_traced(const RunSpec& spec) {
  const Workload w = spec.workload;
  const bool sweep = is_sweep(w);
  const std::string route = route_of(w);
  RunResult r;
  Tracer tracer;

  // The same streams as the end-to-end run, sized beyond what the traced
  // loop (three passes per body) gets through in the window.
  const std::size_t cap =
      (sweep ? 50 : w == Workload::SimulateWarm ? 10000 : 1000) *
      (static_cast<std::size_t>(spec.seconds) + 1);
  std::vector<std::string> bodies;
  std::vector<std::size_t> order;
  if (w == Workload::SimulateCold) bodies = simulate_bodies(spec.seed, cap);
  if (w == Workload::SimulateWarm) {
    bodies = simulate_bodies(spec.seed, kWarmSet);
    order = replay_order(spec.seed, cap, kWarmSet);
  }
  if (sweep) bodies = sweep_bodies(spec.seed, cap);
  const std::size_t limit = order.empty() ? bodies.size() : order.size();

  Deployment dep(w, spec.scratch);
  std::vector<std::unique_ptr<Deployment>> direct;  // workers for direct chunks
  std::vector<int> direct_ports;
  std::unique_ptr<sqz::core::SweepJournal> journal;
  if (w == Workload::SweepFleet) {
    for (int k = 0; k < 2; ++k) {
      direct.push_back(std::make_unique<Deployment>(Workload::SweepLocal, spec.scratch));
      direct_ports.push_back(direct.back()->port());
    }
    journal = std::make_unique<sqz::core::SweepJournal>(spec.scratch +
                                                        "/probe-journal");
  }
  Pipeline traced_pipe, plain_pipe;
  if (w == Workload::SimulateWarm) {
    for (const std::string& b : bodies) {
      if (post(dep.port(), route, b).status != 200) r.fail("warm-up failed");
      traced_pipe.simulate(b, nullptr, 0);
      plain_pipe.simulate(b, nullptr, 0);
    }
  }
  if (w != Workload::SimulateWarm) probe_layers(tracer, 0);

  const std::vector<int> ports = dep.ports();
  const std::vector<int> front{ports.front()};
  const std::vector<int> back(ports.begin() + 1, ports.end());
  const Counters front0 = scrape(front), back0 = scrape(back);

  std::vector<double> transport_us, speedup, parallelism, evaluate_ms,
      overhead_ms;
  double traced_ms = 0.0, plain_ms = 0.0, root_us = 0.0, accounted_us = 0.0;
  double response_bytes = 0.0;
  const std::size_t min_bodies = sweep ? 4 : 2 * kZooSize;
  const Clock::time_point start = Clock::now();
  std::size_t i = 0;
  for (; i < limit; ++i) {
    const double elapsed = ms_between(start, Clock::now()) / 1000.0;
    if ((elapsed >= spec.seconds && i >= min_bodies) || elapsed >= kMaxWindowSeconds) break;
    const std::string& body = bodies[order.empty() ? i : order[i]];
    const std::uint64_t req = i + 1;

    // Over HTTP, to the workload's servers.
    const Clock::time_point h0 = Clock::now();
    serve::HttpResponse resp;
    try {
      resp = post(dep.port(), route, body);
    } catch (const std::exception&) {
      resp.status = 0;
    }
    const Clock::time_point h1 = Clock::now();
    tracer.add("serve.http", req, 0, h0, h1);
    const double http_ms = ms_between(h0, h1);
    bool bad = resp.status != 200 ||
               resp.body.find("\"errors\"") != std::string::npos;
    response_bytes += static_cast<double>(resp.body.size());

    // In process, traced and untraced, alternating which goes first.
    sqz::core::SweepOutcome outcome;
    int root = -1;
    double plain_one = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (i % 2 == 0);
      Pipeline& pipe = traced ? traced_pipe : plain_pipe;
      Tracer* t = traced ? &tracer : nullptr;
      if (traced) root = static_cast<int>(tracer.spans().size());
      const Clock::time_point p0 = Clock::now();
      const std::string out = sweep ? pipe.sweep(body, t, req, &outcome)
                                    : pipe.simulate(body, t, req);
      const double ms = ms_between(p0, Clock::now());
      (traced ? traced_ms : plain_ms) += ms;
      if (!traced) plain_one = ms;
      bad |= out != resp.body;
    }
    transport_us.push_back(1000.0 * (http_ms - plain_one));
    const std::vector<Tracer::Span>& spans = tracer.spans();
    root_us += Tracer::us(spans[static_cast<std::size_t>(root)]);
    for (std::size_t k = static_cast<std::size_t>(root) + 1; k < spans.size(); ++k) {
      if (spans[k].parent == root) accounted_us += Tracer::us(spans[k]);
      if (std::string_view(spans[k].name) == "dse.evaluate")
        evaluate_ms.push_back(Tracer::us(spans[k]) / 1000.0);
    }

    // Probes outside the request tree.
    if (!sweep) {
      const serve::SimulateRequest q = serve::parse_simulate_request(body);
      Scope s(&tracer, "nn.serialize", req);
      (void)sqz::nn::serialize_model(q.model);
    } else {
      const double serial_ms = probe_sweep_points(body, tracer, req);
      if (!evaluate_ms.empty()) speedup.push_back(serial_ms / evaluate_ms.back());
      parallelism.push_back(serial_ms / http_ms);
    }
    if (w == Workload::SweepFleet) {
      bool ok = true;
      overhead_ms.push_back(http_ms -
                            post_chunks_direct(body, direct_ports, tracer,
                                               req, ok));
      if (!ok) r.fail("a chunk posted straight to a worker failed");
      const serve::SweepRequest q = serve::parse_sweep_request(body);
      const std::string text = sqz::nn::serialize_model(q.base.model);
      for (const sqz::core::DesignPoint& p : outcome.points) {
        const std::string key = sqz::core::design_point_key(
            text, p.label, p.config, q.base.options.objective);
        const std::string value = sqz::core::design_point_value_json(p);
        Scope s(&tracer, "journal.append", req);
        journal->append(key, value);
      }
    }
    if (bad) ++r.failed;
  }
  r.attempted = i;
  const Counters front1 = scrape(front), back1 = scrape(back);
  const double n = static_cast<double>(i);

  if (r.failed > 0)
    r.fail(std::to_string(r.failed) + " of " + std::to_string(r.attempted) +
           " bodies failed or differ between HTTP and in-process");
  if (traced_pipe.plan_hits + plain_pipe.plan_hits > 0)
    r.fail("in-process plan cache hit");
  check_guards(w, front0, front1, back0, back1, i, r);

  // --- per-layer metrics --------------------------------------------------
  const std::map<std::string, std::vector<double>> self = tracer.self_us();
  const auto med = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  const auto total = [&](const char* name) {
    const auto it = self.find(name);
    double sum = 0.0;
    if (it != self.end())
      for (const double v : it->second) sum += v;
    return sum;
  };
  const char* kinds[] = {"sim.conv", "sim.dwconv", "sim.fc", "sim.simd",
                         "sim.retime"};
  double layer_total = 0.0;
  for (const char* k : kinds) layer_total += total(k);
  const auto share = [&](const char* k) {
    return layer_total > 0 ? total(k) / layer_total : 0.0;
  };
  const auto d_all = [&](const std::string& name) {
    return delta(front0, front1, name) + delta(back0, back1, name);
  };
  const double accounted_pct = root_us > 0 ? 100.0 * accounted_us / root_us : 0.0;
  if (!sweep && std::abs(accounted_pct - 100.0) > 15.0)
    r.fail("layer self times cover only " + std::to_string(accounted_pct) +
           "% of the traced request time");

  r.metrics = {
      {"serve.transport_us", median(transport_us), "us"},
      {"api.parse_us", med("api.parse"), "us"},
      {"api.canonicalize_us", med("api.canonicalize"), "us"},
      {"nn.serialize_us", med("nn.serialize"), "us"},
      {"simcache.get_us", med("simcache.get"), "us"},
      {"simcache.put_us", med("simcache.put"), "us"},
      {"simcache.hit_ratio",
       ratio(d_all("sqzserved_cache_hits_total"),
             d_all("sqzserved_cache_misses_total")),
       "ratio"},
      {"plancache.compile_put_us", med("plancache.compile_put"), "us"},
      {"plancache.hit_ratio",
       ratio(d_all("sqzserved_plan_hits_total"),
             d_all("sqzserved_plan_misses_total")),
       "ratio"},
      {"sched.simulate_flat_us", med("sched.simulate_flat"), "us"},
      {"sched.simulate_timeline_us", med("sched.simulate_timeline"), "us"},
      {"sim.share.conv", share("sim.conv"), "ratio"},
      {"sim.share.dwconv", share("sim.dwconv"), "ratio"},
      {"sim.share.fc", share("sim.fc"), "ratio"},
      {"sim.share.simd", share("sim.simd"), "ratio"},
      {"sim.share.retime", share("sim.retime"), "ratio"},
      {"core.render_us", med("core.render"), "us"},
      {"core.render_sweep_us", med("core.render_sweep"), "us"},
      {"dse.validate_us", med("dse.validate"), "us"},
      {"dse.key_us", med("dse.key"), "us"},
      {"dse.evaluate_ms", median(evaluate_ms), "ms"},
      {"dse.parallel_speedup", median(speedup), "ratio"},
      {"serve.sweep_parallelism", median(parallelism), "ratio"},
      {"journal.append_us", med("journal.append"), "us"},
      {"coord.chunk_ms", med("coord.chunk") / 1000.0, "ms"},
      {"coord.overhead_ms", median(overhead_ms), "ms"},
      {"coord.points_dispatched",
       delta(front0, front1, "sqzserved_coord_points_dispatched_total"), "count"},
      {"coord.requeues",
       delta(front0, front1, "sqzserved_coord_points_requeued_total"), "count"},
      {"coord.steals", delta(front0, front1, "sqzserved_coord_steals_total"),
       "count"},
      {"serve.response_kb", n > 0 ? response_bytes / n / 1024.0 : 0.0, "KiB"},
      {"trace.overhead_pct",
       plain_ms > 0 ? 100.0 * (traced_ms - plain_ms) / plain_ms : 0.0, "%"},
      {"trace.accounted_pct", accounted_pct, "%"},
  };
  char line[200];
  std::snprintf(line, sizeof line, "%s traced: %zu bodies, %zu spans",
                workload_name(w), r.attempted, tracer.spans().size());
  r.summary = line;
  if (!spec.trace_out.empty()) tracer.write_chrome_trace(spec.trace_out);
  return r;
}

}  // namespace perfbench
