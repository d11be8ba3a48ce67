// Two-phase screening speedup (docs/ESTIMATOR.md, ARCHITECTURE.md
// "Two-phase sweeps"): scoring a register-file x dataflow design space of
// 1.0 MobileNet-224 with the closed-form timeline bound
// (est::estimate_retimed_layer) versus simulating every point at the
// fidelity screening replaces (tile timeline + per-layer tile search). Both
// paths share the closed-form mappers and sched::simulate_network; only
// the per-layer retimer differs, so the ratio measures what the event
// timeline and its tile search cost over the bound.
//
// Reports points/sec for both paths and the throughput ratio — the
// screening contract is that the analytical pass is at least 50x faster —
// then times a full screened sweep (phase 1 everywhere + phase 2 on the
// retained Pareto band) against the all-exact sweep, the wall-clock
// before/after quoted in EXPERIMENTS.md. Exits non-zero if the ratio falls
// under 50x or the screened sweep misses the exact sweep's Pareto front.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/dse.h"
#include "est/estimator.h"
#include "nn/zoo/zoo.h"
#include "sched/network_sim.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace sqz;
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::microseconds>(b - a).count() /
           1e6;
  };

  const nn::Model model = nn::zoo::mobilenet();

  // The RF x dataflow space: every register-file depth the PE supports
  // crossed with the three dataflow-support variants of the paper's
  // comparison (hybrid Squeezelerator, WS-only and OS-only references).
  std::vector<std::pair<std::string, sim::AcceleratorConfig>> configs;
  for (const int rf : {1, 2, 4, 8, 12, 16, 24, 32}) {
    for (const auto& [tag, support] :
         {std::pair<const char*, sim::DataflowSupport>{
              "hybrid", sim::DataflowSupport::Hybrid},
          {"ws", sim::DataflowSupport::WsOnly},
          {"os", sim::DataflowSupport::OsOnly}}) {
      sim::AcceleratorConfig c = sim::AcceleratorConfig::squeezelerator();
      c.rf_entries = rf;
      c.support = support;
      configs.emplace_back(util::format("RF=%d/%s", rf, tag), c);
    }
  }
  const std::size_t n = configs.size();

  sched::SimulationOptions fidelity;
  fidelity.tile_timeline = true;
  fidelity.tile_search = true;

  // Warm-up (weight synthesis and other first-touch costs).
  (void)sched::simulate_network(model, configs.front().second, fidelity,
                                est::estimate_retimed_layer);
  (void)sched::simulate_network(model, configs.front().second, fidelity);

  const auto t0 = Clock::now();
  for (const auto& [label, cfg] : configs)
    (void)sched::simulate_network(model, cfg, fidelity);
  const auto t1 = Clock::now();
  for (const auto& [label, cfg] : configs)
    (void)sched::simulate_network(model, cfg, fidelity,
                                  est::estimate_retimed_layer);
  const auto t2 = Clock::now();

  const double exact_s = seconds(t0, t1);
  const double est_s = seconds(t1, t2);
  const double exact_pps = static_cast<double>(n) / exact_s;
  const double est_pps = static_cast<double>(n) / est_s;
  const double ratio = est_pps / exact_pps;

  std::printf("%zu-point RF x dataflow space on %s (single-threaded)\n\n",
              n, model.name().c_str());
  util::Table t("analytical screening vs cycle-exact simulation");
  t.set_header({"path", "wall s", "points/sec", "vs exact"});
  t.add_row({"cycle-exact (timeline+search)", util::format("%.2f", exact_s),
             util::format("%.1f", exact_pps), "1.0x"});
  t.add_row({"analytical estimator", util::format("%.4f", est_s),
             util::format("%.1f", est_pps), util::format("%.0fx", ratio)});
  t.print(std::cout);

  // The end-to-end two-phase sweep: phase 1 everywhere, phase 2 only on the
  // retained band — versus paying cycle-exact fidelity for every point.
  core::SweepOptions exact_opt;
  exact_opt.tile_timeline = true;
  exact_opt.tile_search = true;
  exact_opt.preflight = false;
  core::SweepOptions screened_opt = exact_opt;
  screened_opt.screen = true;

  const auto t3 = Clock::now();
  const core::SweepOutcome full =
      core::evaluate_designs_checked(model, configs, exact_opt);
  const auto t4 = Clock::now();
  const core::SweepOutcome screened =
      core::evaluate_designs_checked(model, configs, screened_opt);
  const auto t5 = Clock::now();

  // The screened sweep is only safe if the band it re-simulates contains
  // the true Pareto front: every exact-front label must come out of the
  // screened run with phase "exact" (see docs/ESTIMATOR.md "When screening
  // is safe").
  std::size_t front_missed = 0;
  for (const core::DesignPoint& p : core::pareto_front(full.points)) {
    bool resimulated = false;
    for (const core::DesignPoint& q : screened.points)
      if (q.label == p.label &&
          q.phase == core::DesignPoint::Phase::Exact) resimulated = true;
    if (!resimulated) ++front_missed;
  }

  std::printf("\nfull exact sweep:  %.2fs (%zu points)\n", seconds(t3, t4),
              full.points.size());
  std::printf("screened sweep:    %.2fs (%zu screened, %zu re-simulated, "
              "max err %.2f%%)\n",
              seconds(t4, t5), screened.screen_points, screened.screen_kept,
              screened.screen_error_max_pct);
  std::printf("sweep speedup:     %.1fx\n", seconds(t3, t4) / seconds(t4, t5));
  std::printf("exact-front points missed by the band: %zu\n", front_missed);
  std::printf("\nscreening throughput ratio %.0fx (target >= 50x): %s\n", ratio,
              ratio >= 50.0 ? "PASS" : "FAIL");
  return (ratio >= 50.0 && front_missed == 0) ? 0 : 1;
}
