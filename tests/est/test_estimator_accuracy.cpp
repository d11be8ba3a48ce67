// The estimator's accuracy contract (docs/ESTIMATOR.md), enforced: with the
// tile timeline, a network retimed by the closed-form bound
// (estimate_retimed_layer) is within kTimelineBoundPct of the event-driven
// makespan, and exact under a single staging buffer. Both runs share the
// closed-form mappers and sched::simulate_network, so only the retimer is
// under test here; the mappers are checked against the functional emulators
// (tests/sim/test_functional_config_fuzz.cpp) and pinned by
// tests/data/mapping_golden.txt.
#include "est/estimator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/zoo/zoo.h"
#include "sched/network_sim.h"

namespace sqz::est {
namespace {

// The documented tile-timeline bound (docs/ESTIMATOR.md "Accuracy
// contract"). Flat-mode runs never retime, so screening inherits this bound
// only when the exact phase re-runs with the timeline enabled.
constexpr double kTimelineBoundPct = 5.0;

double rel_err_pct(std::int64_t est, std::int64_t ref) {
  if (ref == 0) return est == 0 ? 0.0 : 1e9;
  return 100.0 * std::abs(static_cast<double>(est - ref)) /
         static_cast<double>(ref);
}

TEST(EstimatorAccuracy, TimelineNetworkWithinDocumentedBound) {
  for (const bool search : {false, true}) {
    sched::SimulationOptions opt;
    opt.tile_timeline = true;
    opt.tile_search = search;
    for (const nn::Model& m : nn::zoo::all_table1_models()) {
      for (const sim::AcceleratorConfig& cfg :
           {sim::AcceleratorConfig::squeezelerator(),
            sim::AcceleratorConfig::reference_ws(),
            sim::AcceleratorConfig::reference_os()}) {
        const sim::NetworkResult ref = sched::simulate_network(m, cfg, opt);
        const sim::NetworkResult est =
            sched::simulate_network(m, cfg, opt, estimate_retimed_layer);
        const double err = rel_err_pct(est.total_cycles(), ref.total_cycles());
        EXPECT_LE(err, kTimelineBoundPct)
            << m.name() << " search=" << search
            << " est=" << est.total_cycles() << " ref=" << ref.total_cycles();
        if (!search) {
          // The fixed 8-band heuristic picks identical bands, so the halo
          // re-read traffic — and every other counter — agrees exactly.
          EXPECT_EQ(est.total_counts(), ref.total_counts()) << m.name();
        } else {
          // The closed-form band search may pick a different knee than the
          // event-driven one; only the halo traffic (a sliver of dram_words)
          // can differ, and it stays within the documented bound.
          EXPECT_LE(rel_err_pct(est.total_counts().dram_words,
                                ref.total_counts().dram_words),
                    kTimelineBoundPct)
              << m.name();
        }
      }
    }
  }
}

TEST(EstimatorAccuracy, SingleBufferTimelineIsExact) {
  // A single staging buffer fully serializes load/compute/store, so the
  // closed form is not a bound but the exact sum.
  sched::SimulationOptions opt;
  opt.tile_timeline = true;
  opt.double_buffered = false;
  const sim::AcceleratorConfig cfg = sim::AcceleratorConfig::squeezelerator();
  for (const nn::Model& m : nn::zoo::all_table1_models()) {
    const sim::NetworkResult ref = sched::simulate_network(m, cfg, opt);
    const sim::NetworkResult est =
        sched::simulate_network(m, cfg, opt, estimate_retimed_layer);
    EXPECT_EQ(est.total_cycles(), ref.total_cycles()) << m.name();
  }
}

}  // namespace
}  // namespace sqz::est
