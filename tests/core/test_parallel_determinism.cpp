// The parallel evaluation contract: any job count produces byte-for-byte
// the output of the serial path. Sweeps write results into slots indexed by
// input position, so ordering, Pareto membership, and JSON dump bytes must
// never depend on thread scheduling.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/codesign.h"
#include "core/dse.h"
#include "core/multicore.h"
#include "nn/zoo/zoo.h"
#include "util/threadpool.h"

namespace sqz::core {
namespace {

// Restores the default job policy even when an assertion fails mid-test.
struct JobsGuard {
  ~JobsGuard() { util::ThreadPool::set_global_jobs(0); }
};

struct SweepRun {
  std::vector<DesignPoint> points;
  std::string dump;
};

SweepRun run_array_sweep(int jobs) {
  util::ThreadPool::set_global_jobs(jobs);
  const nn::Model m = nn::zoo::squeezenext();
  const auto configs =
      sweep_knob(sim::AcceleratorConfig::squeezelerator(), "array_n",
                 {8, 16, 24, 32});
  SweepRun r;
  r.points = evaluate_designs(m, configs);
  std::ostringstream os;
  write_design_points_json("array_n on sqnxt23", r.points, os);
  r.dump = os.str();
  return r;
}

TEST(ParallelDeterminism, ArraySweepJsonBytesIdenticalAtJobs1And8) {
  JobsGuard guard;
  const SweepRun serial = run_array_sweep(1);
  const SweepRun parallel = run_array_sweep(8);

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].label, parallel.points[i].label) << i;
    EXPECT_EQ(serial.points[i].cycles, parallel.points[i].cycles) << i;
    // Bit-exact, not approximately equal: identical per-point computation
    // order means identical floating-point rounding.
    EXPECT_EQ(serial.points[i].energy, parallel.points[i].energy) << i;
    EXPECT_EQ(serial.points[i].utilization, parallel.points[i].utilization) << i;
  }
  EXPECT_EQ(serial.dump, parallel.dump);  // byte-identical JSON documents
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreStable) {
  JobsGuard guard;
  const SweepRun first = run_array_sweep(8);
  const SweepRun second = run_array_sweep(8);
  EXPECT_EQ(first.dump, second.dump);
}

TEST(ParallelDeterminism, TuningPicksTheSameWinnerAtAnyJobCount) {
  JobsGuard guard;
  const nn::Model m = nn::zoo::squeezenet_v11();
  TuningSpace space;
  space.rf_entries = {4, 8, 16, 32};
  space.array_n = {16, 32};

  util::ThreadPool::set_global_jobs(1);
  const TuningResult serial = tune_accelerator(m, space);
  util::ThreadPool::set_global_jobs(8);
  const TuningResult parallel = tune_accelerator(m, space);

  EXPECT_EQ(serial.best.rf_entries, parallel.best.rf_entries);
  EXPECT_EQ(serial.best.array_n, parallel.best.array_n);
  ASSERT_EQ(serial.candidates.size(), parallel.candidates.size());
  for (std::size_t i = 0; i < serial.candidates.size(); ++i) {
    EXPECT_EQ(serial.candidates[i].cycles, parallel.candidates[i].cycles) << i;
    EXPECT_EQ(serial.candidates[i].energy, parallel.candidates[i].energy) << i;
  }
}

TEST(ParallelDeterminism, MulticoreMakespanAndEnergyIdenticalAtAnyJobCount) {
  JobsGuard guard;
  const nn::Model m = nn::zoo::squeezenet_v11();
  sim::AcceleratorConfig cfg = sim::AcceleratorConfig::squeezelerator();
  cfg.batch = 8;

  util::ThreadPool::set_global_jobs(1);
  const MulticoreResult serial = simulate_multicore(m, cfg, 4);
  util::ThreadPool::set_global_jobs(8);
  const MulticoreResult parallel = simulate_multicore(m, cfg, 4);

  EXPECT_EQ(serial.makespan_cycles(), parallel.makespan_cycles());
  EXPECT_EQ(serial.total_energy().total(), parallel.total_energy().total());
  ASSERT_EQ(serial.core_results.size(), 4u);
  ASSERT_EQ(parallel.core_results.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c)
    EXPECT_EQ(serial.core_results[c].total_cycles(),
              parallel.core_results[c].total_cycles());
}

}  // namespace
}  // namespace sqz::core
