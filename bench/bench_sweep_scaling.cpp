// Parallel sweep-evaluation scaling: a 32-point register-file sweep of
// SqueezeNext (1.0-SqNxt-23) through core::evaluate_designs at jobs
// 1/2/4/8, reporting wall-clock speedup over the serial path and verifying
// on the fly that every job count produces byte-identical JSON dumps.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dse.h"
#include "nn/zoo/zoo.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/threadpool.h"

int main() {
  using namespace sqz;
  using Clock = std::chrono::steady_clock;

  const nn::Model model = nn::zoo::squeezenext();
  std::vector<double> rf_values;
  for (int v = 1; v <= 32; ++v) rf_values.push_back(v);
  const auto configs = core::sweep_knob(
      sim::AcceleratorConfig::squeezelerator(), "rf_entries", rf_values);

  std::printf("32-point RF sweep of %s; hardware concurrency %u\n\n",
              model.name().c_str(), std::thread::hardware_concurrency());

  util::Table t("evaluate_designs scaling (median-free single shot, warm)");
  t.set_header({"jobs", "wall ms", "speedup", "dump identical"});

  // Warm-up pass so first-touch costs (weight synthesis etc.) don't bias
  // the jobs=1 baseline.
  util::ThreadPool::set_global_jobs(1);
  (void)core::evaluate_designs(model, configs);

  double serial_ms = 0.0;
  std::string serial_dump;
  for (const int jobs : {1, 2, 4, 8}) {
    util::ThreadPool::set_global_jobs(jobs);
    const auto t0 = Clock::now();
    const auto points = core::evaluate_designs(model, configs);
    const auto t1 = Clock::now();
    const double ms =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() /
        1e3;

    std::ostringstream dump;
    core::write_design_points_json("rf_entries on sqnxt23", points, dump);
    if (jobs == 1) {
      serial_ms = ms;
      serial_dump = dump.str();
    }
    t.add_row({std::to_string(jobs), util::format("%.1f", ms),
               util::format("%.2fx", serial_ms / ms),
               dump.str() == serial_dump ? "yes" : "NO"});
  }
  util::ThreadPool::set_global_jobs(0);
  t.print(std::cout);
  std::printf(
      "\nSpeedup is bounded by min(jobs, cores); on a single-core host every\n"
      "row stays near 1.00x. The \"dump identical\" column re-checks the\n"
      "determinism contract: sweep JSON bytes must not depend on jobs.\n");
  return 0;
}
