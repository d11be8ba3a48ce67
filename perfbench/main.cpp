// perfbench: the serving benchmark's command line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR] [--trace-out FILE]
//   perfbench --self-test [--seed N]
//
// Workloads: simulate_cold simulate_warm sweep_local sweep_fleet (see
// README.md). --trace 0 runs the end-to-end measurement, --trace 1 the
// traced per-layer run. A human-readable report goes to stderr and stdout;
// the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 = correct run, 1 = a check failed (the JSON says which
// counts), 2 = bad arguments or an error before any result.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "runs.h"
#include "util/json.h"
#include "util/threadpool.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR] [--trace-out FILE]\n"
               "       perfbench --self-test [--seed N]\n";
  return 2;
}

std::string result_json(const perfbench::RunResult& r) {
  std::ostringstream os;
  sqz::util::JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.member("correct", r.correct);
  w.member("attempted", r.attempted);
  w.member("failed", r.failed);
  w.key("metrics");
  w.begin_object();
  for (const perfbench::Metric& m : r.metrics) {
    w.key(m.name);
    w.begin_object();
    w.member("value", m.value);
    w.member("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunSpec spec;
  std::string workload;
  int trace = -1;
  bool self_test = false;
  bool have_seed = false;
  bool have_seconds = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
        return argv[++i];
      };
      if (a == "--workload") workload = value();
      else if (a == "--seed") spec.seed = std::stoull(value()), have_seed = true;
      else if (a == "--seconds") spec.seconds = std::stod(value()), have_seconds = true;
      else if (a == "--trace") trace = std::stoi(value());
      else if (a == "--scratch") spec.scratch = value();
      else if (a == "--trace-out") spec.trace_out = value();
      else if (a == "--self-test") self_test = true;
      else throw std::invalid_argument("unknown argument " + a);
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  // Pin the simulation pool before any server or sweep touches it.
  sqz::util::ThreadPool::set_global_jobs(perfbench::kPoolJobs);

  if (self_test) {
    const int failures = perfbench::self_test(spec.seed);
    std::cout << "self-test: " << (failures == 0 ? "ok" : "FAILED") << "\n";
    return failures == 0 ? 0 : 1;
  }
  if (workload.empty() || !have_seed || !have_seconds || (trace != 0 && trace != 1))
    return usage("--workload, --seed, --seconds and --trace 0|1 are required");
  if (!(spec.seconds > 0.0) || spec.seconds > 60.0)
    return usage("--seconds must be in (0, 60]");

  try {
    spec.workload = perfbench::parse_workload(workload);
    if (spec.scratch.empty())
      spec.scratch = "perfbench-scratch-" + std::to_string(::getpid());
    std::filesystem::create_directories(spec.scratch);
    const perfbench::RunResult r = trace == 1 ? perfbench::run_traced(spec)
                                              : perfbench::run_end_to_end(spec);
    std::filesystem::remove_all(spec.scratch);
    for (const std::string& note : r.notes) std::cerr << note << "\n";
    std::cout << r.summary << "\n";
    for (const perfbench::Metric& m : r.metrics)
      std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::fflush(stdout);
    std::cout << result_json(r) << std::endl;
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
