// Self-tests of the benchmark's own machinery: the generators keep their
// promises (determinism, distinct keys, feasible points, a warm set that
// fits the cache) and the tail statistic stands on enough samples.
#include <cstdio>
#include <string>

#include "bodies.h"
#include "core/validate.h"
#include "runs.h"
#include "serve/api.h"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

/// The bodies a run of `w` would send first: its warm-up, then its stream.
std::vector<std::string> run_stream(Workload w, std::uint64_t seed,
                                    std::size_t n) {
  std::vector<std::string> out = is_sweep(w)
                                     ? sweep_bodies(0, 2, /*reserved=*/true)
                                     : simulate_bodies(0, 2 * kZooSize, true);
  const std::vector<std::string> timed =
      is_sweep(w) ? sweep_bodies(seed, n) : simulate_bodies(seed, n);
  out.insert(out.end(), timed.begin(), timed.end());
  return out;
}

}  // namespace

int self_test(std::uint64_t seed) {
  failures = 0;
  std::printf("perfbench self-test, seed %llu\n",
              static_cast<unsigned long long>(seed));

  expect(simulate_bodies(seed, 300) == simulate_bodies(seed, 300) &&
             sweep_bodies(seed, 30) == sweep_bodies(seed, 30) &&
             replay_order(seed, 1000, kWarmSet) ==
                 replay_order(seed, 1000, kWarmSet),
         "the same seed gives the same bodies");
  expect(simulate_bodies(seed, 50) != simulate_bodies(seed + 1, 50) &&
             sweep_bodies(seed, 5) != sweep_bodies(seed + 1, 5),
         "another seed gives other bodies");

  // Far longer streams than a run at the benchmark's length sends (about
  // 16,500 cold requests or 700 sweeps in 30 s); every run also checks the
  // bodies it actually sent.
  const std::string cold = check_distinct(
      Workload::SimulateCold, run_stream(Workload::SimulateCold, seed, 40000));
  expect(cold.empty(), "no canonical key repeats in a simulate_cold run " + cold);
  const std::vector<std::string> sweeps =
      run_stream(Workload::SweepLocal, seed, 1500);
  const std::string sw = check_distinct(Workload::SweepLocal, sweeps);
  expect(sw.empty(),
         "no canonical or design-point key repeats in a sweep run " + sw);

  const std::vector<std::string> warm = simulate_bodies(seed, kWarmSet);
  expect(check_distinct(Workload::SimulateWarm, warm).empty() &&
             kWarmSet < sqz::serve::ServerOptions{}.cache_entries,
         "the warm working set is " + std::to_string(kWarmSet) +
             " distinct points and fits the result cache");

  std::size_t points = 0, infeasible = 0;
  for (const std::string& body : sweeps) {
    const sqz::serve::SweepRequest req = sqz::serve::parse_sweep_request(body);
    for (const auto& [label, cfg] : sqz::serve::sweep_configs(req)) {
      ++points;
      infeasible += sqz::core::validate_design(req.base.model, cfg).ok() ? 0 : 1;
    }
  }
  expect(infeasible == 0 && points == sweeps.size() * kSweepPoints,
         "every generated sweep point passes core::validate_design (" +
             std::to_string(points) + " points)");

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(percentile(v, 0.9) == 90.0 && percentile(v, 0.5) == 50.0 &&
             beyond(v.size(), 0.9) == 10 && beyond(99, 0.9) < 10 &&
             beyond(kMinSamples, 0.9) >= 10,
         "p90 of the minimum run (" + std::to_string(kMinSamples) +
             " samples) has at least 10 samples beyond it");

  std::printf("%d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
