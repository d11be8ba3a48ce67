// The benchmark's two kinds of run. The end-to-end run drives in-process
// servers over loopback and reports what a user sees; the traced run calls
// each layer's public functions directly, with spans around every call, and
// reports per-layer numbers. End-to-end numbers never come from a traced run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "stats.h"

namespace perfbench {

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::string summary;             ///< One human-readable line (stdout).
  std::vector<std::string> notes;  ///< Failures and diagnostics (stderr).

  /// Record a broken workload guard or check: the run fails.
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
};

struct RunSpec {
  Workload workload = Workload::SimulateCold;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string scratch;    ///< Directory for journals; created by the caller.
  std::string trace_out;  ///< Traced run: Chrome-trace path ("" = none).
};

RunResult run_end_to_end(const RunSpec& spec);
RunResult run_traced(const RunSpec& spec);

/// Self-tests of the generators and statistics; returns failures (0 = pass).
int self_test(std::uint64_t seed);

/// Checks shared by both runs over the bodies a run actually sent: every
/// canonical key (and, for sweeps, every design-point key) is new. Returns
/// an empty string on success, else what repeated.
std::string check_distinct(Workload w, const std::vector<std::string>& bodies);

/// The workload guards, from /metrics deltas over a window of `requests`
/// requests (front = the server clients talk to, back = fleet workers): the
/// result-cache hit ratio is 1.0 on simulate_warm and 0 elsewhere, the plan
/// cache never hits, every sweep point is simulated (sweep_local) or
/// dispatched exactly once with no requeue or steal (sweep_fleet).
void check_guards(Workload w, const Counters& front0, const Counters& front1,
                  const Counters& back0, const Counters& back1,
                  std::size_t requests, RunResult& r);

/// The in-process reference response for a body: serve::run_simulate or
/// serve::run_sweep, the executors the servers call.
std::string reference_response(Workload w, const std::string& body);

}  // namespace perfbench
