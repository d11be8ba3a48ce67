// Deployments, the closed-loop client and /metrics scraping: the parts the
// end-to-end run and the traced run share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/server.h"

namespace perfbench {

enum class Workload { SimulateCold, SimulateWarm, SweepLocal, SweepFleet };

/// Throws std::invalid_argument for an unknown name.
Workload parse_workload(const std::string& name);
const char* workload_name(Workload w);
bool is_sweep(Workload w);
/// Closed-loop client count of the timed window.
int clients_of(Workload w);
/// "/v1/sweep" for the sweep workloads, else "/v1/simulate".
std::string route_of(Workload w);

/// Simulation pool width for every workload (`sqzserved --jobs 2`): half of
/// a 4-core host, leaving cores for the client, accept and dispatch threads.
inline constexpr int kPoolJobs = 2;

/// Timed windows run until at least this many requests completed, so p90
/// has ten samples beyond it.
inline constexpr std::size_t kMinSamples = 100;

/// A window that has not reached its minimum work by now stops anyway, so a
/// run always ends well inside its time limit.
inline constexpr double kMaxWindowSeconds = 150.0;

/// The warm workload's working set; it must fit the default result cache.
inline constexpr std::size_t kWarmSet = 256;

/// In-process servers for one workload, started on ephemeral loopback
/// ports: one stock server, or for sweep_fleet a coordinator (with a sweep
/// journal in a fresh directory under `scratch`) in front of two workers.
class Deployment {
 public:
  Deployment(Workload w, const std::string& scratch);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// The port clients talk to (the coordinator on sweep_fleet).
  int port() const { return front_->port(); }
  /// Every server's port, front first.
  std::vector<int> ports() const;

 private:
  std::vector<std::unique_ptr<sqz::serve::Server>> workers_;
  std::unique_ptr<sqz::serve::Server> front_;
  std::string journal_dir_;
};

/// Prometheus counters summed over every port's GET /metrics.
using Counters = std::map<std::string, double>;
Counters scrape(const std::vector<int>& ports);
/// after[name] - before[name] (absent counts as 0).
double delta(const Counters& before, const Counters& after,
             const std::string& name);

/// One completed request of a closed loop.
struct Outcome {
  std::size_t seq = 0;      ///< Position in the send sequence.
  double latency_ms = 0.0;  ///< Client-side, connect to last byte.
  int status = 0;           ///< 0 = transport failure.
  bool point_errors = false;  ///< Sweep body carries an "errors" array.
  std::string body;         ///< Kept only for sampled positions.
};

/// Process CPU and completions when a block of requests completed.
struct Tick {
  double t = 0.0;          ///< Seconds since the window opened.
  double cpu_s = 0.0;      ///< getrusage(RUSAGE_SELF) user+sys so far.
  std::size_t done = 0;    ///< Requests completed so far.
};

struct LoopResult {
  std::vector<Outcome> outcomes;  ///< Sorted by seq.
  double elapsed_s = 0.0;
  double cpu_s = 0.0;             ///< Process CPU over the window.
  double steal_s = 0.0;           ///< Host steal over the window.
  std::vector<Tick> ticks;        ///< At every block-th completion.
  double rss_mb = 0.0;            ///< VmHWM at the rss_after-th completion.
  bool exhausted = false;         ///< Ran out of bodies before the deadline.
};

struct LoopSpec {
  int port = 0;
  std::string route;              ///< "/v1/simulate" or "/v1/sweep".
  const std::vector<std::string>* bodies = nullptr;
  /// Send bodies[order[i]] when set, else bodies[i].
  const std::vector<std::size_t>* order = nullptr;
  int clients = 1;
  double seconds = 0.0;           ///< Stop sending new requests after this...
  std::size_t min_requests = 0;   ///< ...once at least this many completed
                                  ///< (or at kMaxWindowSeconds regardless).
  std::size_t block = 0;          ///< Record a Tick every `block` completions.
  std::size_t rss_after = 0;      ///< Read VmHWM at this completion (0 = end).
  /// Keep the response body of a seeded sample of one request in
  /// `keep_every` (0 = none), for the byte check after the window.
  std::size_t keep_every = 0;
  std::uint64_t seed = 0;
};

/// Closed loop: `clients` threads each send the next body in sequence and
/// wait for its response before sending another, until the deadline.
LoopResult closed_loop(const LoopSpec& spec);

/// POST `body` to `route` on a loopback port; throws on transport failure.
sqz::serve::HttpResponse post(int port, const std::string& route,
                              const std::string& body);

/// Process high-water RSS (VmHWM) in MiB.
double peak_rss_mb();
/// getrusage(RUSAGE_SELF) user+sys seconds.
double process_cpu_s();
/// Seconds the hypervisor ran other guests on this VM's CPUs (the steal
/// column of /proc/stat, summed over CPUs); 0 where it is not reported.
double host_steal_s();

}  // namespace perfbench
