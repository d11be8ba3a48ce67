// sqzserved — the Squeezelerator simulation service daemon.
//
// Serves POST /v1/simulate and /v1/sweep (request schema in serve/api.h),
// GET /healthz and /metrics, with a content-addressed result cache so
// repeated design points never re-simulate. SIGINT/SIGTERM shut down
// gracefully: the listener closes first and in-flight requests drain.
#include <pthread.h>
#include <signal.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/threadpool.h"

namespace {

const char* kUsage =
    "usage: sqzserved [options]\n"
    "  --host ADDR        bind address, numeric IPv4 (default 127.0.0.1)\n"
    "  --port N           listen port; 0 picks an ephemeral port and prints\n"
    "                     it (default 8080)\n"
    "  --jobs N           worker threads serving requests (default SQZ_JOBS\n"
    "                     or hardware concurrency); simulation results are\n"
    "                     bit-identical at any job count\n"
    "  --cache-entries N  in-memory result-cache capacity (default 1024)\n"
    "  --cache-dir PATH   also persist results on disk; survives restarts\n"
    "                     and may be pre-warmed (see EXPERIMENTS.md).\n"
    "                     Entries are checksummed; corrupt files are\n"
    "                     quarantined as *.bad and re-simulated\n"
    "  --plan-cache-entries N  in-memory compiled-plan cache capacity;\n"
    "                     result-cache misses replay a cached plan instead\n"
    "                     of re-running the dual-dataflow compile search\n"
    "                     (default 256; 0 disables the plan cache)\n"
    "  --plan-cache-dir PATH  also persist compiled plans on disk (*.plan,\n"
    "                     the sqzsim --save-plan format); survives restarts.\n"
    "                     Defective plans are quarantined as *.bad and the\n"
    "                     request recompiles transparently\n"
    "  --sweep-journal DIR  crash-safe sweep journal: append each completed\n"
    "                     /v1/sweep design point to DIR/sweep.sqzj and serve\n"
    "                     already-journaled points without re-simulating.\n"
    "                     A killed daemon resumes its sweeps on restart\n"
    "  --request-timeout-ms N  deadline to read one request / drain one\n"
    "                     response; expiry answers 408 (default 30000)\n"
    "  --idle-timeout-ms N  close keep-alive connections idle this long\n"
    "                     (default 30000)\n"
    "  --max-body-bytes N request bodies over this get 413 (default 64 MiB)\n"
    "  --max-connections N  concurrent-connection cap; excess connections\n"
    "                     are shed with 503 + Retry-After instead of\n"
    "                     queueing (default 256; 0 disables shedding)\n"
    "  --workers H:P,...  coordinator mode: shard /v1/sweep across this\n"
    "                     comma-separated fleet of stock sqzserved workers\n"
    "                     (consistent-hash routing, health-checked requeue,\n"
    "                     straggler stealing); /v1/simulate stays local\n"
    "  --coordinator      coordinator mode with an empty boot fleet: accept\n"
    "                     POST /v1/workers/register and build the fleet from\n"
    "                     --join workers (implied by --workers)\n"
    "  --join H:P,...     worker mode: self-register with these coordinators\n"
    "                     (tried round-robin) and heartbeat-renew the lease;\n"
    "                     SIGTERM deregisters before exit (graceful drain)\n"
    "  --lease-ms N       worker: lease TTL requested on --join (default\n"
    "                     5000). coordinator: default TTL for registrations\n"
    "                     that omit one\n"
    "  --standby-of H:P   standby coordinator for the primary at H:P: boot\n"
    "                     passive and take over its sweeps from the shared\n"
    "                     --sweep-journal (required) as soon as the primary's\n"
    "                     process is gone and its writer lock with it\n"
    "                     (checked every --probe-interval-ms). --join workers\n"
    "                     re-register at their next heartbeat. A restarted\n"
    "                     primary must itself come back with --standby-of\n"
    "  --probe-interval-ms N  worker /healthz probe period, and how often a\n"
    "                     standby tries the journal lock (default 500)\n"
    "  --worker-fail-threshold N  consecutive failures that eject a worker\n"
    "                     from the ring (default 3)\n"
    "  --probation-ms N   delay before an ejected worker gets a trial probe\n"
    "                     (default 2000)\n"
    "  --chunk-points N   design points per dispatched chunk (default 4)\n"
    "  --straggler-ms N   in-flight age that triggers work stealing\n"
    "                     (default 2000)\n"
    "  --help             this text\n"
    "\n"
    "SQZ_FAULT=site=kind[:arg][*times][;...] injects deterministic faults\n"
    "at the registered fault points (util/faultinject.h) for chaos drills.\n";

struct Options {
  sqz::serve::ServerOptions server;
  int jobs = 0;
  bool help = false;
};

// Milliseconds, not thread counts: ThreadPool::parse_jobs caps at 1<<20
// (~17 minutes), but a lease of hours is a legitimate operator choice.
// Accepts any positive integer up to 10 years.
std::int64_t parse_ms(const std::string& v, const char* flag) {
  constexpr long long kMaxMs = 315360000000LL;  // 10 years
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument(std::string(flag) +
                                " expects a positive integer of "
                                "milliseconds, got '" + v + "'");
  errno = 0;
  const long long n = std::strtoll(v.c_str(), nullptr, 10);
  if (errno == ERANGE || n <= 0 || n > kMaxMs)
    throw std::invalid_argument(std::string(flag) + " must be in [1, " +
                                std::to_string(kMaxMs) + "] ms, got '" + v +
                                "'");
  return n;
}

std::vector<std::string> split_commas(const std::string& v, const char* flag) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at <= v.size()) {
    const std::size_t comma = v.find(',', at);
    const std::string spec =
        v.substr(at, comma == std::string::npos ? comma : comma - at);
    if (spec.empty())
      throw std::invalid_argument(std::string(flag) + " has an empty endpoint");
    out.push_back(spec);
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return out;
}

Options parse_args(const std::vector<std::string>& args) {
  Options opt;
  std::int64_t lease_ms = 0;  // 0 = not given; applied per role after the loop
  const auto value_of = [&](std::size_t& i) -> const std::string& {
    if (i + 1 >= args.size())
      throw std::invalid_argument("missing value for " + args[i]);
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") opt.help = true;
    else if (a == "--host") opt.server.host = value_of(i);
    else if (a == "--port") {
      const std::string v = value_of(i);
      opt.server.port = v == "0" ? 0 : sqz::util::ThreadPool::parse_jobs(v, "--port");
      if (opt.server.port > 65535)
        throw std::invalid_argument("--port must be in [0, 65535]");
    }
    else if (a == "--jobs")
      opt.jobs = sqz::util::ThreadPool::parse_jobs(value_of(i), "--jobs");
    else if (a == "--cache-entries")
      opt.server.cache_entries = static_cast<std::size_t>(
          sqz::util::ThreadPool::parse_jobs(value_of(i), "--cache-entries"));
    else if (a == "--cache-dir") opt.server.cache_dir = value_of(i);
    else if (a == "--plan-cache-entries") {
      const std::string v = value_of(i);
      opt.server.plan_cache_entries = static_cast<std::size_t>(
          v == "0" ? 0
                   : sqz::util::ThreadPool::parse_jobs(v,
                                                       "--plan-cache-entries"));
    }
    else if (a == "--plan-cache-dir") opt.server.plan_cache_dir = value_of(i);
    else if (a == "--sweep-journal") opt.server.sweep_journal_dir = value_of(i);
    else if (a == "--request-timeout-ms")
      opt.server.request_timeout_ms =
          sqz::util::ThreadPool::parse_jobs(value_of(i), "--request-timeout-ms");
    else if (a == "--idle-timeout-ms")
      opt.server.idle_timeout_ms =
          sqz::util::ThreadPool::parse_jobs(value_of(i), "--idle-timeout-ms");
    else if (a == "--max-body-bytes") {
      const std::string v = value_of(i);
      if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument(
            "--max-body-bytes expects a byte count, got '" + v + "'");
      opt.server.max_body_bytes =
          static_cast<std::size_t>(std::stoull(v));
    }
    else if (a == "--max-connections") {
      const std::string v = value_of(i);
      opt.server.max_connections =
          v == "0" ? 0
                   : sqz::util::ThreadPool::parse_jobs(v, "--max-connections");
    }
    else if (a == "--workers")
      opt.server.coordinator.workers = split_commas(value_of(i), "--workers");
    else if (a == "--coordinator")
      opt.server.coordinator.accept_registrations = true;
    else if (a == "--join")
      for (const std::string& spec : split_commas(value_of(i), "--join"))
        opt.server.joiner.endpoints.push_back(
            sqz::serve::parse_host_port(spec, "--join"));
    else if (a == "--lease-ms")
      lease_ms = parse_ms(value_of(i), "--lease-ms");
    else if (a == "--standby-of")
      opt.server.standby_of = value_of(i);
    else if (a == "--probe-interval-ms")
      opt.server.coordinator.probe.interval_ms =
          sqz::util::ThreadPool::parse_jobs(value_of(i), "--probe-interval-ms");
    else if (a == "--worker-fail-threshold")
      opt.server.coordinator.probe.fail_threshold =
          sqz::util::ThreadPool::parse_jobs(value_of(i),
                                            "--worker-fail-threshold");
    else if (a == "--probation-ms")
      opt.server.coordinator.probe.probation_ms =
          sqz::util::ThreadPool::parse_jobs(value_of(i), "--probation-ms");
    else if (a == "--chunk-points")
      opt.server.coordinator.chunk_points =
          sqz::util::ThreadPool::parse_jobs(value_of(i), "--chunk-points");
    else if (a == "--straggler-ms")
      opt.server.coordinator.straggler_ms =
          sqz::util::ThreadPool::parse_jobs(value_of(i), "--straggler-ms");
    else throw std::invalid_argument("unknown argument: " + a);
  }
  // --lease-ms is one knob, two roles: the TTL a --join worker asks for and
  // the default TTL a coordinator grants.
  if (lease_ms > 0) {
    opt.server.joiner.lease_ms = lease_ms;
    opt.server.coordinator.default_lease_ms = lease_ms;
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  // SIGINT/SIGTERM are blocked before any thread starts, so every thread
  // inherits the mask and only the sigwait below ever takes them.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    const Options opt = parse_args(args);
    if (opt.help) {
      std::cout << kUsage;
      return 0;
    }
    sqz::util::ThreadPool::set_global_jobs(opt.jobs);

    sqz::serve::Server server(opt.server);
    server.start();
    std::printf("sqzserved listening on %s:%d (jobs %d, cache %zu entries%s%s)\n",
                opt.server.host.c_str(), server.port(),
                sqz::util::ThreadPool::global_jobs(), opt.server.cache_entries,
                opt.server.cache_dir.empty() ? "" : ", disk tier ",
                opt.server.cache_dir.c_str());
    if (!opt.server.coordinator.workers.empty() ||
        opt.server.coordinator.accept_registrations)
      std::printf("sqzserved coordinating %zu workers%s (chunk %d points, "
                  "straggler %d ms)\n",
                  opt.server.coordinator.workers.size(),
                  opt.server.coordinator.accept_registrations
                      ? ", registrations open"
                      : "",
                  opt.server.coordinator.chunk_points,
                  opt.server.coordinator.straggler_ms);
    if (!opt.server.joiner.endpoints.empty())
      std::printf("sqzserved joining %zu coordinator(s) (lease %lld ms)\n",
                  opt.server.joiner.endpoints.size(),
                  static_cast<long long>(opt.server.joiner.lease_ms));
    if (!opt.server.standby_of.empty())
      std::printf("sqzserved standing by for %s (takeover once its journal "
                  "lock is free)\n",
                  opt.server.standby_of.c_str());
    std::fflush(stdout);

    int sig = 0;
    sigwait(&stop_signals, &sig);

    std::printf("sqzserved: draining in-flight requests...\n");
    server.stop();
    const auto m = server.metrics().snapshot();
    const auto c = server.cache().stats();
    std::printf(
        "sqzserved: served %llu requests (cache %llu hits / %llu misses); bye\n",
        static_cast<unsigned long long>(m.requests_total),
        static_cast<unsigned long long>(c.hits),
        static_cast<unsigned long long>(c.misses));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sqzserved: " << e.what() << "\n" << kUsage;
    return 1;
  }
}
