#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "serve/httpclient.h"
#include "util/hash.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

Workload parse_workload(const std::string& name) {
  if (name == "simulate_cold") return Workload::SimulateCold;
  if (name == "simulate_warm") return Workload::SimulateWarm;
  if (name == "sweep_local") return Workload::SweepLocal;
  if (name == "sweep_fleet") return Workload::SweepFleet;
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (simulate_cold simulate_warm sweep_local sweep_fleet)");
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::SimulateCold: return "simulate_cold";
    case Workload::SimulateWarm: return "simulate_warm";
    case Workload::SweepLocal: return "sweep_local";
    case Workload::SweepFleet: return "sweep_fleet";
  }
  return "?";
}

bool is_sweep(Workload w) {
  return w == Workload::SweepLocal || w == Workload::SweepFleet;
}

int clients_of(Workload w) { return is_sweep(w) ? 1 : 2; }

std::string route_of(Workload w) {
  return is_sweep(w) ? "/v1/sweep" : "/v1/simulate";
}

namespace {

std::unique_ptr<sqz::serve::Server> start_server(
    const sqz::serve::ServerOptions& options) {
  auto s = std::make_unique<sqz::serve::Server>(options);
  s->start();
  return s;
}

sqz::serve::ServerOptions loopback() {
  sqz::serve::ServerOptions o;
  o.port = 0;
  return o;
}

}  // namespace

Deployment::Deployment(Workload w, const std::string& scratch) {
  sqz::serve::ServerOptions front = loopback();
  if (w == Workload::SweepFleet) {
    for (int i = 0; i < 2; ++i) {
      workers_.push_back(start_server(loopback()));
      front.coordinator.workers.push_back(
          "127.0.0.1:" + std::to_string(workers_.back()->port()));
    }
    static std::atomic<int> serial{0};
    journal_dir_ = scratch + "/journal-" + std::to_string(serial++);
    std::filesystem::remove_all(journal_dir_);
    front.sweep_journal_dir = journal_dir_;
  }
  front_ = start_server(front);
}

Deployment::~Deployment() {
  front_.reset();
  workers_.clear();
  if (!journal_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(journal_dir_, ec);
  }
}

std::vector<int> Deployment::ports() const {
  std::vector<int> out{front_->port()};
  for (const auto& w : workers_) out.push_back(w->port());
  return out;
}

sqz::serve::HttpResponse post(int port, const std::string& route,
                              const std::string& body) {
  sqz::serve::HttpRequest req;
  req.method = "POST";
  req.target = route;
  req.headers.emplace_back("Content-Type", "application/json");
  req.body = body;
  return sqz::serve::http_fetch("127.0.0.1", port, std::move(req));
}

Counters scrape(const std::vector<int>& ports) {
  Counters out;
  for (const int port : ports) {
    sqz::serve::HttpRequest req;
    req.method = "GET";
    req.target = "/metrics";
    const sqz::serve::HttpResponse resp =
        sqz::serve::http_fetch("127.0.0.1", port, std::move(req));
    if (resp.status != 200)
      throw std::runtime_error("GET /metrics answered " +
                               std::to_string(resp.status));
    std::istringstream in(resp.body);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t sp = line.find(' ');
      if (sp == std::string::npos) continue;
      out[line.substr(0, sp)] += std::stod(line.substr(sp + 1));
    }
  }
  return out;
}

double delta(const Counters& before, const Counters& after,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0.0, steal = 0.0;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8 && in >> field; ++i) steal = field;
  return cpu == "cpu" && in ? steal / static_cast<double>(sysconf(_SC_CLK_TCK))
                            : 0.0;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

LoopResult closed_loop(const LoopSpec& spec) {
  const std::vector<std::string>& bodies = *spec.bodies;
  const std::size_t limit = spec.order ? spec.order->size() : bodies.size();
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> exhausted{false};
  std::mutex mu;
  LoopResult r;  // outcomes, ticks and rss_mb guarded by mu until joined

  const Clock::time_point start = Clock::now();
  const double cpu0 = process_cpu_s();
  const double steal0 = host_steal_s();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  const auto client = [&] {
    std::vector<Outcome> mine;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t seq = next.fetch_add(1);
      if (seq >= limit) {
        exhausted = true;
        break;
      }
      const std::string& body = bodies[spec.order ? (*spec.order)[seq] : seq];
      Outcome o;
      o.seq = seq;
      const Clock::time_point t0 = Clock::now();
      try {
        sqz::serve::HttpResponse resp = post(spec.port, spec.route, body);
        o.status = resp.status;
        o.point_errors = resp.body.find("\"errors\"") != std::string::npos;
        if (spec.keep_every > 0 &&
            sqz::util::fnv1a64(std::to_string(spec.seed) + ":" +
                               std::to_string(seq)) %
                    spec.keep_every ==
                0)
          o.body = std::move(resp.body);
      } catch (const sqz::serve::FetchError&) {
        o.status = 0;
      }
      o.latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      mine.push_back(std::move(o));
      const std::size_t k = done.fetch_add(1) + 1;
      if ((spec.block > 0 && k % spec.block == 0) || k == spec.rss_after) {
        const Tick tick{elapsed(), process_cpu_s() - cpu0, k};
        const double rss = k == spec.rss_after ? peak_rss_mb() : 0.0;
        std::lock_guard<std::mutex> lk(mu);
        if (spec.block > 0 && k % spec.block == 0) r.ticks.push_back(tick);
        if (k == spec.rss_after) r.rss_mb = rss;
      }
    }
    std::lock_guard<std::mutex> lk(mu);
    for (Outcome& o : mine) r.outcomes.push_back(std::move(o));
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) threads.emplace_back(client);
  for (;;) {
    const double t = elapsed();
    if (exhausted.load() || t >= kMaxWindowSeconds ||
        (t >= spec.seconds && done.load() >= spec.min_requests))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  for (std::thread& t : threads) t.join();
  r.elapsed_s = elapsed();
  r.cpu_s = process_cpu_s() - cpu0;
  r.steal_s = host_steal_s() - steal0;
  if (r.rss_mb == 0.0) r.rss_mb = peak_rss_mb();
  r.exhausted = exhausted.load() && r.elapsed_s < spec.seconds;
  std::sort(r.ticks.begin(), r.ticks.end(),
            [](const Tick& a, const Tick& b) { return a.done < b.done; });
  std::sort(r.outcomes.begin(), r.outcomes.end(),
            [](const Outcome& a, const Outcome& b) { return a.seq < b.seq; });
  return r;
}

}  // namespace perfbench
