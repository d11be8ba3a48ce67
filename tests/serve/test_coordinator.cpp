// Coordinator-mode chaos drills (serve/coordinator.h): a coordinator
// sharding /v1/sweep across real sqzserved worker processes must produce
// responses byte-identical to the uninterrupted single-node run — through
// worker SIGKILL mid-chunk, deliberate stragglers (work stealing), a
// coordinator SIGKILL + journal resume, and total dispatch failure (which
// must surface structured "dispatch" PointErrors, never hang or abort).
//
// Workers are fork+exec'd from the real sqzserved binary
// (SQZ_SQZSERVED_BINARY) so a SIGKILL takes down a whole process with its
// sockets, exactly like a crashed fleet node. The coordinator under test is
// in-process (so its Metrics are inspectable) except in the resume drill,
// where it too must survive a SIGKILL and therefore runs as a child.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <netinet/in.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/config_io.h"
#include "core/sweepjournal.h"
#include "nn/serialize.h"
#include "serve/api.h"
#include "serve/server.h"
#include "util/faultinject.h"
#include "util/json.h"
#include "util/json_parse.h"

namespace sqz::serve {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr const char* kSweepBody =
    R"({"model":"tinydarknet",)"
    R"("sweep":{"knob":"rf_entries","values":[4,8,16,32,64,128]}})";

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// --- child processes --------------------------------------------------------

struct Proc {
  pid_t pid = -1;
  int port = 0;
  fs::path out;  ///< The child's captured stdout.
};

// fork+exec one sqzserved on an ephemeral port, learning the port from its
// "listening on 127.0.0.1:PORT" startup line. `fault_spec` arms SQZ_FAULT
// in the child only.
Proc spawn_served(const std::vector<std::string>& extra_args,
                  const std::string& fault_spec = "") {
  static int counter = 0;
  Proc p;
  p.out = fs::temp_directory_path() /
          ("sqz_coord_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".out");
  std::vector<std::string> args = {SQZ_SQZSERVED_BINARY, "--port", "0",
                                   "--jobs", "2"};
  args.insert(args.end(), extra_args.begin(), extra_args.end());

  const pid_t pid = ::fork();
  if (pid == 0) {
    if (!::freopen(p.out.c_str(), "w", stdout)) ::_exit(126);
    if (fault_spec.empty())
      ::unsetenv("SQZ_FAULT");
    else
      ::setenv("SQZ_FAULT", fault_spec.c_str(), 1);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(SQZ_SQZSERVED_BINARY, argv.data());
    ::_exit(127);
  }
  p.pid = pid;

  const auto deadline = Clock::now() + std::chrono::seconds(15);
  const std::string needle = "listening on 127.0.0.1:";
  while (Clock::now() < deadline) {
    const std::string text = read_file(p.out);
    const std::size_t at = text.find(needle);
    if (at != std::string::npos) {
      std::size_t d = at + needle.size();
      int port = 0;
      while (d < text.size() && std::isdigit(static_cast<unsigned char>(text[d])))
        port = port * 10 + (text[d++] - '0');
      if (port > 0 && text.find('\n', at) != std::string::npos) {
        p.port = port;
        return p;
      }
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      p.pid = -1;  // died during startup
      return p;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return p;  // port 0: caller will fail the test
}

void kill_hard(Proc& p) {
  if (p.pid <= 0) return;
  ::kill(p.pid, SIGKILL);
  ::waitpid(p.pid, nullptr, 0);
  p.pid = -1;
}

void stop_gracefully(Proc& p) {
  if (p.pid <= 0) return;
  ::kill(p.pid, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (Clock::now() < deadline) {
    if (::waitpid(p.pid, nullptr, WNOHANG) == p.pid) {
      p.pid = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  kill_hard(p);
}

// A loopback TCP port that nothing listens on: bind an ephemeral port,
// learn its number, close it again.
int dead_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

// --- HTTP helpers -----------------------------------------------------------

HttpResponse get(int port, const std::string& target) {
  HttpRequest req;
  req.method = "GET";
  req.target = target;
  return http_fetch("127.0.0.1", port, std::move(req), 10000);
}

HttpResponse post_sweep(int port, const std::string& body,
                        int timeout_ms = 180000) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/v1/sweep";
  req.headers.emplace_back("Content-Type", "application/json");
  req.body = body;
  return http_fetch("127.0.0.1", port, std::move(req), timeout_ms);
}

// Scrape one value from a Prometheus text body; -1 when absent.
double metric(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

// The uninterrupted single-node answer: the exact executor a stock server
// runs, in this process, so provenance matches the workers'.
std::string local_golden(const std::string& body) {
  return run_sweep(parse_sweep_request(body));
}

// --- fixture ----------------------------------------------------------------

class CoordinatorDrill : public ::testing::Test {
 protected:
  void TearDown() override {
    for (Proc& p : workers_) stop_gracefully(p);
    for (Proc& p : workers_) fs::remove(p.out);
    util::fault::reset();
  }

  Proc& spawn_worker(const std::string& fault_spec = "",
                     const std::vector<std::string>& extra = {}) {
    workers_.push_back(spawn_served(extra, fault_spec));
    Proc& w = workers_.back();
    EXPECT_GT(w.port, 0) << "worker failed to start: " << read_file(w.out);
    return w;
  }

  std::deque<Proc> workers_;  ///< A deque: spawning keeps references valid.
};

ServerOptions coord_options(const std::deque<Proc>& workers) {
  ServerOptions opt;
  opt.port = 0;
  for (const Proc& w : workers)
    opt.coordinator.workers.push_back("127.0.0.1:" + std::to_string(w.port));
  opt.coordinator.probe.interval_ms = 100;
  opt.coordinator.probe.probation_ms = 500;
  opt.coordinator.chunk_points = 2;
  return opt;
}

// --- drills -----------------------------------------------------------------

TEST_F(CoordinatorDrill, DistributedSweepIsByteIdenticalToLocalRun) {
  spawn_worker();
  spawn_worker();
  spawn_worker();
  Server coord(coord_options(workers_));
  coord.start();

  const HttpResponse r = post_sweep(coord.port(), kSweepBody);
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, local_golden(kSweepBody));

  const Metrics::Snapshot m = coord.metrics().snapshot();
  EXPECT_GE(m.coord_points_dispatched, 6u);
  EXPECT_EQ(m.coord_workers_up, 3u);

  // The readiness document reports the fleet.
  const util::JsonValue health =
      util::parse_json(get(coord.port(), "/healthz").body);
  EXPECT_TRUE(health.at("coordinator").at("enabled").as_bool());
  EXPECT_EQ(health.at("coordinator").at("workers").as_int(), 3);

  // A repeat is a cache hit with the same bytes.
  const HttpResponse again = post_sweep(coord.port(), kSweepBody);
  ASSERT_EQ(again.status, 200);
  EXPECT_EQ(again.body, r.body);
  ASSERT_NE(again.header("X-Sqz-Cache"), nullptr);
  EXPECT_EQ(*again.header("X-Sqz-Cache"), "hit");
}

TEST_F(CoordinatorDrill, ScreenedSweepIsCoordinatedByteIdentically) {
  // Screening is retired, so a screened sweep is the exact sweep and shards
  // like any other: the coordinator answers it with the unscreened bytes,
  // under the unscreened request's cache key.
  spawn_worker();
  spawn_worker();
  Server coord(coord_options(workers_));
  coord.start();
  const std::string plain =
      R"({"model":"tinydarknet","sweep":{"knob":"rf_entries","values":[4,8,16]}})";
  const HttpResponse r = post_sweep(
      coord.port(),
      R"({"model":"tinydarknet",)"
      R"("sweep":{"knob":"rf_entries","values":[4,8,16],"screen":true,)"
      R"("screen_keep":0.5}})");
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, local_golden(plain));
  EXPECT_GE(coord.metrics().snapshot().coord_points_dispatched, 3u);

  const HttpResponse again = post_sweep(coord.port(), plain);
  ASSERT_EQ(again.status, 200);
  EXPECT_EQ(again.body, r.body);
  ASSERT_NE(again.header("X-Sqz-Cache"), nullptr);
  EXPECT_EQ(*again.header("X-Sqz-Cache"), "hit");

  const HttpResponse bad = post_sweep(
      coord.port(),
      R"({"model":"tinydarknet",)"
      R"("sweep":{"knob":"rf_entries","values":[4],"screen_keep":0.5}})");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("requires sweep.screen"), std::string::npos)
      << bad.body;
}

TEST_F(CoordinatorDrill, FlatJournalIsNotServedToATimelineSweep) {
  // A sweep journal holds a flat sweep's points; a timeline sweep of the
  // same points through the same journal must simulate them, not restore
  // the flat metrics — run locally and sharded by a coordinator.
  const std::string flat =
      R"({"model":"tinydarknet","sweep":{"knob":"rf_entries","values":[4,8,16]}})";
  const std::string timeline =
      R"({"model":"tinydarknet","options":{"timeline":true,"tile_search":true},)"
      R"("sweep":{"knob":"rf_entries","values":[4,8,16]}})";
  const std::string fresh = local_golden(timeline);
  ASSERT_NE(fresh, local_golden(flat));

  const fs::path local_dir = fs::temp_directory_path() /
                             ("sqz_fidelity_local_" + std::to_string(::getpid()));
  fs::remove_all(local_dir);
  {
    core::SweepJournal journal(local_dir.string());
    EXPECT_EQ(run_sweep(parse_sweep_request(flat), &journal),
              local_golden(flat));
    SweepRunStats stats;
    EXPECT_EQ(run_sweep(parse_sweep_request(timeline), &journal, &stats),
              fresh);
    EXPECT_EQ(stats.resumed, 0u);
  }
  fs::remove_all(local_dir);

  spawn_worker();
  spawn_worker();
  const fs::path dir = fs::temp_directory_path() /
                       ("sqz_fidelity_coord_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  ServerOptions opt = coord_options(workers_);
  opt.sweep_journal_dir = dir.string();
  {
    Server coord(opt);
    coord.start();
    const HttpResponse a = post_sweep(coord.port(), flat);
    ASSERT_EQ(a.status, 200) << a.body;
    EXPECT_EQ(a.body, local_golden(flat));
    const HttpResponse b = post_sweep(coord.port(), timeline);
    ASSERT_EQ(b.status, 200) << b.body;
    EXPECT_EQ(b.body, fresh);
    EXPECT_GE(coord.metrics().snapshot().coord_points_dispatched, 6u);
  }
  fs::remove_all(dir);
}

TEST_F(CoordinatorDrill, WorkerSigkillMidChunkRecoversByteIdentically) {
  spawn_worker();
  spawn_worker();
  // The victim stalls every design point for 5 s, guaranteeing any chunk it
  // receives is still in flight when the SIGKILL lands.
  Proc& victim = spawn_worker("dse.point=stall:5000*64");

  ServerOptions opt = coord_options(workers_);
  opt.coordinator.chunk_points = 1;
  opt.coordinator.straggler_ms = 300;  // steal off the victim promptly
  opt.coordinator.dispatch_attempts = 1;
  Server coord(opt);
  coord.start();

  HttpResponse r;
  std::thread poster([&] { r = post_sweep(coord.port(), kSweepBody); });

  // Wait until the victim is actually holding a chunk (its in-flight gauge
  // counts our /metrics probe too, hence >= 2), then kill it. If the ring
  // happened to give the victim nothing, the kill is a no-op drill and only
  // byte-identity is asserted.
  bool victim_had_chunk = false;
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  while (Clock::now() < deadline) {
    try {
      if (metric(get(victim.port, "/metrics").body,
                 "sqzserved_requests_in_flight") >= 2.0) {
        victim_had_chunk = true;
        break;
      }
    } catch (const FetchError&) {
      break;  // victim already unreachable
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  kill_hard(victim);
  poster.join();

  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, local_golden(kSweepBody));
  if (victim_had_chunk) {
    const Metrics::Snapshot m = coord.metrics().snapshot();
    EXPECT_GE(m.coord_points_requeued + m.coord_steals, 1u)
        << "the victim's chunk must have been re-placed";
  }
}

TEST_F(CoordinatorDrill, StragglerChunkIsStolenAndAnswerIsByteIdentical) {
  spawn_worker();
  spawn_worker();
  ServerOptions opt = coord_options(workers_);
  opt.coordinator.chunk_points = 1;
  opt.coordinator.straggler_ms = 200;
  Server coord(opt);
  coord.start();

  // Stall the first primary dispatch for 1.5 s *inside the coordinator*:
  // the chunk sits InFlight long past straggler_ms, so the monitor must
  // re-dispatch it to the other worker, whose result wins.
  util::fault::arm("coord.steal", util::fault::make_stall(1500), 1);

  const HttpResponse r = post_sweep(coord.port(), kSweepBody);
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, local_golden(kSweepBody));
  EXPECT_GE(coord.metrics().snapshot().coord_steals, 1u);
}

TEST_F(CoordinatorDrill, CoordinatorSigkillThenResumeIsByteIdentical) {
  // Slow every point a little so the kill window (after the first journal
  // record, before the last) is wide and deterministic.
  spawn_worker("dse.point=stall:400*64");
  spawn_worker("dse.point=stall:400*64");

  const fs::path dir = fs::temp_directory_path() /
                       ("sqz_coord_journal_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const std::string worker_list = "127.0.0.1:" +
                                  std::to_string(workers_[0].port) + ",127.0.0.1:" +
                                  std::to_string(workers_[1].port);
  const std::vector<std::string> coord_args = {
      "--workers",       worker_list, "--sweep-journal", dir.string(),
      "--chunk-points",  "1",         "--straggler-ms",  "10000"};
  Proc coord = spawn_served(coord_args);
  ASSERT_GT(coord.port, 0) << read_file(coord.out);

  std::thread poster([&] {
    try {
      post_sweep(coord.port, kSweepBody);
    } catch (const FetchError&) {
      // Expected: the coordinator dies mid-response.
    }
  });

  // SIGKILL the coordinator once at least one completed point has been
  // journaled — the crash-safety contract says everything journaled
  // survives, everything else is simply re-dispatched.
  const fs::path journal = dir / "sweep.sqzj";
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  bool journaled = false;
  while (Clock::now() < deadline) {
    std::error_code ec;
    if (fs::exists(journal, ec) && fs::file_size(journal, ec) > 0) {
      journaled = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(journaled) << "no journal record before the deadline";
  kill_hard(coord);
  poster.join();
  fs::remove(coord.out);

  // Same journal dir, fresh process: the resumed sweep must re-dispatch
  // only the unfinished points and render the identical document.
  Proc resumed = spawn_served(coord_args);
  ASSERT_GT(resumed.port, 0) << read_file(resumed.out);
  const HttpResponse r = post_sweep(resumed.port, kSweepBody);
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, local_golden(kSweepBody));
  if (journaled) {
    EXPECT_GE(metric(get(resumed.port, "/metrics").body,
                     "sqzserved_sweep_resumed_total"),
              1.0);
  }
  stop_gracefully(resumed);
  fs::remove(resumed.out);
  fs::remove_all(dir);
}

TEST_F(CoordinatorDrill, DispatchExhaustionSurfacesStructuredPointErrors) {
  // A fleet of one, and it is a corpse: every dispatch fails fast, the
  // requeue budget burns out, and each point must surface as a structured
  // "dispatch" PointError in a 200 response — never a hang or a 5xx.
  ServerOptions opt;
  opt.port = 0;
  opt.coordinator.workers.push_back("127.0.0.1:" +
                                    std::to_string(dead_port()));
  opt.coordinator.probe.interval_ms = 100;
  opt.coordinator.chunk_points = 2;
  opt.coordinator.dispatch_attempts = 1;
  opt.coordinator.max_requeues = 1;
  Server coord(opt);
  coord.start();

  const std::string body =
      R"({"model":"tinydarknet",)"
      R"("sweep":{"knob":"rf_entries","values":[4,8,16]}})";
  const HttpResponse r = post_sweep(coord.port(), body);
  ASSERT_EQ(r.status, 200) << r.body;

  const util::JsonValue doc = util::parse_json(r.body);
  EXPECT_TRUE(doc.at("points").items.empty());
  const util::JsonValue& errors = doc.at("errors");
  ASSERT_EQ(errors.items.size(), 3u);
  for (const util::JsonValue& e : errors.items) {
    EXPECT_EQ(e.at("phase").as_string(), "dispatch");
    const std::string& key = e.at("key").as_string();
    EXPECT_EQ(key.size(), 16u);  // the sweep engine's own short-key form
    EXPECT_EQ(key.find_first_not_of("0123456789abcdef"), std::string::npos);
    EXPECT_FALSE(e.at("what").as_string().empty());
  }

  // Partial responses are never cached: a retry re-executes.
  const HttpResponse again = post_sweep(coord.port(), body);
  ASSERT_EQ(again.status, 200);
  ASSERT_NE(again.header("X-Sqz-Cache"), nullptr);
  EXPECT_EQ(*again.header("X-Sqz-Cache"), "miss");
}

TEST_F(CoordinatorDrill, JournalAppendFailureIsPhaseJournalLikeALocalRun) {
  // The coordinator journals each point as its chunk lands; a failed append
  // must surface exactly as it does on a single node: a 200 partial whose
  // error entry has phase "journal" under the same label and key.
  const std::string body =
      R"({"model":"tinydarknet","sweep":{"knob":"rf_entries","values":[8]}})";
  const auto errors_of = [](const std::string& response) {
    return util::parse_json(response).at("errors");
  };

  const fs::path local_dir = fs::temp_directory_path() /
                             ("sqz_journal_fail_local_" +
                              std::to_string(::getpid()));
  fs::remove_all(local_dir);
  util::JsonValue local;
  {
    core::SweepJournal journal(local_dir.string());
    util::fault::arm("sweepjournal.append", util::fault::make_errno(ENOSPC), 1);
    local = errors_of(run_sweep(parse_sweep_request(body), &journal));
    util::fault::reset();
  }
  fs::remove_all(local_dir);
  ASSERT_EQ(local.items.size(), 1u);
  const util::JsonValue& want = local.at(std::size_t{0});
  ASSERT_EQ(want.at("phase").as_string(), "journal");

  spawn_worker();
  spawn_worker();
  const fs::path dir = fs::temp_directory_path() /
                       ("sqz_journal_fail_coord_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  ServerOptions opt = coord_options(workers_);
  opt.sweep_journal_dir = dir.string();
  {
    Server coord(opt);
    coord.start();
    util::fault::arm("sweepjournal.append", util::fault::make_errno(ENOSPC), 1);
    const HttpResponse r = post_sweep(coord.port(), body);
    util::fault::reset();
    ASSERT_EQ(r.status, 200) << r.body;
    EXPECT_TRUE(util::parse_json(r.body).at("points").items.empty());
    const util::JsonValue errors = errors_of(r.body);
    ASSERT_EQ(errors.items.size(), 1u);
    const util::JsonValue& got = errors.at(std::size_t{0});
    EXPECT_EQ(got.at("phase").as_string(), "journal");
    EXPECT_EQ(got.at("label").as_string(), want.at("label").as_string());
    EXPECT_EQ(got.at("key").as_string(), want.at("key").as_string());

    // The partial was not cached: the retry re-executes, journals, and
    // answers the uninterrupted bytes.
    const HttpResponse again = post_sweep(coord.port(), body);
    ASSERT_EQ(again.status, 200) << again.body;
    ASSERT_NE(again.header("X-Sqz-Cache"), nullptr);
    EXPECT_EQ(*again.header("X-Sqz-Cache"), "miss");
    EXPECT_EQ(again.body, local_golden(body));
  }
  fs::remove_all(dir);
}

TEST_F(CoordinatorDrill, IdenticalConcurrentSweepsAreByteIdentical) {
  // Both workers stall each point 1.5 s, so the first sweep's chunks are
  // still in flight when the second identical sweep arrives; each run
  // dispatches its own chunks, and both answer the local bytes.
  spawn_worker("dse.point=stall:1500*64");
  spawn_worker("dse.point=stall:1500*64");
  ServerOptions opt = coord_options(workers_);
  opt.coordinator.chunk_points = 4;
  opt.coordinator.straggler_ms = 30000;  // no stealing noise in this drill
  Server coord(opt);
  coord.start();

  HttpResponse first;
  std::thread a([&] { first = post_sweep(coord.port(), kSweepBody); });
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (coord.metrics().snapshot().coord_chunks_inflight == 0 &&
         Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Recorded, not ASSERTed: a fatal bail-out here would destroy `a` while
  // joinable and terminate() the whole test binary.
  const bool saw_inflight =
      coord.metrics().snapshot().coord_chunks_inflight > 0;

  const HttpResponse second = post_sweep(coord.port(), kSweepBody);
  a.join();
  EXPECT_TRUE(saw_inflight);

  ASSERT_EQ(first.status, 200) << first.body;
  ASSERT_EQ(second.status, 200) << second.body;
  EXPECT_EQ(first.body, second.body);
  EXPECT_EQ(first.body, local_golden(kSweepBody));
}

// --- dynamic membership & HA drills -----------------------------------------

// Poll `pred` until it holds or `secs` elapse; returns the final verdict.
template <typename Pred>
bool eventually(Pred pred, int secs = 10) {
  const auto deadline = Clock::now() + std::chrono::seconds(secs);
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

// Healthy members in a coordinator's /healthz membership block; -1 when the
// server is unreachable or not (yet) in a coordinator role.
int healthy_workers(int port) {
  try {
    const util::JsonValue h = util::parse_json(get(port, "/healthz").body);
    return static_cast<int>(
        h.at("membership").at("workers").at("healthy").as_int());
  } catch (...) {
    return -1;
  }
}

TEST_F(CoordinatorDrill, WorkerJoinMidSweepIsByteIdentical) {
  // The static worker stalls every point, keeping the sweep in flight long
  // enough for a second worker to boot with --join and register into the
  // live fleet: the epoch bumps, only the joiner's arcs move, and the
  // answer must still match the uninterrupted single-node run.
  spawn_worker("dse.point=stall:300*64");
  ServerOptions opt = coord_options(workers_);
  opt.coordinator.accept_registrations = true;
  opt.coordinator.chunk_points = 1;
  opt.coordinator.straggler_ms = 30000;  // joins, not steals, move the work
  Server coord(opt);
  coord.start();

  HttpResponse r;
  std::thread poster([&] { r = post_sweep(coord.port(), kSweepBody); });
  EXPECT_TRUE(eventually([&] {
    return coord.metrics().snapshot().coord_chunks_inflight > 0;
  }));

  spawn_worker("", {"--join", "127.0.0.1:" + std::to_string(coord.port()),
                    "--lease-ms", "1000"});
  EXPECT_TRUE(eventually([&] {
    return coord.metrics().snapshot().coord_registers >= 1;
  })) << "the joiner never registered";
  poster.join();

  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, local_golden(kSweepBody));
  EXPECT_GE(coord.metrics().snapshot().coord_epoch, 2u);

  // The readiness document reports the dynamic fleet.
  const util::JsonValue h =
      util::parse_json(get(coord.port(), "/healthz").body);
  const util::JsonValue& membership = h.at("membership");
  EXPECT_EQ(membership.at("role").as_string(), "coordinator");
  EXPECT_GE(membership.at("epoch").as_int(), 2);
  EXPECT_EQ(membership.at("workers").at("healthy").as_int(), 2);
  EXPECT_EQ(membership.at("leases").items.size(), 2u);
}

TEST_F(CoordinatorDrill, GracefulDrainMidSweepRequeuesNothing) {
  // Both workers stall every point, so the sweep is guaranteed to be
  // observably in flight when the SIGTERM lands — a fast survivor must not
  // be able to finish the whole sweep between two polls.
  spawn_worker("dse.point=stall:300*64");  // the survivor
  ServerOptions opt = coord_options(workers_);
  opt.coordinator.accept_registrations = true;
  opt.coordinator.chunk_points = 1;
  opt.coordinator.straggler_ms = 30000;   // a steal would mask a requeue
  opt.coordinator.dispatch_attempts = 1;  // any post-drain dispatch requeues
  Server coord(opt);
  coord.start();

  // The victim joins dynamically and stalls each point, so the SIGTERM
  // lands while it holds an in-flight chunk.
  Proc& victim = spawn_worker(
      "dse.point=stall:300*64",
      {"--join", "127.0.0.1:" + std::to_string(coord.port()), "--lease-ms",
       "2000"});
  ASSERT_TRUE(eventually([&] { return healthy_workers(coord.port()) == 2; }));

  HttpResponse r;
  std::thread poster([&] { r = post_sweep(coord.port(), kSweepBody); });
  // No fatal asserts while the poster is unjoined: a bailed-out test body
  // would terminate() in the thread's destructor and orphan the children.
  const bool in_flight = eventually([&] {
    return coord.metrics().snapshot().coord_chunks_inflight > 0;
  });

  // Planned maintenance: SIGTERM -> finish in-flight chunks, deregister,
  // exit. Zero requeues is the whole point of the drain protocol.
  stop_gracefully(victim);
  poster.join();
  EXPECT_TRUE(in_flight) << "sweep finished before the drain could land";

  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, local_golden(kSweepBody));
  const Metrics::Snapshot m = coord.metrics().snapshot();
  EXPECT_EQ(m.coord_points_requeued, 0u)
      << "a graceful drain must not requeue";
  EXPECT_EQ(m.coord_steals, 0u);

  // The drain deregistered the victim: one departed member, a new epoch.
  const util::JsonValue h =
      util::parse_json(get(coord.port(), "/healthz").body);
  EXPECT_EQ(h.at("membership").at("workers").at("departed").as_int(), 1);
  EXPECT_GE(h.at("membership").at("epoch").as_int(), 3);
}

TEST_F(CoordinatorDrill, DrainFenceHoldsTheDeregisterUntilRoutedChunksLand) {
  // The victim joins first and is the only member, so the run's first two
  // dispatches are routed to it. "coord.steal" then holds both before they
  // connect, the survivor joins, and the victim is SIGTERMed while the two
  // chunks are still on their way. The victim's deregister must not be
  // answered — so its listener must not close — until both have landed.
  ServerOptions opt;
  opt.port = 0;
  opt.coordinator.accept_registrations = true;
  opt.coordinator.probe.interval_ms = 100;
  opt.coordinator.chunk_points = 2;
  opt.coordinator.straggler_ms = 30000;   // a steal would mask a requeue
  opt.coordinator.dispatch_attempts = 1;  // a closed listener requeues
  Server coord(opt);
  coord.start();
  const std::string join = "127.0.0.1:" + std::to_string(coord.port());

  Proc& victim = spawn_worker("", {"--join", join, "--lease-ms", "2000"});
  ASSERT_TRUE(eventually([&] { return healthy_workers(coord.port()) == 1; }));

  util::fault::arm("coord.steal", util::fault::make_stall(1500), 2);
  HttpResponse r;
  std::thread poster([&] { r = post_sweep(coord.port(), kSweepBody); });
  // No fatal asserts while the poster is unjoined (see the drain drill).
  const bool held = eventually(
      [&] { return util::fault::hits("coord.steal") == 2; });
  const auto stalled_at = Clock::now();

  spawn_worker("", {"--join", join, "--lease-ms", "2000"});  // the survivor
  const bool joined =
      eventually([&] { return healthy_workers(coord.port()) == 2; });
  const bool in_stall =
      Clock::now() - stalled_at < std::chrono::milliseconds(1500);
  stop_gracefully(victim);
  poster.join();
  EXPECT_TRUE(held) << "the first dispatches never reached the stall";
  EXPECT_TRUE(joined) << "the survivor never joined";
  EXPECT_TRUE(in_stall) << "the SIGTERM landed after the stall: no fence";

  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, local_golden(kSweepBody));
  const Metrics::Snapshot m = coord.metrics().snapshot();
  EXPECT_EQ(m.coord_points_requeued, 0u)
      << "a chunk routed before the deregister found the listener closed";
  EXPECT_EQ(m.coord_steals, 0u);
  const util::JsonValue h =
      util::parse_json(get(coord.port(), "/healthz").body);
  EXPECT_EQ(h.at("membership").at("workers").at("departed").as_int(), 1);
}

TEST_F(CoordinatorDrill, ForcedLeaseExpiryEvictsAndHeartbeatRejoins) {
  spawn_worker();  // static: keeps the sweep serviceable through the eviction
  ServerOptions opt = coord_options(workers_);
  opt.coordinator.accept_registrations = true;
  Server coord(opt);
  coord.start();

  spawn_worker("", {"--join", "127.0.0.1:" + std::to_string(coord.port()),
                    "--lease-ms", "2000"});
  ASSERT_TRUE(eventually([&] { return healthy_workers(coord.port()) == 2; }));

  // The "coord.lease" fault force-expires the joiner's fresh lease on the
  // prober's next tick — the expiry drill runs at test speed instead of
  // waiting out a real TTL.
  util::fault::arm("coord.lease", util::fault::make_errno(ETIMEDOUT), 1);
  ASSERT_TRUE(eventually([&] {
    return coord.metrics().snapshot().coord_lease_expirations >= 1;
  }));
  util::fault::reset();

  // The evicted worker's next heartbeat re-registers it (exactly what a
  // healed partition looks like): two healthy members on a fresh epoch.
  EXPECT_TRUE(eventually([&] { return healthy_workers(coord.port()) == 2; }));

  const HttpResponse r = post_sweep(coord.port(), kSweepBody);
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, local_golden(kSweepBody));
  // Boot(1) -> join(2) -> expire(3) -> rejoin(4); churn may add more.
  EXPECT_GE(coord.metrics().snapshot().coord_epoch, 4u);
}

TEST_F(CoordinatorDrill, StandbyTakesOverAfterPrimarySigkill) {
  const fs::path dir = fs::temp_directory_path() /
                       ("sqz_ha_journal_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  // The primary runs as a child so the SIGKILL takes a whole process with
  // its sockets; the standby runs in-process so its role and Metrics are
  // inspectable.
  Proc primary = spawn_served({"--coordinator", "--sweep-journal",
                               dir.string(), "--chunk-points", "1",
                               "--straggler-ms", "10000"});
  ASSERT_GT(primary.port, 0) << read_file(primary.out);

  ServerOptions sopt;
  sopt.port = 0;
  sopt.standby_of = "127.0.0.1:" + std::to_string(primary.port);
  sopt.sweep_journal_dir = dir.string();
  sopt.coordinator.probe.interval_ms = 100;
  sopt.coordinator.chunk_points = 1;
  sopt.coordinator.straggler_ms = 10000;
  Server standby(sopt);
  standby.start();
  ASSERT_TRUE(standby.standby());

  // Passive standby: refuses work with 503 (not 404 — it will serve later).
  EXPECT_EQ(post_sweep(standby.port(), kSweepBody, 10000).status, 503);
  {
    const util::JsonValue h =
        util::parse_json(get(standby.port(), "/healthz").body);
    EXPECT_EQ(h.at("membership").at("role").as_string(), "standby");
  }

  // Two workers join both coordinators; the primary (listed first) wins
  // their heartbeats while it lives. Points stall a little so the kill
  // lands mid-sweep, after a journaled prefix.
  const std::string join_list = "127.0.0.1:" + std::to_string(primary.port) +
                                ",127.0.0.1:" +
                                std::to_string(standby.port());
  spawn_worker("dse.point=stall:400*64",
               {"--join", join_list, "--lease-ms", "5000"});
  spawn_worker("dse.point=stall:400*64",
               {"--join", join_list, "--lease-ms", "5000"});
  ASSERT_TRUE(eventually([&] { return healthy_workers(primary.port) == 2; }));

  std::thread poster([&] {
    try {
      post_sweep(primary.port, kSweepBody);
    } catch (const FetchError&) {
      // Expected: the primary dies mid-response.
    }
  });

  // Wait for at least one *completed point* (sqzw1) in the shared journal.
  // The kill and the join come before any fatal assert so the poster thread
  // can never be destroyed joinable.
  const fs::path journal = dir / "sweep.sqzj";
  const bool journaled = eventually(
      [&] { return read_file(journal).find("sqzw1") != std::string::npos; },
      30);
  kill_hard(primary);
  poster.join();
  fs::remove(primary.out);
  ASSERT_TRUE(journaled) << "no journaled point before the deadline";

  // The journal lock died with the primary; the standby's next attempt
  // takes it and promotes — exactly once.
  ASSERT_TRUE(eventually([&] { return !standby.standby(); }, 15))
      << "standby never took over";
  EXPECT_EQ(standby.metrics().snapshot().coord_takeovers, 1u);

  // The workers' heartbeats, rotating away from the dead primary, hand the
  // new coordinator the fleet.
  ASSERT_TRUE(
      eventually([&] { return healthy_workers(standby.port()) == 2; }, 15));

  // The resumed sweep is byte-identical, with the journaled prefix served
  // without re-simulation.
  const HttpResponse r = post_sweep(standby.port(), kSweepBody);
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, local_golden(kSweepBody));
  EXPECT_GE(metric(get(standby.port(), "/metrics").body,
                   "sqzserved_sweep_resumed_total"),
            1.0);
  const util::JsonValue h =
      util::parse_json(get(standby.port(), "/healthz").body);
  EXPECT_EQ(h.at("membership").at("role").as_string(), "coordinator");
  fs::remove_all(dir);
}

TEST_F(CoordinatorDrill, PartitionedStandbyRefusesTakeoverWhilePrimaryLives) {
  // The split-brain fence: the journal's writer lock is the election. A
  // live primary holds it, so the standby stays passive however long it
  // waits and whether or not it can reach the primary — two concurrent
  // writers would interleave appends and corrupt the shared journal both
  // sides recover from. No fault is armed: the lock alone decides.
  const fs::path dir = fs::temp_directory_path() /
                       ("sqz_ha_partition_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  // A live in-process primary holding the journal's writer lock.
  ServerOptions popt;
  popt.port = 0;
  popt.sweep_journal_dir = dir.string();
  auto primary = std::make_unique<Server>(popt);
  primary->start();

  ServerOptions sopt;
  sopt.port = 0;
  sopt.standby_of = "127.0.0.1:" + std::to_string(primary->port());
  sopt.sweep_journal_dir = dir.string();
  sopt.coordinator.probe.interval_ms = 100;
  Server standby(sopt);
  standby.start();
  ASSERT_TRUE(standby.standby());

  // Fifteen probe intervals: every promotion attempt finds the lock held.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  EXPECT_TRUE(standby.standby()) << "standby promoted into split-brain";
  EXPECT_EQ(standby.metrics().snapshot().coord_takeovers, 0u);

  // The primary, sole writer all along, journals cleanly.
  const HttpResponse r = post_sweep(primary->port(), kSweepBody);
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, local_golden(kSweepBody));

  // A graceful stop releases the lock with the primary (as its process
  // exit would): the standby promotes exactly once, onto the primary's
  // six journaled points.
  primary->stop();
  primary.reset();
  ASSERT_TRUE(eventually([&] { return !standby.standby(); }, 15))
      << "standby never took over";
  EXPECT_EQ(standby.metrics().snapshot().coord_takeovers, 1u);
  const util::JsonValue h =
      util::parse_json(get(standby.port(), "/healthz").body);
  EXPECT_EQ(h.at("membership").at("role").as_string(), "coordinator");
  EXPECT_EQ(h.at("journal").at("recovered_records").as_int(), 6);
  fs::remove_all(dir);
}

TEST_F(CoordinatorDrill, JoinerRenewsAtTheGrantedLeaseNotTheRequestedOne) {
  ServerOptions copt;
  copt.port = 0;
  copt.coordinator.accept_registrations = true;
  copt.coordinator.probe.interval_ms = 100;
  Server coord(copt);
  coord.start();

  // The worker asks for a 50 ms TTL — below the coordinator's floor
  // (WorkerPool::kMinLeaseMs), so the register response carries a clamped
  // grant. In-process so its /healthz membership block is inspectable.
  ServerOptions wopt;
  wopt.port = 0;
  wopt.joiner.endpoints.push_back(
      parse_host_port("127.0.0.1:" + std::to_string(coord.port()), "--join"));
  wopt.joiner.lease_ms = 50;
  Server worker(wopt);
  worker.start();
  ASSERT_TRUE(eventually([&] { return healthy_workers(coord.port()) == 1; }));

  // The joiner adopted the granted TTL from the response body — a cadence
  // computed from the requested TTL would be wrong whenever the grant
  // differs (and would lapse the lease whenever the grant is shorter).
  const util::JsonValue h =
      util::parse_json(get(worker.port(), "/healthz").body);
  EXPECT_EQ(h.at("membership").at("role").as_string(), "worker");
  EXPECT_TRUE(h.at("membership").at("joined").as_bool());
  EXPECT_EQ(h.at("membership").at("lease_ms").as_int(), WorkerPool::kMinLeaseMs);

  // And renewing at granted/3 actually holds the short lease: several TTL
  // windows pass with no expiry.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(coord.metrics().snapshot().coord_lease_expirations, 0u);
  EXPECT_EQ(healthy_workers(coord.port()), 1);
}

TEST_F(CoordinatorDrill, RefusedRegistrationIsRetriedUntilAdmitted) {
  // A pure-registration fleet: the coordinator starts empty and the armed
  // "coord.register" fault refuses the first two attempts, so only the
  // joiner's jittered retry loop can carry it into the fleet.
  ServerOptions opt;
  opt.port = 0;
  opt.coordinator.accept_registrations = true;
  opt.coordinator.probe.interval_ms = 100;
  opt.coordinator.chunk_points = 2;
  Server coord(opt);
  coord.start();
  util::fault::arm("coord.register", util::fault::make_errno(ECONNREFUSED), 2);

  spawn_worker("", {"--join", "127.0.0.1:" + std::to_string(coord.port()),
                    "--lease-ms", "1000"});
  ASSERT_TRUE(eventually([&] { return healthy_workers(coord.port()) == 1; }));
  EXPECT_EQ(util::fault::hits("coord.register"), 2u);
  util::fault::reset();

  const std::string body =
      R"({"model":"tinydarknet",)"
      R"("sweep":{"knob":"rf_entries","values":[4,8]}})";
  const HttpResponse r = post_sweep(coord.port(), body);
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, local_golden(body));
}

TEST_F(CoordinatorDrill, WorkerPointErrorsPassThroughByteIdentically) {
  // sparsity 1.5 fails core/validate on the worker (phase "validate"); the
  // coordinator must pass the structured error through and still match the
  // local partial dump byte for byte.
  spawn_worker();
  Server coord(coord_options(workers_));
  coord.start();

  const std::string body =
      R"({"model":"tinydarknet",)"
      R"("sweep":{"knob":"sparsity","values":[0.0,0.5,1.5]}})";
  const HttpResponse r = post_sweep(coord.port(), body);
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, local_golden(body));

  const util::JsonValue doc = util::parse_json(r.body);
  EXPECT_EQ(doc.at("points").items.size(), 2u);
  ASSERT_EQ(doc.at("errors").items.size(), 1u);
  EXPECT_EQ(doc.at("errors").at(std::size_t{0}).at("phase").as_string(),
            "validate");
}

// --- event-driven waits ------------------------------------------------------

// The /v1/sweep body a coordinator posts for a sweep that fits one chunk:
// the model as text, the config as INI, every option explicit (as
// coordinator.cpp renders chunk requests).
std::string single_chunk_body(const std::string& sweep_body) {
  const SweepRequest req = parse_sweep_request(sweep_body);
  std::string body;
  util::JsonWriter w(body, /*indent=*/0);
  w.begin_object();
  w.member("model_text", nn::serialize_model(req.base.model));
  w.member("config_ini", core::config_to_ini(req.base.config));
  w.key("options");
  w.begin_object();
  w.member("objective", req.base.options.objective == sched::Objective::Energy
                            ? "energy"
                            : "cycles");
  w.member("timeline", req.base.options.tile_timeline);
  w.member("double_buffered", req.base.options.double_buffered);
  w.member("tile_search", req.base.options.tile_search);
  w.member("fuse", req.base.options.fuse_pool_drain);
  w.end_object();
  w.key("sweep");
  w.begin_object();
  w.member("knob", req.knob);
  w.key("values");
  w.begin_array();
  for (const double v : req.values) w.value(v);
  w.end_array();
  w.end_object();
  w.end_object();
  return body;
}

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

TEST_F(CoordinatorDrill, FleetSweepIsNotHeldBackByATick) {
  // A coordinator in front of one in-process worker, and an identical twin
  // worker outside the fleet as the reference. Each round sweeps new design
  // points through the fleet and posts the same chunk bodies straight to
  // the twin: both workers simulate them cold, so the difference is what
  // the coordinator adds. A run that waited on a clock would add at least
  // one tick to every sweep. Each side's latency in a round is the best of
  // three sweeps, so one scheduler stall on a loaded host (the sanitizer
  // job runs suites in parallel) cannot decide a round; a tick is in every
  // sweep and survives the minimum.
  ServerOptions wopt;
  wopt.port = 0;
  Server worker(wopt);
  worker.start();
  Server twin(wopt);
  twin.start();
  ServerOptions opt;
  opt.port = 0;
  opt.coordinator.workers = {"127.0.0.1:" + std::to_string(worker.port())};
  Server coord(opt);
  coord.start();

  int next_value = 16;
  const auto new_point = [&] {
    return R"({"model":"tinydarknet","sweep":{"knob":"rf_entries","values":[)" +
           std::to_string(next_value++) + "]}}";
  };
  const auto best_of_3_ms = [](int port, const std::vector<std::string>& bodies) {
    double best = 1e9;
    for (const std::string& body : bodies) {
      const Clock::time_point t0 = Clock::now();
      const HttpResponse r = post_sweep(port, body);
      best = std::min(best, elapsed_ms(t0));
      EXPECT_EQ(r.status, 200) << r.body;
      EXPECT_NE(r.body.find("\"points\""), std::string::npos) << r.body;
    }
    return best;
  };
  std::vector<double> overhead_ms;
  std::string last;
  for (int round = 0; round < 11; ++round) {
    std::vector<std::string> direct;
    std::vector<std::string> fleet;
    for (int k = 0; k < 3; ++k) direct.push_back(single_chunk_body(new_point()));
    for (int k = 0; k < 3; ++k) fleet.push_back(last = new_point());
    const double direct_ms = best_of_3_ms(twin.port(), direct);
    const double fleet_ms = best_of_3_ms(coord.port(), fleet);
    overhead_ms.push_back(fleet_ms - direct_ms);
  }
  EXPECT_EQ(coord.metrics().snapshot().coord_points_dispatched, 33u);
  // The twin ran what the coordinator sends: the reference body for the
  // fleet's last point hits the fleet worker's cache.
  const HttpResponse again = post_sweep(worker.port(), single_chunk_body(last));
  ASSERT_NE(again.header("X-Sqz-Cache"), nullptr);
  EXPECT_EQ(*again.header("X-Sqz-Cache"), "hit");

  std::sort(overhead_ms.begin(), overhead_ms.end());
  std::string all;
  for (const double ms : overhead_ms) all += " " + std::to_string(ms);
  EXPECT_LT(overhead_ms[5], 10.0) << "coordinator overhead per round (ms):"
                                  << all;
}

TEST_F(CoordinatorDrill, NoUsableWorkerParksEachChunkUntilItsRequeuesRunOut) {
  // A fleet of one live worker that every health probe fails: one failure
  // ejects it, and a probation trial fails again. Every chunk then finds
  // no usable worker, parks for a beat per requeue, and fails with a
  // "dispatch" PointError once the requeue budget is spent.
  ServerOptions wopt;
  wopt.port = 0;
  Server worker(wopt);
  worker.start();
  ServerOptions opt;
  opt.port = 0;
  opt.coordinator.workers = {"127.0.0.1:" + std::to_string(worker.port())};
  opt.coordinator.probe.interval_ms = 20;
  opt.coordinator.probe.fail_threshold = 1;
  opt.coordinator.chunk_points = 2;
  util::fault::arm("coord.health", util::fault::make_errno(ECONNREFUSED),
                   1 << 30);
  Server coord(opt);
  coord.start();
  ASSERT_TRUE(eventually([&] {
    return util::parse_json(get(coord.port(), "/healthz").body)
               .at("coordinator")
               .at("workers_up")
               .as_int() == 0;
  }));

  const std::string body =
      R"({"model":"tinydarknet",)"
      R"("sweep":{"knob":"rf_entries","values":[4,8,16]}})";
  const Clock::time_point t0 = Clock::now();
  const HttpResponse r = post_sweep(coord.port(), body);
  EXPECT_LT(elapsed_ms(t0), 5000.0);
  ASSERT_EQ(r.status, 200) << r.body;

  const util::JsonValue doc = util::parse_json(r.body);
  EXPECT_TRUE(doc.at("points").items.empty());
  const util::JsonValue& errors = doc.at("errors");
  ASSERT_EQ(errors.items.size(), 3u);
  for (const util::JsonValue& e : errors.items) {
    EXPECT_EQ(e.at("phase").as_string(), "dispatch");
    EXPECT_NE(e.at("what").as_string().find("no usable worker"),
              std::string::npos)
        << e.at("what").as_string();
  }
  const Metrics::Snapshot m = coord.metrics().snapshot();
  EXPECT_EQ(m.coord_points_requeued,
            static_cast<std::uint64_t>(opt.coordinator.max_requeues) * 3u);
  EXPECT_EQ(m.coord_points_dispatched, 0u);
}

}  // namespace
}  // namespace sqz::serve
