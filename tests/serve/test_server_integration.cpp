// Loopback integration: an in-process sqzserved Server must answer with the
// exact bytes the local CLI produces (`sqzsim --json` for /v1/simulate,
// `sqzsim --dump-rf-sweep` for /v1/sweep), and repeated requests must come
// out of the content-addressed cache. Running the server in-process keeps
// the report provenance (jobs, host concurrency) identical on both sides,
// which is what makes byte-for-byte comparison meaningful.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cli.h"
#include "serve/api.h"
#include "serve/http.h"
#include "serve/server.h"
#include "util/json_parse.h"
#include "util/threadpool.h"

namespace sqz::serve {
namespace {

namespace fs = std::filesystem;

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun cli(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = core::run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

HttpResponse post(int port, const std::string& target,
                  const std::string& body) {
  HttpRequest req;
  req.method = "POST";
  req.target = target;
  req.headers.emplace_back("Content-Type", "application/json");
  req.body = body;
  return http_fetch("127.0.0.1", port, std::move(req));
}

HttpResponse get(int port, const std::string& target) {
  HttpRequest req;
  req.method = "GET";
  req.target = target;
  return http_fetch("127.0.0.1", port, std::move(req));
}

// One ephemeral-port server shared by the suite (startup is cheap, but the
// simulations behind the identity checks are not worth repeating per test).
class ServerIntegration : public ::testing::Test {
 protected:
  static Server* server_;

  static void SetUpTestSuite() {
    ServerOptions opt;
    opt.port = 0;  // ephemeral
    opt.cache_entries = 64;
    server_ = new Server(opt);
    server_->start();
  }

  static void TearDownTestSuite() {
    delete server_;  // ~Server drains and joins
    server_ = nullptr;
  }

  int port() const { return server_->port(); }
};

Server* ServerIntegration::server_ = nullptr;

TEST_F(ServerIntegration, HealthzAnswersOk) {
  const HttpResponse r = get(port(), "/healthz");
  EXPECT_EQ(r.status, 200);  // the bare liveness contract: 200 = alive
  // The body is a readiness JSON document now; probe the load-bearing
  // members rather than pinning every byte.
  const util::JsonValue doc = util::parse_json(r.body);
  EXPECT_EQ(doc.at("status").as_string(), "ok");
  EXPECT_GE(doc.at("requests_in_flight").as_int(), 1);  // this request
  EXPECT_GE(doc.at("dispatch_queue_depth").as_int(), 0);
  EXPECT_EQ(doc.at("cache").at("disk_tier").as_string(), "disabled");
  EXPECT_FALSE(doc.at("journal").at("enabled").as_bool());
  EXPECT_FALSE(doc.at("coordinator").at("enabled").as_bool());
  EXPECT_EQ(doc.at("coordinator").at("workers").as_int(), 0);
}

TEST_F(ServerIntegration, SimulateMatchesLocalJsonByteForByte) {
  const fs::path json = fs::temp_directory_path() / "sqz_serve_local.json";
  const CliRun local = cli({"--model", "squeezenet11", "--json", json.string()});
  ASSERT_EQ(local.code, 0) << local.err;
  const std::string expected = read_file(json);
  fs::remove(json);
  ASSERT_FALSE(expected.empty());

  const HttpResponse r =
      post(port(), "/v1/simulate", R"({"model":"squeezenet11"})");
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.body, expected);  // byte-identical to `sqzsim --json`
}

TEST_F(ServerIntegration, RepeatRequestsAreServedFromCache) {
  const std::string body =
      R"({"model":"squeezenet11","config":{"rf_entries":8}})";
  const std::uint64_t hits_before = server_->cache().stats().hits;

  const HttpResponse first = post(port(), "/v1/simulate", body);
  ASSERT_EQ(first.status, 200) << first.body;
  ASSERT_NE(first.header("X-Sqz-Cache"), nullptr);
  EXPECT_EQ(*first.header("X-Sqz-Cache"), "miss");

  const HttpResponse second = post(port(), "/v1/simulate", body);
  ASSERT_EQ(second.status, 200);
  ASSERT_NE(second.header("X-Sqz-Cache"), nullptr);
  EXPECT_EQ(*second.header("X-Sqz-Cache"), "hit");
  EXPECT_EQ(second.body, first.body);
  EXPECT_EQ(server_->cache().stats().hits, hits_before + 1);

  // /metrics reflects the counter.
  const HttpResponse metrics = get(port(), "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("sqzserved_cache_hits_total " +
                              std::to_string(hits_before + 1)),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("sqzserved_requests_total"), std::string::npos);
}

TEST_F(ServerIntegration, ConnectModeMatchesLocalJsonByteForByte) {
  const fs::path json = fs::temp_directory_path() / "sqz_serve_connect.json";
  const CliRun local = cli({"--model", "tinydarknet", "--json", json.string()});
  ASSERT_EQ(local.code, 0) << local.err;
  const std::string expected = read_file(json);
  fs::remove(json);

  const std::string endpoint = "127.0.0.1:" + std::to_string(port());
  const CliRun remote = cli({"--connect", endpoint, "--model", "tinydarknet"});
  ASSERT_EQ(remote.code, 0) << remote.err;
  EXPECT_EQ(remote.out, expected);

  // --json writes the response to a file, same as a local run.
  const fs::path remote_json =
      fs::temp_directory_path() / "sqz_serve_connect2.json";
  const CliRun to_file = cli({"--connect", endpoint, "--model", "tinydarknet",
                              "--json", remote_json.string()});
  ASSERT_EQ(to_file.code, 0) << to_file.err;
  EXPECT_TRUE(to_file.out.empty());
  EXPECT_EQ(read_file(remote_json), expected);
  fs::remove(remote_json);
}

TEST_F(ServerIntegration, SweepMatchesLocalDumpByteForByte) {
  const CliRun local = cli({"--model", "sqnxt23", "--dump-rf-sweep"});
  ASSERT_EQ(local.code, 0) << local.err;

  const HttpResponse direct = post(
      port(), "/v1/sweep",
      R"({"model":"sqnxt23","sweep":{"knob":"rf_entries","values":[8,16]}})");
  ASSERT_EQ(direct.status, 200) << direct.body;
  EXPECT_EQ(direct.body, local.out);

  const std::string endpoint = "127.0.0.1:" + std::to_string(port());
  const CliRun remote =
      cli({"--connect", endpoint, "--model", "sqnxt23", "--dump-rf-sweep"});
  ASSERT_EQ(remote.code, 0) << remote.err;
  EXPECT_EQ(remote.out, local.out);
}

TEST_F(ServerIntegration, ScreenedSweepAnswersTheUnscreenedBytes) {
  // Screening is retired: --screen and "screen":true run the exact sweep.
  const CliRun local =
      cli({"--model", "tinydarknet", "--sweep", "rf_entries=4,8,16"});
  ASSERT_EQ(local.code, 0) << local.err;
  const CliRun local_screened =
      cli({"--model", "tinydarknet", "--sweep", "rf_entries=4,8,16",
           "--screen", "--screen-keep", "0.5"});
  ASSERT_EQ(local_screened.code, 0) << local_screened.err;
  EXPECT_EQ(local_screened.out, local.out);

  const HttpResponse screened = post(
      port(), "/v1/sweep",
      R"({"model":"tinydarknet","sweep":{"knob":"rf_entries",)"
      R"("values":[4,8,16],"screen":true,"screen_keep":0.5}})");
  ASSERT_EQ(screened.status, 200) << screened.body;
  EXPECT_EQ(screened.body, local.out);

  // Same canonical key: the unscreened request is served from the cache.
  const HttpResponse plain = post(
      port(), "/v1/sweep",
      R"({"model":"tinydarknet","sweep":{"knob":"rf_entries",)"
      R"("values":[4,8,16]}})");
  ASSERT_EQ(plain.status, 200) << plain.body;
  EXPECT_EQ(plain.body, local.out);
  ASSERT_NE(plain.header("X-Sqz-Cache"), nullptr);
  EXPECT_EQ(*plain.header("X-Sqz-Cache"), "hit");

  const HttpResponse bad = post(
      port(), "/v1/sweep",
      R"({"model":"tinydarknet","sweep":{"knob":"rf_entries",)"
      R"("values":[4],"screen":true,"screen_keep":2}})");
  EXPECT_EQ(bad.status, 400);

  const std::string endpoint = "127.0.0.1:" + std::to_string(port());
  const CliRun remote = cli({"--connect", endpoint, "--model", "sqnxt23",
                             "--dump-rf-sweep", "--screen"});
  ASSERT_EQ(remote.code, 0) << remote.err;
  EXPECT_EQ(remote.out, cli({"--model", "sqnxt23", "--dump-rf-sweep"}).out);

  EXPECT_EQ(get(port(), "/metrics").body.find("sqzserved_screen_"),
            std::string::npos);
}

TEST_F(ServerIntegration, ErrorPathsMapToHttpStatuses) {
  EXPECT_EQ(get(port(), "/nope").status, 404);
  EXPECT_EQ(get(port(), "/v1/simulate").status, 405);

  const HttpResponse bad = post(port(), "/v1/simulate", "{not json");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("\"error\""), std::string::npos);

  const HttpResponse unknown =
      post(port(), "/v1/simulate", R"({"model":"resnet50"})");
  EXPECT_EQ(unknown.status, 400);
  EXPECT_NE(unknown.body.find("unknown model"), std::string::npos);
}

TEST_F(ServerIntegration, CliConnectRejectsLocalOnlyFlagsAndBadEndpoints) {
  const std::string endpoint = "127.0.0.1:" + std::to_string(port());
  const CliRun csv =
      cli({"--connect", endpoint, "--model", "sqnxt23", "--csv"});
  EXPECT_EQ(csv.code, 1);
  EXPECT_NE(csv.err.find("local-only"), std::string::npos);

  EXPECT_EQ(cli({"--connect", "nocolon"}).code, 1);
  EXPECT_EQ(cli({"--connect", "127.0.0.1:notaport"}).code, 1);
  // Nothing listens on port 1: connect refused maps to a clean failure.
  // --retries 0 keeps the test fast (the default client policy retries).
  const CliRun refused = cli({"--connect", "127.0.0.1:1", "--retries", "0"});
  EXPECT_EQ(refused.code, 1);
  EXPECT_FALSE(refused.err.empty());
  EXPECT_EQ(cli({"--connect", "127.0.0.1:1", "--retries", "pig"}).code, 1);
}

TEST_F(ServerIntegration, ConcurrentMixedRequestsAllSucceed) {
  std::vector<std::thread> threads;
  std::vector<int> statuses(6, 0);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([this, t, &statuses] {
      const std::string body =
          t % 2 == 0
              ? R"({"model":"squeezenet11"})"
              : R"({"model":"squeezenet11","config":{"rf_entries":8}})";
      statuses[t] = post(port(), "/v1/simulate", body).status;
    });
  }
  for (auto& th : threads) th.join();
  for (const int s : statuses) EXPECT_EQ(s, 200);
}

TEST(ServeShutdown, StopDrainsAndIsIdempotent) {
  ServerOptions opt;
  opt.port = 0;
  Server server(opt);
  server.start();
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(get(server.port(), "/healthz").status, 200);
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_THROW(get(server.port(), "/healthz"), std::runtime_error);
  server.stop();  // idempotent
}

TEST(ServeShutdown, DiskCacheWarmsTheNextServer) {
  const fs::path dir = fs::temp_directory_path() / "sqz_serve_disk_cache";
  fs::remove_all(dir);
  const std::string body = R"({"model":"tinydarknet"})";

  std::string first_body;
  {
    ServerOptions opt;
    opt.port = 0;
    opt.cache_dir = dir.string();
    Server server(opt);
    server.start();
    const HttpResponse r = post(server.port(), "/v1/simulate", body);
    ASSERT_EQ(r.status, 200) << r.body;
    first_body = r.body;
  }
  {
    ServerOptions opt;
    opt.port = 0;
    opt.cache_dir = dir.string();
    Server server(opt);
    server.start();
    const HttpResponse r = post(server.port(), "/v1/simulate", body);
    ASSERT_EQ(r.status, 200);
    ASSERT_NE(r.header("X-Sqz-Cache"), nullptr);
    EXPECT_EQ(*r.header("X-Sqz-Cache"), "hit");  // warmed from disk
    EXPECT_EQ(r.body, first_body);
    EXPECT_EQ(server.cache().stats().disk_hits, 1u);
  }
  fs::remove_all(dir);
}

TEST(ServeSweepJournal, DaemonRestartResumesJournaledSweeps) {
  const fs::path dir = fs::temp_directory_path() / "sqz_served_journal";
  fs::remove_all(dir);
  const std::string body =
      R"({"model":"squeezenet11","sweep":{"knob":"rf_entries","values":[8,16]}})";

  std::string first_body;
  {
    ServerOptions opt;
    opt.port = 0;
    opt.sweep_journal_dir = dir.string();
    Server server(opt);
    server.start();
    const HttpResponse r = post(server.port(), "/v1/sweep", body);
    ASSERT_EQ(r.status, 200) << r.body;
    first_body = r.body;
    const auto m = server.metrics().snapshot();
    EXPECT_EQ(m.sweep_points_total, 2u);
    EXPECT_EQ(m.sweep_point_errors_total, 0u);
    EXPECT_EQ(m.sweep_resumed_total, 0u);
  }
  {
    // Restarted daemon, same journal dir, empty in-memory cache: the sweep
    // restores from the journal instead of re-simulating, byte-identically.
    ServerOptions opt;
    opt.port = 0;
    opt.sweep_journal_dir = dir.string();
    Server server(opt);
    server.start();
    const HttpResponse r = post(server.port(), "/v1/sweep", body);
    ASSERT_EQ(r.status, 200) << r.body;
    EXPECT_EQ(r.body, first_body);
    EXPECT_EQ(server.metrics().snapshot().sweep_resumed_total, 2u);
  }
  fs::remove_all(dir);
}

TEST(ServeSweepJournal, PartialSweepCountsOnMetricsAndIsNotCached) {
  ServerOptions opt;
  opt.port = 0;
  Server server(opt);
  server.start();
  const std::string body =
      R"({"model":"squeezenet11","sweep":{"knob":"array_n","values":[16,2000]}})";

  const HttpResponse first = post(server.port(), "/v1/sweep", body);
  ASSERT_EQ(first.status, 200) << first.body;  // partial, not a 4xx/5xx
  EXPECT_NE(first.body.find("\"errors\""), std::string::npos);
  EXPECT_NE(first.body.find("\"phase\": \"validate\""), std::string::npos);

  // The repeat is a miss (partial bodies are never cached) with identical
  // bytes, and the counters account for both runs.
  const HttpResponse second = post(server.port(), "/v1/sweep", body);
  ASSERT_EQ(second.status, 200);
  ASSERT_NE(second.header("X-Sqz-Cache"), nullptr);
  EXPECT_EQ(*second.header("X-Sqz-Cache"), "miss");
  EXPECT_EQ(second.body, first.body);

  const auto m = server.metrics().snapshot();
  EXPECT_EQ(m.sweep_points_total, 2u);        // one good point per run
  EXPECT_EQ(m.sweep_point_errors_total, 2u);  // one failure per run
  EXPECT_EQ(m.sweeps_partial_total, 2u);

  const HttpResponse metrics = get(server.port(), "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("sqzserved_sweep_points_total 2"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("sqzserved_sweep_point_errors_total 2"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("sqzserved_sweeps_partial_total 2"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("sqzserved_sweep_resumed_total 0"),
            std::string::npos);
}

TEST(ServeSweepParallel, ResponsesAreByteIdenticalAcrossJobCounts) {
  // Served sweeps fan out on the global simulation pool from a dispatch-pool
  // handler. Results land in position-indexed slots, so the response bytes
  // must not depend on the pool width, and must equal run_sweep called from
  // a plain thread.
  const std::vector<std::string> bodies = {
      R"({"model":"squeezenet11","sweep":{"knob":"rf_entries",)"
      R"("values":[4,8,16,32]}})",
      R"({"model":"tinydarknet","options":{"tile_search":true},)"
      R"("sweep":{"knob":"array_n","values":[8,16,32]}})",
      // array_n=2000 fails pre-flight: a partial response with a PointError.
      R"({"model":"squeezenet11","sweep":{"knob":"array_n",)"
      R"("values":[8,2000,16]}})",
  };
  std::vector<std::string> expected;
  for (const std::string& body : bodies)
    expected.push_back(run_sweep(parse_sweep_request(body)));
  ASSERT_NE(expected[2].find("\"errors\""), std::string::npos);

  for (const int jobs : {1, 4}) {
    util::ThreadPool::set_global_jobs(jobs);
    ServerOptions opt;
    opt.port = 0;
    Server server(opt);  // a fresh cache per width: every sweep executes
    server.start();
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      const HttpResponse r = post(server.port(), "/v1/sweep", bodies[i]);
      ASSERT_EQ(r.status, 200) << r.body;
      ASSERT_NE(r.header("X-Sqz-Cache"), nullptr);
      EXPECT_EQ(*r.header("X-Sqz-Cache"), "miss");
      EXPECT_EQ(r.body, expected[i]) << "jobs=" << jobs << " sweep " << i;
    }
  }
  util::ThreadPool::set_global_jobs(0);  // back to the default policy
}

}  // namespace
}  // namespace sqz::serve
