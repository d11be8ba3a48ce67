// Chaos drills for the serving stack: every registered fault point
// (serve.accept / serve.recv / serve.send / simcache.read / simcache.write /
// plan.read / plan.write)
// is fired against a live loopback server, and the retrying client must
// come back with bytes identical to the fault-free run. Also covers the
// operator-facing guarantees: load shedding with 503 + Retry-After, idle
// keep-alive reaping, 408/413 deadlines and caps, and a stop() that drains
// cleanly while a fault is mid-flight (the daemon's SIGTERM path).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "serve/http.h"
#include "serve/server.h"
#include "util/faultinject.h"

namespace sqz::serve {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr const char* kBody = R"({"model":"tinydarknet"})";

HttpRequest simulate_request(const std::string& body = kBody) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/v1/simulate";
  req.headers.emplace_back("Content-Type", "application/json");
  req.body = body;
  return req;
}

HttpResponse post(int port, const std::string& body = kBody) {
  return http_fetch("127.0.0.1", port, simulate_request(body));
}

HttpResponse get(int port, const std::string& target) {
  HttpRequest req;
  req.method = "GET";
  req.target = target;
  return http_fetch("127.0.0.1", port, std::move(req));
}

// Retry policy tuned for tests: deterministic jitter stream, short sleeps.
RetryPolicy fast_retry(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.base_ms = 20;
  policy.cap_ms = 300;
  return policy;
}

HttpResponse post_retry(int port, int max_attempts,
                        int* attempts_out = nullptr,
                        const std::string& body = kBody) {
  return http_fetch_retry("127.0.0.1", port, simulate_request(body),
                          /*timeout_ms=*/60000, fast_retry(max_attempts),
                          attempts_out);
}

// A hand-driven socket for the scenarios http_fetch cannot express:
// half-sent requests, keep-alive squatting, watching for a server close.
struct RawClient {
  int fd = -1;

  explicit RawClient(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }

  ~RawClient() { close(); }

  void close() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  bool send_bytes(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Read until the server closes the connection or the deadline passes.
  std::string drain(int timeout_ms) {
    std::string got;
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    char chunk[4096];
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) return got;
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left)) <= 0) return got;
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return got;  // closed (or reset): we have what we have
      got.append(chunk, static_cast<std::size_t>(n));
    }
  }

  // Read until `needle` shows up in the stream (e.g. the end of a response
  // body we know), or give up at the deadline.
  std::string read_until(const std::string& needle, int timeout_ms) {
    std::string got;
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    char chunk[4096];
    while (got.find(needle) == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) break;
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left)) <= 0) break;
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      got.append(chunk, static_cast<std::size_t>(n));
    }
    return got;
  }

  // True when the server closes this connection within the deadline.
  bool closed_by_peer(int timeout_ms) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    char chunk[4096];
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) return false;
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left)) <= 0) continue;
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return false;
      // Unexpected bytes (should not happen on an idle reap); keep reading.
    }
  }
};

class Chaos : public ::testing::Test {
 protected:
  void SetUp() override { util::fault::reset(); }
  void TearDown() override { util::fault::reset(); }
};

// --- transport fault points: recover to byte-identical responses ----------

TEST_F(Chaos, RecvFaultIsRetriedToByteIdenticalResult) {
  ServerOptions opt;
  opt.port = 0;
  Server server(opt);
  server.start();
  const HttpResponse expected = post(server.port());
  ASSERT_EQ(expected.status, 200) << expected.body;

  util::fault::arm("serve.recv", util::fault::make_errno(ECONNRESET));
  int attempts = 0;
  const HttpResponse r = post_retry(server.port(), 4, &attempts);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, expected.body) << "recovery must be byte-identical";
  EXPECT_EQ(attempts, 2) << "exactly one shot armed, so exactly one retry";
  EXPECT_EQ(util::fault::hits("serve.recv"), 1u);
}

TEST_F(Chaos, PartialResponseWriteIsRetriedToByteIdenticalResult) {
  ServerOptions opt;
  opt.port = 0;
  Server server(opt);
  server.start();
  const HttpResponse expected = post(server.port());
  ASSERT_EQ(expected.status, 200) << expected.body;

  // The server manages 10 bytes of the response, then the wire dies.
  util::fault::arm("serve.send", util::fault::make_short(10));
  int attempts = 0;
  const HttpResponse r = post_retry(server.port(), 4, &attempts);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, expected.body);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(util::fault::hits("serve.send"), 1u);
}

TEST_F(Chaos, AcceptEmfileBacksOffAndThenServes) {
  ServerOptions opt;
  opt.port = 0;
  Server server(opt);
  server.start();
  const HttpResponse expected = post(server.port());
  ASSERT_EQ(expected.status, 200) << expected.body;

  // Two accept attempts fail with EMFILE; the connection waits in the
  // backlog through the backoff and is served without the client retrying.
  util::fault::arm("serve.accept", util::fault::make_errno(EMFILE),
                   /*times=*/2);
  int attempts = 0;
  const HttpResponse r = post_retry(server.port(), 4, &attempts);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, expected.body);
  EXPECT_EQ(attempts, 1) << "backlog absorbs an accept stall; no retry";
  EXPECT_EQ(util::fault::hits("serve.accept"), 2u);
  EXPECT_GE(server.metrics().snapshot().accept_backoff_total, 2u);
}

TEST_F(Chaos, FetchDeadlineCoversAConnectThatIsNeverAccepted) {
  // A listener whose accept queue is full and never drained (a SIGSTOPped
  // worker, say): the kernel drops further SYNs, so a connect that only a
  // response deadline bounds would wait out the SYN retries, minutes.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);

  // Fill the queue: connect until a handshake no longer completes.
  std::vector<int> fillers;
  bool full = false;
  for (int i = 0; i < 16 && !full; ++i) {
    fillers.push_back(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
    ::connect(fillers.back(), reinterpret_cast<sockaddr*>(&addr), len);
    pollfd p{fillers.back(), POLLOUT, 0};
    full = ::poll(&p, 1, 200) == 0;
  }
  ASSERT_TRUE(full) << "the accept queue never filled";

  // On a thread, so a connect that hangs fails this test instead of
  // hanging it: closing the listener lets the next SYN retry be refused.
  std::promise<std::string> outcome;
  std::future<std::string> done = outcome.get_future();
  const auto t0 = Clock::now();
  std::thread fetcher([&outcome, port] {
    try {
      http_fetch("127.0.0.1", port, simulate_request(), /*timeout_ms=*/200);
      outcome.set_value("answered");
    } catch (const FetchError& e) {
      outcome.set_value(e.retryable() ? "retryable" : "not retryable");
    }
  });
  const bool finished =
      done.wait_for(std::chrono::seconds(3)) == std::future_status::ready;
  const auto elapsed = Clock::now() - t0;
  for (const int fd : fillers) ::close(fd);
  ::close(listener);
  fetcher.join();
  ASSERT_TRUE(finished) << "http_fetch(..., 200) still connecting after 3 s";
  EXPECT_EQ(done.get(), "retryable");
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST_F(Chaos, RecvStallDelaysButStillServes) {
  ServerOptions opt;
  opt.port = 0;
  Server server(opt);
  server.start();
  const HttpResponse expected = post(server.port());
  ASSERT_EQ(expected.status, 200) << expected.body;

  util::fault::arm("serve.recv", util::fault::make_stall(300));
  const auto t0 = Clock::now();
  int attempts = 0;
  const HttpResponse r = post_retry(server.port(), 4, &attempts);
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, expected.body);
  EXPECT_EQ(attempts, 1) << "a stall within the deadline is not an error";
  EXPECT_GE(elapsed.count(), 250);
}

// --- load shedding ---------------------------------------------------------

TEST_F(Chaos, SaturatedServerShedsWith503AndRecovers) {
  ServerOptions opt;
  opt.port = 0;
  opt.max_connections = 1;
  Server server(opt);
  server.start();
  const HttpResponse expected = post(server.port());
  ASSERT_EQ(expected.status, 200) << expected.body;
  // Let the baseline connection's slot drain before squatting on it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Occupy the single slot with a keep-alive connection; the completed
  // exchange proves the server dispatched it (the slot is really held).
  RawClient squatter(server.port());
  ASSERT_GE(squatter.fd, 0);
  ASSERT_TRUE(squatter.send_bytes(
      "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n"));
  ASSERT_NE(squatter.read_until("}\n", 2000).find("200"), std::string::npos);

  // A plain (non-retrying) client is shed, promptly and with guidance.
  const HttpResponse shed = post(server.port());
  EXPECT_EQ(shed.status, 503);
  ASSERT_NE(shed.header("Retry-After"), nullptr);
  EXPECT_EQ(*shed.header("Retry-After"), "1");
  EXPECT_NE(shed.body.find("max-connections"), std::string::npos);
  EXPECT_GE(server.metrics().snapshot().shed_total, 1u);

  // A retrying client rides out the saturation: free the slot mid-backoff
  // and the retry lands, byte-identical to the fault-free run.
  std::thread releaser([&squatter] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    squatter.close();
  });
  int attempts = 0;
  const HttpResponse r = post_retry(server.port(), 8, &attempts);
  releaser.join();
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, expected.body);
  EXPECT_GE(attempts, 2) << "first attempt should have been shed";

  // The counters are on /metrics for operators. The slot the retry used is
  // released when the server notices the close, a poll tick after our side
  // of the connection goes away — so give the probe a bounded grace loop.
  HttpResponse metrics = get(server.port(), "/metrics");
  const auto metrics_by = Clock::now() + std::chrono::seconds(5);
  while (metrics.status == 503 && Clock::now() < metrics_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    metrics = get(server.port(), "/metrics");
  }
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("sqzserved_shed_total"), std::string::npos);
}

// --- deadlines -------------------------------------------------------------

TEST_F(Chaos, IdleKeepAliveConnectionIsReaped) {
  ServerOptions opt;
  opt.port = 0;
  opt.idle_timeout_ms = 200;
  opt.max_connections = 1;
  Server server(opt);
  server.start();

  RawClient idler(server.port());
  ASSERT_GE(idler.fd, 0);
  ASSERT_TRUE(idler.send_bytes(
      "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n"));
  ASSERT_NE(idler.read_until("}\n", 2000).find("200"), std::string::npos);

  // Say nothing further: the server must close us at the idle deadline.
  EXPECT_TRUE(idler.closed_by_peer(2000));
  EXPECT_GE(server.metrics().snapshot().idle_closed_total, 1u);

  // The reap released the only slot: a fresh request is served, not shed.
  // (Bounded grace loop: the close is visible to us a moment before the
  // slot bookkeeping on the server side.)
  HttpResponse r = post(server.port());
  const auto slot_by = Clock::now() + std::chrono::seconds(5);
  while (r.status == 503 && Clock::now() < slot_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    r = post(server.port());
  }
  EXPECT_EQ(r.status, 200) << r.body;
}

TEST_F(Chaos, UnfinishedRequestGets408AtTheDeadline) {
  ServerOptions opt;
  opt.port = 0;
  opt.request_timeout_ms = 200;
  Server server(opt);
  server.start();

  RawClient slowpoke(server.port());
  ASSERT_GE(slowpoke.fd, 0);
  // Promise 50 body bytes, deliver 4, go quiet.
  ASSERT_TRUE(slowpoke.send_bytes(
      "POST /v1/simulate HTTP/1.1\r\nContent-Length: 50\r\n\r\nfour"));
  const std::string answer = slowpoke.drain(2000);
  EXPECT_NE(answer.find("408"), std::string::npos) << answer;
  EXPECT_GE(server.metrics().snapshot().timeouts_total, 1u);
}

TEST_F(Chaos, OversizeBodyGets413AndIsNeverRetried) {
  ServerOptions opt;
  opt.port = 0;
  opt.max_body_bytes = 1024;
  Server server(opt);
  server.start();

  const std::string huge = "{\"model\":\"" + std::string(2000, 'x') + "\"}";
  int attempts = 0;
  const HttpResponse r = post_retry(server.port(), 4, &attempts, huge);
  EXPECT_EQ(r.status, 413);
  EXPECT_NE(r.body.find("exceeds"), std::string::npos) << r.body;
  EXPECT_EQ(attempts, 1) << "a 4xx will not improve; never retried";
  EXPECT_GE(server.metrics().snapshot().oversize_total, 1u);

  const HttpResponse metrics = get(server.port(), "/metrics");
  EXPECT_NE(metrics.body.find("sqzserved_oversize_total"), std::string::npos);
}

// --- cache fault points ----------------------------------------------------

TEST_F(Chaos, CorruptCacheEntryIsQuarantinedAndResimulated) {
  const fs::path dir = fs::temp_directory_path() / "sqz_chaos_corrupt";
  fs::remove_all(dir);
  std::string expected;
  {
    ServerOptions opt;
    opt.port = 0;
    opt.cache_dir = dir.string();
    Server server(opt);
    server.start();
    const HttpResponse r = post(server.port());
    ASSERT_EQ(r.status, 200) << r.body;
    expected = r.body;
  }
  // Flip one payload bit in the published entry.
  fs::path entry;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".sqz") entry = e.path();
  ASSERT_FALSE(entry.empty());
  std::string raw;
  {
    std::ifstream in(entry, std::ios::binary);
    raw.assign((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(raw.empty());
  raw.back() ^= 0x01;
  {
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  }

  ServerOptions opt;
  opt.port = 0;
  opt.cache_dir = dir.string();
  Server server(opt);
  server.start();
  const HttpResponse r = post(server.port());
  EXPECT_EQ(r.status, 200);
  ASSERT_NE(r.header("X-Sqz-Cache"), nullptr);
  EXPECT_EQ(*r.header("X-Sqz-Cache"), "miss")
      << "a corrupt entry must re-simulate, never serve";
  EXPECT_EQ(r.body, expected) << "the re-simulation is byte-identical";
  EXPECT_EQ(server.cache().stats().disk_quarantined, 1u);
  EXPECT_TRUE(fs::exists(entry.string() + ".bad"));

  const HttpResponse metrics = get(server.port(), "/metrics");
  EXPECT_NE(metrics.body.find("sqzserved_cache_quarantined_total 1"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST_F(Chaos, DiskWriteFailureNeverFailsTheRequest) {
  const fs::path dir = fs::temp_directory_path() / "sqz_chaos_enospc";
  fs::remove_all(dir);
  ServerOptions opt;
  opt.port = 0;
  opt.cache_dir = dir.string();
  Server server(opt);
  server.start();

  util::fault::arm("simcache.write", util::fault::make_errno(ENOSPC));
  const HttpResponse first = post(server.port());
  EXPECT_EQ(first.status, 200) << "a full disk must not fail the simulation";
  EXPECT_EQ(util::fault::hits("simcache.write"), 1u);
  EXPECT_EQ(server.cache().stats().disk_errors, 1u);
  EXPECT_FALSE(server.cache().stats().disk_demoted);

  // The result still landed in the memory tier.
  const HttpResponse second = post(server.port());
  EXPECT_EQ(second.status, 200);
  ASSERT_NE(second.header("X-Sqz-Cache"), nullptr);
  EXPECT_EQ(*second.header("X-Sqz-Cache"), "hit");
  EXPECT_EQ(second.body, first.body);

  const HttpResponse metrics = get(server.port(), "/metrics");
  EXPECT_NE(metrics.body.find("sqzserved_cache_disk_errors_total 1"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST_F(Chaos, TornDiskReadIsCaughtAndResimulated) {
  const fs::path dir = fs::temp_directory_path() / "sqz_chaos_tornread";
  fs::remove_all(dir);
  std::string expected;
  {
    ServerOptions opt;
    opt.port = 0;
    opt.cache_dir = dir.string();
    Server server(opt);
    server.start();
    const HttpResponse r = post(server.port());
    ASSERT_EQ(r.status, 200) << r.body;
    expected = r.body;
  }
  ServerOptions opt;
  opt.port = 0;
  opt.cache_dir = dir.string();
  Server server(opt);
  server.start();
  // The disk read returns only 20 bytes; the checksum must reject it.
  util::fault::arm("simcache.read", util::fault::make_short(20));
  const HttpResponse r = post(server.port());
  EXPECT_EQ(r.status, 200);
  ASSERT_NE(r.header("X-Sqz-Cache"), nullptr);
  EXPECT_EQ(*r.header("X-Sqz-Cache"), "miss");
  EXPECT_EQ(r.body, expected);
  EXPECT_EQ(util::fault::hits("simcache.read"), 1u);
  EXPECT_EQ(server.cache().stats().disk_quarantined, 1u);
  fs::remove_all(dir);
}

// --- plan-cache fault points: a plan may never fail a request --------------

TEST_F(Chaos, PlanReadDeviceErrorFallsBackToCompileByteIdentically) {
  const fs::path dir = fs::temp_directory_path() / "sqz_chaos_plan_eio";
  fs::remove_all(dir);
  std::string expected;
  {
    ServerOptions opt;
    opt.port = 0;
    opt.plan_cache_dir = dir.string();
    Server server(opt);
    server.start();
    const HttpResponse r = post(server.port());
    ASSERT_EQ(r.status, 200) << r.body;
    expected = r.body;
  }
  ServerOptions opt;
  opt.port = 0;
  opt.plan_cache_dir = dir.string();
  Server server(opt);
  server.start();
  // The plan artifact's device fails outright; the request must fall back
  // to a fresh compile and answer with the exact fault-free bytes.
  util::fault::arm("plan.read", util::fault::make_errno(EIO));
  const HttpResponse r = post(server.port());
  EXPECT_EQ(r.status, 200);
  ASSERT_NE(r.header("X-Sqz-Plan"), nullptr);
  EXPECT_EQ(*r.header("X-Sqz-Plan"), "miss");
  EXPECT_EQ(r.body, expected);
  EXPECT_EQ(util::fault::hits("plan.read"), 1u);
  ASSERT_NE(server.plan_cache(), nullptr);
  EXPECT_EQ(server.plan_cache()->stats().disk_errors, 1u);
  // An I/O error is not corruption: the artifact is left in place, not
  // quarantined — the device may come back.
  EXPECT_EQ(server.plan_cache()->stats().corrupt, 0u);
  for (const auto& e : fs::directory_iterator(dir))
    EXPECT_NE(e.path().extension(), ".bad");
  fs::remove_all(dir);
}

TEST_F(Chaos, TornPlanReadIsQuarantinedAndRecompiledIdentically) {
  const fs::path dir = fs::temp_directory_path() / "sqz_chaos_plan_torn";
  fs::remove_all(dir);
  std::string expected;
  {
    ServerOptions opt;
    opt.port = 0;
    opt.plan_cache_dir = dir.string();
    Server server(opt);
    server.start();
    const HttpResponse r = post(server.port());
    ASSERT_EQ(r.status, 200) << r.body;
    expected = r.body;
  }
  ServerOptions opt;
  opt.port = 0;
  opt.plan_cache_dir = dir.string();
  Server server(opt);
  server.start();
  // The plan read returns only 20 bytes; the checksum wall rejects it, the
  // torn artifact is quarantined, and the request compiles fresh.
  util::fault::arm("plan.read", util::fault::make_short(20));
  const HttpResponse r = post(server.port());
  EXPECT_EQ(r.status, 200);
  ASSERT_NE(r.header("X-Sqz-Plan"), nullptr);
  EXPECT_EQ(*r.header("X-Sqz-Plan"), "miss");
  EXPECT_EQ(r.body, expected);
  EXPECT_EQ(util::fault::hits("plan.read"), 1u);
  ASSERT_NE(server.plan_cache(), nullptr);
  EXPECT_EQ(server.plan_cache()->stats().corrupt, 1u);
  bool bad_seen = false;
  for (const auto& e : fs::directory_iterator(dir))
    bad_seen |= e.path().extension() == ".bad";
  EXPECT_TRUE(bad_seen);
  const HttpResponse metrics = get(server.port(), "/metrics");
  EXPECT_NE(metrics.body.find("sqzserved_plan_corrupt_total 1"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST_F(Chaos, PlanWriteEnospcNeverFailsTheRequest) {
  const fs::path dir = fs::temp_directory_path() / "sqz_chaos_plan_enospc";
  fs::remove_all(dir);
  ServerOptions opt;
  opt.port = 0;
  opt.plan_cache_dir = dir.string();
  Server server(opt);
  server.start();

  util::fault::arm("plan.write", util::fault::make_errno(ENOSPC));
  const HttpResponse r = post(server.port());
  EXPECT_EQ(r.status, 200) << "a full disk must not fail the simulation";
  EXPECT_EQ(util::fault::hits("plan.write"), 1u);
  ASSERT_NE(server.plan_cache(), nullptr);
  EXPECT_EQ(server.plan_cache()->stats().disk_errors, 1u);
  // Nothing was published to the disk tier...
  for (const auto& e : fs::directory_iterator(dir))
    EXPECT_NE(e.path().extension(), ".plan");
  // ...but the memory tier kept the plan.
  EXPECT_EQ(server.plan_cache()->stats().insertions, 1u);
  fs::remove_all(dir);
}

// --- shutdown under fire ---------------------------------------------------

TEST_F(Chaos, StopMidFaultDrainsTheInFlightRequestCleanly) {
  ServerOptions opt;
  opt.port = 0;
  Server server(opt);
  server.start();
  const HttpResponse expected = post(server.port());
  ASSERT_EQ(expected.status, 200) << expected.body;

  // The in-flight request is stalled 400 ms at the recv fault point when
  // stop() lands — the daemon's SIGTERM path. Drain must wait for it.
  util::fault::arm("serve.recv", util::fault::make_stall(400));
  HttpResponse late;
  late.status = 0;
  std::thread client([&server, &late] {
    try {
      late = post(server.port());
    } catch (const std::exception&) {
      late.status = -1;  // connection rejected: drain failed its promise
    }
  });
  // The fault registry counts the hit before the stall sleeps, so once the
  // counter moves the request is provably mid-fault.
  const auto armed_by = Clock::now() + std::chrono::seconds(5);
  while (util::fault::hits("serve.recv") == 0 && Clock::now() < armed_by)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(util::fault::hits("serve.recv"), 1u);
  server.stop();
  EXPECT_FALSE(server.running());
  client.join();
  EXPECT_EQ(late.status, 200);
  EXPECT_EQ(late.body, expected.body)
      << "a drained shutdown still answers with the exact bytes";
  server.stop();  // idempotent after chaos, too
}

}  // namespace
}  // namespace sqz::serve
