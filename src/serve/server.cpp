#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "util/faultinject.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace sqz::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPollTickMs = 100;
constexpr int kAcceptBackoffStartMs = 50;
constexpr int kAcceptBackoffCapMs = 800;

int ms_until(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Send with a drain deadline. Connection fds are non-blocking, so a peer
// that stops reading parks us in poll(POLLOUT) until the deadline, never
// forever. `timed_out` (if non-null) tells a failed send apart from a dead
// peer. Routed through the "serve.send" fault point: Errno aborts the send,
// ShortIo delivers a partial write and then aborts (a crashed-writer wire).
bool send_all(int fd, const std::string& bytes, int timeout_ms,
              bool* timed_out = nullptr) {
  if (timed_out) *timed_out = false;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t sent = 0;
  std::size_t cap = bytes.size();
  bool abort_after_cap = false;
  if (util::fault::enabled()) {
    const util::fault::Action a = util::fault::at("serve.send");
    if (a.kind == util::fault::Kind::Errno) return false;
    if (a.kind == util::fault::Kind::ShortIo) {
      cap = std::min(cap, a.bytes);
      abort_after_cap = true;
    }
  }
  while (sent < cap) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, cap - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      const int pr = ::poll(&p, 1, std::min(kPollTickMs, ms_until(deadline)));
      if (pr < 0 && errno != EINTR) return false;
      if (ms_until(deadline) == 0) {
        if (timed_out) *timed_out = true;
        return false;
      }
      continue;
    }
    return false;  // peer went away; nothing useful to do
  }
  return !abort_after_cap && sent == bytes.size();
}

HttpResponse json_error_response(int status, const std::string& message) {
  return make_response(status, "application/json",
                       "{\"error\": \"" + util::json_escape(message) + "\"}\n");
}

}  // namespace

namespace {

bool coordinator_mode(const ServerOptions& o) {
  return !o.coordinator.workers.empty() || o.coordinator.accept_registrations;
}

}  // namespace

// A standby must not open the shared journal at construction: the primary
// owns it until takeover (two concurrent writers are unsupported), so the
// journal and the coordinator are built in promote() instead.
Server::Server(const ServerOptions& options)
    : options_(options),
      cache_(options.cache_entries, options.cache_dir),
      plan_cache_(options.plan_cache_entries == 0
                      ? nullptr
                      : std::make_unique<PlanCache>(options.plan_cache_entries,
                                                    options.plan_cache_dir)),
      sweep_journal_(options.sweep_journal_dir.empty() ||
                             !options.standby_of.empty()
                         ? nullptr
                         : std::make_unique<core::SweepJournal>(
                               options.sweep_journal_dir)),
      coordinator_(!coordinator_mode(options) || !options.standby_of.empty()
                       ? nullptr
                       : std::make_unique<Coordinator>(options.coordinator,
                                                       &metrics_)),
      service_(&cache_, sweep_journal_.get(), plan_cache_.get(),
               coordinator_.get()) {
  if (!options.standby_of.empty()) {
    if (options.sweep_journal_dir.empty())
      throw std::invalid_argument(
          "server: --standby-of requires --sweep-journal (the shared journal "
          "is what the standby resumes from)");
    parse_host_port(options.standby_of, "--standby-of");  // validate early
    role_.store(Role::Standby);
  }
  if (!options.joiner.endpoints.empty() &&
      (coordinator_mode(options) || !options.standby_of.empty()))
    throw std::invalid_argument(
        "server: --join is a worker role; it cannot be combined with "
        "--workers/--coordinator/--standby-of");
}

Server::~Server() { stop(); }

void Server::start() {
  if (listen_fd_ >= 0) throw std::runtime_error("server already started");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("server: bad bind address '" + options_.host +
                             "' (numeric IPv4 required)");

  // Close-on-exec, here and on accepted connections: a process this one
  // forks must not keep the listener open (its peers' connects would queue
  // unanswered after stop()) nor a connection (its peer would never see
  // the close).
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("server: socket: ") +
                             std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("server: cannot bind " + options_.host + ":" +
                             std::to_string(options_.port) + ": " + why);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("server: listen: " + why);
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  // Dispatch pool for connection handlers. ThreadPool(j) keeps j - 1
  // workers (its parallel_for_index caller is the remaining job); the
  // accept thread never participates, so size +1 to get the wanted width.
  const int width =
      options_.dispatch_jobs > 0
          ? options_.dispatch_jobs
          : options_.max_connections > 0
                ? std::min(std::max(options_.max_connections, 2), 8)
                : 8;
  dispatch_pool_ = std::make_unique<util::ThreadPool>(width + 1);

  stopping_.store(false);
  accepting_.store(true);
  if (coordinator_) coordinator_->start();  // worker-health prober

  // Worker role: register with the coordinator(s) now that the bound port
  // is known, then keep the lease renewed. Built *before* the accept
  // thread spawns so handler threads see a fully published joiner_ (the
  // listen backlog already queues connections arriving meanwhile).
  if (!options_.joiner.endpoints.empty()) {
    JoinerOptions jo = options_.joiner;
    if (jo.advertise_host.empty()) jo.advertise_host = options_.host;
    if (jo.advertise_port == 0) jo.advertise_port = port_;
    joiner_ = std::make_unique<Joiner>(jo, &metrics_);
    joiner_->start();
  }

  accept_thread_ = std::thread([this] { accept_loop(); });

  // Standby role: stand by until the journal's writer lock is ours.
  if (role_.load() == Role::Standby)
    standby_thread_ = std::thread([this] { standby_loop(); });
}

void Server::stop() {
  if (listen_fd_ < 0 && !accept_thread_.joinable()) return;

  // Graceful worker drain, sequenced for zero requeues on planned
  // maintenance: deregister first. The coordinator stops routing new chunks
  // here and answers only once the chunks it routed here before are
  // answered (the deregister fence), so the listener may close right after.
  // If no answer comes within the request timeout, stop anyway.
  if (joiner_) joiner_->drain(options_.request_timeout_ms);

  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_.store(true);
  }
  stop_cv_.notify_all();
  // Standby watcher: must be gone before teardown (it touches coordinator_).
  if (standby_thread_.joinable()) standby_thread_.join();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Drain: every dispatched connection holds a slot until its loop exits.
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [this] { return active_connections_ == 0; });
  }
  dispatch_pool_.reset();  // joins the (now idle) handler threads
  if (coordinator_) coordinator_->stop();
  accepting_.store(false);
}

// The journal's writer lock is the election: each probe interval the
// standby tries to open the journal, and promotes when that succeeds. The
// lock is taken before a byte is read, so a refused attempt is cheap.
void Server::standby_loop() {
  const auto interval = std::chrono::milliseconds(
      std::max(1, options_.coordinator.probe.interval_ms));
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      if (stop_cv_.wait_for(lock, interval,
                            [this] { return stopping_.load(); }))
        return;
    }
    if (promote()) return;
  }
}

// Standby -> Active. Opening the journal acquires its exclusive writer
// lock. A live primary — serving, partitioned or hung — still holds it, the
// open throws SweepJournalLocked, and this side stays a standby instead of
// interleaving a second writer into the shared file. A dead primary's lock
// died with its process, so the open succeeds and this side becomes the
// single writer: completed points are served from the journal
// byte-identically, and the fleet re-forms from the workers' heartbeats.
// Returns false when promotion was refused.
bool Server::promote() {
  try {
    sweep_journal_ =
        std::make_unique<core::SweepJournal>(options_.sweep_journal_dir);
  } catch (const core::SweepJournalLocked&) {
    return false;  // the primary lives
  } catch (const core::SweepJournalError& e) {
    SQZ_LOG(Error) << "server: takeover failed — " << e.what()
                   << "; remaining standby";
    return false;
  }
  SQZ_LOG(Warn) << "server: journal lock acquired (primary "
                << options_.standby_of
                << " no longer holds it); taking over as coordinator";
  CoordinatorOptions copts = options_.coordinator;
  copts.accept_registrations = true;  // the primary's joiners come here next
  coordinator_ = std::make_unique<Coordinator>(copts, &metrics_);
  metrics_.record_coord_takeover();
  coordinator_->start();
  service_ = SimService(&cache_, sweep_journal_.get(), plan_cache_.get(),
                        coordinator_.get());
  // The release store publishes everything above to handler threads, which
  // only touch service_/coordinator_ after observing Role::Active.
  role_.store(Role::Active);
  return true;
}

// Answer an over-cap connection with 503 + Retry-After and close it. Runs
// on the accept thread, so the send deadline is short: a peer that will not
// read two hundred bytes promptly forfeits its goodbye note.
void Server::shed_connection(int fd) {
  metrics_.record_shed();
  set_nonblocking(fd);
  HttpResponse resp = json_error_response(
      503, "server at --max-connections; retry with backoff");
  resp.headers.emplace_back("Retry-After", "1");
  resp.headers.emplace_back("Connection", "close");
  send_all(fd, resp.serialize(), /*timeout_ms=*/1000);
  ::close(fd);
}

void Server::accept_loop() {
  int backoff_ms = kAcceptBackoffStartMs;
  while (!stopping_.load()) {
    pollfd p{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&p, 1, kPollTickMs);
    if (pr <= 0) continue;  // timeout tick or EINTR: re-check stopping_

    int fd;
    const util::fault::Action a = util::fault::at("serve.accept");
    if (a.kind == util::fault::Kind::Errno) {
      errno = a.err;
      fd = -1;
    } else {
      fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    }
    if (fd < 0) {
      // Out of descriptors (or memory): the listener stays healthy, but
      // accepting again immediately would spin at 100% CPU re-failing.
      // Back off — pending connections wait in the backlog meanwhile.
      if (errno == EMFILE || errno == ENFILE || errno == ENOMEM) {
        metrics_.record_accept_backoff();
        std::unique_lock<std::mutex> lock(stop_mu_);
        stop_cv_.wait_for(lock, std::chrono::milliseconds(backoff_ms),
                          [this] { return stopping_.load(); });
        backoff_ms = std::min(backoff_ms * 2, kAcceptBackoffCapMs);
      }
      continue;
    }
    backoff_ms = kAcceptBackoffStartMs;

    int active;
    {
      std::lock_guard<std::mutex> lock(mu_);
      active = active_connections_;
    }
    if (options_.max_connections > 0 && active >= options_.max_connections) {
      shed_connection(fd);
      continue;
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      ++active_connections_;
    }
    dispatch_pool_->submit([this, fd] {
      handle_connection(fd);
      ::close(fd);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --active_connections_;
      }
      drained_cv_.notify_all();
    });
  }
  accepting_.store(false);
}

void Server::handle_connection(int fd) {
  set_nonblocking(fd);
  std::string buffer;
  char chunk[16384];
  const ParseLimits limits{64 * 1024, options_.max_body_bytes};
  const auto request_budget =
      std::chrono::milliseconds(options_.request_timeout_ms);
  const auto idle_budget = std::chrono::milliseconds(options_.idle_timeout_ms);

  // Two clocks: `idle_deadline` runs while the buffer is empty (keep-alive
  // lull), `request_deadline` runs from the first byte of a request until
  // it parses completely. Responses get their own drain deadline inside
  // send_all.
  auto idle_deadline = Clock::now() + idle_budget;
  auto request_deadline = Clock::now() + request_budget;

  for (;;) {
    // Try to serve every complete request already buffered.
    for (;;) {
      HttpRequest request;
      std::size_t consumed = 0;
      std::string parse_error;
      const ParseStatus ps =
          parse_http_request(buffer, request, consumed, &parse_error, limits);
      if (ps == ParseStatus::Error || ps == ParseStatus::TooLarge) {
        const int status = ps == ParseStatus::TooLarge ? 413 : 400;
        if (ps == ParseStatus::TooLarge) metrics_.record_oversize();
        HttpResponse resp = json_error_response(status, parse_error);
        resp.headers.emplace_back("Connection", "close");
        send_all(fd, resp.serialize(), options_.request_timeout_ms);
        return;
      }
      if (ps == ParseStatus::NeedMore) break;
      buffer.erase(0, consumed);
      // Pipelined bytes already buffered start the next request's clock.
      request_deadline = Clock::now() + request_budget;

      metrics_.request_started();
      const auto t0 = Clock::now();
      HttpResponse resp = route(request);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - t0).count();
      metrics_.record_request(seconds, resp.status);
      metrics_.request_finished();

      const bool close_after = request.wants_close() || stopping_.load();
      resp.headers.emplace_back("Connection",
                                close_after ? "close" : "keep-alive");
      bool send_timed_out = false;
      if (!send_all(fd, resp.serialize(), options_.request_timeout_ms,
                    &send_timed_out)) {
        if (send_timed_out) metrics_.record_timeout();
        return;
      }
      if (close_after) return;
      idle_deadline = Clock::now() + idle_budget;
    }

    // Wait for more bytes, bounded by whichever deadline applies.
    const bool mid_request = !buffer.empty();
    const auto deadline = mid_request ? request_deadline : idle_deadline;
    if (ms_until(deadline) == 0) {
      if (mid_request) {
        // The peer started a request but never finished it in time.
        metrics_.record_timeout();
        HttpResponse resp = json_error_response(
            408, "request not completed within " +
                     std::to_string(options_.request_timeout_ms) + " ms");
        resp.headers.emplace_back("Connection", "close");
        send_all(fd, resp.serialize(), /*timeout_ms=*/1000);
      } else if (!stopping_.load()) {
        metrics_.record_idle_closed();
      }
      return;
    }

    pollfd p{fd, POLLIN, 0};
    const int pr =
        ::poll(&p, 1, std::min(kPollTickMs, ms_until(deadline)));
    if (pr < 0 && errno != EINTR) return;
    if (pr == 0) {
      if (stopping_.load() && buffer.empty()) return;  // idle at shutdown
      continue;
    }
    if (pr > 0) {
      std::size_t cap = sizeof(chunk);
      if (util::fault::enabled()) {
        const util::fault::Action a = util::fault::at("serve.recv");
        if (a.kind == util::fault::Kind::Errno) return;  // injected I/O error
        if (a.kind == util::fault::Kind::ShortIo)
          cap = std::min(cap, std::max<std::size_t>(1, a.bytes));
      }
      const ssize_t n = ::recv(fd, chunk, cap, 0);
      if (n == 0) return;  // peer closed
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
          continue;
        return;
      }
      if (buffer.empty())  // first byte of a new request starts its clock
        request_deadline = Clock::now() + request_budget;
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }
}

HttpResponse Server::route(const HttpRequest& request) {
  try {
    if (request.target == "/healthz") {
      if (request.method != "GET" && request.method != "HEAD")
        return json_error_response(405, "use GET " + request.target);
      // Readiness JSON. The status code is the liveness contract (200 =
      // alive); the body is for operators and the coordinator's prober.
      //
      // One role load governs every promoted-member read below: until this
      // handler observes Role::Active, sweep_journal_/coordinator_ may be
      // mid-assignment on the standby thread (promote() runs while the
      // standby keeps serving /healthz), so a Standby snapshot renders
      // those blocks as disabled without ever touching the pointers. The
      // seq_cst load pairs with promote()'s store as acquire/release.
      const bool is_standby = role_.load() == Role::Standby;
      core::SweepJournal* journal = is_standby ? nullptr : sweep_journal_.get();
      Coordinator* coordinator = is_standby ? nullptr : coordinator_.get();
      const Metrics::Snapshot m = metrics_.snapshot();
      const SimCache::Stats cs = cache_.stats();
      int active;
      {
        std::lock_guard<std::mutex> lock(mu_);
        active = active_connections_;
      }
      const std::uint64_t accepted = static_cast<std::uint64_t>(active);
      std::string doc;
      util::JsonWriter w(doc, /*indent=*/0);
      w.begin_object();
      w.member("status", "ok");
      w.member("requests_in_flight", m.in_flight);
      // Connections accepted but not currently executing a request: a
      // proxy for dispatch-queue pressure ahead of the handler pool.
      w.member("dispatch_queue_depth",
               accepted > m.in_flight ? accepted - m.in_flight : 0);
      w.key("cache");
      w.begin_object();
      w.member("entries", cs.entries);
      w.member("disk_tier", options_.cache_dir.empty()
                                ? "disabled"
                                : cs.disk_demoted ? "demoted" : "ok");
      w.end_object();
      w.key("plan_cache");
      w.begin_object();
      w.member("enabled", plan_cache_ != nullptr);
      w.member("entries",
               plan_cache_ ? plan_cache_->stats().entries : std::size_t{0});
      w.end_object();
      w.key("journal");
      w.begin_object();
      w.member("enabled", journal != nullptr);
      w.member("recovered_records",
               journal ? journal->recovery().records : std::size_t{0});
      w.end_object();
      w.key("coordinator");
      w.begin_object();
      w.member("enabled", coordinator != nullptr);
      w.member("workers",
               coordinator ? coordinator->pool().size() : std::size_t{0});
      w.member("workers_up", coordinator ? coordinator->pool().usable_count()
                                         : std::size_t{0});
      w.end_object();
      // Membership block (ARCHITECTURE.md "Dynamic membership & coordinator
      // HA"): present only in a membership-bearing role, so a plain
      // worker's /healthz shape is unchanged.
      if (is_standby) {
        w.key("membership");
        w.begin_object();
        w.member("role", "standby");
        w.member("primary", options_.standby_of);
        w.end_object();
      } else if (coordinator) {
        const WorkerPool& pool = coordinator->pool();
        const MemberCounts counts = pool.member_counts();
        const std::int64_t now = WorkerPool::now_ms();
        w.key("membership");
        w.begin_object();
        w.member("role", "coordinator");
        w.member("epoch", pool.epoch());
        w.key("workers");
        w.begin_object();
        w.member("healthy", counts.healthy);
        w.member("suspect", counts.suspect);
        w.member("ejected", counts.ejected);
        w.member("probation", counts.probation);
        w.member("departed", counts.departed);
        w.end_object();
        w.key("leases");
        w.begin_array();
        for (const LeaseInfo& lease : pool.lease_table(now)) {
          if (!lease.alive) continue;
          w.begin_object();
          w.member("worker", lease.address);
          w.member("ttl_ms", lease.lease_ms);  // 0 = static, never expires
          w.member("age_ms", lease.age_ms);
          w.end_object();
        }
        w.end_array();
        w.end_object();
      } else if (joiner_) {
        w.key("membership");
        w.begin_object();
        w.member("role", "worker");
        w.member("joined", joiner_->joined());
        w.member("coordinator", joiner_->current_endpoint());
        // The TTL the coordinator actually granted (it may clamp the
        // requested one); the heartbeat cadence is granted / 3.
        w.member("lease_ms", joiner_->granted_lease_ms());
        w.end_object();
      }
      w.end_object();
      doc += '\n';
      return make_response(200, "application/json", std::move(doc));
    }
    if (request.target == "/metrics") {
      if (request.method != "GET")
        return json_error_response(405, "use GET /metrics");
      return make_response(200, "text/plain; version=0.0.4",
                           metrics_.render(cache_.stats(),
                                           plan_cache_ ? plan_cache_->stats()
                                                       : PlanCache::Stats{}));
    }
    if (request.target == "/v1/workers/register" ||
        request.target == "/v1/workers/deregister") {
      if (request.method != "POST")
        return json_error_response(405, "use POST " + request.target);
      // A passive standby answers 503, not 404: it *will* be a coordinator,
      // so joining workers should keep it in their endpoint rotation.
      if (role_.load() == Role::Standby)
        return json_error_response(
            503, "standby coordinator; not accepting registrations yet");
      if (!coordinator_)
        return json_error_response(
            404, "not a coordinator: start with --workers or --coordinator");
      const WorkerRegistration reg = parse_worker_registration(request.body);
      const HostPort addr{reg.host, reg.port};
      std::string doc;
      util::JsonWriter w(doc, /*indent=*/0);
      w.begin_object();
      if (request.target == "/v1/workers/register") {
        const WorkerPool::Registration r =
            coordinator_->register_worker(addr, reg.lease_ms);
        w.member("status", "registered");
        w.member("epoch", r.epoch);
        w.member("lease_ms", r.lease_ms);
      } else {
        const bool known = coordinator_->deregister_worker(addr);
        w.member("status", known ? "deregistered" : "unknown");
        w.member("epoch", coordinator_->pool().epoch());
      }
      w.end_object();
      doc += '\n';
      return make_response(200, "application/json", std::move(doc));
    }
    if (request.target == "/v1/simulate" || request.target == "/v1/sweep") {
      if (request.method != "POST")
        return json_error_response(405, "use POST " + request.target);
      if (role_.load() == Role::Standby)
        return json_error_response(
            503, "standby coordinator; primary " + options_.standby_of +
                     " is serving");
      const SimService::Result result = request.target == "/v1/simulate"
                                            ? service_.simulate(request.body)
                                            : service_.sweep(request.body);
      if (request.target == "/v1/sweep" && !result.cache_hit)
        metrics_.record_sweep(result.sweep.points, result.sweep.point_errors,
                              result.sweep.resumed);
      HttpResponse resp =
          make_response(200, "application/json", result.body);
      resp.headers.emplace_back("X-Sqz-Cache",
                                result.cache_hit ? "hit" : "miss");
      // Only meaningful on executed requests with a plan cache in play: a
      // result-cache hit never consults it, and a disabled cache has no
      // hit/miss story to tell.
      if (plan_cache_ && request.target == "/v1/simulate" && !result.cache_hit)
        resp.headers.emplace_back("X-Sqz-Plan",
                                  result.plan_hit ? "hit" : "miss");
      return resp;
    }
    return json_error_response(404, "no such endpoint: " + request.target);
  } catch (const ApiError& e) {
    return json_error_response(e.status(), e.what());
  } catch (const std::exception& e) {
    return json_error_response(500, e.what());
  }
}

}  // namespace sqz::serve
