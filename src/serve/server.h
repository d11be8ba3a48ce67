// The sqzserved daemon core: a POSIX-socket HTTP/1.1 server exposing the
// simulator as a long-running service (see ARCHITECTURE.md "Serving").
//
// Endpoints:
//   POST /v1/simulate  JSON request -> core/report run-report JSON,
//                      byte-identical to `sqzsim --json`
//   POST /v1/sweep     JSON request -> core/dse sweep-dump JSON
//   POST /v1/workers/register    dynamic membership: admit/renew a worker
//   POST /v1/workers/deregister  lease (coordinator mode only; 404
//                                elsewhere, 503 on a passive standby)
//   GET  /healthz      readiness JSON: in-flight/queued requests, cache tier
//                      status, journal recovery, coordinator fleet health,
//                      and (in coordinator/standby/joined roles) a
//                      membership block. The bare contract is unchanged:
//                      200 means alive, so probers that only check the
//                      status keep working.
//   GET  /metrics      Prometheus text (serve/metrics.h)
//
// With ServerOptions::coordinator.workers non-empty (or
// accept_registrations set) the server runs in coordinator mode
// (serve/coordinator.h): /v1/sweep is sharded across the worker fleet
// instead of simulating locally; /v1/simulate stays local. With
// ServerOptions::standby_of set it boots as a *passive standby* of another
// coordinator and promotes itself once it holds the shared journal's
// writer lock (see ServerOptions::standby_of). With ServerOptions::joiner
// endpoints it is a worker that self-registers into a coordinator's fleet
// (serve/joiner.h).
//
// One accept thread; each connection is dispatched onto a server-owned
// dispatch pool (see ServerOptions::dispatch_jobs), where the full
// request/response loop runs. The dispatch pool is deliberately separate
// from the process-wide simulation pool: connection handlers are I/O-bound
// (a keep-alive connection parks in poll between requests), so their thread
// count must track max_connections, not core count — on a one-core host the
// global pool has no workers at all and would run handlers inline on the
// accept thread, making keep-alive starve the listener. Simulations fan out
// on util::ThreadPool::global() (`--jobs`): a handler's sweep enqueues its
// points there and joins as one runner, exactly as the CLI does, so report
// provenance — and therefore byte-identity with the local CLI — is
// unchanged. Keep-alive is honored, so a client can issue a design-space
// iteration over one connection. Results flow through the content-addressed
// SimCache; repeated design points never re-simulate.
//
// Fault tolerance (ARCHITECTURE.md "Fault tolerance"): every connection
// carries poll-based deadlines — an idle keep-alive connection is reaped
// after idle_timeout_ms, a request that fails to arrive (or a response that
// fails to drain) within request_timeout_ms is aborted with 408 — bodies
// over max_body_bytes get 413, and connections beyond max_connections are
// shed with 503 + Retry-After instead of queueing. The accept loop backs
// off on EMFILE/ENFILE instead of busy-looping. All of it is counted on
// /metrics and exercised through util/faultinject sites "serve.accept",
// "serve.recv", and "serve.send".
//
// stop() is a graceful drain: a --join worker first deregisters, and its
// coordinator answers only once the chunks it already routed here have
// been answered (Coordinator::deregister_worker). Then the listener
// closes, in-flight connections finish (idle keep-alive connections are
// closed at the next poll tick), and stop() returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/sweepjournal.h"
#include "serve/api.h"
#include "serve/coordinator.h"
#include "serve/http.h"
#include "serve/joiner.h"
#include "serve/metrics.h"
#include "serve/plancache.h"
#include "serve/simcache.h"
#include "util/threadpool.h"

namespace sqz::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";  ///< Bind address (numeric IPv4).
  int port = 8080;                 ///< 0 = ephemeral (see Server::port()).
  std::size_t cache_entries = 1024;
  std::string cache_dir;           ///< Empty = memory tier only.

  /// Compiled-plan cache (serve/plancache.h): result-cache misses replay a
  /// cached plan instead of re-running the compile search. 0 disables it.
  std::size_t plan_cache_entries = 256;
  std::string plan_cache_dir;      ///< Empty = memory tier only.

  /// Non-empty: journal every /v1/sweep design point to
  /// DIR/sweep.sqzj (core/sweepjournal.h) and serve already-journaled
  /// points without re-simulating — crash safety for server-side sweeps.
  std::string sweep_journal_dir;

  /// Deadline for reading one complete request (from its first byte) and,
  /// separately, for draining one response to the peer. Expiry answers 408
  /// (when still possible) and closes the connection.
  int request_timeout_ms = 30000;

  /// Keep-alive connections with no buffered bytes are closed after this
  /// long and counted in sqzserved_idle_closed_total.
  int idle_timeout_ms = 30000;

  /// Request bodies over this cap are refused with 413.
  std::size_t max_body_bytes = 64 * 1024 * 1024;

  /// Concurrent-connection cap; excess connections are shed with
  /// 503 + Retry-After instead of queueing. 0 disables shedding.
  int max_connections = 256;

  /// Connection-handler threads. 0 sizes automatically: max_connections
  /// clamped to [2, 8] (8 when shedding is disabled). Connections beyond
  /// the pool width queue until a handler frees up or the shed cap fires.
  int dispatch_jobs = 0;

  /// Coordinator mode (serve/coordinator.h): with a non-empty worker list
  /// (or accept_registrations for a fleet built purely from --join
  /// registrations), /v1/sweep is sharded across the fleet instead of
  /// simulating locally.
  CoordinatorOptions coordinator;

  /// Worker-side dynamic membership (serve/joiner.h): with a non-empty
  /// endpoint list this server registers itself with a coordinator on
  /// start() and heartbeat-renews its lease; stop() deregisters first
  /// (graceful drain). advertise_host/advertise_port are filled from the
  /// bound address at start().
  JoinerOptions joiner;

  /// Standby coordinator (ARCHITECTURE.md "Dynamic membership & coordinator
  /// HA"): non-empty = the primary coordinator's "host:port", reported on
  /// /healthz and in the 503s. The server boots passive — /v1/simulate,
  /// /v1/sweep, and registrations answer 503 — and every
  /// coordinator.probe.interval_ms tries to open the shared
  /// sweep_journal_dir (required). The journal's exclusive writer lock
  /// (core/sweepjournal.h) is the election: a live primary, partitioned or
  /// hung, holds it and the standby stays passive; once the primary's
  /// process is gone the open succeeds and the standby promotes itself to
  /// an active coordinator, serving the journaled points byte-identically.
  /// Its fleet is its own coordinator.workers plus the --join workers, who
  /// re-register with it at their next heartbeat.
  std::string standby_of;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();  ///< Calls stop().

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the accept thread. Throws std::runtime_error
  /// when the address cannot be bound.
  void start();

  /// Graceful shutdown: stop accepting, drain in-flight connections, join.
  /// Idempotent.
  void stop();

  bool running() const { return accepting_.load(); }

  /// The bound port (useful with port 0 in ServerOptions).
  int port() const { return port_; }

  SimCache& cache() { return cache_; }
  /// Null when ServerOptions::plan_cache_entries is 0.
  PlanCache* plan_cache() { return plan_cache_.get(); }
  /// Null unless coordinator mode is on (ServerOptions::coordinator) — on a
  /// standby, null until promotion.
  Coordinator* coordinator() { return coordinator_.get(); }
  const Metrics& metrics() const { return metrics_; }

  /// Standby role: true from construction until takeover promotes this
  /// server to an active coordinator.
  bool standby() const { return role_.load() == Role::Standby; }

 private:
  /// Coordinator lifecycle role. Normal servers (workers, static
  /// coordinators) are Active from the start; --standby-of servers begin
  /// Standby and flip to Active exactly once, at takeover.
  enum class Role { Active, Standby };

  void accept_loop();
  void shed_connection(int fd);
  void handle_connection(int fd);
  HttpResponse route(const HttpRequest& request);
  void standby_loop();  ///< Try promote() every probe interval.

  /// Standby -> Active: lock + open the journal, build the fleet. False =
  /// refused (the primary still holds the journal's writer lock, or the
  /// journal dir failed to open); the caller keeps standing by.
  bool promote();

  ServerOptions options_;
  SimCache cache_;
  std::unique_ptr<PlanCache> plan_cache_;  ///< May be null (disabled).
  Metrics metrics_;
  std::unique_ptr<core::SweepJournal> sweep_journal_;  ///< May be null.
  std::unique_ptr<Coordinator> coordinator_;           ///< May be null.
  std::unique_ptr<Joiner> joiner_;                     ///< May be null.
  SimService service_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::unique_ptr<util::ThreadPool> dispatch_pool_;  ///< Lives start()..stop().
  std::atomic<bool> accepting_{false};
  /// Written under stop_mu_, so stop_cv_ waiters (the standby loop, the
  /// accept loop's EMFILE backoff) wake on it; read anywhere.
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  /// Standby machinery. service_/sweep_journal_/coordinator_ are written by
  /// promote() and only read by handlers that have already observed
  /// Role::Active (the release store below is the publication barrier).
  std::atomic<Role> role_{Role::Active};
  std::thread standby_thread_;

  std::mutex mu_;
  std::condition_variable drained_cv_;
  int active_connections_ = 0;  ///< Guarded by mu_; drives the drain wait.
};

}  // namespace sqz::serve
