#include "serve/coordinator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/config_io.h"
#include "core/dse.h"
#include "serve/metrics.h"
#include "util/faultinject.h"
#include "util/json.h"
#include "util/json_parse.h"
#include "util/logging.h"

namespace sqz::serve {

namespace {

using Clock = std::chrono::steady_clock;

const util::JsonValue* member(const util::JsonValue& obj,
                              const std::string& key) {
  for (const auto& [k, v] : obj.members)
    if (k == key) return &v;
  return nullptr;
}

std::vector<HostPort> parse_workers(const std::vector<std::string>& specs) {
  std::vector<HostPort> out;
  out.reserve(specs.size());
  for (const std::string& spec : specs)
    out.push_back(parse_host_port(spec, "--workers"));
  return out;
}

/// The /v1/sweep body for one chunk: the base request re-rendered with the
/// model as serialized text, the config as its INI rendering, every option
/// explicit, and only the chunk's own knob values. Workers re-derive the
/// same labels and design-point keys the coordinator holds, because both
/// sides run the same sweep builders over the same canonical inputs.
std::string chunk_request_body(const SweepRequest& req,
                               const std::string& model_text,
                               const std::string& config_ini,
                               const std::vector<std::size_t>& idx) {
  std::string body;
  util::JsonWriter w(body, /*indent=*/0);
  w.begin_object();
  w.member("model_text", model_text);
  w.member("config_ini", config_ini);
  options_to_canonical_json(req.base.options, w);
  w.key("sweep");
  w.begin_object();
  w.member("knob", req.knob);
  w.key("values");
  w.begin_array();
  for (const std::size_t i : idx) w.value(req.values[i]);
  w.end_array();
  w.end_object();
  w.end_object();
  return body;
}

/// One chunk position's answer from a worker: its metrics, or the phase and
/// diagnostic of the PointError the worker recorded for it.
struct Slot {
  bool ok = false;
  core::DesignPoint metrics;
  std::string phase, what;  ///< When !ok.
};

/// Map a worker's sweep dump back onto the chunk's positions. "points" and
/// "errors" both preserve input order, so a single greedy pass with two
/// cursors assigns every label; pareto/config members are ignored (the
/// coordinator recomputes them over the full point set). Returns false on
/// any shape surprise — the caller treats that as a failed dispatch.
bool parse_chunk_response(const std::string& body,
                          const std::vector<std::string>& labels,
                          std::vector<Slot>& out) {
  try {
    const util::JsonValue doc = util::parse_json(body);
    if (!doc.is_object()) return false;
    const util::JsonValue* points = member(doc, "points");
    const util::JsonValue* errors = member(doc, "errors");
    if (!points || !points->is_array()) return false;
    if (errors && !errors->is_array()) return false;
    out.assign(labels.size(), Slot{});
    std::size_t pi = 0;
    std::size_t ei = 0;
    for (std::size_t p = 0; p < labels.size(); ++p) {
      Slot& slot = out[p];
      if (pi < points->items.size() &&
          points->items[pi].at("label").as_string() == labels[p]) {
        const util::JsonValue& v = points->items[pi++];
        slot.ok = true;
        slot.metrics.cycles = v.at("cycles").as_int();
        slot.metrics.energy = v.at("energy").as_double();
        slot.metrics.utilization = v.at("utilization").as_double();
      } else if (errors && ei < errors->items.size() &&
                 errors->items[ei].at("label").as_string() == labels[p]) {
        const util::JsonValue& v = errors->items[ei++];
        slot.phase = v.at("phase").as_string();
        slot.what = v.at("what").as_string();
      } else {
        return false;  // the worker answered for a different point set
      }
    }
    return pi == points->items.size() &&
           ei == (errors ? errors->items.size() : 0);
  } catch (const std::exception&) {
    return false;
  }
}

enum class ChunkState { Queued, Parked, InFlight, Done, Failed };

/// One dispatched chunk. idx/labels/body/hash are immutable after
/// sharding; the dispatch state below them is guarded by Run::mu.
struct Chunk {
  std::vector<std::size_t> idx;     ///< Global point indices, input order.
  std::vector<std::string> labels;  ///< Sweep labels, aligned with idx.
  std::string body;                 ///< The worker /v1/sweep request.
  std::uint64_t hash = 0;           ///< Ring position (first point's key).

  ChunkState state = ChunkState::Queued;
  std::vector<int> tried;  ///< Workers this chunk was already sent to.
  /// The monitor's next look: the straggler deadline while InFlight, the
  /// requeue time while Parked.
  Clock::time_point wake_at{};
  int requeues = 0;
  bool steal_pending = false;  ///< A steal is queued or on the wire.

  bool settled() const {
    return state == ChunkState::Done || state == ChunkState::Failed;
  }
};

/// Per-run_sweep dispatch state shared between the dispatcher threads and
/// the monitor. mu guards everything here; cv is notified on every change
/// a waiter could act on.
struct Run {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Chunk> chunks;
  std::deque<std::pair<std::size_t, bool>> queue;  ///< (chunk, is_steal).
  bool quit = false;
};

/// How long a chunk that found no usable worker stays parked before it is
/// requeued: a beat for probation to readmit somebody.
constexpr std::chrono::milliseconds kParkFor{50};

}  // namespace

Coordinator::Coordinator(const CoordinatorOptions& options, Metrics* metrics)
    : options_(options),
      metrics_(metrics),
      pool_(parse_workers(options.workers), options.probe, metrics) {}

Coordinator::~Coordinator() { stop(); }

void Coordinator::start() { pool_.start(); }

void Coordinator::stop() { pool_.stop(); }

WorkerPool::Registration Coordinator::register_worker(const HostPort& addr,
                                                      std::int64_t lease_ms) {
  // "coord.register" fault point: refuse the registration as a 503 so the
  // joining worker's jittered-retry loop is drilled deterministically.
  if (util::fault::enabled() &&
      util::fault::at("coord.register").kind == util::fault::Kind::Errno)
    throw ApiError(503, "registration refused (injected coord.register fault)");
  if (lease_ms <= 0) lease_ms = options_.default_lease_ms;
  const WorkerPool::Registration r =
      pool_.register_worker(addr, lease_ms, WorkerPool::now_ms());
  if (metrics_) metrics_->record_coord_register();
  return r;
}

bool Coordinator::deregister_worker(const HostPort& addr) {
  if (!pool_.deregister_worker(addr, WorkerPool::now_ms())) return false;
  // The fence: the departure stopped new routes here; chunks routed before
  // it are still on their way. Answer once they have been reported, so the
  // worker closes its listener only after serving them.
  if (!pool_.await_dispatches(addr, options_.dispatch_timeout_ms))
    SQZ_LOG(Warn) << "coordinator: " << addr.host << ":" << addr.port
                  << " deregistered with chunks still outstanding after "
                  << options_.dispatch_timeout_ms << " ms";
  return true;
}

std::string Coordinator::run_sweep(const SweepRequest& req,
                                   core::SweepJournal* journal,
                                   SweepRunStats* stats) {
  const core::SweepConfigs configs = sweep_configs(req);
  const std::string& model_text = req.base.model_text;
  const std::string config_ini = core::config_to_ini(req.base.config);

  // The ledger keys every point — the journal key and, hashed, the ring
  // position, so a point shards to the same worker sweep after sweep — and
  // restores journaled points, which are never dispatched again.
  core::SweepLedger ledger(model_text, configs, req.base.options, journal);

  // Shard: route each pending point on the ring, group per worker, slice
  // each group into chunks. A point with no usable home right now groups
  // under -1 and is placed at dispatch time like any other chunk.
  Run run;
  {
    std::map<int, std::vector<std::size_t>> by_worker;
    for (std::size_t i = 0; i < ledger.size(); ++i)
      if (ledger.pending(i))
        by_worker[pool_.route(ledger.key_hash(i))].push_back(i);
    const std::size_t chunk_points =
        static_cast<std::size_t>(std::max(1, options_.chunk_points));
    for (const auto& [w, idxs] : by_worker) {
      (void)w;
      for (std::size_t at = 0; at < idxs.size(); at += chunk_points) {
        Chunk c;
        const std::size_t end = std::min(idxs.size(), at + chunk_points);
        c.idx.assign(idxs.begin() + static_cast<std::ptrdiff_t>(at),
                     idxs.begin() + static_cast<std::ptrdiff_t>(end));
        for (const std::size_t i : c.idx) c.labels.push_back(configs[i].first);
        c.body = chunk_request_body(req, model_text, config_ini, c.idx);
        c.hash = ledger.key_hash(c.idx.front());
        run.queue.emplace_back(run.chunks.size(), false);
        run.chunks.push_back(std::move(c));
      }
    }
  }

  const auto straggler =
      std::chrono::milliseconds(std::max(1, options_.straggler_ms));

  // Settlement, in the ledger, exactly once per chunk — by whoever moves it
  // to Done or Failed. A failed chunk fails each of its points in phase
  // "dispatch" (caller holds run.mu).
  const auto fail_chunk = [&](Chunk& c, const std::string& what) {
    c.state = ChunkState::Failed;
    for (const std::size_t i : c.idx) ledger.fail(i, "dispatch", what);
    run.cv.notify_all();
  };

  // Placement (caller holds run.mu): the worker a queued job goes to, or -1
  // when there is nothing to send — the chunk settled meanwhile, a steal
  // found no other worker, or no worker is usable at all.
  const auto place = [&](std::size_t ci, bool is_steal) -> int {
    Chunk& c = run.chunks[ci];
    if (c.settled()) {
      if (is_steal) c.steal_pending = false;
      return -1;
    }
    int w = pool_.acquire(c.hash, c.tried);
    // Every usable worker was already tried: a requeue retreads the ring
    // rather than wasting its remaining budget on an empty exclusion set.
    if (w < 0 && !is_steal && !c.tried.empty()) w = pool_.acquire(c.hash);
    if (w >= 0) {
      c.tried.push_back(w);
      if (!is_steal) {
        c.state = ChunkState::InFlight;
        c.wake_at = Clock::now() + straggler;
        run.cv.notify_all();  // the monitor takes on a new straggler deadline
      }
      return w;
    }
    if (is_steal) {
      c.steal_pending = false;
      return -1;
    }
    // The whole fleet is unusable: burn one requeue and park the chunk
    // until the monitor requeues it; exhaustion fails the chunk.
    if (++c.requeues > options_.max_requeues) {
      fail_chunk(c, "no usable worker (fleet of " +
                        std::to_string(pool_.member_count()) +
                        " members, none usable)");
      return -1;
    }
    if (metrics_) metrics_->record_coord_requeue(c.idx.size());
    c.state = ChunkState::Parked;
    c.wake_at = Clock::now() + kParkFor;
    run.cv.notify_all();
    return -1;
  };

  // One dispatch on the wire, without the lock.
  struct Sent {
    bool ok = false;
    bool fatal = false;  ///< Deterministic rejection: do not requeue.
    std::string fail;
    std::vector<Slot> slots;
  };
  const auto send = [&](const Chunk& c, int w, bool is_steal) {
    // The chaos seams: "coord.steal" stalls a primary dispatch so the
    // straggler monitor provably fires; "coord.dispatch" fails the send
    // before a socket is ever touched.
    if (!is_steal) util::fault::at("coord.steal");
    const bool injected =
        util::fault::at("coord.dispatch").kind == util::fault::Kind::Errno;

    // By value: the pool's address table grows under membership churn.
    const HostPort addr = pool_.address(static_cast<std::size_t>(w));
    const std::string where = addr.host + ":" + std::to_string(addr.port);
    if (metrics_) {
      metrics_->record_coord_dispatch(c.idx.size());
      metrics_->coord_chunk_started();
    }
    Sent r;
    if (injected) {
      r.fail = "worker " + where + ": injected dispatch fault (coord.dispatch)";
    } else {
      try {
        HttpRequest hr;
        hr.method = "POST";
        hr.target = "/v1/sweep";
        hr.headers.emplace_back("Content-Type", "application/json");
        hr.body = c.body;
        RetryPolicy policy;
        policy.max_attempts = std::max(1, options_.dispatch_attempts);
        policy.base_ms = options_.dispatch_base_ms;
        policy.seed = 0x5eedULL ^ c.hash;
        int attempts = 1;
        const HttpResponse resp =
            http_fetch_retry(addr.host, addr.port, hr,
                             options_.dispatch_timeout_ms, policy, &attempts);
        if (metrics_ && attempts > 1)
          metrics_->record_coord_retries(
              static_cast<std::uint64_t>(attempts - 1));
        if (resp.status == 200) {
          if (parse_chunk_response(resp.body, c.labels, r.slots))
            r.ok = true;
          else
            r.fail = "worker " + where + " returned an unparseable sweep body";
        } else if (resp.status >= 400 && resp.status < 500) {
          // The worker is alive and rejected the chunk deterministically:
          // the same bytes cannot fare better elsewhere.
          r.fatal = true;
          r.fail = "worker " + where + " rejected the chunk: HTTP " +
                   std::to_string(resp.status);
        } else {
          r.fail =
              "worker " + where + " answered HTTP " + std::to_string(resp.status);
        }
      } catch (const FetchError& e) {
        r.fail = "worker " + where + ": " + e.what();
      }
    }
    if (metrics_) metrics_->coord_chunk_finished();
    pool_.report(static_cast<std::size_t>(w), r.ok || r.fatal);
    return r;
  };

  const auto dispatcher = [&] {
    std::unique_lock<std::mutex> lk(run.mu);
    for (;;) {
      run.cv.wait(lk, [&] { return run.quit || !run.queue.empty(); });
      if (run.queue.empty()) return;  // quit, and nothing left to run
      const auto [ci, is_steal] = run.queue.front();
      run.queue.pop_front();
      const int w = place(ci, is_steal);
      if (w < 0) continue;
      Chunk& c = run.chunks[ci];
      lk.unlock();
      const Sent r = send(c, w, is_steal);
      lk.lock();

      if (is_steal) c.steal_pending = false;
      if (r.ok && !c.settled()) {
        // First valid result wins; a steal-race loser finds the chunk
        // settled and discards its copy. The same rule covers membership
        // churn: a chunk dispatched under an older ring epoch is accepted
        // when it lands — the epoch versions routing, not results. The
        // ledger journals each point before the response reports it, and
        // without the lock: appends flush to disk.
        c.state = ChunkState::Done;
        lk.unlock();
        for (std::size_t p = 0; p < c.idx.size(); ++p) {
          if (r.slots[p].ok)
            ledger.complete(c.idx[p], r.slots[p].metrics);
          else
            ledger.fail(c.idx[p], r.slots[p].phase, r.slots[p].what);
        }
        lk.lock();
      } else if (r.fatal && !c.settled()) {
        fail_chunk(c, r.fail);
      } else if (!r.ok && !r.fatal && !is_steal &&
                 c.state == ChunkState::InFlight) {
        // Retryable failure: the primary requeues (budget permitting); a
        // failed steal just retires — its primary is still in flight.
        if (++c.requeues > options_.max_requeues) {
          fail_chunk(c, r.fail + " (chunk failed after " +
                            std::to_string(options_.max_requeues) +
                            " requeues)");
        } else {
          c.state = ChunkState::Queued;
          run.queue.emplace_back(ci, false);
          if (metrics_) metrics_->record_coord_requeue(c.idx.size());
        }
      }
      run.cv.notify_all();  // a retired steal may let the monitor steal again
    }
  };

  // Dispatcher pool: wide enough to keep every worker busy and to let a
  // steal overtake a stalled primary, bounded so a huge fleet cannot fork
  // a thread herd per request.
  std::vector<std::thread> dispatchers;
  const std::size_t chunks = run.chunks.size();
  const std::size_t width =
      std::min<std::size_t>(std::max<std::size_t>(2, 2 * pool_.size()), 8);
  for (std::size_t t = 0; chunks > 0 && t < std::min(width, chunks + 1); ++t)
    dispatchers.emplace_back(dispatcher);

  // Monitor: wait until every chunk has settled or the earliest deadline
  // passes — requeue parked chunks, and re-dispatch stragglers to a
  // different worker.
  {
    std::unique_lock<std::mutex> lk(run.mu);
    for (;;) {
      const Clock::time_point now = Clock::now();
      Clock::time_point next = Clock::time_point::max();
      bool all_settled = true;
      bool queued = false;
      for (std::size_t ci = 0; ci < run.chunks.size(); ++ci) {
        Chunk& c = run.chunks[ci];
        all_settled = all_settled && c.settled();
        const bool parked = c.state == ChunkState::Parked;
        if (!parked && (c.state != ChunkState::InFlight || c.steal_pending))
          continue;
        if (c.wake_at <= now) {
          if (parked) {
            c.state = ChunkState::Queued;
            run.queue.emplace_back(ci, false);
            queued = true;
            continue;
          }
          if (pool_.route(c.hash, c.tried) >= 0) {
            c.steal_pending = true;
            run.queue.emplace_back(ci, true);
            queued = true;
            if (metrics_) metrics_->record_coord_steal();
            continue;
          }
          // Nowhere to steal to: look again a straggler window later.
          c.wake_at = now + straggler;
        }
        next = std::min(next, c.wake_at);
      }
      if (all_settled) break;
      if (queued) run.cv.notify_all();
      if (next == Clock::time_point::max())
        run.cv.wait(lk);
      else
        run.cv.wait_until(lk, next);
    }
    run.quit = true;
  }
  run.cv.notify_all();
  // Joining also waits out a settling chunk's journal appends.
  for (std::thread& th : dispatchers) th.join();
  return sweep_response(req, ledger.take_outcome(), stats);
}

}  // namespace sqz::serve
