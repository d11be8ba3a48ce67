// The simulation service API: JSON request bodies -> core simulation ->
// the exact JSON documents the CLI emits (`sqzsim --json` for
// POST /v1/simulate, `sqzsim --dump-rf-sweep`-style DSE dumps for
// POST /v1/sweep). Responses are byte-identical to local runs by
// construction: both paths call the same core/report and core/dse writers.
//
// Request schema (POST /v1/simulate):
//   {
//     "model":      "sqnxt23",          // zoo name (core/cli.h spelling), or
//     "model_text": "model ...",        // inline nn/serialize.h description
//     "config":     {"rf_entries": 8},  // knobs over the Squeezelerator base
//     "config_ini": "[accelerator]...", //   ...or a full core/config_io INI
//     "options": {"objective": "cycles", "timeline": false,
//                 "double_buffered": true, "tile_search": false,
//                 "fuse": false}
//   }
// Every field is optional except one of model/model_text. POST /v1/sweep
// adds {"sweep": {"knob": "rf_entries", "values": [8, 16]}}; the knobs are
// core::sweep_knob's (core/dse.h). The sweep object
// still accepts the retired two-phase screening members "screen" (a bool)
// and "screen_keep" (a number in (0, 1], only with "screen": true) and
// rejects malformed ones, but ignores valid ones: such a request runs the
// exact sweep, and its key and response equal those of the same request
// without them.
//
// Cache-key canonicalization: requests are reduced to a compact JSON string
// with a fixed field order in which the model is the *serialized model
// text* (so a zoo name and its inline equivalent collide), the config is
// the config_to_ini rendering (full field set, sorted keys), and options
// carry their defaults explicitly. The SimCache keys on the FNV-1a hash of
// that string. Unit energies are not part of the key (the API does not
// expose them). The sweep key additionally carries the verbatim model
// label, which is embedded in the response's "sweep" name.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/model.h"
#include "sched/network_sim.h"
#include "sched/plan_io.h"
#include "serve/plancache.h"
#include "serve/simcache.h"
#include "sim/config.h"

namespace sqz::core {
class SweepJournal;
struct SweepOutcome;
}  // namespace sqz::core

namespace sqz::util {
class JsonWriter;
}

namespace sqz::serve {

/// Request-handling failure with the HTTP status it should map to.
class ApiError : public std::runtime_error {
 public:
  ApiError(int status, const std::string& message)
      : std::runtime_error(message), status_(status) {}
  int status() const noexcept { return status_; }

 private:
  int status_;
};

/// A validated /v1/simulate request.
struct SimulateRequest {
  nn::Model model;
  /// nn::serialize_model(model), made once per request (memoized for zoo
  /// names, core::zoo_model_text): the text the cache keys, the plan
  /// identity, the design-point keys and the coordinator's chunks carry.
  std::string model_text;
  std::string model_label;  ///< Verbatim "model" field, or "custom".
  sim::AcceleratorConfig config;
  sched::SimulationOptions options;
};

/// A validated /v1/sweep request.
struct SweepRequest {
  SimulateRequest base;
  std::string knob;
  std::vector<double> values;
};

/// A validated POST /v1/workers/register (or /deregister) body — dynamic
/// fleet membership (serve/workerpool.h):
///   {"host": "127.0.0.1", "port": 9000, "lease_ms": 5000}
/// `lease_ms` is register-only and optional (0 = the coordinator's default
/// TTL); deregister bodies carry host/port only.
struct WorkerRegistration {
  std::string host;
  int port = 0;
  std::int64_t lease_ms = 0;
};

/// Parse and validate request bodies. Throw ApiError(400) with a
/// client-readable message on any violation (bad JSON, unknown model,
/// unknown config key, invalid knob value, ...).
SimulateRequest parse_simulate_request(const std::string& body);
SweepRequest parse_sweep_request(const std::string& body);
WorkerRegistration parse_worker_registration(const std::string& body);

/// The canonical cache-key strings defined above.
std::string canonical_key(const SimulateRequest& req);
std::string canonical_key(const SweepRequest& req);

/// Write the request's options as an `"options"` member of the open object
/// `w`, every member explicit in a fixed order — the form the cache keys and
/// the coordinator's chunk bodies (serve/coordinator.h) share.
void options_to_canonical_json(const sched::SimulationOptions& options,
                               util::JsonWriter& w);

/// The labeled configurations a sweep request expands to (core::sweep_knob,
/// the one knob table the CLI and the local engine use too), exposed so the
/// coordinator shards exactly the point set a single node would evaluate.
/// Throws ApiError(400) on non-integral values for integer knobs.
std::vector<std::pair<std::string, sim::AcceleratorConfig>> sweep_configs(
    const SweepRequest& req);

/// Outcome counters for one executed sweep (journal/error visibility on
/// /metrics). All zero for cache hits and non-sweep requests.
struct SweepRunStats {
  std::size_t points = 0;        ///< Successful points in the response.
  std::size_t point_errors = 0;  ///< Structured PointErrors in the response.
  std::size_t resumed = 0;       ///< Points restored from the sweep journal.

  bool partial() const noexcept { return point_errors > 0; }
};

/// Stateless executors: run the simulation and render the response body.
/// run_simulate optionally hands back the compiled plan for the request
/// (`compiled_plan` non-null) — derived from the same simulation that
/// produced the response, so the serving cold path compiles without
/// simulating twice. run_simulate_with_plan replays a plan's scheduling
/// decisions instead of searching (sched::simulate_with_plan); by
/// determinism its response is byte-identical to run_simulate for the
/// request the plan was compiled from.
/// run_sweep fault-isolates each design point (core/dse.h
/// evaluate_designs_checked): a throwing point becomes a structured entry
/// in the response's "errors" array instead of failing the request. With a
/// `journal`, completed points are appended and already-journaled points
/// are served without re-simulating.
std::string run_simulate(const SimulateRequest& req,
                         sched::PlanArtifact* compiled_plan = nullptr);
std::string run_simulate_with_plan(const SimulateRequest& req,
                                   const sched::Program& program);
std::string run_sweep(const SweepRequest& req,
                      core::SweepJournal* journal = nullptr,
                      SweepRunStats* stats = nullptr);

/// The tail every executed sweep shares, run locally or coordinated: fill
/// `stats` (may be null) from the outcome and render the response body.
std::string sweep_response(const SweepRequest& req,
                           const core::SweepOutcome& outcome,
                           SweepRunStats* stats);

class Coordinator;

/// The cached service: parse -> canonicalize -> cache lookup -> execute.
class SimService {
 public:
  struct Result {
    std::string body;
    bool cache_hit = false;
    bool plan_hit = false;  ///< Executed, but from a cached compiled plan.
    SweepRunStats sweep;  ///< Filled for executed (non-cache-hit) sweeps.
  };

  /// `cache` may be null to serve uncached; `journal` may be null to run
  /// sweeps without crash-safe journaling; `plans` may be null to compile
  /// every result-cache miss from scratch. A non-null `coordinator`
  /// (serve/coordinator.h) shards executed sweeps across its worker fleet
  /// instead of simulating locally; /v1/simulate always runs locally.
  explicit SimService(SimCache* cache, core::SweepJournal* journal = nullptr,
                      PlanCache* plans = nullptr,
                      Coordinator* coordinator = nullptr)
      : cache_(cache), journal_(journal), plans_(plans),
        coordinator_(coordinator) {}

  Result simulate(const std::string& request_body);
  Result sweep(const std::string& request_body);

 private:
  SimCache* cache_;
  core::SweepJournal* journal_;
  PlanCache* plans_;
  Coordinator* coordinator_;
};

}  // namespace sqz::serve
