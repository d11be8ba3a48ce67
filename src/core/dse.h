// Design-space exploration over accelerator configurations.
//
// Backs the ablation benches (register-file size, PE-array size, sparsity,
// DRAM parameters) and the Pareto view of cycles-vs-energy trade-offs the
// paper's co-design narrative implies.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "energy/model.h"
#include "nn/model.h"
#include "sched/network_sim.h"
#include "sim/config.h"

namespace sqz::core {

struct DesignPoint {
  std::string label;
  sim::AcceleratorConfig config;
  std::int64_t cycles = 0;
  double energy = 0.0;
  double utilization = 0.0;
};

/// Labelled configurations: one per design point, in sweep order.
using SweepConfigs = std::vector<std::pair<std::string, sim::AcceleratorConfig>>;

/// Evaluate every configuration on `model` (cycles, energy, utilization).
std::vector<DesignPoint> evaluate_designs(
    const nn::Model& model,
    const SweepConfigs& configs,
    sched::Objective objective = sched::Objective::Cycles,
    const energy::UnitEnergies& units = {});

// --- checked sweeps: fault isolation, pre-flight, crash safety ------------

class SweepJournal;

/// One design point that failed, as recorded in sweep dumps and /v1/sweep
/// responses. A poisoned point must not tear down the other n-1 evaluations,
/// so the sweep engine turns its exception into this structured record.
struct PointError {
  std::string label;  ///< The point's sweep label (e.g. "RF=16").
  std::string key;    ///< 16-hex FNV-1a of the canonical design-point key.
  /// "validate" | "simulate" | "journal", plus "dispatch" for
  /// points a coordinator could not place on any worker after requeues
  /// (serve/coordinator.h).
  std::string phase;
  std::string what;   ///< Diagnostic: validation summary or exception text.
};

/// A checked sweep's options: the simulation fidelity every point runs at
/// (the defaults reproduce the historical flat-model sweep byte-for-byte)
/// plus the sweep-only members below.
struct SweepOptions : sched::SimulationOptions {
  /// Cross-check each model x config pair (core/validate.h) before paying
  /// for its simulation; an infeasible point fails with phase "validate"
  /// and every violation listed, instead of whatever a mapper throws first.
  bool preflight = true;

  /// Non-null: append each completed point to this write-ahead journal and
  /// skip points whose key the journal already holds (crash-safe resume;
  /// restored metrics re-render byte-identically, see util/json.h).
  SweepJournal* journal = nullptr;

  /// Called after every point completes (and once up front with the resumed
  /// count) as progress(done, total, errors). Invoked from worker threads
  /// concurrently — the callback must be thread-safe.
  std::function<void(std::size_t, std::size_t, std::size_t)> progress =
      nullptr;
};

struct SweepOutcome {
  std::vector<DesignPoint> points;  ///< Successful points, input order.
  std::vector<PointError> errors;   ///< Failed points, input order.
  std::size_t resumed = 0;          ///< Points restored from the journal.
};

/// The canonical identity of one design point: compact JSON carrying the
/// serialized model text, the sweep label, the config_to_ini rendering, the
/// objective and — only when one differs from its flat default — the
/// fidelity options (timeline, double_buffered, tile_search, fuse). The
/// same canonicalization discipline as the serving cache (serve/api.h), so
/// a point's journal entry survives process restarts and config-struct
/// reordering alike, and a flat point's entry is never served to a
/// timeline sweep. This overload keys a flat-fidelity point.
std::string design_point_key(const nn::Model& model, const std::string& label,
                             const sim::AcceleratorConfig& config,
                             sched::Objective objective);

/// Same key with the model already serialized (nn/serialize.h): a sweep —
/// or a coordinator sharding one — serializes the model once, not per point.
/// Keys a flat-fidelity point.
std::string design_point_key(const std::string& model_text,
                             const std::string& label,
                             const sim::AcceleratorConfig& config,
                             sched::Objective objective);

/// The key of a point simulated with `options`: its objective and fidelity
/// (`units` are not keyed; requests cannot set them).
std::string design_point_key(const std::string& model_text,
                             const std::string& label,
                             const sim::AcceleratorConfig& config,
                             const sched::SimulationOptions& options);

/// The 16-hex FNV-1a digest of a canonical design-point key — the form
/// recorded in PointError::key.
std::string design_point_short_key(const std::string& key);
/// The same 16 hex from the key's util::fnv1a64, already computed.
std::string design_point_short_key(std::uint64_t key_hash);

/// The journal value for one completed point ({"cycles","energy",
/// "utilization"} as compact JSON). util::json_number emits the shortest
/// decimal that round-trips bit-exactly through strtod, so a value parsed
/// back from the journal re-renders to identical bytes — the property a
/// resumed sweep's byte identity stands on.
std::string design_point_value_json(const DesignPoint& point);

/// The per-point record-keeping of one sweep — the one path every sweep
/// front door (evaluate_designs_checked, the serve-layer coordinator) keeps
/// its books through. It keys every point, restores the points a journal
/// already holds, journals each completed point before recording it (a
/// failed append becomes a "journal" PointError), records failures under
/// their 16-hex short keys, and hands back the outcome in input order.
/// complete() and fail() may run concurrently for distinct points; each
/// point is recorded at most once.
class SweepLedger {
 public:
  /// `model_text` is the serialized model (nn/serialize.h); `options`
  /// carries the keyed fidelity. `configs` and `journal` (may be null) must
  /// outlive the ledger.
  SweepLedger(const std::string& model_text, const SweepConfigs& configs,
              const sched::SimulationOptions& options, SweepJournal* journal);

  SweepLedger(const SweepLedger&) = delete;  // recording threads hold it
  SweepLedger& operator=(const SweepLedger&) = delete;

  std::size_t size() const { return keys_.size(); }
  /// Point i's canonical design-point key (design_point_key).
  const std::string& key(std::size_t i) const { return keys_[i]; }
  /// util::fnv1a64 of key(i): the coordinator's ring position and chunk
  /// hash, and the digest of the point's short key. Hashed at most once,
  /// on first use, so a local sweep hashes only its failed points. Calls
  /// for distinct points may run concurrently.
  std::uint64_t key_hash(std::size_t i);
  /// True until point i is restored, completed or failed.
  bool pending(std::size_t i) const { return state_[i] == State::Pending; }
  /// Points restored from the journal at construction.
  std::size_t resumed() const { return resumed_; }

  /// Record point i's metrics (cycles, energy, utilization; the label and
  /// config come from the ledger), journaling them first. Returns false
  /// when the journal append failed and the point was recorded as a
  /// "journal" PointError instead.
  bool complete(std::size_t i, const DesignPoint& metrics);
  /// Record point i as failed: classify_point_error under its short key.
  void fail(std::size_t i, const std::exception_ptr& error);
  /// Record point i as failed in `phase` with diagnostic `what`.
  void fail(std::size_t i, std::string phase, std::string what);

  /// The recorded points and errors in input order, plus the resumed count.
  /// Pending points are left out. Leaves the ledger empty.
  SweepOutcome take_outcome();

 private:
  enum class State : char { Pending, Done, Failed };

  const SweepConfigs& configs_;
  SweepJournal* journal_;
  std::vector<std::string> keys_;
  std::vector<std::optional<std::uint64_t>> hashes_;  ///< key_hash memo.
  std::vector<DesignPoint> points_;
  std::vector<PointError> errors_;
  std::vector<State> state_;
  std::size_t resumed_ = 0;
};

/// Fault-isolating evaluate_designs: every configuration is evaluated even
/// when some throw. Failed points become PointErrors (input order); the
/// "dse.point" fault site (util/faultinject.h) can poison or stall points
/// for chaos tests. With a journal, completed points are appended as they
/// finish and already-journaled points are restored without re-simulating.
SweepOutcome evaluate_designs_checked(
    const nn::Model& model,
    const SweepConfigs& configs,
    const SweepOptions& options = {});

/// Same, with `model`'s serialized text (nn/serialize.h) already in hand —
/// the key every point's design-point key embeds.
SweepOutcome evaluate_designs_checked(
    const nn::Model& model,
    const std::string& model_text,
    const SweepConfigs& configs,
    const SweepOptions& options = {});

/// Classify one captured per-index exception (ValidationError -> "validate",
/// SweepJournalError -> "journal", anything else -> "simulate") into a
/// PointError. `error` must be non-null.
PointError classify_point_error(std::string label, std::string key,
                                const std::exception_ptr& error);

/// Points not dominated in (cycles, energy); input order is preserved.
std::vector<DesignPoint> pareto_front(const std::vector<DesignPoint>& points);

/// Dump a sweep as a JSON document: every DesignPoint with its label, full
/// config provenance, metrics, and `"pareto": true/false` membership in the
/// (cycles, energy) front — the dashboard/regression-diff format for DSE
/// runs. `sweep_name` labels the document (e.g. "rf_entries on sqnxt23").
void write_design_points_json(const std::string& sweep_name,
                              const std::vector<DesignPoint>& points,
                              std::ostream& out);

/// The same document for a checked sweep. With zero errors the output is
/// byte-identical to write_design_points_json (the golden dumps and the
/// serve byte-identity suite depend on that); failed points add an
/// "errors" array of {label, key, phase, what} after "points".
void write_sweep_outcome_json(const std::string& sweep_name,
                              const SweepOutcome& outcome, std::ostream& out);

/// write_sweep_outcome_json's document as one string — the /v1/sweep
/// response body.
std::string sweep_outcome_json(const std::string& sweep_name,
                               const SweepOutcome& outcome);

// --- sweep builder --------------------------------------------------------

/// The single-knob sweep every front door runs (sqzsim --sweep, POST
/// /v1/sweep, the coordinator): one labelled copy of `base` per value of
/// `knob`, in value order. The one table of knobs — rf_entries ("RF=16"),
/// array_n ("16x16"), sparsity ("sparsity=40%") and dram_bytes_per_cycle
/// ("DRAM=8B/cyc") — lives behind it. Throws std::invalid_argument on an
/// unknown knob or a non-integral value for an integer knob; the message
/// reads after a "sweep." or "--sweep " prefix. An empty `values` checks
/// the knob name alone.
SweepConfigs sweep_knob(const sim::AcceleratorConfig& base,
                        const std::string& knob,
                        const std::vector<double>& values);

}  // namespace sqz::core
