#include "core/dse.h"

#include <atomic>
#include <climits>
#include <cstdio>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "core/config_io.h"
#include "core/report.h"
#include "core/sweepjournal.h"
#include "core/validate.h"
#include "nn/serialize.h"
#include "util/faultinject.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/json_parse.h"
#include "util/strings.h"
#include "util/threadpool.h"

namespace sqz::core {

namespace {

bool dominated_by_any(const DesignPoint& p, const std::vector<DesignPoint>& points) {
  for (const DesignPoint& q : points) {
    const bool q_no_worse = q.cycles <= p.cycles && q.energy <= p.energy;
    const bool q_better = q.cycles < p.cycles || q.energy < p.energy;
    if (q_no_worse && q_better) return true;
  }
  return false;
}

// The canonical key with the model already serialized — a sweep serializes
// the model once, not once per point. Fidelity joins the key only when it
// differs from the flat defaults, so every flat key (and every flat journal
// written before fidelity was keyed) is unchanged.
std::string key_from_parts(const std::string& model_text,
                           const std::string& label,
                           const sim::AcceleratorConfig& config,
                           const sched::SimulationOptions& options) {
  std::string key;
  util::JsonWriter w(key, /*indent=*/0);
  w.begin_object();
  w.member("op", "design_point");
  w.member("model", model_text);
  w.member("label", label);
  w.member("config", config_to_ini(config));
  w.member("objective",
           options.objective == sched::Objective::Energy ? "energy" : "cycles");
  const sched::SimulationOptions flat;
  if (options.tile_timeline != flat.tile_timeline ||
      options.double_buffered != flat.double_buffered ||
      options.tile_search != flat.tile_search ||
      options.fuse_pool_drain != flat.fuse_pool_drain) {
    w.key("options");
    w.begin_object();
    w.member("timeline", options.tile_timeline);
    w.member("double_buffered", options.double_buffered);
    w.member("tile_search", options.tile_search);
    w.member("fuse", options.fuse_pool_drain);
    w.end_object();
  }
  w.end_object();
  // A sweep holds one key per point for its whole run; drop the append
  // slack (up to half of each key) before it is stored.
  key.shrink_to_fit();
  return key;
}

sched::SimulationOptions flat_options(sched::Objective objective) {
  sched::SimulationOptions s;
  s.objective = objective;
  return s;
}

bool parse_point_value(const std::string& json, DesignPoint& p) {
  try {
    const util::JsonValue v = util::parse_json(json);
    p.cycles = v.at("cycles").as_int();
    p.energy = v.at("energy").as_double();
    p.utilization = v.at("utilization").as_double();
    return true;
  } catch (const std::exception&) {
    return false;  // foreign/garbled journal value: re-simulate the point
  }
}

}  // namespace

std::vector<DesignPoint> evaluate_designs(
    const nn::Model& model,
    const SweepConfigs& configs,
    sched::Objective objective, const energy::UnitEnergies& units) {
  // Each design point is an independent full-network simulation; fan them
  // out and write into position-indexed slots so the output (and therefore
  // Pareto membership and JSON dumps) is byte-identical at any job count.
  std::vector<DesignPoint> points(configs.size());
  util::ThreadPool::global().parallel_for_index(
      configs.size(), [&](std::size_t i) {
        const auto& [label, cfg] = configs[i];
        const sim::NetworkResult net =
            sched::simulate_network(model, cfg, objective, units);
        DesignPoint& p = points[i];
        p.label = label;
        p.config = cfg;
        p.cycles = net.total_cycles();
        p.energy = energy::network_energy(net, units).total();
        p.utilization = net.utilization();
      });
  return points;
}

std::string design_point_key(const nn::Model& model, const std::string& label,
                             const sim::AcceleratorConfig& config,
                             sched::Objective objective) {
  return key_from_parts(nn::serialize_model(model), label, config,
                        flat_options(objective));
}

std::string design_point_key(const std::string& model_text,
                             const std::string& label,
                             const sim::AcceleratorConfig& config,
                             sched::Objective objective) {
  return key_from_parts(model_text, label, config, flat_options(objective));
}

std::string design_point_key(const std::string& model_text,
                             const std::string& label,
                             const sim::AcceleratorConfig& config,
                             const sched::SimulationOptions& options) {
  return key_from_parts(model_text, label, config, options);
}

std::string design_point_short_key(const std::string& key) {
  return design_point_short_key(util::fnv1a64(key));
}

std::string design_point_short_key(std::uint64_t key_hash) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(key_hash));
  return hex;
}

std::string design_point_value_json(const DesignPoint& point) {
  std::string value;
  util::JsonWriter w(value, /*indent=*/0);
  w.begin_object();
  w.member("cycles", point.cycles);
  w.member("energy", point.energy);
  w.member("utilization", point.utilization);
  w.end_object();
  return value;
}

PointError classify_point_error(std::string label, std::string key,
                                const std::exception_ptr& error) {
  PointError pe;
  pe.label = std::move(label);
  pe.key = std::move(key);
  try {
    std::rethrow_exception(error);
  } catch (const ValidationError& e) {
    pe.phase = "validate";
    pe.what = e.what();
  } catch (const SweepJournalError& e) {
    pe.phase = "journal";
    pe.what = e.what();
  } catch (const std::exception& e) {
    pe.phase = "simulate";
    pe.what = e.what();
  } catch (...) {
    pe.phase = "simulate";
    pe.what = "unknown exception";
  }
  return pe;
}

SweepLedger::SweepLedger(const std::string& model_text,
                         const SweepConfigs& configs,
                         const sched::SimulationOptions& options,
                         SweepJournal* journal)
    : configs_(configs),
      journal_(journal),
      keys_(configs.size()),
      hashes_(configs.size()),
      points_(configs.size()),
      errors_(configs.size()),
      state_(configs.size(), State::Pending) {
  for (std::size_t i = 0; i < configs.size(); ++i) {
    keys_[i] = key_from_parts(model_text, configs[i].first, configs[i].second,
                              options);
    if (!journal_) continue;
    // A restored point re-renders byte-identically (util/json.h
    // round-trip numbers); a foreign or garbled value is re-evaluated.
    const std::optional<std::string> value = journal_->find(keys_[i]);
    if (!value || !parse_point_value(*value, points_[i])) continue;
    points_[i].label = configs[i].first;
    points_[i].config = configs[i].second;
    state_[i] = State::Done;
    ++resumed_;
  }
}

std::uint64_t SweepLedger::key_hash(std::size_t i) {
  if (!hashes_[i]) hashes_[i] = util::fnv1a64(keys_[i]);
  return *hashes_[i];
}

bool SweepLedger::complete(std::size_t i, const DesignPoint& metrics) {
  DesignPoint& p = points_[i];
  p.label = configs_[i].first;
  p.config = configs_[i].second;
  p.cycles = metrics.cycles;
  p.energy = metrics.energy;
  p.utilization = metrics.utilization;
  // The on-disk record is the crash-safety contract: a point only counts
  // as done once its append stuck.
  if (journal_) {
    try {
      journal_->append(keys_[i], design_point_value_json(p));
    } catch (const SweepJournalError&) {
      fail(i, std::current_exception());
      return false;
    }
  }
  state_[i] = State::Done;
  return true;
}

void SweepLedger::fail(std::size_t i, const std::exception_ptr& error) {
  errors_[i] = classify_point_error(configs_[i].first,
                                    design_point_short_key(key_hash(i)), error);
  state_[i] = State::Failed;
}

void SweepLedger::fail(std::size_t i, std::string phase, std::string what) {
  errors_[i] = PointError{configs_[i].first,
                          design_point_short_key(key_hash(i)), std::move(phase),
                          std::move(what)};
  state_[i] = State::Failed;
}

SweepOutcome SweepLedger::take_outcome() {
  SweepOutcome out;
  out.resumed = resumed_;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (state_[i] == State::Done)
      out.points.push_back(std::move(points_[i]));
    else if (state_[i] == State::Failed)
      out.errors.push_back(std::move(errors_[i]));
  }
  return out;
}

SweepOutcome evaluate_designs_checked(const nn::Model& model,
                                      const SweepConfigs& configs,
                                      const SweepOptions& opt) {
  return evaluate_designs_checked(model, nn::serialize_model(model), configs,
                                  opt);
}

SweepOutcome evaluate_designs_checked(const nn::Model& model,
                                      const std::string& model_text,
                                      const SweepConfigs& configs,
                                      const SweepOptions& opt) {
  const std::size_t n = configs.size();
  SweepLedger ledger(model_text, configs, opt, opt.journal);

  std::atomic<std::size_t> done{ledger.resumed()};
  std::atomic<std::size_t> failed{0};
  if (opt.progress) opt.progress(done.load(), n, 0);

  // One fault-isolated parallel pass: restored points are skipped, and a
  // throwing point is recorded as a PointError without tearing down the
  // others.
  util::ThreadPool::global().parallel_for_index(n, [&](std::size_t i) {
    if (!ledger.pending(i)) return;
    bool ok = false;
    try {
      // "dse.point" fault site: Errno poisons the point (the structured
      // PointError path must absorb it), Stall slows it down (the
      // SIGKILL-mid-sweep chaos test widens the crash window with it).
      if (util::fault::enabled()) {
        const util::fault::Action a = util::fault::at("dse.point");
        if (a.kind == util::fault::Kind::Errno)
          throw std::runtime_error(
              "injected dse.point fault (" + configs[i].first + ")");
      }
      if (opt.preflight) {
        const ValidationReport report =
            validate_design(model, configs[i].second);
        if (!report.ok()) throw ValidationError(report.summary());
      }
      const sim::NetworkResult net =
          sched::simulate_network(model, configs[i].second, opt);
      DesignPoint p;
      p.cycles = net.total_cycles();
      p.energy = energy::network_energy(net, opt.units).total();
      p.utilization = net.utilization();
      ok = ledger.complete(i, p);
    } catch (...) {
      ledger.fail(i, std::current_exception());
    }
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
    done.fetch_add(1, std::memory_order_relaxed);
    if (opt.progress) opt.progress(done.load(), n, failed.load());
  });
  return ledger.take_outcome();
}

std::vector<DesignPoint> pareto_front(const std::vector<DesignPoint>& points) {
  std::vector<DesignPoint> front;
  for (const DesignPoint& p : points)
    if (!dominated_by_any(p, points)) front.push_back(p);
  return front;
}

namespace {

// Shared by the clean and checked dump paths. The "errors" array is emitted
// only when non-empty, so a zero-error checked sweep stays byte-identical to
// write_design_points_json — the golden dumps and the serve byte-identity
// suite compare against that exact form.
std::string points_doc(const std::string& sweep_name,
                       const std::vector<DesignPoint>& points,
                       const std::vector<PointError>& errors) {
  std::string out;
  util::JsonWriter w(out);
  w.begin_object();
  w.member("schema_version", kReportSchemaVersion);
  w.member("generator", "sqzsim");
  w.member("sweep", sweep_name);
  w.key("points");
  w.begin_array();
  for (const DesignPoint& p : points) {
    w.begin_object();
    w.member("label", p.label);
    w.member("cycles", p.cycles);
    w.member("energy", p.energy);
    w.member("utilization", p.utilization);
    w.member("pareto", !dominated_by_any(p, points));
    w.key("config");
    w.begin_object();
    config_to_json(p.config, w);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  if (!errors.empty()) {
    w.key("errors");
    w.begin_array();
    for (const PointError& e : errors) {
      w.begin_object();
      w.member("label", e.label);
      w.member("key", e.key);
      w.member("phase", e.phase);
      w.member("what", e.what);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  out += '\n';
  return out;
}

}  // namespace

void write_design_points_json(const std::string& sweep_name,
                              const std::vector<DesignPoint>& points,
                              std::ostream& out) {
  out << points_doc(sweep_name, points, {});
}

std::string sweep_outcome_json(const std::string& sweep_name,
                               const SweepOutcome& outcome) {
  return points_doc(sweep_name, outcome.points, outcome.errors);
}

void write_sweep_outcome_json(const std::string& sweep_name,
                              const SweepOutcome& outcome, std::ostream& out) {
  out << sweep_outcome_json(sweep_name, outcome);
}

namespace {

// The sweep knobs: name, whether values must be integers, how a value
// lands in the config, and the point's label.
struct Knob {
  const char* name;
  bool integral;
  void (*apply)(sim::AcceleratorConfig&, double);
  std::string (*label)(double);
};

constexpr Knob kKnobs[] = {
    {"rf_entries", true,
     [](sim::AcceleratorConfig& c, double v) {
       c.rf_entries = static_cast<int>(v);
     },
     [](double v) { return util::format("RF=%d", static_cast<int>(v)); }},
    {"array_n", true,
     [](sim::AcceleratorConfig& c, double v) {
       c.array_n = static_cast<int>(v);
     },
     [](double v) {
       return util::format("%dx%d", static_cast<int>(v), static_cast<int>(v));
     }},
    {"sparsity", false,
     [](sim::AcceleratorConfig& c, double v) { c.weight_sparsity = v; },
     [](double v) { return util::format("sparsity=%.0f%%", v * 100.0); }},
    {"dram_bytes_per_cycle", false,
     [](sim::AcceleratorConfig& c, double v) { c.dram_bytes_per_cycle = v; },
     [](double v) { return util::format("DRAM=%.0fB/cyc", v); }},
};

}  // namespace

SweepConfigs sweep_knob(const sim::AcceleratorConfig& base,
                        const std::string& knob,
                        const std::vector<double>& values) {
  const Knob* k = nullptr;
  std::string names;
  for (const Knob& candidate : kKnobs) {
    if (knob == candidate.name) k = &candidate;
    names += names.empty() ? "" : "|";
    names += candidate.name;
  }
  if (!k)
    throw std::invalid_argument("knob must be one of " + names + ", got '" +
                                knob + "'");
  SweepConfigs out;
  out.reserve(values.size());
  for (const double v : values) {
    if (k->integral && !(v >= INT_MIN && v <= INT_MAX &&
                         static_cast<double>(static_cast<int>(v)) == v))
      throw std::invalid_argument(std::string("values for ") + k->name +
                                  " must be integers");
    sim::AcceleratorConfig c = base;
    k->apply(c, v);
    out.emplace_back(k->label(v), c);
  }
  return out;
}

}  // namespace sqz::core
