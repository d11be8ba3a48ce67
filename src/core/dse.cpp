#include "core/dse.h"

#include <atomic>
#include <cstdio>
#include <optional>
#include <ostream>

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

std::string short_key(const std::string& canonical) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(util::fnv1a64(canonical)));
  return hex;
}

// Journal value: the point's metrics as compact JSON. util::json_number
// emits the shortest decimal that round-trips bit-exactly through strtod,
// so a value parsed back from the journal re-renders to identical bytes —
// the property the resume byte-identity guarantee stands on.
std::string point_value_json(const DesignPoint& p) {
  std::string value;
  util::JsonWriter w(value, /*indent=*/0);
  w.begin_object();
  w.member("cycles", p.cycles);
  w.member("energy", p.energy);
  w.member("utilization", p.utilization);
  w.end_object();
  return value;
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

sched::SimulationOptions sim_options_from(const SweepOptions& opt) {
  sched::SimulationOptions s;
  s.objective = opt.objective;
  s.units = opt.units;
  s.tile_timeline = opt.tile_timeline;
  s.double_buffered = opt.double_buffered;
  s.tile_search = opt.tile_search;
  s.fuse_pool_drain = opt.fuse_pool_drain;
  return s;
}

void fill_point(DesignPoint& p, const std::string& label,
                const sim::AcceleratorConfig& cfg,
                const sim::NetworkResult& net,
                const energy::UnitEnergies& units) {
  p.label = label;
  p.config = cfg;
  p.cycles = net.total_cycles();
  p.energy = energy::network_energy(net, units).total();
  p.utilization = net.utilization();
}

}  // namespace

std::vector<DesignPoint> evaluate_designs(
    const nn::Model& model,
    const std::vector<std::pair<std::string, sim::AcceleratorConfig>>& configs,
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
  return short_key(key);
}

std::string design_point_value_json(const DesignPoint& point) {
  return point_value_json(point);
}

bool parse_design_point_value(const std::string& json, DesignPoint& point) {
  return parse_point_value(json, point);
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

SweepOutcome evaluate_designs_checked(
    const nn::Model& model,
    const std::vector<std::pair<std::string, sim::AcceleratorConfig>>& configs,
    const SweepOptions& opt) {
  const std::size_t n = configs.size();
  const std::string model_text = nn::serialize_model(model);

  const sched::SimulationOptions sim_opts = sim_options_from(opt);

  SweepOutcome out;
  std::vector<DesignPoint> slots(n);
  std::vector<std::string> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = key_from_parts(model_text, configs[i].first, configs[i].second,
                             sim_opts);

  std::vector<char> restored(n, 0);
  if (opt.journal) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::optional<std::string> value = opt.journal->find(keys[i]);
      if (!value || !parse_point_value(*value, slots[i])) continue;
      slots[i].label = configs[i].first;
      slots[i].config = configs[i].second;
      restored[i] = 1;
      ++out.resumed;
    }
  }

  std::atomic<std::size_t> done{out.resumed};
  std::atomic<std::size_t> failed{0};
  if (opt.progress) opt.progress(done.load(), n, 0);

  // One fault-isolated parallel pass: restored slots are skipped, completed
  // slots are journaled under their key, and an exception lands in errors[i]
  // without tearing down the other points.
  std::vector<std::exception_ptr> errors;
  util::ThreadPool::global().parallel_for_index_capture(
      n,
      [&](std::size_t i) {
        if (restored[i]) return;
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
              sched::simulate_network(model, configs[i].second, sim_opts);
          DesignPoint& p = slots[i];
          fill_point(p, configs[i].first, configs[i].second, net, opt.units);
          if (opt.journal) opt.journal->append(keys[i], point_value_json(p));
        } catch (...) {
          failed.fetch_add(1, std::memory_order_relaxed);
          done.fetch_add(1, std::memory_order_relaxed);
          if (opt.progress) opt.progress(done.load(), n, failed.load());
          throw;  // captured into errors[i] by the pool
        }
        done.fetch_add(1, std::memory_order_relaxed);
        if (opt.progress) opt.progress(done.load(), n, failed.load());
      },
      errors);

  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) {
      out.errors.push_back(classify_point_error(
          configs[i].first, short_key(keys[i]), errors[i]));
      continue;
    }
    out.points.push_back(std::move(slots[i]));
  }
  return out;
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

std::vector<std::pair<std::string, sim::AcceleratorConfig>> sweep_rf_entries(
    const sim::AcceleratorConfig& base, const std::vector<int>& values) {
  std::vector<std::pair<std::string, sim::AcceleratorConfig>> out;
  for (int v : values) {
    sim::AcceleratorConfig c = base;
    c.rf_entries = v;
    out.emplace_back(util::format("RF=%d", v), c);
  }
  return out;
}

std::vector<std::pair<std::string, sim::AcceleratorConfig>> sweep_array_n(
    const sim::AcceleratorConfig& base, const std::vector<int>& values) {
  std::vector<std::pair<std::string, sim::AcceleratorConfig>> out;
  for (int v : values) {
    sim::AcceleratorConfig c = base;
    c.array_n = v;
    out.emplace_back(util::format("%dx%d", v, v), c);
  }
  return out;
}

std::vector<std::pair<std::string, sim::AcceleratorConfig>> sweep_sparsity(
    const sim::AcceleratorConfig& base, const std::vector<double>& values) {
  std::vector<std::pair<std::string, sim::AcceleratorConfig>> out;
  for (double v : values) {
    sim::AcceleratorConfig c = base;
    c.weight_sparsity = v;
    out.emplace_back(util::format("sparsity=%.0f%%", v * 100.0), c);
  }
  return out;
}

std::vector<std::pair<std::string, sim::AcceleratorConfig>> sweep_dram_bandwidth(
    const sim::AcceleratorConfig& base, const std::vector<double>& bytes_per_cycle) {
  std::vector<std::pair<std::string, sim::AcceleratorConfig>> out;
  for (double v : bytes_per_cycle) {
    sim::AcceleratorConfig c = base;
    c.dram_bytes_per_cycle = v;
    out.emplace_back(util::format("DRAM=%.0fB/cyc", v), c);
  }
  return out;
}

}  // namespace sqz::core
