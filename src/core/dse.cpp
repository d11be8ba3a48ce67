#include "core/dse.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "core/config_io.h"
#include "core/report.h"
#include "core/sweepjournal.h"
#include "core/validate.h"
#include "est/estimator.h"
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
// the model once, not once per point. Screen-phase records append a
// "phase":"screen" member so analytical estimates and cycle-exact results
// never collide in one journal; exact-phase keys keep the legacy form, so a
// journal written by an unscreened sweep seeds a screened resume's phase 2.
std::string key_from_parts(const std::string& model_text,
                           const std::string& label,
                           const sim::AcceleratorConfig& config,
                           sched::Objective objective,
                           bool screen_phase = false) {
  std::ostringstream os;
  util::JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.member("op", "design_point");
  w.member("model", model_text);
  w.member("label", label);
  w.member("config", config_to_ini(config));
  w.member("objective",
           objective == sched::Objective::Energy ? "energy" : "cycles");
  if (screen_phase) w.member("phase", "screen");
  w.end_object();
  return os.str();
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
  std::ostringstream os;
  util::JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.member("cycles", p.cycles);
  w.member("energy", p.energy);
  w.member("utilization", p.utilization);
  w.end_object();
  return os.str();
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

// One fault-isolated parallel pass over `idx` (indices into configs), the
// engine under both sweep phases. `keys` and `restored` run parallel to
// `idx`; restored slots are skipped, completed slots are journaled under
// their key, and exceptions land in errors[j] without tearing down the other
// points. `analytical` retimes the point with est::estimate_retimed_layer
// (phase 1 of a screened sweep) instead of the event timeline.
void run_pass(
    const nn::Model& model,
    const std::vector<std::pair<std::string, sim::AcceleratorConfig>>& configs,
    const std::vector<std::size_t>& idx, const std::vector<std::string>& keys,
    const std::vector<char>& restored, const SweepOptions& opt, bool preflight,
    bool analytical, std::vector<DesignPoint>& slots,
    std::vector<std::exception_ptr>& errors, std::atomic<std::size_t>& done,
    std::atomic<std::size_t>& failed, std::size_t total) {
  const sched::SimulationOptions sim_opts = sim_options_from(opt);
  util::ThreadPool::global().parallel_for_index_capture(
      idx.size(),
      [&](std::size_t j) {
        const std::size_t i = idx[j];
        if (restored[j]) return;
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
          if (preflight) {
            const ValidationReport report =
                validate_design(model, configs[i].second);
            if (!report.ok()) throw ValidationError(report.summary());
          }
          const sim::NetworkResult net = sched::simulate_network(
              model, configs[i].second, sim_opts,
              analytical ? est::estimate_retimed_layer : sim::retime_layer);
          DesignPoint& p = slots[i];
          fill_point(p, configs[i].first, configs[i].second, net, opt.units);
          if (opt.journal) opt.journal->append(keys[j], point_value_json(p));
        } catch (...) {
          failed.fetch_add(1, std::memory_order_relaxed);
          done.fetch_add(1, std::memory_order_relaxed);
          if (opt.progress) opt.progress(done.load(), total, failed.load());
          throw;  // captured into errors[j] by the pool
        }
        done.fetch_add(1, std::memory_order_relaxed);
        if (opt.progress) opt.progress(done.load(), total, failed.load());
      },
      errors);
}

// Peel successive Pareto fronts off the estimated points until the retained
// band reaches ceil(keep x candidates); fronts are never split, so the band
// is a deterministic function of the estimates alone — a resumed screened
// sweep re-derives the identical phase-2 work list. Returns ascending
// indices into `slots`.
std::vector<std::size_t> retain_band(const std::vector<DesignPoint>& slots,
                                     const std::vector<std::size_t>& candidates,
                                     double keep) {
  if (candidates.empty()) return {};
  const double frac = std::clamp(keep, 0.0, 1.0);
  const std::size_t target = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(frac * static_cast<double>(candidates.size()))));
  std::vector<std::size_t> kept;
  std::vector<std::size_t> remaining = candidates;
  while (kept.size() < target && !remaining.empty()) {
    std::vector<std::size_t> front, rest;
    for (const std::size_t i : remaining) {
      bool dominated = false;
      for (const std::size_t q : remaining) {
        if (q == i) continue;
        const DesignPoint& a = slots[q];
        const DesignPoint& b = slots[i];
        if (a.cycles <= b.cycles && a.energy <= b.energy &&
            (a.cycles < b.cycles || a.energy < b.energy)) {
          dominated = true;
          break;
        }
      }
      (dominated ? rest : front).push_back(i);
    }
    if (front.empty()) {  // unreachable with a partial order; belt-and-braces
      kept.insert(kept.end(), remaining.begin(), remaining.end());
      break;
    }
    kept.insert(kept.end(), front.begin(), front.end());
    remaining = std::move(rest);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
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
  return key_from_parts(nn::serialize_model(model), label, config, objective);
}

std::string design_point_key(const std::string& model_text,
                             const std::string& label,
                             const sim::AcceleratorConfig& config,
                             sched::Objective objective) {
  return key_from_parts(model_text, label, config, objective);
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

  SweepOutcome out;
  std::vector<DesignPoint> slots(n);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> failed{0};

  // Keys for whichever phase runs first: legacy form for a plain sweep,
  // "phase":"screen" form for the analytical phase of a screened one.
  std::vector<std::string> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = key_from_parts(model_text, configs[i].first, configs[i].second,
                             opt.objective, /*screen_phase=*/opt.screen);

  std::vector<char> restored(n, 0);
  if (opt.journal) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = opt.journal->entries().find(keys[i]);
      if (it == opt.journal->entries().end()) continue;
      if (!parse_point_value(it->second, slots[i])) continue;
      slots[i].label = configs[i].first;
      slots[i].config = configs[i].second;
      restored[i] = 1;
      ++out.resumed;
    }
  }

  done.store(out.resumed);
  if (opt.progress) opt.progress(done.load(), n, 0);

  std::vector<std::exception_ptr> errors;
  run_pass(model, configs, all, keys, restored, opt, opt.preflight,
           /*analytical=*/opt.screen, slots, errors, done, failed, n);

  if (!opt.screen) {
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

  // --- screened sweep, phase 1 done: tag estimates, retain the band -------
  out.screened = true;
  std::vector<std::size_t> ok;
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) continue;
    slots[i].phase = DesignPoint::Phase::Screen;
    slots[i].est_cycles = slots[i].cycles;
    slots[i].est_energy = slots[i].energy;
    ok.push_back(i);
  }
  out.screen_points = ok.size();

  const std::vector<std::size_t> kept = retain_band(slots, ok, opt.screen_keep);
  out.screen_kept = kept.size();

  // --- phase 2: re-simulate the band cycle-exactly under legacy keys ------
  std::vector<std::string> xkeys(kept.size());
  std::vector<char> xrestored(kept.size(), 0);
  for (std::size_t j = 0; j < kept.size(); ++j)
    xkeys[j] = key_from_parts(model_text, configs[kept[j]].first,
                              configs[kept[j]].second, opt.objective);
  if (opt.journal) {
    for (std::size_t j = 0; j < kept.size(); ++j) {
      const auto it = opt.journal->entries().find(xkeys[j]);
      if (it == opt.journal->entries().end()) continue;
      // Overwrites cycles/energy/utilization in place; the phase-1 estimate
      // stays behind in est_cycles/est_energy for the error accounting.
      if (!parse_point_value(it->second, slots[kept[j]])) continue;
      xrestored[j] = 1;
      ++out.resumed;
      done.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Phase 2 grows the progress total from n to n + kept: the band size is
  // unknown until the estimates are in.
  const std::size_t total = n + kept.size();
  if (opt.progress) opt.progress(done.load(), total, failed.load());

  std::vector<std::exception_ptr> xerrors;
  run_pass(model, configs, kept, xkeys, xrestored, opt, /*preflight=*/false,
           /*analytical=*/false, slots, xerrors, done, failed, total);

  std::vector<std::ptrdiff_t> kept_pos(n, -1);
  for (std::size_t j = 0; j < kept.size(); ++j) {
    kept_pos[kept[j]] = static_cast<std::ptrdiff_t>(j);
    if (xerrors[j]) continue;
    DesignPoint& p = slots[kept[j]];
    p.phase = DesignPoint::Phase::Exact;
    if (p.cycles > 0) {
      const double err = 100.0 *
                         std::abs(static_cast<double>(p.est_cycles - p.cycles)) /
                         static_cast<double>(p.cycles);
      out.screen_error_max_pct = std::max(out.screen_error_max_pct, err);
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) {
      PointError pe = classify_point_error(configs[i].first, short_key(keys[i]),
                                           errors[i]);
      if (pe.phase == "simulate") pe.phase = "estimate";
      out.errors.push_back(std::move(pe));
      continue;
    }
    const std::ptrdiff_t j = kept_pos[i];
    if (j >= 0 && xerrors[j]) {
      out.errors.push_back(classify_point_error(
          configs[i].first, short_key(xkeys[j]), xerrors[j]));
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
// only when non-empty, and the screened-mode additions ("screening" summary,
// per-point "phase"/"est_*") only when `screened` is non-null, so an
// unscreened zero-error checked sweep stays byte-identical to
// write_design_points_json — the golden dumps and the serve byte-identity
// suite compare against that exact form.
void write_points_doc(const std::string& sweep_name,
                      const std::vector<DesignPoint>& points,
                      const std::vector<PointError>& errors,
                      const SweepOutcome* screened, std::ostream& out) {
  util::JsonWriter w(out);
  w.begin_object();
  w.member("schema_version", kReportSchemaVersion);
  w.member("generator", "sqzsim");
  w.member("sweep", sweep_name);
  if (screened) {
    w.key("screening");
    w.begin_object();
    w.member("screen_points",
             static_cast<std::int64_t>(screened->screen_points));
    w.member("screen_kept", static_cast<std::int64_t>(screened->screen_kept));
    w.member("screen_error_max_pct", screened->screen_error_max_pct);
    w.end_object();
  }
  w.key("points");
  w.begin_array();
  for (const DesignPoint& p : points) {
    w.begin_object();
    w.member("label", p.label);
    w.member("cycles", p.cycles);
    w.member("energy", p.energy);
    w.member("utilization", p.utilization);
    if (screened) {
      w.member("phase",
               p.phase == DesignPoint::Phase::Screen ? "screen" : "exact");
      if (p.phase == DesignPoint::Phase::Exact) {
        w.member("est_cycles", p.est_cycles);
        w.member("est_energy", p.est_energy);
      }
    }
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
  out << "\n";
}

}  // namespace

void write_design_points_json(const std::string& sweep_name,
                              const std::vector<DesignPoint>& points,
                              std::ostream& out) {
  write_points_doc(sweep_name, points, {}, nullptr, out);
}

void write_sweep_outcome_json(const std::string& sweep_name,
                              const SweepOutcome& outcome, std::ostream& out) {
  write_points_doc(sweep_name, outcome.points, outcome.errors,
                   outcome.screened ? &outcome : nullptr, out);
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
