#include "core/codesign.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <stdexcept>

#include "core/validate.h"
#include "util/strings.h"
#include "util/threadpool.h"

namespace sqz::core {

TuningResult tune_accelerator(const nn::Model& model, const TuningSpace& space,
                              const sim::AcceleratorConfig& base,
                              sched::Objective objective,
                              const energy::UnitEnergies& units) {
  TuningResult result;

  // Materialize the (array_n x rf) cross product in sweep order, evaluate
  // every candidate in parallel into its own slot, then reduce serially in
  // the original order so the winner and its tie-breaks never depend on
  // thread scheduling.
  for (int n : space.array_n) {
    for (int rf : space.rf_entries) {
      sim::AcceleratorConfig cfg = base;
      cfg.array_n = n;
      cfg.rf_entries = rf;
      TuningCandidate cand;
      cand.config = cfg;
      result.candidates.push_back(cand);
    }
  }

  // Per-candidate fault isolation: a candidate that fails pre-flight or
  // throws mid-simulation must not cost the whole tuning run — the sweep
  // continues and the winner is picked among the survivors.
  std::vector<std::exception_ptr> errors;
  const std::size_t failed = util::ThreadPool::global().parallel_for_index_capture(
      result.candidates.size(),
      [&](std::size_t i) {
        TuningCandidate& cand = result.candidates[i];
        const ValidationReport report = validate_design(model, cand.config);
        if (!report.ok()) throw ValidationError(report.summary());
        const sim::NetworkResult net =
            sched::simulate_network(model, cand.config, objective, units);
        cand.cycles = net.total_cycles();
        cand.energy = energy::network_energy(net, units).total();
      },
      errors);

  if (failed > 0) {
    std::vector<TuningCandidate> survivors;
    for (std::size_t i = 0; i < result.candidates.size(); ++i) {
      const sim::AcceleratorConfig& cfg = result.candidates[i].config;
      const std::string label =
          util::format("N=%d RF=%d", cfg.array_n, cfg.rf_entries);
      if (errors[i]) {
        result.errors.push_back(classify_point_error(
            label,
            design_point_short_key(
                design_point_key(model, label, cfg, objective)),
            errors[i]));
        continue;
      }
      survivors.push_back(result.candidates[i]);
    }
    result.candidates = std::move(survivors);
    if (result.candidates.empty())
      throw std::runtime_error(
          "tune_accelerator: every candidate failed; first: " +
          result.errors.front().label + ": " + result.errors.front().what);
  }

  double best_primary = std::numeric_limits<double>::infinity();
  double best_secondary = std::numeric_limits<double>::infinity();
  int best_rf = std::numeric_limits<int>::max();
  for (const TuningCandidate& cand : result.candidates) {
    const double primary = objective == sched::Objective::Cycles
                               ? static_cast<double>(cand.cycles)
                               : cand.energy;
    const double secondary = objective == sched::Objective::Cycles
                                 ? cand.energy
                                 : static_cast<double>(cand.cycles);
    const int rf = cand.config.rf_entries;
    const bool better =
        primary < best_primary ||
        (primary == best_primary && secondary < best_secondary) ||
        (primary == best_primary && secondary == best_secondary && rf < best_rf);
    if (better) {
      best_primary = primary;
      best_secondary = secondary;
      best_rf = rf;
      result.best = cand.config;
    }
  }
  return result;
}

const char* bottleneck_name(Bottleneck b) noexcept {
  switch (b) {
    case Bottleneck::None: return "healthy";
    case Bottleneck::FewChannels: return "few-channels";
    case Bottleneck::SmallFeatureMap: return "small-feature-map";
    case Bottleneck::DrainDominated: return "drain-dominated";
    case Bottleneck::DramBound: return "dram-bound";
  }
  return "?";
}

namespace {

Bottleneck diagnose(const nn::Layer& layer, const sim::LayerResult& r,
                    const sim::AcceleratorConfig& config) {
  if (r.dram_cycles > r.compute_cycles) return Bottleneck::DramBound;
  if (r.utilization(config.pe_count()) >= 0.5) return Bottleneck::None;

  const int n = config.array_n;
  if (layer.is_conv()) {
    if (r.dataflow == sim::Dataflow::WeightStationary) {
      // Idle rows: fewer input channels (per group) than PE rows.
      if (layer.in_shape.c / layer.conv.groups < n / 2)
        return Bottleneck::FewChannels;
      if (layer.conv.out_channels / layer.conv.groups < n / 2)
        return Bottleneck::FewChannels;
    } else {
      const std::int64_t tile = static_cast<std::int64_t>(
          std::min(n, layer.out_shape.h) * std::min(n, layer.out_shape.w));
      if (tile < static_cast<std::int64_t>(n) * n / 2)
        return Bottleneck::SmallFeatureMap;
      // Short accumulation per drain: few input channels per output tile.
      if (layer.taps_per_output() < config.pe_count() / config.drain_width)
        return Bottleneck::DrainDominated;
    }
  }
  return Bottleneck::None;
}

}  // namespace

std::vector<LayerDiagnosis> ModelAdvice::low_utilization(double threshold) const {
  std::vector<LayerDiagnosis> out;
  for (const LayerDiagnosis& l : layers)
    if (l.utilization < threshold) out.push_back(l);
  return out;
}

ModelAdvice analyze_model(const nn::Model& model,
                          const sim::AcceleratorConfig& config,
                          sched::Objective objective) {
  const sim::NetworkResult net = sched::simulate_network(model, config, objective);
  ModelAdvice advice;
  advice.network_utilization = net.utilization();
  for (const sim::LayerResult& r : net.layers) {
    const nn::Layer& l = model.layer(r.layer_idx);
    if (!l.is_macs_layer()) continue;
    LayerDiagnosis d;
    d.layer_idx = r.layer_idx;
    d.layer_name = r.layer_name;
    d.dataflow = r.dataflow;
    d.utilization = r.utilization(config.pe_count());
    d.bottleneck = diagnose(l, r, config);
    advice.layers.push_back(std::move(d));
  }
  return advice;
}

}  // namespace sqz::core
