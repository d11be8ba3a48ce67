#include "sched/network_sim.h"

#include <stdexcept>

#include "sched/fusion.h"
#include "sched/residency.h"

namespace sqz::sched {

sim::NetworkResult simulate_network(const nn::Model& model,
                                    const sim::AcceleratorConfig& config,
                                    Objective objective,
                                    const energy::UnitEnergies& units) {
  SimulationOptions options;
  options.objective = objective;
  options.units = units;
  return simulate_network(model, config, options);
}

namespace {

sim::NetworkResult simulate_network_impl(
    const nn::Model& model, const sim::AcceleratorConfig& config,
    const SimulationOptions& options,
    const std::vector<sim::Dataflow>* pinned) {
  if (!model.finalized())
    throw std::invalid_argument("simulate_network: model must be finalized");
  config.validate();

  const ResidencyPlan plan = plan_residency(model, config);
  std::vector<LayerChoice> choices =
      select_dataflows(model, config, plan, options.objective, options.units,
                       pinned);

  // Pool-drain fusion: re-simulate each fused conv with the pool's output as
  // its stored tensor, and zero out the pool (it runs inside the drain).
  const std::vector<Fusion> fusions =
      options.fuse_pool_drain ? find_pool_fusions(model) : std::vector<Fusion>{};

  sim::NetworkResult result;
  result.model_name = model.name();
  result.config = config;
  result.layers.reserve(choices.size());
  for (LayerChoice& c : choices) {
    sim::LayerResult layer = std::move(c.chosen);
    const sim::TensorPlacement placement =
        fused_placement(model, plan, fusions, c.layer_idx);

    if (const Fusion* f = fusion_of(fusions, c.layer_idx);
        f && f->conv_idx == c.layer_idx) {
      // The conv's stored output is the pooled tensor (fused_placement).
      layer = sim::simulate_layer(model, c.layer_idx, config, layer.dataflow,
                                  placement);
      layer.layer_name += "+pool";
    } else if (f) {
      // The pool itself runs in the conv's drain path: keep the entry for
      // bookkeeping, but it costs nothing.
      sim::LayerResult fused;
      fused.layer_idx = c.layer_idx;
      fused.layer_name = layer.layer_name + " (fused)";
      fused.on_pe_array = false;
      result.layers.push_back(std::move(fused));
      continue;
    }

    if (options.tile_timeline) {
      result.layers.push_back(sim::retime_layer(model, layer, config,
                                                placement,
                                                options.double_buffered,
                                                options.tile_search));
    } else {
      result.layers.push_back(std::move(layer));
    }
  }
  return result;
}

}  // namespace

sim::NetworkResult simulate_network(const nn::Model& model,
                                    const sim::AcceleratorConfig& config,
                                    const SimulationOptions& options) {
  return simulate_network_impl(model, config, options, nullptr);
}

sim::NetworkResult simulate_network_pinned(
    const nn::Model& model, const sim::AcceleratorConfig& config,
    const SimulationOptions& options,
    const std::vector<sim::Dataflow>& dataflow_by_layer) {
  return simulate_network_impl(model, config, options, &dataflow_by_layer);
}

}  // namespace sqz::sched
