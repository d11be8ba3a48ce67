#include "sched/network_sim.h"

#include <map>
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
  std::map<int, int> fused_conv_to_pool;   // conv idx -> pool idx
  std::map<int, int> fused_pool_to_conv;
  if (options.fuse_pool_drain) {
    for (const Fusion& f : find_pool_fusions(model)) {
      fused_conv_to_pool[f.conv_idx] = f.pool_idx;
      fused_pool_to_conv[f.pool_idx] = f.conv_idx;
    }
  }

  sim::NetworkResult result;
  result.model_name = model.name();
  result.config = config;
  result.layers.reserve(choices.size());
  for (LayerChoice& c : choices) {
    sim::LayerResult layer = std::move(c.chosen);
    sim::TensorPlacement placement = plan.placement_for(model, c.layer_idx);

    if (const auto conv_it = fused_conv_to_pool.find(c.layer_idx);
        conv_it != fused_conv_to_pool.end()) {
      // The conv's stored output is the pooled tensor; its residency follows
      // the pool's keep decision.
      const int pool_idx = conv_it->second;
      placement.output_in_gb = plan.kept.at(static_cast<std::size_t>(pool_idx));
      placement.output_words_override =
          model.layer(pool_idx).out_shape.elems();
      layer = sim::simulate_layer(model, c.layer_idx, config, layer.dataflow,
                                  placement);
      layer.layer_name += "+pool";
    } else if (fused_pool_to_conv.count(c.layer_idx) > 0) {
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
