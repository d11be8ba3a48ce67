// Whole-network simulation: residency planning + per-layer dataflow
// selection + per-layer simulation, producing the NetworkResult that every
// benchmark table and figure is built from.
#pragma once

#include <vector>

#include "energy/model.h"
#include "nn/model.h"
#include "sched/selector.h"
#include "sim/config.h"
#include "sim/counters.h"
#include "sim/layer_sim.h"

namespace sqz::sched {

/// Simulate one inference (batch 1) of `model` on `config`.
///
/// On a Hybrid config the dataflow is chosen per layer by `objective`
/// (paper default: fastest execution). WsOnly/OsOnly configs model the
/// reference architectures.
sim::NetworkResult simulate_network(const nn::Model& model,
                                    const sim::AcceleratorConfig& config,
                                    Objective objective = Objective::Cycles,
                                    const energy::UnitEnergies& units = {});

/// Extended knobs for simulate_network.
struct SimulationOptions {
  Objective objective = Objective::Cycles;
  energy::UnitEnergies units{};
  /// Re-time each layer through the tile-level event timeline
  /// (sim/timeline.h) instead of the flat max(compute, dma) model. Exposes
  /// halo re-read traffic and DMA/compute interleaving.
  bool tile_timeline = false;
  /// Meaningful with tile_timeline: false models a single staging buffer
  /// (ablates the paper's double buffering).
  bool double_buffered = true;
  /// Meaningful with tile_timeline: search the band count per layer for the
  /// shortest makespan (the paper's tile-size selection) instead of the
  /// fixed streaming heuristic.
  bool tile_search = false;
  /// Fuse max/avg pools into their producing conv's drain path
  /// (sched/fusion.h): the intermediate full-resolution tensor never
  /// reaches the global buffer.
  bool fuse_pool_drain = false;
};

sim::NetworkResult simulate_network(const nn::Model& model,
                                    const sim::AcceleratorConfig& config,
                                    const SimulationOptions& options);

/// simulate_network with the per-layer dataflow search replaced by a replay
/// of `dataflow_by_layer` (one entry per model layer; entries for layers
/// with no choice are ignored — see select_dataflows' `pinned`). This is
/// the compiled-plan serve path: scheduling decisions come from the plan,
/// each hybrid conv is simulated once instead of twice, and the result is
/// byte-identical to the searching path that produced the pins.
sim::NetworkResult simulate_network_pinned(
    const nn::Model& model, const sim::AcceleratorConfig& config,
    const SimulationOptions& options,
    const std::vector<sim::Dataflow>& dataflow_by_layer);

}  // namespace sqz::sched
