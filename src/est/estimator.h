// Closed-form tile-timeline bound: the one approximation left in the
// simulator, used by phase 1 of screened sweeps.
//
// Flat-mode mapping is already closed form (sim/mappers.cpp) and network
// assembly is sched::simulate_network for every caller; a screened sweep
// only swaps the per-layer retimer. estimate_retimed_layer replaces the
// event-driven tile timeline (sim/timeline.h) with a closed-form pipeline
// bound over the same row-band geometry (sim/tiling.h). The validated
// accuracy contract — formulas, error bound, and when screening is safe —
// lives in docs/ESTIMATOR.md and is enforced by tests/est.
#pragma once

#include "nn/model.h"
#include "sim/config.h"
#include "sim/layer_sim.h"

namespace sqz::est {

/// Closed-form stand-in for sim::retime_layer, with the same signature so
/// it plugs into sched::simulate_network as the retimer. Approximate (see
/// docs/ESTIMATOR.md for the bound); counts gain the same halo re-read
/// traffic the real tiler adds.
sim::LayerResult estimate_retimed_layer(const nn::Model& model,
                                        const sim::LayerResult& analytic,
                                        const sim::AcceleratorConfig& config,
                                        sim::TensorPlacement placement,
                                        bool double_buffered,
                                        bool search_tiles = false);

}  // namespace sqz::est
