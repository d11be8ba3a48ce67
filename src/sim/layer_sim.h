// Single-layer simulation: compose a dataflow mapping with the DRAM model
// and the 1-D SIMD unit for non-MAC layers.
#pragma once

#include "nn/model.h"
#include "sim/config.h"
#include "sim/counters.h"
#include "sim/sparsity.h"

namespace sqz::sim {

/// Where a layer's operand tensors live (decided by the residency planner in
/// src/sched; single-layer callers can set these directly).
struct TensorPlacement {
  bool input_in_gb = false;   ///< Producer output retained in the global buffer.
  bool output_in_gb = false;  ///< Output retained for the consumer.
  /// When >= 0, the layer's *stored* output is this many words instead of
  /// its tensor size — used by drain-side pooling fusion (sched/fusion.h),
  /// where a conv drains directly through a max-pool and only the pooled
  /// tensor ever reaches the global buffer / DRAM.
  std::int64_t output_words_override = -1;
};

/// Simulate one layer of `model` under the given dataflow.
///
/// * Conv layers map with the requested dataflow.
/// * FullyConnected layers always map weight-stationary (see mappers.h).
/// * Pool / ReLU / Add layers run on the 1-D SIMD unit; Concat is free
///   (a global-buffer addressing view) apart from any DRAM traffic its
///   placement forces.
///
/// DRAM traffic = weights (always streamed at batch 1) + input if not in GB
/// + output if not kept in GB; transfers are double-buffered against
/// compute, so total cycles = max(compute, transfer) + access latency.
LayerResult simulate_layer(const nn::Model& model, int layer_idx,
                           const AcceleratorConfig& config, Dataflow dataflow,
                           const SparsityInfo& sparsity,
                           TensorPlacement placement = {});

/// Convenience overload constructing the expected-sparsity provider from the
/// config (dense when zero-skip is disabled).
LayerResult simulate_layer(const nn::Model& model, int layer_idx,
                           const AcceleratorConfig& config, Dataflow dataflow,
                           TensorPlacement placement = {});

/// The dataflow a layer actually executes with, honouring the FC-always-WS
/// rule and the config's DataflowSupport.
Dataflow effective_dataflow(const nn::Layer& layer, const AcceleratorConfig& config,
                            Dataflow requested);

// Implemented in timeline_sim.cpp: re-times an analytically simulated layer
// through the tile-level event timeline (sim/timeline.h). `double_buffered =
// false` models a single staging buffer (the paper's double-buffering claim
// ablated away). compute_cycles/counts are unchanged; total_cycles and
// dram_cycles reflect the event schedule.
LayerResult retime_layer(const nn::Model& model, const LayerResult& analytic,
                         const AcceleratorConfig& config,
                         TensorPlacement placement, bool double_buffered,
                         bool search_tiles = false);

}  // namespace sqz::sim
