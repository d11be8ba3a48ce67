// Drain-side pooling fusion.
//
// A conv layer followed by a max/avg pool that consumes only that conv can
// pool *in the drain path*: as results leave the PE array, the pooling unit
// reduces them on the fly and only the pooled tensor is written to the
// global buffer (and, if spilled, to DRAM). The intermediate full-resolution
// tensor never exists in memory. This is a standard NPU optimization that
// composes naturally with the Squeezelerator's serial OS drain, and it is
// exactly the kind of memory-hierarchy tune-up the paper's co-design loop
// hunts for — benchmarked in bench_ablation_fusion.
#pragma once

#include <vector>

#include "nn/model.h"
#include "sched/residency.h"
#include "sim/layer_sim.h"

namespace sqz::sched {

struct Fusion {
  int conv_idx = 0;  ///< The producing conv layer.
  int pool_idx = 0;  ///< The max/avg pool fused into its drain.
};

/// All conv -> pool pairs where the pool is the conv's only consumer and
/// immediately follows it. (ReLU is already fused into the conv's requant
/// step and needs no scheduling support.)
std::vector<Fusion> find_pool_fusions(const nn::Model& model);

/// The fusion layer `layer_idx` takes part in, as conv or pool; null when
/// it takes part in none.
const Fusion* fusion_of(const std::vector<Fusion>& fusions, int layer_idx);

/// Layer `layer_idx`'s tensor placement under `fusions` (empty when fusion
/// is off): a fused conv stores the pooled tensor, at the pool's output
/// size and under the pool's keep decision; every other layer keeps the
/// residency plan's placement. The simulator and the plan compiler both
/// place layers through it, so a program's DMA moves the tensors the
/// simulator timed.
sim::TensorPlacement fused_placement(const nn::Model& model,
                                     const ResidencyPlan& plan,
                                     const std::vector<Fusion>& fusions,
                                     int layer_idx);

}  // namespace sqz::sched
