// Analytical dataflow mappers: cycle counts and hierarchy access counts for
// executing one layer on the PE array under each dataflow.
//
// Both mappers count the operation sequences of paper §4.1.2 in closed form
// (docs/ESTIMATOR.md). The schedules' loop nests (sim/schedule.h) are
// uniform except at boundary remainders, so every blocked loop axis takes at
// most two values — the full block and the remainder — with known
// multiplicities; summing over those variants reproduces every per-tile,
// per-pass term, ceil()s included, without walking the nest. Cost is O(1)
// per layer, plus one pass over the per-chunk non-zero sums for a measured
// sparsity provider. All arithmetic is overflow-checked: a hostile shape
// throws std::overflow_error naming the term instead of wrapping.
//
// The functional emulators in src/sim/functional execute the same schedules
// operand-by-operand and are the oracle: tests assert exact agreement
// (tests/sim/test_functional_*), and tests/data/mapping_golden.txt pins the
// zoo numbers, including the expected-sparsity provider the emulators
// cannot exercise.
//
// Weight-stationary (WS) — TPU-like matrix-vector engine:
//   The N x N array holds an N x N block of the (input-channel x
//   output-channel) weight matrix for one filter tap. Input pixel vectors
//   stream in one column per cycle; each PE column reduces through an adder
//   chain. Partial sums accumulate in the global buffer across taps and
//   input-channel blocks. Idle rows/columns when channels < N are the WS
//   inefficiency for first/depthwise layers. No sparsity exploitation —
//   a zero weight still occupies its PE slot.
//
// Output-stationary (OS) — ShiDianNao-like output-tile engine:
//   The array holds an N x N spatial tile of outputs for `rf_entries`
//   output channels at once (inputs reused across filters; this is the
//   paper's register-file tune-up lever). Per input channel the input block
//   is injected through the mesh (serial with compute — the mesh is busy
//   shifting during MACs), then one weight broadcast per cycle, skipping
//   zero weights. Results drain to the global buffer after the tile
//   finishes, serial with compute ("this final step takes additional
//   processing time"). Small late-layer feature maps strand most of the
//   array — the OS inefficiency the paper calls out.
#pragma once

#include "nn/layer.h"
#include "sim/config.h"
#include "sim/counters.h"
#include "sim/sparsity.h"

namespace sqz::sim {

/// Cycle/access estimate for one layer on the PE array (no DRAM terms; the
/// layer simulator adds those).
struct MappingResult {
  std::int64_t compute_cycles = 0;
  AccessCounts counts;  ///< dram_words stays 0 here.
};

/// Map a Conv or FullyConnected layer with the WS dataflow. FC layers are
/// the degenerate 1-pixel case (the natural matrix-vector form).
MappingResult map_weight_stationary(const nn::Layer& layer,
                                    const AcceleratorConfig& config);

/// Map a Conv layer with the OS dataflow. FC layers are rejected
/// (std::invalid_argument): output-stationary mapping degenerates at one
/// output pixel, so the simulator always runs FC weight-stationary — on the
/// Squeezelerator *and* on both reference designs (the paper: FC layers
/// "cannot take advantage of hardware acceleration by either dataflow").
MappingResult map_output_stationary(const nn::Layer& layer,
                                    const AcceleratorConfig& config,
                                    const SparsityInfo& sparsity);

}  // namespace sqz::sim
