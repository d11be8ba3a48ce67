// Functional dataflow emulators.
//
// These execute the *literal* WS / OS operation sequences of paper §4.1.2,
// operand by operand, producing:
//   * the layer's numerical output  — tested bit-exact against the reference
//     runtime (src/runtime/ops.h), proving the schedules compute the right
//     convolution;
//   * measured cycle and access counts — tested exactly equal to the
//     closed-form mappers (src/sim/mappers.h), proving the cycle model counts
//     what the schedule actually does. They are the only reference the
//     mappers are checked against (tests/sim/test_functional_*, including
//     the random-config fuzz with measured sparsity and FC layers).
//
// They are deliberately slow (they really do every MAC); tests run them on
// small layers.
#pragma once

#include "nn/layer.h"
#include "runtime/quant.h"
#include "runtime/tensor.h"
#include "sim/config.h"
#include "sim/counters.h"

namespace sqz::sim::functional {

struct FunctionalResult {
  runtime::Tensor output;
  std::int64_t compute_cycles = 0;
  AccessCounts counts;  ///< dram_words stays 0 (no DRAM in the array model).
};

/// Execute a Conv or FullyConnected layer with the weight-stationary
/// schedule (matrix-vector blocks, adder-chain column reduction, GB psum
/// accumulation).
FunctionalResult run_weight_stationary(const nn::Layer& layer,
                                       const runtime::Tensor& input,
                                       const runtime::WeightTensor& weights,
                                       const runtime::Requant& requant,
                                       const AcceleratorConfig& config);

/// Execute a Conv layer with the output-stationary schedule (output tiles,
/// rf_entries filters per input preload, zero-weight broadcast skipping).
/// FullyConnected layers are rejected, as in the analytical mapper.
FunctionalResult run_output_stationary(const nn::Layer& layer,
                                       const runtime::Tensor& input,
                                       const runtime::WeightTensor& weights,
                                       const runtime::Requant& requant,
                                       const AcceleratorConfig& config);

}  // namespace sqz::sim::functional
