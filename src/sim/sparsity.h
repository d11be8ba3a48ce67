// Weight sparsity information consumed by the OS dataflow's zero-skip logic
// (paper §4.1.2: "the stream buffer broadcasts only non-zero weights").
//
// Two providers:
//  * Expected  — analytic expectation at the configured sparsity rate
//                (the paper's flat 40% model); fast, used by benches.
//  * Measured  — exact counts from a generated WeightTensor; used by the
//                functional-vs-analytical cross-validation tests.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "runtime/tensor.h"

namespace sqz::sim {

class SparsityInfo {
 public:
  /// Expected-value provider at a flat zero-probability `sparsity`.
  static SparsityInfo expected(const nn::Layer& layer, double sparsity);
  /// Exact provider backed by real weights (not owned; must outlive this).
  static SparsityInfo measured(const runtime::WeightTensor& weights);
  /// Dense provider (no zeros): used when zero-skip is disabled.
  static SparsityInfo dense(const nn::Layer& layer);

  /// Non-zero taps of filter plane (oc within its group's global index,
  /// ic within group). For the expected provider this is fractional and
  /// accumulated exactly by nnz_chunk().
  /// Total non-zero weight words of the layer.
  std::int64_t total_nonzero() const noexcept { return total_nnz_; }
  std::int64_t total_weights() const noexcept { return total_words_; }

  /// Sum of non-zero taps over `count` consecutive output channels starting
  /// at global channel `oc0`, for in-group channel `ic`. This is the number
  /// of broadcast cycles the OS dataflow spends on that (chunk, ic) pass.
  std::int64_t nnz_chunk(int oc0, int count, int ic) const;

  /// `passes` OS passes that each broadcast `broadcasts` weights.
  struct BroadcastRun {
    std::int64_t broadcasts = 0;
    std::int64_t passes = 0;
  };
  /// Broadcast cycles of every OS pass over one output tile — one pass per
  /// (group, `chunk`-wide output-channel chunk, in-group input channel) —
  /// as runs. The expected and dense providers are uniform over channels
  /// and yield at most two runs (full chunk, remainder chunk); the measured
  /// provider yields one run per pass.
  std::vector<BroadcastRun> os_broadcasts(int groups, int cout_pg, int cin_pg,
                                          int chunk) const;

 private:
  SparsityInfo() = default;

  const runtime::WeightTensor* exact_ = nullptr;
  // Expected mode: nnz per (oc, ic) plane = taps * (1 - sparsity).
  double expected_plane_nnz_ = 0.0;
  int taps_ = 0;
  std::int64_t total_nnz_ = 0;
  std::int64_t total_words_ = 0;
};

}  // namespace sqz::sim
