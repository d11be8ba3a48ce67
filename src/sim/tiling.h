// Layer tiling: split one layer's execution into tile jobs whose working
// sets fit the global buffer's activation region.
//
// The paper: "If the memory footprint of the layer exceeds the capacity of
// the buffer, some of the six convolution loops are tiled. The size of the
// tile and the order of loops that give the shortest execution time are
// selected." We tile the output-row loop (the natural streaming order for
// both dataflows): each tile covers a band of output rows, reads the
// corresponding input rows (plus filter halo — counted as re-read traffic
// where bands overlap) and its share of the weights, computes, and writes
// its band of outputs. The resulting job list feeds the double-buffered
// timeline (sim/timeline.h).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/model.h"
#include "sim/config.h"
#include "sim/layer_sim.h"

namespace sqz::sim {

/// One tile of a layer's execution: DMA-in bytes, compute, DMA-out bytes.
struct TileJob {
  std::int64_t dma_in_words = 0;   ///< Inputs + weights arriving before/while computing.
  std::int64_t compute_cycles = 0;
  std::int64_t dma_out_words = 0;  ///< Outputs leaving after computing.
};

struct TilePlan {
  std::vector<TileJob> tiles;
  /// Input words read more than once because adjacent bands share a halo.
  std::int64_t halo_reread_words = 0;

  std::int64_t total_compute() const noexcept;
  std::int64_t total_dma_words() const noexcept;
};

/// Split layer `layer_idx` into row-band tiles for the given placement.
/// `compute_cycles` is the layer's total PE-array (or SIMD) busy time from
/// the dataflow mapper; it is apportioned to tiles by output rows.
///
/// Tensors already resident in the GB contribute no DMA; weights always
/// stream (batch 1). A layer whose working set fits entirely produces a
/// single tile. The band count is a fixed streaming heuristic
/// (min(rows, 8), more if capacity forces it).
TilePlan plan_layer_tiles(const nn::Model& model, int layer_idx,
                          const AcceleratorConfig& config,
                          TensorPlacement placement,
                          std::int64_t compute_cycles);

/// As plan_layer_tiles, but with an explicit band count (clamped to the
/// layer's row count; raised to the capacity minimum).
TilePlan plan_layer_tiles_with_bands(const nn::Model& model, int layer_idx,
                                     const AcceleratorConfig& config,
                                     TensorPlacement placement,
                                     std::int64_t compute_cycles, int bands);

/// The paper: "The size of the tile and the order of loops that give the
/// shortest execution time are selected." Search band counts (1..64, plus
/// the capacity minimum) and return the plan whose double-buffered event
/// timeline has the smallest makespan. More bands overlap better but pay a
/// DRAM access latency and halo re-read per band — the search finds the
/// knee. Returns the chosen plan and its makespan.
struct TileSearchResult {
  TilePlan plan;
  int bands = 1;
  std::int64_t makespan_cycles = 0;
};
TileSearchResult search_layer_tiles(const nn::Model& model, int layer_idx,
                                    const AcceleratorConfig& config,
                                    TensorPlacement placement,
                                    std::int64_t compute_cycles);

}  // namespace sqz::sim
