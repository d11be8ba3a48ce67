#include "sim/tiling.h"

#include <algorithm>
#include <stdexcept>

#include "sim/timeline.h"

namespace sqz::sim {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Per-layer DMA/geometry facts the row-band planners derive from a
/// placement: total in/out DMA words, the row axis the bands split, the
/// filter halo re-read per extra band, and the capacity-forced minimum band
/// count.
struct LayerDmaFacts {
  std::int64_t dma_in_total = 0;   ///< Weights + streamed input words.
  std::int64_t dma_out_total = 0;  ///< Stored output words unless GB-resident.
  std::int64_t streamed_act_words = 0;
  std::int64_t rows = 1;           ///< Output rows (or channels for 1x1-spatial).
  std::int64_t halo_rows = 0;
  std::int64_t in_row_words = 0;
  bool input_streams = false;
  std::int64_t capacity_min_bands = 1;

  /// Input words re-read because adjacent bands share a filter halo.
  std::int64_t halo_words(int bands) const noexcept {
    if (bands <= 1 || !input_streams) return 0;
    return static_cast<std::int64_t>(bands - 1) * halo_rows * in_row_words;
  }
  /// The band count the planners actually use for a request of `requested`
  /// (raised to the capacity minimum, clamped to the row count).
  int clamp_bands(int requested) const noexcept {
    const std::int64_t lo = std::max<std::int64_t>(1, capacity_min_bands);
    return static_cast<int>(
        std::min<std::int64_t>(rows, std::max<std::int64_t>(lo, requested)));
  }
};

LayerDmaFacts analyze_layer_dma(const nn::Model& model, int layer_idx,
                                const AcceleratorConfig& config,
                                TensorPlacement placement) {
  const nn::Layer& l = model.layer(layer_idx);
  LayerDmaFacts d;

  const std::int64_t weight_words = l.params();
  std::int64_t in_words = 0;
  for (int in : l.inputs)
    in_words += model.layer(in).out_shape.elems() * config.batch;
  const std::int64_t out_words =
      (placement.output_words_override >= 0 ? placement.output_words_override
                                            : l.out_shape.elems()) *
      config.batch;

  d.input_streams = !placement.input_in_gb;
  d.dma_in_total = weight_words + (d.input_streams ? in_words : 0);
  d.dma_out_total = placement.output_in_gb ? 0 : out_words;
  d.streamed_act_words = (d.input_streams ? in_words : 0) + d.dma_out_total;

  const int oh = l.out_shape.h;
  d.rows = oh > 1 ? oh : std::max(1, l.out_shape.c);
  if (l.is_conv() && oh > 1) d.halo_rows = std::max(0, l.conv.kh - l.conv.stride);
  const std::int64_t in_rows = l.in_shape.h;
  d.in_row_words = in_rows > 0 ? in_words / in_rows : 0;

  // Capacity constraint: two bands in flight must fit the activation region.
  const std::int64_t activation_words =
      config.gb_capacity_words() - config.weight_reserve_words;
  const std::int64_t band_budget = std::max<std::int64_t>(1, activation_words / 2);
  if (d.streamed_act_words > band_budget)
    d.capacity_min_bands = ceil_div(d.streamed_act_words, band_budget);
  return d;
}

TilePlan build_plan(const LayerDmaFacts& d, std::int64_t compute_cycles,
                    int bands) {
  TilePlan plan;
  if (bands <= 1) {
    plan.tiles.push_back(
        TileJob{d.dma_in_total, compute_cycles, d.dma_out_total});
    return plan;
  }
  // Halo re-reads only when a spatial row split streams its input.
  plan.halo_reread_words = d.halo_words(bands);
  const std::int64_t dma_in_with_halo = d.dma_in_total + plan.halo_reread_words;
  for (int b = 0; b < bands; ++b) {
    const auto share = [&](std::int64_t total) {
      return total / bands + (b < total % bands ? 1 : 0);
    };
    plan.tiles.push_back(TileJob{share(dma_in_with_halo), share(compute_cycles),
                                 share(d.dma_out_total)});
  }
  return plan;
}

}  // namespace

std::int64_t TilePlan::total_compute() const noexcept {
  std::int64_t total = 0;
  for (const TileJob& t : tiles) total += t.compute_cycles;
  return total;
}

std::int64_t TilePlan::total_dma_words() const noexcept {
  std::int64_t total = 0;
  for (const TileJob& t : tiles) total += t.dma_in_words + t.dma_out_words;
  return total;
}

TilePlan plan_layer_tiles_with_bands(const nn::Model& model, int layer_idx,
                                     const AcceleratorConfig& config,
                                     TensorPlacement placement,
                                     std::int64_t compute_cycles, int bands) {
  const nn::Layer& l = model.layer(layer_idx);
  if (l.kind == nn::LayerKind::Input)
    throw std::invalid_argument("plan_layer_tiles: input layer has no execution");
  const LayerDmaFacts d = analyze_layer_dma(model, layer_idx, config, placement);
  return build_plan(d, compute_cycles, d.clamp_bands(bands));
}

TilePlan plan_layer_tiles(const nn::Model& model, int layer_idx,
                          const AcceleratorConfig& config,
                          TensorPlacement placement,
                          std::int64_t compute_cycles) {
  // Streaming default: pipeline in up to kStreamBands chunks — operands
  // stream *while* the array computes, they do not all arrive up front.
  constexpr int kStreamBands = 8;
  return plan_layer_tiles_with_bands(model, layer_idx, config, placement,
                                     compute_cycles, kStreamBands);
}

TileSearchResult search_layer_tiles(const nn::Model& model, int layer_idx,
                                    const AcceleratorConfig& config,
                                    TensorPlacement placement,
                                    std::int64_t compute_cycles) {
  const nn::Layer& l = model.layer(layer_idx);
  if (l.kind == nn::LayerKind::Input)
    throw std::invalid_argument("search_layer_tiles: input layer has no execution");
  const LayerDmaFacts d = analyze_layer_dma(model, layer_idx, config, placement);

  TileSearchResult best;
  bool first = true;
  for (int candidate : {1, 2, 4, 8, 16, 32, 64}) {
    const int bands = d.clamp_bands(candidate);
    TilePlan plan = build_plan(d, compute_cycles, bands);
    const TimelineResult tl =
        run_timeline(plan.tiles, config, BufferingMode::Double);
    if (first || tl.total_cycles < best.makespan_cycles) {
      best.plan = std::move(plan);
      best.bands = bands;
      best.makespan_cycles = tl.total_cycles;
      first = false;
    }
  }
  return best;
}

}  // namespace sqz::sim
