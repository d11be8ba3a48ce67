#include "sim/layer_sim.h"
#include "sim/tiling.h"
#include "sim/timeline.h"

namespace sqz::sim {

LayerResult retime_layer(const nn::Model& model, const LayerResult& analytic,
                         const AcceleratorConfig& config,
                         TensorPlacement placement, bool double_buffered,
                         bool search_tiles) {
  // Either the fixed streaming heuristic or the paper's tile search ("the
  // size of the tile ... that gives the shortest execution time").
  const TilePlan plan =
      search_tiles
          ? search_layer_tiles(model, analytic.layer_idx, config, placement,
                               analytic.compute_cycles)
                .plan
          : plan_layer_tiles(model, analytic.layer_idx, config, placement,
                             analytic.compute_cycles);
  TimelineResult tl =
      run_timeline(plan.tiles, config,
                   double_buffered ? BufferingMode::Double : BufferingMode::Single);

  LayerResult r = analytic;
  r.total_cycles = tl.total_cycles;
  r.dram_cycles = tl.dma_busy_cycles;
  r.timeline = std::move(tl.events);
  r.tile_bands = static_cast<int>(plan.tiles.size());  // one tile per band
  // Halo re-reads discovered by the tiler are real DRAM traffic the flat
  // analytic model does not see.
  r.counts.dram_words += plan.halo_reread_words;
  r.counts.gb_writes += plan.halo_reread_words;
  return r;
}

}  // namespace sqz::sim
