#include "sim/noc.h"

#include "sim/schedule.h"

namespace sqz::sim {

namespace {

// Closed forms over the same schedules the mappers count (mappers.h): the
// blocked loop axes sum to their full extents, so no loop nest is walked.

WireTraffic ws_wires(const nn::Layer& layer, const AcceleratorConfig& config) {
  const WsSchedule s = WsSchedule::plan(layer, config);
  const std::int64_t psums = static_cast<std::int64_t>(s.groups) * s.pixels *
                             s.cout_pg;  // column sums per pass
  WireTraffic w;
  // Each streamed cycle broadcasts its active rows' input words along their
  // row wires (span = active columns), and every MAC's product hops one
  // link down the chain: one segment hop of each per MAC.
  w.broadcast_segment_hops = psums * s.cin_pg * s.kh * s.kw;
  w.shift_hops = w.broadcast_segment_hops;
  // Column sums exit at the chain bottom: one hop per psum per pass.
  w.drain_hops = psums * s.cin_blocks * s.kh * s.tap_groups_per_row();
  return w;
}

WireTraffic os_wires(const nn::Layer& layer, const AcceleratorConfig& config,
                     const SparsityInfo& sparsity) {
  const OsSchedule s = OsSchedule::plan(layer, config);
  const std::int64_t n = config.array_n;
  // Weight broadcasts of one tile, over every (group, chunk, input) pass.
  std::int64_t broadcasts = 0;
  for (const SparsityInfo::BroadcastRun& b : sparsity.os_broadcasts(
           s.groups, s.cout_pg, s.cin_pg, config.rf_entries))
    broadcasts += b.broadcasts * b.passes;
  // Drain: each PE's outputs travel its row distance to the bottom row plus
  // one exit hop, nh(nh+1)/2 hops per tile column; summed over tile rows.
  const std::int64_t rem = s.oh % n;
  const std::int64_t column_drain =
      (s.oh / n) * n * (n + 1) / 2 + rem * (rem + 1) / 2;

  WireTraffic w;
  // The weight broadcast bus spans the whole array per broadcast cycle.
  w.broadcast_segment_hops =
      static_cast<std::int64_t>(s.tiles_y) * s.tiles_x * broadcasts * n;
  // Every MAC's input arrived via a one-hop mesh shift.
  w.shift_hops = broadcasts * s.oh * s.ow;
  w.drain_hops = column_drain * s.ow * s.groups * s.cout_pg;
  return w;
}

}  // namespace

WireTraffic analyze_wire_traffic(const nn::Layer& layer,
                                 const AcceleratorConfig& config,
                                 Dataflow dataflow, const SparsityInfo& sparsity) {
  if (layer.is_fc() || dataflow == Dataflow::WeightStationary)
    return ws_wires(layer, config);
  return os_wires(layer, config, sparsity);
}

}  // namespace sqz::sim
