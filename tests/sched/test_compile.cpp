#include "sched/compile.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "nn/zoo/zoo.h"
#include "sched/fusion.h"
#include "sched/residency.h"
#include "sim/tiling.h"

namespace sqz::sched {
namespace {

const sim::AcceleratorConfig kCfg = sim::AcceleratorConfig::squeezelerator();

TEST(Compile, OneCommandPerLayer) {
  const nn::Model m = nn::zoo::squeezenet_v11();
  const Program p = compile(m, kCfg);
  EXPECT_EQ(static_cast<int>(p.commands.size()), m.layer_count() - 1);
  for (std::size_t i = 0; i < p.commands.size(); ++i)
    EXPECT_EQ(p.commands[i].layer_idx, static_cast<int>(i) + 1);
}

TEST(Compile, ExpectedCyclesMatchSimulator) {
  const nn::Model m = nn::zoo::squeezenet_v10();
  const Program p = compile(m, kCfg);
  const auto r = simulate_network(m, kCfg);
  EXPECT_EQ(p.expected_total_cycles(), r.total_cycles());
}

TEST(Compile, UnitsAssignedByLayerKind) {
  const nn::Model m = nn::zoo::squeezenet_v10();
  const Program p = compile(m, kCfg);
  for (const LayerCommand& c : p.commands) {
    const nn::Layer& l = m.layer(c.layer_idx);
    if (l.is_macs_layer())
      EXPECT_EQ(c.unit, LayerCommand::Unit::PeArray) << c.layer_name;
    else if (l.kind == nn::LayerKind::Concat)
      EXPECT_EQ(c.unit, LayerCommand::Unit::View) << c.layer_name;
    else
      EXPECT_EQ(c.unit, LayerCommand::Unit::Simd) << c.layer_name;
  }
}

TEST(Compile, DataflowsMatchSelector) {
  const nn::Model m = nn::zoo::squeezenet_v10();
  const Program p = compile(m, kCfg);
  const auto r = simulate_network(m, kCfg);
  for (std::size_t i = 0; i < p.commands.size(); ++i)
    if (p.commands[i].unit == LayerCommand::Unit::PeArray) {
      EXPECT_EQ(p.commands[i].dataflow, r.layers[i].dataflow)
          << p.commands[i].layer_name;
    }
}

TEST(Compile, DmaDescriptorsMatchSimulatedTraffic) {
  const nn::Model m = nn::zoo::squeezenet_v11();
  const Program p = compile(m, kCfg);
  const auto r = simulate_network(m, kCfg);
  // Program DMA = simulated dram words (the flat model has no halo term).
  EXPECT_GE(p.total_dma_words(), r.total_counts().dram_words);
}

TEST(Compile, FusedPoolsMarked) {
  const nn::Model m = nn::zoo::squeezenet_v10();
  SimulationOptions opt;
  opt.fuse_pool_drain = true;
  const Program p = compile(m, kCfg, opt);
  const auto is_fused = [&](const char* name) {
    for (const LayerCommand& c : p.commands)
      if (c.layer_name.find(name) != std::string::npos)
        return c.unit == LayerCommand::Unit::FusedIntoProducer;
    return false;
  };
  EXPECT_TRUE(is_fused("pool1"));
}

TEST(Compile, FusedConvMovesThePooledTensor) {
  // A pool-fused conv stores the pooled tensor under the pool's keep
  // decision — the placement the simulator timed it with. The program's
  // DMA must describe that tensor, not the unpooled conv output.
  const nn::Model m = nn::zoo::squeezenet_v10();
  const ResidencyPlan plan = plan_residency(m, kCfg);
  for (const bool timeline : {false, true}) {
    SimulationOptions opt;
    opt.fuse_pool_drain = true;
    opt.tile_timeline = timeline;
    const Program p = compile(m, kCfg, opt);
    int checked = 0;
    for (const Fusion& f : find_pool_fusions(m)) {
      const LayerCommand& conv = p.commands.at(
          static_cast<std::size_t>(f.conv_idx - 1));
      ASSERT_EQ(conv.layer_idx, f.conv_idx);
      const bool pool_kept = plan.kept.at(static_cast<std::size_t>(f.pool_idx));
      EXPECT_EQ(conv.output_to_dram, !pool_kept) << conv.layer_name;
      if (conv.output_to_dram) {
        EXPECT_EQ(conv.dma_out_words, m.layer(f.pool_idx).out_shape.elems())
            << conv.layer_name << (timeline ? " (timeline)" : "");
        ++checked;
      }
    }
    EXPECT_GT(checked, 0);  // conv1+pool spills on the Squeezelerator
  }
}

TEST(Compile, WeightWordsMatchModel) {
  const nn::Model m = nn::zoo::squeezenet_v11();
  const Program p = compile(m, kCfg);
  std::int64_t weights = 0;
  for (const LayerCommand& c : p.commands) weights += c.weight_words;
  EXPECT_EQ(weights, m.total_params());
}

TEST(Compile, ListingIsCompleteAndReadable) {
  const nn::Model m = nn::zoo::squeezenet_v11();
  const std::string listing = compile(m, kCfg).listing();
  EXPECT_NE(listing.find("conv1"), std::string::npos);
  EXPECT_NE(listing.find("fire9/expand3x3"), std::string::npos);
  EXPECT_NE(listing.find("expected total"), std::string::npos);
  // Every PE-array command names its dataflow.
  EXPECT_NE(listing.find(" WS"), std::string::npos);
  EXPECT_NE(listing.find(" OS"), std::string::npos);
}

TEST(Compile, TileCountsPositive) {
  const nn::Model m = nn::zoo::squeezenet_v10();
  for (const LayerCommand& c : compile(m, kCfg).commands)
    if (c.unit != LayerCommand::Unit::FusedIntoProducer) {
      EXPECT_GE(c.tile_count, 1) << c.layer_name;
    }
}

TEST(Compile, TileSearchProgramTilesAtTheSearchedBandCount) {
  // A --tile-search program must describe the tiles its timeline ran: the
  // searched band count per layer, not the fixed streaming heuristic.
  const nn::Model m = nn::zoo::squeezenet_v11();
  SimulationOptions timeline;
  timeline.tile_timeline = true;
  SimulationOptions search = timeline;
  search.tile_search = true;
  const sim::NetworkResult r = simulate_network(m, kCfg, search);
  const Program p = compile(m, kCfg, search);
  const Program fixed = compile(m, kCfg, timeline);
  EXPECT_EQ(p.expected_total_cycles(), r.total_cycles());

  const ResidencyPlan plan = plan_residency(m, kCfg);
  int retiled = 0;
  for (std::size_t i = 0; i < p.commands.size(); ++i) {
    const LayerCommand& c = p.commands[i];
    const sim::TileSearchResult searched = sim::search_layer_tiles(
        m, c.layer_idx, kCfg, plan.placement_for(m, c.layer_idx),
        r.layers[i].compute_cycles);
    EXPECT_EQ(c.tile_count, searched.bands) << c.layer_name;
    std::int64_t dma_in = 0;
    for (const sim::TileJob& t : searched.plan.tiles) dma_in += t.dma_in_words;
    EXPECT_EQ(c.dma_in_words, dma_in) << c.layer_name;
    retiled += c.tile_count != fixed.commands[i].tile_count;
  }
  // The search picks a different band count than the heuristic somewhere.
  EXPECT_GT(retiled, 0);
}

}  // namespace
}  // namespace sqz::sched
