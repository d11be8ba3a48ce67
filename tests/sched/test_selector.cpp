#include "sched/selector.h"

#include <gtest/gtest.h>

#include "nn/zoo/zoo.h"
#include "sched/residency.h"

namespace sqz::sched {
namespace {

const sim::AcceleratorConfig kHybrid = sim::AcceleratorConfig::squeezelerator();

std::vector<LayerChoice> choose(const nn::Model& m,
                                const sim::AcceleratorConfig& cfg,
                                Objective obj = Objective::Cycles) {
  return select_dataflows(m, cfg, plan_residency(m, cfg), obj);
}

TEST(Selector, PicksFasterDataflowPerLayer) {
  const nn::Model m = nn::zoo::squeezenet_v10();
  const ResidencyPlan plan = plan_residency(m, kHybrid);
  for (const LayerChoice& c : choose(m, kHybrid)) {
    const nn::Layer& l = m.layer(c.layer_idx);
    if (!l.is_conv()) continue;
    const auto placement = plan.placement_for(m, c.layer_idx);
    const auto ws = sim::simulate_layer(m, c.layer_idx, kHybrid,
                                        sim::Dataflow::WeightStationary, placement);
    const auto os = sim::simulate_layer(m, c.layer_idx, kHybrid,
                                        sim::Dataflow::OutputStationary, placement);
    EXPECT_EQ(c.chosen.total_cycles, std::min(ws.total_cycles, os.total_cycles))
        << l.name;
  }
}

TEST(Selector, DepthwiseGoesOutputStationary) {
  const nn::Model m = nn::zoo::mobilenet();
  for (const LayerChoice& c : choose(m, kHybrid)) {
    if (m.layer(c.layer_idx).is_depthwise()) {
      EXPECT_EQ(c.dataflow, sim::Dataflow::OutputStationary)
          << m.layer(c.layer_idx).name;
    }
  }
}

TEST(Selector, FirstConvGoesOutputStationary) {
  // Paper Figure 1: "the performance of the first layer is noticeably
  // improved" because the hybrid picks OS for conv1.
  const nn::Model m = nn::zoo::squeezenet_v10();
  const auto choices = choose(m, kHybrid);
  EXPECT_EQ(choices.front().dataflow, sim::Dataflow::OutputStationary);
}

TEST(Selector, ForcedConfigsHaveNoChoice) {
  const nn::Model m = nn::zoo::squeezenet_v10();
  sim::AcceleratorConfig ws = kHybrid, os = kHybrid;
  ws.support = sim::DataflowSupport::WsOnly;
  os.support = sim::DataflowSupport::OsOnly;
  for (const LayerChoice& c : choose(m, ws))
    if (m.layer(c.layer_idx).is_conv()) {
      EXPECT_EQ(c.dataflow, sim::Dataflow::WeightStationary);
    }
  for (const LayerChoice& c : choose(m, os))
    if (m.layer(c.layer_idx).is_conv()) {
      EXPECT_EQ(c.dataflow, sim::Dataflow::OutputStationary);
    }
}

TEST(Selector, FcAlwaysWeightStationary) {
  const nn::Model m = nn::zoo::alexnet();
  sim::AcceleratorConfig os = kHybrid;
  os.support = sim::DataflowSupport::OsOnly;
  for (const LayerChoice& c : choose(m, os))
    if (m.layer(c.layer_idx).is_fc()) {
      EXPECT_EQ(c.dataflow, sim::Dataflow::WeightStationary);
    }
}

TEST(Selector, CoversEveryNonInputLayer) {
  const nn::Model m = nn::zoo::squeezenet_v11();
  const auto choices = choose(m, kHybrid);
  ASSERT_EQ(static_cast<int>(choices.size()), m.layer_count() - 1);
  for (std::size_t i = 0; i < choices.size(); ++i)
    EXPECT_EQ(choices[i].layer_idx, static_cast<int>(i) + 1);
}

TEST(Selector, EnergyObjectiveMinimizesEnergy) {
  const nn::Model m = nn::zoo::squeezenet_v10();
  const auto by_cycles = choose(m, kHybrid, Objective::Cycles);
  const auto by_energy = choose(m, kHybrid, Objective::Energy);
  double e_cycles = 0, e_energy = 0;
  for (const auto& c : by_cycles)
    e_cycles += energy::energy_of(c.chosen.counts).total();
  for (const auto& c : by_energy)
    e_energy += energy::energy_of(c.chosen.counts).total();
  EXPECT_LE(e_energy, e_cycles);
}

}  // namespace
}  // namespace sqz::sched
