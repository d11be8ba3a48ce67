#include "core/codesign.h"

#include <gtest/gtest.h>

#include "nn/zoo/zoo.h"

namespace sqz::core {
namespace {

TEST(Tuning, EvaluatesWholeSpace) {
  const nn::Model m = nn::zoo::squeezenet_v11();
  TuningSpace space;
  space.rf_entries = {8, 16};
  space.array_n = {16, 32};
  const TuningResult r = tune_accelerator(m, space);
  EXPECT_EQ(r.candidates.size(), 4u);
  for (const TuningCandidate& c : r.candidates) {
    EXPECT_GT(c.cycles, 0);
    EXPECT_GT(c.energy, 0.0);
  }
}

TEST(Tuning, BestIsMinimal) {
  const nn::Model m = nn::zoo::squeezenext();
  const TuningResult r = tune_accelerator(m, TuningSpace::rf_only());
  std::int64_t best_cycles = std::numeric_limits<std::int64_t>::max();
  for (const TuningCandidate& c : r.candidates)
    best_cycles = std::min(best_cycles, c.cycles);
  for (const TuningCandidate& c : r.candidates)
    if (c.config.rf_entries == r.best.rf_entries &&
        c.config.array_n == r.best.array_n) {
      EXPECT_EQ(c.cycles, best_cycles);
    }
}

TEST(Tuning, PaperRfTuneUp) {
  // Paper §4.2: doubling the register file from 8 to 16 improved local data
  // reuse for SqueezeNext. RF 16 must not be worse than RF 8.
  const nn::Model m = nn::zoo::squeezenext();
  TuningSpace space;
  space.rf_entries = {8, 16};
  const TuningResult r = tune_accelerator(m, space);
  ASSERT_EQ(r.candidates.size(), 2u);
  const TuningCandidate& rf8 = r.candidates[0];
  const TuningCandidate& rf16 = r.candidates[1];
  EXPECT_LE(rf16.cycles, rf8.cycles);
  EXPECT_LE(rf16.energy, rf8.energy);
  EXPECT_EQ(r.best.rf_entries, 16);
}

TEST(Tuning, EnergyObjectiveSelectable) {
  const nn::Model m = nn::zoo::squeezenet_v11();
  TuningSpace space;
  space.rf_entries = {4, 8, 16, 32};
  const TuningResult by_energy =
      tune_accelerator(m, space, sim::AcceleratorConfig::squeezelerator(),
                       sched::Objective::Energy);
  double best = std::numeric_limits<double>::infinity();
  for (const auto& c : by_energy.candidates) best = std::min(best, c.energy);
  for (const auto& c : by_energy.candidates)
    if (c.config.rf_entries == by_energy.best.rf_entries) {
      EXPECT_EQ(c.energy, best);
    }
}

TEST(Advice, FlagsLowUtilizationEarlyLayers) {
  // Paper Figure 3: "the initial layers have very low utilization which
  // adversely affects inference time and energy" — the flagged layers must
  // concentrate in the early stages.
  const nn::Model m = nn::zoo::squeezenext(nn::zoo::SqNxtVariant::V1);
  const ModelAdvice advice = analyze_model(m);
  ASSERT_FALSE(advice.layers.empty());
  const auto low = advice.low_utilization(0.25);
  ASSERT_FALSE(low.empty());
  int early = 0, late = 0;
  for (const auto& d : low) {
    if (d.layer_name.find("stage1/") == 0) ++early;
    if (d.layer_name.find("stage3/") == 0 || d.layer_name.find("stage4/") == 0)
      ++late;
  }
  EXPECT_GT(early, 0);
  EXPECT_GT(early, late);
  // Every stage-1 bottleneck conv runs well below half utilization.
  for (const auto& d : advice.layers)
    if (d.layer_name.find("stage1/") == 0) {
      EXPECT_LT(d.utilization, 0.5);
    }
}

TEST(Advice, DiagnosesAlexNetFcAsDramBound) {
  const nn::Model m = nn::zoo::alexnet();
  const ModelAdvice advice = analyze_model(m);
  int dram_bound_fc = 0;
  for (const auto& d : advice.layers)
    if (m.layer(d.layer_idx).is_fc() && d.bottleneck == Bottleneck::DramBound)
      ++dram_bound_fc;
  EXPECT_EQ(dram_bound_fc, 3);  // fc6, fc7, fc8
}

TEST(Advice, UtilizationConsistent) {
  const nn::Model m = nn::zoo::squeezenet_v10();
  const ModelAdvice advice = analyze_model(m);
  EXPECT_GT(advice.network_utilization, 0.0);
  for (const auto& d : advice.layers) {
    EXPECT_GE(d.utilization, 0.0);
    EXPECT_LE(d.utilization, 1.0);
  }
}

TEST(Advice, BottleneckNames) {
  EXPECT_STREQ(bottleneck_name(Bottleneck::None), "healthy");
  EXPECT_STREQ(bottleneck_name(Bottleneck::FewChannels), "few-channels");
  EXPECT_STREQ(bottleneck_name(Bottleneck::DramBound), "dram-bound");
}

TEST(Advice, CoversOnlyMacLayers) {
  const nn::Model m = nn::zoo::squeezenet_v10();
  const ModelAdvice advice = analyze_model(m);
  int mac_layers = 0;
  for (int i = 0; i < m.layer_count(); ++i)
    if (m.layer(i).is_macs_layer()) ++mac_layers;
  EXPECT_EQ(static_cast<int>(advice.layers.size()), mac_layers);
}

}  // namespace
}  // namespace sqz::core
