// Figure 1: per-layer inference time and utilization of SqueezeNet v1.0 on
// the reference WS/OS architectures and the Squeezelerator, with the paper's
// totals: +26% over OS and +106% over WS.
#include <gtest/gtest.h>

#include "core/squeezelerator.h"
#include "nn/zoo/zoo.h"

namespace sqz::core {
namespace {

class Figure1 : public ::testing::Test {
 protected:
  static const ComparisonResult& cmp() {
    static const ComparisonResult c = compare_dataflows(nn::zoo::squeezenet_v10());
    return c;
  }
};

TEST_F(Figure1, TotalsInPaperBand) {
  // Paper: 26% over OS, 106% over WS. Bands cover estimator differences.
  EXPECT_GT(cmp().speedup_vs_os(), 1.05);
  EXPECT_LT(cmp().speedup_vs_os(), 1.55);
  EXPECT_GT(cmp().speedup_vs_ws(), 1.40);
  EXPECT_LT(cmp().speedup_vs_ws(), 2.60);
}

TEST_F(Figure1, OverallTrendSimilarToWs) {
  // "The overall trend is similar to that of the WS architecture, but the
  // performance of the first layer is noticeably improved."
  const auto& hybrid = cmp().hybrid.layers;
  const auto& ws = cmp().ws_only.layers;
  // conv1 (layer index 1 -> vector index 0) is dramatically faster.
  EXPECT_LT(hybrid[0].total_cycles, ws[0].total_cycles / 3);
}

TEST_F(Figure1, LargeMapSpatialConvsChooseOs) {
  // "For most of the 3x3 convolutions, the accelerator chooses OS dataflow."
  // In our estimator the large-feature-map (early/mid) 3x3 expands choose OS;
  // the 13x13 late layers flip to WS because of the array/feature-map
  // mismatch the paper itself calls out (delta recorded in EXPERIMENTS.md).
  const nn::Model m = nn::zoo::squeezenet_v10();
  int os_3x3 = 0, total_3x3 = 0;
  for (const auto& l : cmp().hybrid.layers) {
    const nn::Layer& layer = m.layer(l.layer_idx);
    if (!layer.is_conv() || layer.conv.kh != 3) continue;
    ++total_3x3;
    if (l.dataflow == sim::Dataflow::OutputStationary) ++os_3x3;
  }
  EXPECT_GE(os_3x3 * 2, total_3x3);  // at least half
  // The early fire modules (largest maps) must be among the OS picks.
  for (const auto& l : cmp().hybrid.layers) {
    const std::string& n = l.layer_name;
    if (n == "fire2/expand3x3" || n == "fire3/expand3x3") {
      EXPECT_EQ(l.dataflow, sim::Dataflow::OutputStationary) << n;
    }
  }
}

TEST_F(Figure1, LateLayersHaveLowOsUtilization) {
  // "In the latter layers, the mismatch between the size of the PE array and
  // the size of the feature map is the main cause of the performance
  // degradation" — late 13x13 layers on the OS reference run below 25%.
  const nn::Model m = nn::zoo::squeezenet_v10();
  const int pes = cmp().os_only.config.pe_count();
  for (const auto& l : cmp().os_only.layers) {
    const nn::Layer& layer = m.layer(l.layer_idx);
    if (!layer.is_conv()) continue;
    if (layer.out_shape.h > 16) continue;  // late layers only
    EXPECT_LT(l.utilization(pes), 0.25) << layer.name;
  }
}

TEST_F(Figure1, HybridMatchesBestPerLayer) {
  // The Squeezelerator's per-layer time is never worse than both references.
  for (std::size_t i = 0; i < cmp().hybrid.layers.size(); ++i) {
    const auto h = cmp().hybrid.layers[i].total_cycles;
    const auto w = cmp().ws_only.layers[i].total_cycles;
    const auto o = cmp().os_only.layers[i].total_cycles;
    EXPECT_LE(h, std::max(w, o));
  }
}

}  // namespace
}  // namespace sqz::core
