#include "sim/mappers.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>

#include "nn/model.h"
#include "runtime/weights.h"

namespace sqz::sim {
namespace {

nn::Model conv_model(int cin, int hw, int cout, int k, int stride, int pad,
                     int groups = 1) {
  nn::Model m("t", nn::TensorShape{cin, hw, hw});
  nn::ConvParams p;
  p.out_channels = cout;
  p.kh = p.kw = k;
  p.stride = stride;
  p.pad_h = p.pad_w = pad;
  p.groups = groups;
  m.add_conv("c", p);
  m.finalize();
  return m;
}

const AcceleratorConfig kCfg = AcceleratorConfig::squeezelerator();

SparsityInfo expected_sparsity(const nn::Layer& l, double s = 0.40) {
  return SparsityInfo::expected(l, s);
}

TEST(OsMapper, ZeroSkipReducesExecutedMacs) {
  const nn::Model m = conv_model(32, 20, 32, 3, 1, 1);
  const auto dense = map_output_stationary(m.layer(1), kCfg,
                                           SparsityInfo::dense(m.layer(1)));
  const auto sparse =
      map_output_stationary(m.layer(1), kCfg, expected_sparsity(m.layer(1)));
  EXPECT_EQ(dense.counts.mac_ops, m.layer(1).macs());
  EXPECT_LT(sparse.counts.mac_ops, dense.counts.mac_ops);
  EXPECT_NEAR(static_cast<double>(sparse.counts.mac_ops),
              0.6 * static_cast<double>(dense.counts.mac_ops),
              0.05 * static_cast<double>(dense.counts.mac_ops));
  EXPECT_LT(sparse.compute_cycles, dense.compute_cycles);
}

TEST(OsMapper, OutputsDrainOnce) {
  const nn::Model m = conv_model(16, 20, 24, 3, 1, 1);
  const auto r =
      map_output_stationary(m.layer(1), kCfg, expected_sparsity(m.layer(1)));
  EXPECT_EQ(r.counts.gb_writes, m.layer(1).out_shape.elems());
}

TEST(OsMapper, NarrowDrainCostsMoreCycles) {
  const nn::Model m = conv_model(64, 32, 64, 1, 1, 0);
  AcceleratorConfig wide = kCfg, narrow = kCfg;
  wide.drain_width = 32;
  narrow.drain_width = 4;
  const auto w =
      map_output_stationary(m.layer(1), wide, expected_sparsity(m.layer(1)));
  const auto n =
      map_output_stationary(m.layer(1), narrow, expected_sparsity(m.layer(1)));
  EXPECT_GT(n.compute_cycles, w.compute_cycles);
  EXPECT_EQ(n.counts.mac_ops, w.counts.mac_ops);
}

TEST(OsMapper, LargerRfReducesInputReads) {
  // The register-file tune-up: more filters share each input block.
  const nn::Model m = conv_model(64, 20, 64, 3, 1, 1);
  AcceleratorConfig rf8 = kCfg, rf16 = kCfg;
  rf8.rf_entries = 8;
  rf16.rf_entries = 16;
  const auto a =
      map_output_stationary(m.layer(1), rf8, expected_sparsity(m.layer(1)));
  const auto b =
      map_output_stationary(m.layer(1), rf16, expected_sparsity(m.layer(1)));
  EXPECT_GT(a.counts.gb_reads, b.counts.gb_reads);
}

TEST(OsMapper, SmallFeatureMapStrandsPes) {
  // 13x13 map on a 32x32 array: only 169/1024 PEs active.
  const nn::Model small = conv_model(256, 13, 256, 3, 1, 1);
  const auto r =
      map_output_stationary(small.layer(1), kCfg, expected_sparsity(small.layer(1)));
  const double util = static_cast<double>(small.layer(1).macs()) /
                      (static_cast<double>(r.compute_cycles) * kCfg.pe_count());
  EXPECT_LT(util, 0.25);
}

TEST(OsMapper, DepthwiseIsEfficientPerChannel) {
  nn::Model m("dw", nn::TensorShape{32, 64, 64});
  m.add_depthwise("d", 3, 1, 1);
  m.finalize();
  const auto os =
      map_output_stationary(m.layer(1), kCfg, expected_sparsity(m.layer(1)));
  const auto ws = map_weight_stationary(m.layer(1), kCfg);
  // Paper: DW is 19x-96x faster on OS than WS.
  const double ratio = static_cast<double>(ws.compute_cycles) /
                       static_cast<double>(os.compute_cycles);
  EXPECT_GT(ratio, 10.0);
}

TEST(OsMapper, OverflowThrowsNamingTheTerm) {
  // 4e18 output pixels fit int64, but 9 taps x 60% non-zero broadcasts
  // per pixel do not: the closed form must refuse rather than wrap.
  const nn::Model m = conv_model(1, 2000000000, 1, 3, 1, 1);
  try {
    (void)map_output_stationary(m.layer(1), kCfg, expected_sparsity(m.layer(1)));
    FAIL() << "expected std::overflow_error";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("os mac_ops"), std::string::npos)
        << e.what();
  }
}

TEST(OsMapper, RejectsFc) {
  nn::Model m("fc", nn::TensorShape{16, 4, 4});
  m.add_fc("f", 10);
  m.finalize();
  EXPECT_THROW(map_output_stationary(m.layer(1), kCfg,
                                     SparsityInfo::dense(m.layer(1))),
               std::invalid_argument);
}

TEST(OsMapper, MeasuredSparsityConsistentWithCounts) {
  const nn::Model m = conv_model(16, 20, 16, 3, 1, 1);
  runtime::WeightGenConfig wc;
  wc.sparsity = 0.40;
  const runtime::WeightTensor w = runtime::generate_weights(m, 1, wc);
  const auto r =
      map_output_stationary(m.layer(1), kCfg, SparsityInfo::measured(w));
  // Executed MACs = nnz * output pixels (every tile pass covers all planes).
  EXPECT_EQ(r.counts.mac_ops, w.nonzero_count() * m.layer(1).out_shape.h *
                                  m.layer(1).out_shape.w);
}

// Property sweep: dense OS executes exactly the useful MACs; sparse OS
// executes fewer; outputs always drain exactly once.
class OsShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(OsShapeSweep, Invariants) {
  const auto [cin, cout, k, stride, hw] = GetParam();
  if (hw < k) GTEST_SKIP();
  const nn::Model m = conv_model(cin, hw, cout, k, stride, k / 2);
  const auto dense = map_output_stationary(m.layer(1), kCfg,
                                           SparsityInfo::dense(m.layer(1)));
  EXPECT_EQ(dense.counts.mac_ops, m.layer(1).macs());
  EXPECT_EQ(dense.counts.gb_writes, m.layer(1).out_shape.elems());
  const auto sparse =
      map_output_stationary(m.layer(1), kCfg, expected_sparsity(m.layer(1)));
  EXPECT_LE(sparse.counts.mac_ops, dense.counts.mac_ops);
  EXPECT_LE(sparse.compute_cycles, dense.compute_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, OsShapeSweep,
    ::testing::Combine(::testing::Values(1, 3, 16, 48),   // cin
                       ::testing::Values(8, 33, 64),      // cout
                       ::testing::Values(1, 3, 5),        // kernel
                       ::testing::Values(1, 2),           // stride
                       ::testing::Values(7, 14, 40)));    // input hw

}  // namespace
}  // namespace sqz::sim
