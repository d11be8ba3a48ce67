// The oracle for the closed-form mappers (sim/mappers.cpp): the functional
// emulators execute every operand of the WS/OS schedules, and the mappers
// must match their cycles and access counts exactly — across random array
// sizes, port widths, register files, accumulator depths, sparsity and
// psum placements, on random conv and FC layers (FC maps WS only), with
// measured-weight sparsity on the OS side. The named edge shapes below pin
// the cases where blocked-loop closed forms typically diverge from a walk:
// 1x1 (OS loads overlap compute), depthwise, tap-packed cin=3, grouped,
// strided+padded remainders and tiny arrays.
#include <gtest/gtest.h>

#include "nn/model.h"
#include "runtime/ops.h"
#include "runtime/weights.h"
#include "sim/functional/engines.h"
#include "sim/mappers.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sqz::sim::functional {
namespace {

AcceleratorConfig random_config(util::Rng& rng) {
  AcceleratorConfig cfg;
  cfg.array_n = static_cast<int>(rng.next_in(2, 24));
  cfg.rf_entries = static_cast<int>(rng.next_in(1, 24));
  cfg.preload_width = static_cast<int>(rng.next_in(1, 48));
  cfg.drain_width = static_cast<int>(rng.next_in(1, 48));
  cfg.psum_accum_words =
      static_cast<int>(rng.next_in(cfg.array_n, 4096));
  cfg.os_zero_skip = rng.next_bernoulli(0.8);
  cfg.ws_psums_in_gb = rng.next_bernoulli(0.3);
  cfg.weight_sparsity = rng.next_unit() * 0.7;
  cfg.validate();
  return cfg;
}

nn::Model random_conv(util::Rng& rng) {
  const int cin = static_cast<int>(rng.next_in(1, 20));
  const int hw = static_cast<int>(rng.next_in(5, 18));
  const int k = static_cast<int>(rng.next_in(1, std::min(hw, 5)));
  const int stride = static_cast<int>(rng.next_in(1, 2));
  // Groups: 1, cin (depthwise), or a divisor.
  int groups = 1;
  const auto dice = rng.next_below(4);
  if (dice == 1) groups = cin;
  else if (dice == 2 && cin % 2 == 0) groups = 2;
  const int cout = static_cast<int>(rng.next_in(1, 12)) * groups;

  nn::Model m(util::format("cfgfuzz"), nn::TensorShape{cin, hw, hw});
  nn::ConvParams p;
  p.out_channels = cout;
  p.kh = p.kw = k;
  p.stride = stride;
  p.pad_h = p.pad_w = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(k)));
  p.groups = groups;
  p.relu = rng.next_bernoulli(0.7);
  m.add_conv("c", p);
  m.finalize();
  return m;
}

nn::Model random_fc(util::Rng& rng) {
  const int c = static_cast<int>(rng.next_in(1, 16));
  const int hw = static_cast<int>(rng.next_in(1, 6));
  nn::Model m("fcfuzz", nn::TensorShape{c, hw, hw});
  m.add_fc("f", static_cast<int>(rng.next_in(1, 40)),
           rng.next_bernoulli(0.5));
  m.finalize();
  return m;
}

// Layer 1 of `m` through the emulators (on generated weights at the
// config's sparsity) and the closed-form mappers: outputs must match the
// reference runtime, cycles and counts must match the mappers.
void expect_mappers_match_emulators(const nn::Model& m,
                                    const AcceleratorConfig& cfg,
                                    std::uint64_t seed) {
  const nn::Layer& l = m.layer(1);
  runtime::WeightGenConfig wc;
  wc.sparsity = cfg.weight_sparsity;
  const runtime::WeightTensor w = runtime::generate_weights(m, 1, wc);
  const runtime::Tensor in = runtime::generate_input(m, seed);
  runtime::Requant rq;
  rq.relu = l.is_conv() ? l.conv.relu : l.fc.relu;
  const runtime::Tensor ref = l.is_conv()
                                  ? runtime::conv2d(in, w, l.conv, rq)
                                  : runtime::fully_connected(in, w, l.fc, rq);
  const std::string where = m.name() + " " + cfg.to_string();

  {
    const FunctionalResult f = run_weight_stationary(l, in, w, rq, cfg);
    const MappingResult a = map_weight_stationary(l, cfg);
    ASSERT_EQ(f.output, ref) << where;
    ASSERT_EQ(f.compute_cycles, a.compute_cycles) << where;
    ASSERT_EQ(f.counts, a.counts) << where;
  }
  if (!l.is_conv()) return;  // FC always maps weight-stationary
  {
    const FunctionalResult f = run_output_stationary(l, in, w, rq, cfg);
    const SparsityInfo sp = cfg.os_zero_skip ? SparsityInfo::measured(w)
                                             : SparsityInfo::dense(l);
    const MappingResult a = map_output_stationary(l, cfg, sp);
    ASSERT_EQ(f.output, ref) << where;
    ASSERT_EQ(f.compute_cycles, a.compute_cycles) << where;
    ASSERT_EQ(f.counts, a.counts) << where;
  }
}

class ConfigFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigFuzz, BothDataflowsExactUnderRandomConfigs) {
  util::Rng rng(GetParam() * 7919 + 13);
  const AcceleratorConfig cfg = random_config(rng);
  const nn::Model m = rng.next_below(5) == 0 ? random_fc(rng) : random_conv(rng);
  expect_mappers_match_emulators(m, cfg, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzz,
                         ::testing::Range<std::uint64_t>(1, 401));

// --- named edge shapes, at the paper's configuration unless noted --------

AcceleratorConfig sparse_squeezelerator() {
  AcceleratorConfig cfg = AcceleratorConfig::squeezelerator();
  cfg.weight_sparsity = 0.4;
  return cfg;
}

nn::Model conv_model(const char* name, nn::TensorShape in, int cout, int k,
                     int stride, int pad, int groups = 1) {
  nn::Model m(name, in);
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

TEST(OracleShapes, OneByOneConv) {
  // Pointwise: OS overlaps the next block injection with the broadcasts.
  expect_mappers_match_emulators(
      conv_model("squeeze", {40, 9, 9}, 16, 1, 1, 0), sparse_squeezelerator(), 1);
  expect_mappers_match_emulators(
      conv_model("expand", {16, 9, 9}, 40, 1, 1, 0), sparse_squeezelerator(), 2);
}

TEST(OracleShapes, DepthwiseThinChannels) {
  expect_mappers_match_emulators(conv_model("dw", {8, 14, 14}, 8, 3, 1, 1, 8),
                                 sparse_squeezelerator(), 3);
  expect_mappers_match_emulators(
      conv_model("dw_s2", {8, 14, 14}, 8, 3, 2, 1, 8), sparse_squeezelerator(), 4);
}

TEST(OracleShapes, FirstLayerThreeChannelsTapPacked) {
  // cin=3 takes the WS tap-packing path (cin_pg <= n/2, kw > 1).
  expect_mappers_match_emulators(
      conv_model("conv1", {3, 19, 19}, 12, 7, 2, 0), sparse_squeezelerator(), 5);
}

TEST(OracleShapes, FullyConnected) {
  nn::Model m("fc", nn::TensorShape{9, 3, 3});
  m.add_fc("f", 45);
  m.finalize();
  expect_mappers_match_emulators(m, sparse_squeezelerator(), 6);
}

TEST(OracleShapes, StridedAndPaddedConvRemainders) {
  // Output extents that leave remainder tiles/blocks on every axis.
  expect_mappers_match_emulators(
      conv_model("c5", {33, 13, 13}, 37, 5, 2, 2), sparse_squeezelerator(), 7);
  expect_mappers_match_emulators(
      conv_model("c3", {17, 11, 11}, 9, 3, 3, 1), sparse_squeezelerator(), 8);
}

TEST(OracleShapes, GroupedConv) {
  expect_mappers_match_emulators(
      conv_model("g2", {12, 9, 9}, 20, 5, 1, 2, 2), sparse_squeezelerator(), 9);
}

TEST(OracleShapes, TinyArray) {
  AcceleratorConfig cfg = sparse_squeezelerator();
  cfg.array_n = 4;
  cfg.rf_entries = 2;
  cfg.preload_width = 4;
  cfg.drain_width = 4;
  cfg.psum_accum_words = 64;
  expect_mappers_match_emulators(conv_model("c", {5, 9, 9}, 7, 3, 1, 1), cfg,
                                 10);
}

}  // namespace
}  // namespace sqz::sim::functional
