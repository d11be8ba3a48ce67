#include "core/advisor.h"

#include <gtest/gtest.h>

#include "nn/zoo/zoo.h"

namespace sqz::core {
namespace {

TEST(Advisor, UnconstrainedPicksMostAccurate) {
  const AdvisorResult r =
      select_network(nn::zoo::figure4_models(), ApplicationConstraints{});
  ASSERT_TRUE(r.best.has_value());
  // 1.0 MobileNet-224 (70.6%) is the accuracy champion of the spectrum.
  EXPECT_EQ(r.candidates[*r.best].name, "1.0 MobileNet-224");
}

TEST(Advisor, TightLatencyBudgetWithinSqueezeNextFamily) {
  // The paper's sentence is about selecting "from this family": under a
  // 1 ms real-time budget the deeper/wider SqueezeNext members drop out and
  // v5 of depth 23 (0.93 ms, 59.2%) is the most accurate survivor.
  using nn::zoo::SqNxtVariant;
  std::vector<nn::Model> family;
  family.push_back(nn::zoo::squeezenext(SqNxtVariant::V1));
  family.push_back(nn::zoo::squeezenext(SqNxtVariant::V5));
  family.push_back(nn::zoo::squeezenext(SqNxtVariant::V5, 1.0, 34));
  family.push_back(nn::zoo::squeezenext(SqNxtVariant::V5, 1.0, 44));
  family.push_back(nn::zoo::squeezenext(SqNxtVariant::V5, 2.0, 23));
  ApplicationConstraints c;
  c.max_latency_ms = 1.0;
  const AdvisorResult r = select_network(family, c);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_EQ(r.candidates[*r.best].name, "1.0-SqNxt-23 v5");
  EXPECT_LE(r.candidates[*r.best].latency_ms, 1.0);
}

TEST(Advisor, AccuracyFloorFiltersWeakModels) {
  ApplicationConstraints c;
  c.min_top1 = 60.0;
  const AdvisorResult r = select_network(nn::zoo::figure4_models(), c);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_GE(r.candidates[*r.best].top1, 60.0);
  for (const CandidateEvaluation& e : r.candidates)
    if (e.feasible) {
      EXPECT_GE(e.top1, 60.0) << e.name;
    }
}

TEST(Advisor, InfeasibleBudgetYieldsNoPick) {
  ApplicationConstraints c;
  c.max_latency_ms = 1e-6;
  const AdvisorResult r = select_network(nn::zoo::figure4_models(), c);
  EXPECT_FALSE(r.best.has_value());
  for (const CandidateEvaluation& e : r.candidates) EXPECT_FALSE(e.feasible);
}

TEST(Advisor, EnergyBudgetRespected) {
  ApplicationConstraints c;
  c.max_energy = 2.5e9;
  const AdvisorResult r = select_network(nn::zoo::figure4_models(), c);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_LE(r.candidates[*r.best].energy, 2.5e9);
}

TEST(Advisor, UnknownAccuracyFailsAccuracyConstraint) {
  nn::Model custom("NotInAccuracyTable", nn::TensorShape{3, 32, 32});
  custom.add_conv("c", 8, 3, 1, 1);
  custom.add_global_avgpool("g");
  custom.add_fc("f", 10);
  custom.finalize();
  ApplicationConstraints with_floor;
  with_floor.min_top1 = 50.0;
  const AdvisorResult r = select_network({custom}, with_floor);
  EXPECT_FALSE(r.best.has_value());
  // Without an accuracy floor, the unknown-accuracy model is usable.
  const AdvisorResult r2 = select_network({custom}, ApplicationConstraints{});
  EXPECT_TRUE(r2.best.has_value());
  EXPECT_FALSE(r2.candidates[0].accuracy_known);
}

TEST(Advisor, EvaluatesEveryCandidateInOrder) {
  const auto models = nn::zoo::figure4_models();
  const AdvisorResult r = select_network(models, ApplicationConstraints{});
  ASSERT_EQ(r.candidates.size(), models.size());
  for (std::size_t i = 0; i < models.size(); ++i)
    EXPECT_EQ(r.candidates[i].name, models[i].name());
}

TEST(Advisor, ConstraintsComposewithConfig) {
  // On a smaller 16x16 accelerator everything is slower; the 1 ms budget
  // then admits fewer (or different) networks than on the 32x32 default.
  sim::AcceleratorConfig small = sim::AcceleratorConfig::squeezelerator();
  small.array_n = 16;
  small.preload_width = 16;
  small.drain_width = 16;
  ApplicationConstraints c;
  c.max_latency_ms = 1.0;
  const auto big = select_network(nn::zoo::figure4_models(), c);
  const auto tiny = select_network(nn::zoo::figure4_models(), c, small);
  int feasible_big = 0, feasible_tiny = 0;
  for (const auto& e : big.candidates) feasible_big += e.feasible;
  for (const auto& e : tiny.candidates) feasible_tiny += e.feasible;
  EXPECT_LE(feasible_tiny, feasible_big);
}

}  // namespace
}  // namespace sqz::core
