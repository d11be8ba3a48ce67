#include "core/dse.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "nn/serialize.h"
#include "nn/zoo/zoo.h"
#include "util/hash.h"
#include "util/json_parse.h"

namespace sqz::core {
namespace {

TEST(Dse, EvaluateProducesOnePointPerConfig) {
  const nn::Model m = nn::zoo::squeezenet_v11();
  const auto configs =
      sweep_knob(sim::AcceleratorConfig::squeezelerator(), "rf_entries",
                 {4, 8, 16});
  const auto points = evaluate_designs(m, configs);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].label, "RF=4");
  EXPECT_EQ(points[2].config.rf_entries, 16);
  for (const DesignPoint& p : points) {
    EXPECT_GT(p.cycles, 0);
    EXPECT_GT(p.energy, 0.0);
    EXPECT_GT(p.utilization, 0.0);
  }
}

TEST(Dse, ParetoFilterCorrect) {
  std::vector<DesignPoint> pts(4);
  pts[0].label = "a"; pts[0].cycles = 100; pts[0].energy = 100;
  pts[1].label = "b"; pts[1].cycles = 50;  pts[1].energy = 200;
  pts[2].label = "c"; pts[2].cycles = 200; pts[2].energy = 50;
  pts[3].label = "d"; pts[3].cycles = 150; pts[3].energy = 150;  // dominated by a
  const auto front = pareto_front(pts);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0].label, "a");
  EXPECT_EQ(front[1].label, "b");
  EXPECT_EQ(front[2].label, "c");
}

TEST(Dse, JsonDumpCarriesEveryPointWithParetoMembership) {
  std::vector<DesignPoint> pts(4);
  pts[0].label = "a"; pts[0].cycles = 100; pts[0].energy = 100;
  pts[1].label = "b"; pts[1].cycles = 50;  pts[1].energy = 200;
  pts[2].label = "c"; pts[2].cycles = 200; pts[2].energy = 50;
  pts[3].label = "d"; pts[3].cycles = 150; pts[3].energy = 150;  // dominated
  for (DesignPoint& p : pts) p.config = sim::AcceleratorConfig::squeezelerator();

  std::ostringstream os;
  write_design_points_json("test sweep", pts, os);
  const util::JsonValue doc = util::parse_json(os.str());

  EXPECT_EQ(doc.at("sweep").as_string(), "test sweep");
  const util::JsonValue& out = doc.at("points");
  ASSERT_EQ(out.items.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(out.at(i).at("label").as_string(), pts[i].label);
    EXPECT_EQ(out.at(i).at("cycles").as_int(), pts[i].cycles);
    EXPECT_EQ(out.at(i).at("config").at("array_n").as_int(), 32);
  }
  EXPECT_TRUE(out.at(std::size_t{0}).at("pareto").as_bool());
  EXPECT_TRUE(out.at(std::size_t{1}).at("pareto").as_bool());
  EXPECT_TRUE(out.at(std::size_t{2}).at("pareto").as_bool());
  EXPECT_FALSE(out.at(std::size_t{3}).at("pareto").as_bool());
}

TEST(Dse, JsonDumpOfARealSweepParses) {
  const nn::Model m = nn::zoo::squeezenet_v11();
  const auto points = evaluate_designs(
      m, sweep_knob(sim::AcceleratorConfig::squeezelerator(), "rf_entries",
                    {8, 16}));
  std::ostringstream os;
  write_design_points_json("rf_entries on squeezenet11", points, os);
  const util::JsonValue doc = util::parse_json(os.str());
  ASSERT_EQ(doc.at("points").items.size(), 2u);
  // At least one point of any non-empty sweep is on the front.
  bool any_pareto = false;
  for (const util::JsonValue& p : doc.at("points").items)
    any_pareto |= p.at("pareto").as_bool();
  EXPECT_TRUE(any_pareto);
  EXPECT_EQ(doc.at("points").at(std::size_t{0}).at("config").at("rf_entries").as_int(), 8);
}

TEST(Dse, ParetoHandlesDuplicates) {
  std::vector<DesignPoint> pts(2);
  pts[0].cycles = 100; pts[0].energy = 100;
  pts[1].cycles = 100; pts[1].energy = 100;
  EXPECT_EQ(pareto_front(pts).size(), 2u);  // equal points don't dominate
}

TEST(Dse, ParetoKeepsEveryDuplicateOfAFrontPoint) {
  // Pin the tie rule the parallel writer relies on: duplicate
  // (cycles, energy) points are all kept (domination requires strict
  // improvement on one axis), so front membership is a function of the
  // point multiset alone and can never depend on evaluation order.
  std::vector<DesignPoint> pts(5);
  pts[0].label = "dup0"; pts[0].cycles = 50;  pts[0].energy = 50;
  pts[1].label = "loser"; pts[1].cycles = 90; pts[1].energy = 90;  // dominated
  pts[2].label = "dup1"; pts[2].cycles = 50;  pts[2].energy = 50;
  pts[3].label = "dup2"; pts[3].cycles = 50;  pts[3].energy = 50;
  pts[4].label = "other"; pts[4].cycles = 40;  pts[4].energy = 60;  // on front
  const auto front = pareto_front(pts);
  ASSERT_EQ(front.size(), 4u);
  // All three duplicates survive, in input order, alongside the other member.
  EXPECT_EQ(front[0].label, "dup0");
  EXPECT_EQ(front[1].label, "dup1");
  EXPECT_EQ(front[2].label, "dup2");
  EXPECT_EQ(front[3].label, "other");
}

TEST(Dse, ParetoExcludesEveryDuplicateOfADominatedPoint) {
  std::vector<DesignPoint> pts(3);
  pts[0].label = "bad0"; pts[0].cycles = 100; pts[0].energy = 100;
  pts[1].label = "best"; pts[1].cycles = 10;  pts[1].energy = 10;
  pts[2].label = "bad1"; pts[2].cycles = 100; pts[2].energy = 100;
  const auto front = pareto_front(pts);
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].label, "best");
}

TEST(Dse, ParetoOfRealSweepNonEmpty) {
  const nn::Model m = nn::zoo::squeezenet_v11();
  const auto points = evaluate_designs(
      m, sweep_knob(sim::AcceleratorConfig::squeezelerator(), "array_n",
                    {8, 16, 32}));
  const auto front = pareto_front(points);
  EXPECT_GE(front.size(), 1u);
  EXPECT_LE(front.size(), points.size());
}

TEST(Dse, SweepBuildersSetKnobs) {
  const auto base = sim::AcceleratorConfig::squeezelerator();
  EXPECT_EQ(sweep_knob(base, "array_n", {8})[0].second.array_n, 8);
  EXPECT_EQ(sweep_knob(base, "array_n", {8})[0].first, "8x8");
  EXPECT_DOUBLE_EQ(
      sweep_knob(base, "sparsity", {0.2})[0].second.weight_sparsity, 0.2);
  EXPECT_EQ(sweep_knob(base, "sparsity", {0.2})[0].first, "sparsity=20%");
  EXPECT_DOUBLE_EQ(sweep_knob(base, "dram_bytes_per_cycle", {8.0})[0]
                       .second.dram_bytes_per_cycle,
                   8.0);
}

TEST(Dse, SweepKnobRejectsUnknownKnobsAndFractionalIntegers) {
  const auto base = sim::AcceleratorConfig::squeezelerator();
  EXPECT_EQ(sweep_knob(base, "rf_entries", {16})[0].first, "RF=16");
  EXPECT_EQ(sweep_knob(base, "dram_bytes_per_cycle", {8.0})[0].first,
            "DRAM=8B/cyc");
  EXPECT_TRUE(sweep_knob(base, "array_n", {}).empty());
  try {
    sweep_knob(base, "pe_count", {});
    ADD_FAILURE() << "an unknown knob must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "knob must be one of rf_entries|array_n|sparsity|"
                 "dram_bytes_per_cycle, got 'pe_count'");
  }
  for (const double bad : {8.5, 1e12, -1e12}) {
    try {
      sweep_knob(base, "rf_entries", {8.0, bad});
      ADD_FAILURE() << bad << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "values for rf_entries must be integers");
    }
  }
}

TEST(Dse, BiggerArrayFasterOnBigNetwork) {
  const nn::Model m = nn::zoo::squeezenet_v10();
  const auto points = evaluate_designs(
      m, sweep_knob(sim::AcceleratorConfig::squeezelerator(), "array_n",
                    {8, 32}));
  EXPECT_GT(points[0].cycles, points[1].cycles);
}

TEST(Dse, DesignPointKeyCarriesFidelityOnlyOffTheFlatDefaults) {
  const std::string text = "model m\ninput 3x8x8\n";
  const sim::AcceleratorConfig cfg = sim::AcceleratorConfig::squeezelerator();
  const std::string flat =
      design_point_key(text, "RF=8", cfg, sched::Objective::Cycles);
  EXPECT_EQ(flat.rfind("{\"op\":\"design_point\",", 0), 0u) << flat;
  EXPECT_EQ(flat.find("options"), std::string::npos) << flat;
  EXPECT_EQ(design_point_key(text, "RF=8", cfg, sched::SimulationOptions{}),
            flat);

  sched::SimulationOptions energy;
  energy.objective = sched::Objective::Energy;
  EXPECT_EQ(design_point_key(text, "RF=8", cfg, energy),
            design_point_key(text, "RF=8", cfg, sched::Objective::Energy));

  // Each fidelity knob off its default gives a distinct key that names it.
  std::vector<sched::SimulationOptions> off(4);
  off[0].tile_timeline = true;
  off[1].double_buffered = false;
  off[2].tile_timeline = off[2].tile_search = true;
  off[3].fuse_pool_drain = true;
  std::vector<std::string> keys = {flat};
  for (const sched::SimulationOptions& o : off)
    keys.push_back(design_point_key(text, "RF=8", cfg, o));
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_NE(keys[i].find(",\"options\":{\"timeline\":"), std::string::npos)
        << keys[i];
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(keys[i], keys[j]);
  }
  EXPECT_NE(keys[3].find("\"timeline\":true,\"double_buffered\":true,"
                         "\"tile_search\":true,\"fuse\":false}}"),
            std::string::npos)
      << keys[3];
}

TEST(Dse, LedgerHashesEachKeyOnceForRoutingAndShortKeys) {
  const std::string text = nn::serialize_model(nn::zoo::squeezenet_v11());
  const SweepConfigs configs = sweep_knob(
      sim::AcceleratorConfig::squeezelerator(), "rf_entries", {8, 16});
  SweepLedger ledger(text, configs, sched::SimulationOptions{}, nullptr);
  ASSERT_EQ(ledger.size(), 2u);
  for (std::size_t i = 0; i < ledger.size(); ++i)
    EXPECT_EQ(ledger.key_hash(i), util::fnv1a64(ledger.key(i)));

  // A failed point's short key is the same 16 hex either way it is made.
  const std::string key = ledger.key(1);
  EXPECT_EQ(design_point_short_key(ledger.key_hash(1)),
            design_point_short_key(key));
  ledger.fail(1, "dispatch", "no worker");
  const SweepOutcome out = ledger.take_outcome();
  ASSERT_EQ(out.errors.size(), 1u);
  EXPECT_EQ(out.errors[0].key, design_point_short_key(key));
  EXPECT_EQ(out.errors[0].key.size(), 16u);
}

}  // namespace
}  // namespace sqz::core
