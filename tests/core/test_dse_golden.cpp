// Golden-file regression for the DSE sweep JSON: a committed dump of a
// small RF sweep (tests/data/rf_sweep_golden.json) is structurally diffed
// against a freshly generated one. Any schema drift — renamed keys,
// reordered members, changed number formatting — or any drift in the
// simulated metrics fails loudly with the JSON path that diverged, instead
// of silently changing the dashboard/regression-diff format.
//
// Regenerate after an intentional simulator or schema change (one command):
//   build/tools/sqzsim --model sqnxt23 --dump-rf-sweep
//   > tests/data/rf_sweep_golden.json
#include "core/dse.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "nn/zoo/zoo.h"
#include "util/json_parse.h"

namespace sqz::core {
namespace {

using util::JsonValue;

std::string type_name(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Bool: return "bool";
    case JsonValue::Type::Number: return "number";
    case JsonValue::Type::String: return "string";
    case JsonValue::Type::Array: return "array";
    case JsonValue::Type::Object: return "object";
  }
  return "?";
}

// Structural equality with exact number text (raw_number), reporting the
// JSON path of the first divergence.
void expect_same_json(const JsonValue& want, const JsonValue& got,
                      const std::string& path) {
  ASSERT_EQ(type_name(want.type), type_name(got.type)) << "at " << path;
  switch (want.type) {
    case JsonValue::Type::Null:
      break;
    case JsonValue::Type::Bool:
      EXPECT_EQ(want.boolean, got.boolean) << "at " << path;
      break;
    case JsonValue::Type::Number:
      // Token-exact: 1.0 vs 1 or a least-significant-digit drift both fail.
      EXPECT_EQ(want.raw_number, got.raw_number) << "at " << path;
      break;
    case JsonValue::Type::String:
      EXPECT_EQ(want.text, got.text) << "at " << path;
      break;
    case JsonValue::Type::Array: {
      ASSERT_EQ(want.items.size(), got.items.size()) << "at " << path;
      for (std::size_t i = 0; i < want.items.size(); ++i)
        expect_same_json(want.items[i], got.items[i],
                         path + "[" + std::to_string(i) + "]");
      break;
    }
    case JsonValue::Type::Object: {
      ASSERT_EQ(want.members.size(), got.members.size()) << "at " << path;
      for (std::size_t i = 0; i < want.members.size(); ++i) {
        // Key *order* is part of the schema: writers emit deterministically.
        ASSERT_EQ(want.members[i].first, got.members[i].first)
            << "at " << path << " (member " << i << ")";
        expect_same_json(want.members[i].second, got.members[i].second,
                         path + "." + want.members[i].first);
      }
      break;
    }
  }
}

std::string fresh_rf_sweep_dump() {
  const nn::Model m = nn::zoo::squeezenext();
  const auto points = evaluate_designs(
      m, sweep_knob(sim::AcceleratorConfig::squeezelerator(), "rf_entries",
                    {8, 16}));
  std::ostringstream os;
  write_design_points_json("rf_entries on sqnxt23", points, os);
  return os.str();
}

TEST(DseGolden, RfSweepDumpMatchesCommittedGolden) {
  const std::string golden_path =
      std::string(SQZ_TEST_DATA_DIR) + "/rf_sweep_golden.json";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file: " << golden_path;
  std::ostringstream text;
  text << in.rdbuf();

  const JsonValue want = util::parse_json(text.str());
  const JsonValue got = util::parse_json(fresh_rf_sweep_dump());
  expect_same_json(want, got, "$");
}

TEST(DseGolden, GoldenFileItselfIsWellFormed) {
  const std::string golden_path =
      std::string(SQZ_TEST_DATA_DIR) + "/rf_sweep_golden.json";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file: " << golden_path;
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue doc = util::parse_json(text.str());
  EXPECT_EQ(doc.at("sweep").as_string(), "rf_entries on sqnxt23");
  ASSERT_EQ(doc.at("points").items.size(), 2u);
  EXPECT_EQ(doc.at("points").at(std::size_t{0}).at("label").as_string(), "RF=8");
  EXPECT_EQ(doc.at("points").at(std::size_t{1}).at("label").as_string(), "RF=16");
}

}  // namespace
}  // namespace sqz::core
