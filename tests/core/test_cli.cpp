#include "core/cli.h"

#include <gtest/gtest.h>

#include "core/report.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "energy/model.h"
#include "nn/serialize.h"
#include "nn/zoo/zoo.h"
#include "sched/network_sim.h"
#include "util/json_parse.h"

namespace sqz::core {
namespace {

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun run(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, ZooModelTextIsTheSerializedZooModelMemoized) {
  for (const char* name : {"alexnet", "mobilenet", "tinydarknet", "squeezenet10",
                           "squeezenet11", "sqnxt", "sqnxt23"}) {
    EXPECT_EQ(zoo_model_text(name), nn::serialize_model(zoo_model_by_name(name)))
        << name;
    EXPECT_EQ(&zoo_model_text(name), &zoo_model_text(name)) << name;
  }
  EXPECT_THROW(zoo_model_text("resnet"), std::invalid_argument);
}

TEST(Cli, HelpPrintsUsage) {
  const CliRun r = run({"--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage: sqzsim"), std::string::npos);
}

TEST(Cli, DefaultRunReportsTotals) {
  const CliRun r = run({});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("SqueezeNet v1.0"), std::string::npos);
  EXPECT_NE(r.out.find("total:"), std::string::npos);
  EXPECT_NE(r.out.find("utilization"), std::string::npos);
}

TEST(Cli, ZooSelectionAndKnobs) {
  const CliRun r = run({"--model", "sqnxt", "--array", "16", "--rf", "8"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("1.0-SqNxt-23 v5"), std::string::npos);
  EXPECT_NE(r.out.find("16x16"), std::string::npos);
  EXPECT_NE(r.out.find("RF 8"), std::string::npos);
}

TEST(Cli, CompareShowsReferences) {
  const CliRun r = run({"--model", "squeezenet11", "--compare"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("faster than WS-only"), std::string::npos);
}

TEST(Cli, PerLayerTable) {
  const CliRun r = run({"--model", "tinydarknet", "--per-layer"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("Per-layer schedule"), std::string::npos);
  EXPECT_NE(r.out.find("conv1"), std::string::npos);
}

TEST(Cli, CsvOutput) {
  const CliRun r = run({"--model", "squeezenet11", "--csv"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("layer,kind,dataflow"), std::string::npos);
  EXPECT_NE(r.out.find("conv1,conv,"), std::string::npos);
}

TEST(Cli, TimelineMode) {
  const CliRun flat = run({"--model", "squeezenet11"});
  const CliRun timeline = run({"--model", "squeezenet11", "--timeline"});
  EXPECT_EQ(timeline.code, 0);
  EXPECT_NE(flat.out, timeline.out);  // retimed totals differ
}

TEST(Cli, ModelFileLoads) {
  const std::string path = ::testing::TempDir() + "/cli_model.txt";
  {
    std::ofstream f(path);
    f << nn::serialize_model(nn::zoo::squeezenet_v11());
  }
  const CliRun r = run({"--model-file", path});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("SqueezeNet v1.1"), std::string::npos);
}

TEST(Cli, ConfigFileLoads) {
  const std::string path = ::testing::TempDir() + "/cli_accel.ini";
  {
    std::ofstream f(path);
    f << "[accelerator]\nrf_entries = 4\nsupport = os\n";
  }
  const CliRun r = run({"--config", path});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("RF 4"), std::string::npos);
  EXPECT_NE(r.out.find("OS-only"), std::string::npos);
}

TEST(Cli, ErrorsReturnNonZeroWithUsage) {
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"--model", "nonexistent"},
           {"--bogus-flag"},
           {"--support", "both"},
           {"--objective", "speed"},
           {"--model-file", "/nonexistent/path.txt"},
           {"--array"},  // missing value
       }) {
    const CliRun r = run(args);
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("sqzsim:"), std::string::npos);
    EXPECT_NE(r.err.find("usage:"), std::string::npos);
  }
}

TEST(Cli, BatchAndFuseFlags) {
  const CliRun plain = run({"--model", "squeezenet10"});
  const CliRun fused = run({"--model", "squeezenet10", "--fuse"});
  EXPECT_EQ(fused.code, 0);
  EXPECT_NE(plain.out, fused.out);  // pool-drain fusion changes the totals
  const CliRun batched = run({"--model", "alexnet", "--batch", "8"});
  EXPECT_EQ(batched.code, 0);
  EXPECT_NE(batched.out, run({"--model", "alexnet"}).out);
}

TEST(Cli, ProgramListing) {
  const CliRun r = run({"--model", "squeezenet11", "--program"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("program SqueezeNet v1.1"), std::string::npos);
  EXPECT_NE(r.out.find("pe-array"), std::string::npos);
  EXPECT_NE(r.out.find("expected total"), std::string::npos);
}

TEST(Cli, TileSearchMode) {
  const CliRun timeline = run({"--model", "squeezenet11", "--timeline"});
  const CliRun searched = run({"--model", "squeezenet11", "--tile-search"});
  EXPECT_EQ(searched.code, 0);
  EXPECT_NE(searched.out, timeline.out);  // searched tiles change totals
}

TEST(Cli, EnergyObjectiveAccepted) {
  const CliRun r = run({"--model", "squeezenet11", "--objective", "energy"});
  EXPECT_EQ(r.code, 0);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Cli, JsonReportMatchesSimulation) {
  const std::string path = ::testing::TempDir() + "/cli_report.json";
  const CliRun r = run({"--model", "sqnxt23", "--json", path});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("total:"), std::string::npos);  // table still prints

  const util::JsonValue report = util::parse_json(slurp(path));
  const sim::NetworkResult expect = sched::simulate_network(
      nn::zoo::squeezenext(), sim::AcceleratorConfig::squeezelerator());
  EXPECT_EQ(report.at("schema_version").as_int(), kReportSchemaVersion);
  EXPECT_EQ(report.at("model").at("name").as_string(), "1.0-SqNxt-23 v5");
  EXPECT_EQ(report.at("totals").at("cycles").as_int(), expect.total_cycles());
  EXPECT_EQ(report.at("totals").at("energy").at("total").as_double(),
            energy::network_energy(expect).total());
  EXPECT_EQ(report.at("layers").items.size(), expect.layers.size());
}

TEST(Cli, JsonReportHonoursKnobs) {
  const std::string path = ::testing::TempDir() + "/cli_report_knobs.json";
  const CliRun r = run({"--model", "squeezenet11", "--array", "16", "--support",
                        "os", "--json", path});
  ASSERT_EQ(r.code, 0);
  const util::JsonValue report = util::parse_json(slurp(path));
  EXPECT_EQ(report.at("config").at("array_n").as_int(), 16);
  EXPECT_EQ(report.at("config").at("support").as_string(), "os");
  for (const util::JsonValue& l : report.at("layers").items)
    if (l.at("engine").as_string() == "pe-array" &&
        l.at("kind").as_string() == "conv") {
      EXPECT_EQ(l.at("dataflow").as_string(), "OS");
    }
}

TEST(Cli, TraceFileIsValidAndSpansTheRun) {
  const std::string path = ::testing::TempDir() + "/cli_trace.json";
  const CliRun r = run({"--model", "sqnxt23", "--trace", path});
  ASSERT_EQ(r.code, 0);

  const util::JsonValue trace = util::parse_json(slurp(path));
  const sim::NetworkResult expect = sched::simulate_network(
      nn::zoo::squeezenext(), sim::AcceleratorConfig::squeezelerator());
  EXPECT_EQ(trace.at("otherData").at("total_cycles").as_int(),
            expect.total_cycles());
  std::int64_t max_end = 0;
  for (const util::JsonValue& e : trace.at("traceEvents").items)
    if (e.at("ph").as_string() == "X")
      max_end = std::max(max_end, e.at("ts").as_int() + e.at("dur").as_int());
  EXPECT_EQ(max_end, expect.total_cycles());
}

TEST(Cli, JsonAndTraceWithTimelineMode) {
  const std::string rpath = ::testing::TempDir() + "/cli_tl_report.json";
  const std::string tpath = ::testing::TempDir() + "/cli_tl_trace.json";
  const CliRun r = run({"--model", "squeezenet11", "--timeline", "--json", rpath,
                        "--trace", tpath});
  ASSERT_EQ(r.code, 0);
  const util::JsonValue report = util::parse_json(slurp(rpath));
  const util::JsonValue trace = util::parse_json(slurp(tpath));
  // Report and trace agree with each other on the retimed totals.
  EXPECT_EQ(report.at("totals").at("cycles").as_int(),
            trace.at("otherData").at("total_cycles").as_int());
  bool has_tile_events = false;
  for (const util::JsonValue& e : trace.at("traceEvents").items)
    has_tile_events |=
        e.at("ph").as_string() == "X" && e.at("cat").as_string() == "tile";
  EXPECT_TRUE(has_tile_events);
}

TEST(Cli, JobsFlagDoesNotChangeOutput) {
  const CliRun serial = run({"--model", "squeezenet11", "--per-layer", "--jobs", "1"});
  const CliRun parallel = run({"--model", "squeezenet11", "--per-layer", "--jobs", "8"});
  EXPECT_EQ(serial.code, 0);
  EXPECT_EQ(parallel.code, 0);
  EXPECT_EQ(serial.out, parallel.out);
}

TEST(Cli, JobsFlagRejectsNonPositive) {
  const CliRun r = run({"--jobs", "0"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--jobs"), std::string::npos);
}

TEST(Cli, JobsFlagRejectsGarbageWithClearMessage) {
  const struct {
    const char* value;
    const char* why;
  } cases[] = {
      {"banana", "not a number"},
      {"4x", "not a number"},
      {"-3", "negative"},
      {"0", "zero"},
      {"", "empty"},
      {"+", "no digits"},
      {"99999999999", "out of range"},
  };
  for (const auto& c : cases) {
    const CliRun r = run({"--jobs", c.value});
    EXPECT_EQ(r.code, 1) << c.value;
    EXPECT_NE(r.err.find("--jobs must be a positive integer"),
              std::string::npos)
        << r.err;
    EXPECT_NE(r.err.find(c.why), std::string::npos) << r.err;
  }
}

TEST(Cli, JsonReportRecordsJobsProvenance) {
  const std::string path = ::testing::TempDir() + "/cli_report_jobs.json";
  const CliRun r = run({"--model", "squeezenet11", "--jobs", "3", "--json", path});
  ASSERT_EQ(r.code, 0);
  const util::JsonValue report = util::parse_json(slurp(path));
  EXPECT_EQ(report.at("provenance").at("jobs").as_int(), 3);
  EXPECT_GE(report.at("provenance").at("hardware_concurrency").as_int(), 0);
}

TEST(Cli, DumpRfSweepEmitsSweepJson) {
  const CliRun r = run({"--model", "sqnxt23", "--dump-rf-sweep"});
  ASSERT_EQ(r.code, 0);
  const util::JsonValue doc = util::parse_json(r.out);
  EXPECT_EQ(doc.at("sweep").as_string(), "rf_entries on sqnxt23");
  ASSERT_EQ(doc.at("points").items.size(), 2u);
  EXPECT_EQ(doc.at("points").at(std::size_t{0}).at("config").at("rf_entries").as_int(), 8);
  EXPECT_EQ(doc.at("points").at(std::size_t{1}).at("config").at("rf_entries").as_int(), 16);
}

TEST(Cli, UnwritableJsonPathFails) {
  const CliRun r = run({"--json", "/nonexistent-dir/report.json"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open --json output"), std::string::npos);
}

}  // namespace
}  // namespace sqz::core
