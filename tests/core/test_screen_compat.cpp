// Two-phase screened sweeps are retired. `--screen` / `--screen-keep` are
// still accepted (and malformed values still rejected), but a screened sweep
// runs the exact sweep: its dump, its journal records and its resume
// behaviour equal those of the same sweep without the flags. A journal
// written by a build that still screened (tests/data/screened_sweep.sqzj)
// resumes cleanly: its "phase":"screen" estimates are ignored, and so are
// its exact records, whose keys predate fidelity-keyed design points.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/dse.h"
#include "core/sweepjournal.h"
#include "nn/serialize.h"
#include "nn/zoo/zoo.h"

namespace sqz::core {
namespace {

namespace fs = std::filesystem;

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

std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("sqz_screen_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

std::vector<std::string> with(std::vector<std::string> args,
                              const std::vector<std::string>& more) {
  args.insert(args.end(), more.begin(), more.end());
  return args;
}

// The sweep tests/data/screened_sweep.sqzj was written for.
const std::vector<std::string> kFixtureSweep = {
    "--model", "tinydarknet", "--sweep", "rf_entries=2,4,8,16,32",
    "--tile-search"};
const std::vector<std::string> kScreen = {"--screen", "--screen-keep", "0.4"};

std::size_t count_resumed(const std::string& err) {
  const std::string needle = "sqzsim: resumed ";
  const std::size_t at = err.find(needle);
  if (at == std::string::npos) return static_cast<std::size_t>(-1);
  return std::stoul(err.substr(at + needle.size()));
}

TEST(Screening, UnscreenedDumpHasNoScreeningMembers) {
  for (const auto& extra :
       std::vector<std::vector<std::string>>{{}, {"--screen"}}) {
    const CliRun r = run(with(
        {"--model", "sqnxt23", "--sweep", "rf_entries=1,2,4,8"}, extra));
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_EQ(r.out.find("screening"), std::string::npos);
    EXPECT_EQ(r.out.find("phase"), std::string::npos);
    EXPECT_EQ(r.out.find("est_cycles"), std::string::npos);
    EXPECT_TRUE(r.err.empty()) << r.err;
  }
}

TEST(Screening, ScreenedDumpEqualsTheUnscreenedDump) {
  // Every fidelity, both sweep entry points.
  const std::vector<std::vector<std::string>> fidelities = {
      {}, {"--timeline"}, {"--tile-search"}};
  for (const auto& fidelity : fidelities) {
    const std::vector<std::string> sweep =
        with({"--model", "squeezenet11", "--sweep", "rf_entries=1,2,4,8,16"},
             fidelity);
    const CliRun plain = run(sweep);
    ASSERT_EQ(plain.code, 0) << plain.err;
    const CliRun screened = run(with(sweep, {"--screen", "--screen-keep", "0.5"}));
    ASSERT_EQ(screened.code, 0) << screened.err;
    EXPECT_EQ(screened.out, plain.out);
    EXPECT_EQ(screened.err, plain.err);
  }
  const CliRun plain = run({"--model", "sqnxt23", "--dump-rf-sweep"});
  const CliRun screened =
      run({"--model", "sqnxt23", "--dump-rf-sweep", "--screen"});
  ASSERT_EQ(screened.code, 0) << screened.err;
  EXPECT_EQ(screened.out, plain.out);
}

TEST(Screening, MalformedScreenFlagsAreStillErrors) {
  const std::vector<std::string> sweep = {"--model", "tinydarknet", "--sweep",
                                          "rf_entries=4,8"};
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {with(sweep, {"--screen", "--screen-keep", "0"}), "(0, 1]"},
      {with(sweep, {"--screen", "--screen-keep", "1.5"}), "(0, 1]"},
      {with(sweep, {"--screen", "--screen-keep"}), "missing value"},
      {with(sweep, {"--screen-keep", "0.5"}), "requires --screen"},
      {{"--model", "tinydarknet", "--screen"}, "requires a sweep"},
  };
  for (const auto& [args, needle] : cases) {
    const CliRun r = run(args);
    EXPECT_EQ(r.code, 1) << needle;
    EXPECT_NE(r.err.find(needle), std::string::npos) << r.err;
    EXPECT_TRUE(r.out.empty());
  }
  EXPECT_EQ(run(with(sweep, {"--screen", "--screen-keep", "pig"})).code, 1);
}

TEST(Screening, ScreenedSweepJournalsOnlyExactKeys) {
  const std::string dir = fresh_dir("keys");
  const CliRun r = run(with(with(kFixtureSweep, kScreen), {"--journal", dir}));
  ASSERT_EQ(r.code, 0) << r.err;

  const std::string model_text =
      nn::serialize_model(nn::zoo::tiny_darknet());
  const auto configs = sweep_knob(
      sim::AcceleratorConfig::squeezelerator(), "rf_entries", {2, 4, 8, 16, 32});
  // The exact key of a --tile-search point: its fidelity is part of it.
  sched::SimulationOptions fidelity;
  fidelity.tile_timeline = true;
  fidelity.tile_search = true;
  SweepJournal journal(dir);
  ASSERT_EQ(journal.entries().size(), configs.size());
  for (const auto& [label, cfg] : configs)
    EXPECT_EQ(journal.entries().count(
                  design_point_key(model_text, label, cfg, fidelity)),
              1u)
        << label;
  for (const auto& [key, value] : journal.entries())
    EXPECT_EQ(key.find("\"phase\""), std::string::npos);
}

TEST(Screening, KeepFractionOneResimulatesEverything) {
  // Any keep fraction simulates every point exactly, 1 included.
  const std::string dir = fresh_dir("keep1");
  const CliRun plain = run(kFixtureSweep);
  const CliRun r = run(with(kFixtureSweep, {"--screen", "--screen-keep", "1",
                                            "--journal", dir}));
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out, plain.out);
  EXPECT_EQ(SweepJournal(dir).entries().size(), 5u);
}

TEST(Screening, ResumeIsByteIdentical) {
  const std::string dir = fresh_dir("resume");
  const std::vector<std::string> screened =
      with(with(kFixtureSweep, kScreen), {"--journal", dir});
  const CliRun first = run(screened);
  ASSERT_EQ(first.code, 0) << first.err;
  const CliRun resumed = run(with(screened, {"--resume"}));
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_EQ(count_resumed(resumed.err), 5u);
  EXPECT_EQ(resumed.out, first.out);
  EXPECT_EQ(resumed.out, run(kFixtureSweep).out);
}

TEST(Screening, UnscreenedJournalSeedsAScreenedResume) {
  const std::string dir = fresh_dir("seed");
  const CliRun plain = run(with(kFixtureSweep, {"--journal", dir}));
  ASSERT_EQ(plain.code, 0) << plain.err;
  const CliRun screened = run(
      with(with(kFixtureSweep, kScreen), {"--journal", dir, "--resume"}));
  ASSERT_EQ(screened.code, 0) << screened.err;
  EXPECT_EQ(count_resumed(screened.err), 5u);
  EXPECT_EQ(screened.out, plain.out);
}

TEST(Screening, ScreenedJournalFromBeforeTheRetirementResumesExactly) {
  // tests/data/screened_sweep.sqzj was written by a build that still
  // screened, running the kFixtureSweep with --screen --screen-keep 0.4:
  // five "phase":"screen" estimate records, then two exact records for the
  // retained band (RF=16, RF=32). The estimates differ from the exact
  // timeline, so reusing one would change the dump's bytes. That build's
  // design-point keys carried no fidelity, so its exact records are keyed
  // like flat points and a --tile-search sweep cannot tell them from a flat
  // sweep's records: none is reused, every point is simulated again, and
  // the dump is still the exact one.
  const std::string golden =
      std::string(SQZ_TEST_DATA_DIR) + "/screened_sweep.sqzj";
  ASSERT_TRUE(fs::exists(golden)) << "missing golden: " << golden;
  std::size_t screen_records = 0;
  {
    const std::string dir = fresh_dir("golden_probe");
    fs::create_directories(dir);
    fs::copy_file(golden, SweepJournal::journal_path(dir));
    SweepJournal probe(dir);
    EXPECT_FALSE(probe.recovery().torn);
    EXPECT_EQ(probe.recovery().records, 7u);
    for (const auto& [key, value] : probe.entries())
      if (key.find("\"phase\":\"screen\"") != std::string::npos)
        ++screen_records;
  }
  EXPECT_EQ(screen_records, 5u);

  const std::string plain = run(kFixtureSweep).out;
  for (const bool screen : {false, true}) {
    const std::string dir = fresh_dir(screen ? "golden_s" : "golden_p");
    fs::create_directories(dir);
    fs::copy_file(golden, SweepJournal::journal_path(dir));
    const std::vector<std::string> args =
        with(screen ? with(kFixtureSweep, kScreen) : kFixtureSweep,
             {"--journal", dir, "--resume"});
    const CliRun r = run(args);
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_EQ(count_resumed(r.err), 0u) << r.err;
    EXPECT_EQ(r.out, plain);
    EXPECT_EQ(SweepJournal(dir).entries().size(), 7u + 5u);
  }
}

}  // namespace
}  // namespace sqz::core
