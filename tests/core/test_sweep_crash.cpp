// Crash-safety and fault-isolation tests for the sweep path: the ISSUE's
// acceptance criteria live here.
//
//  - A sweep with one poisoned point completes all the others and reports
//    exactly one structured PointError (in-process, via run_cli).
//  - A journaled sweep SIGKILLed mid-run and relaunched with --resume
//    produces a dump byte-identical to the uninterrupted run (fork+exec of
//    the real sqzsim binary, compiled in as SQZ_SQZSIM_BINARY).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cli.h"
#include "core/dse.h"
#include "core/sweepjournal.h"
#include "nn/zoo/zoo.h"
#include "util/faultinject.h"
#include "util/json_parse.h"

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
      (fs::temp_directory_path() / ("sqz_sweep_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

TEST(SweepFaultIsolation, PoisonedPointDoesNotKillTheSweep) {
  // array_n=2000 fails pre-flight validation; array_n=16 is fine. The sweep
  // must finish the good point and report exactly one structured error.
  const CliRun r = run({"--model", "squeezenet11", "--sweep",
                        "array_n=16,2000"});
  EXPECT_EQ(r.code, 0) << r.err;

  const util::JsonValue doc = util::parse_json(r.out);
  ASSERT_EQ(doc.at("points").items.size(), 1u);
  EXPECT_EQ(doc.at("points").at(std::size_t{0}).at("label").as_string(),
            "16x16");

  ASSERT_TRUE(doc.has("errors"));
  ASSERT_EQ(doc.at("errors").items.size(), 1u);
  const util::JsonValue& e = doc.at("errors").at(std::size_t{0});
  EXPECT_EQ(e.at("label").as_string(), "2000x2000");
  EXPECT_EQ(e.at("phase").as_string(), "validate");
  EXPECT_EQ(e.at("key").as_string().size(), 16u);  // fnv1a64, 16 hex digits
  // The diagnostic is actionable: it names the violated constraint.
  EXPECT_NE(e.at("what").as_string().find("array_n=2000"), std::string::npos);
  // stderr summarizes the failure count for operators watching the run.
  EXPECT_NE(r.err.find("1 of 2 design points failed"), std::string::npos);
}

TEST(SweepFaultIsolation, CleanSweepOmitsTheErrorsKey) {
  // Byte-identity guard: a checked sweep with zero failures must serialize
  // exactly like the pre-fault-isolation dump (no "errors": [] noise).
  const CliRun r = run({"--model", "squeezenet11", "--dump-rf-sweep"});
  EXPECT_EQ(r.code, 0);
  EXPECT_FALSE(util::parse_json(r.out).has("errors"));
}

TEST(SweepFaultIsolation, AllPointsFailingExitsNonZero) {
  const CliRun r = run({"--model", "squeezenet11", "--sweep", "array_n=2000"});
  EXPECT_EQ(r.code, 1);
  const util::JsonValue doc = util::parse_json(r.out);
  EXPECT_TRUE(doc.at("points").items.empty());
  EXPECT_EQ(doc.at("errors").items.size(), 1u);
}

TEST(SweepFaultIsolation, InjectedSimulationFaultIsPhaseSimulate) {
  util::fault::arm("dse.point", util::fault::make_errno(EIO), 1);
  const CliRun r = run({"--model", "squeezenet11", "--sweep", "rf_entries=8",
                        "--jobs", "1"});
  util::fault::reset();
  EXPECT_EQ(r.code, 1);  // the only point failed
  const util::JsonValue e =
      util::parse_json(r.out).at("errors").at(std::size_t{0});
  EXPECT_EQ(e.at("phase").as_string(), "simulate");
  EXPECT_NE(e.at("what").as_string().find("injected"), std::string::npos);
}

TEST(SweepFaultIsolation, JournalAppendFailureIsPhaseJournal) {
  const std::string dir = fresh_dir("enospc");
  util::fault::arm("sweepjournal.append", util::fault::make_errno(ENOSPC), 1);
  const CliRun r = run({"--model", "squeezenet11", "--sweep", "rf_entries=8",
                        "--jobs", "1", "--journal", dir});
  util::fault::reset();
  const util::JsonValue e =
      util::parse_json(r.out).at("errors").at(std::size_t{0});
  EXPECT_EQ(e.at("phase").as_string(), "journal");
  fs::remove_all(dir);
}

TEST(SweepResume, ResumeSkipsJournaledPointsByteIdentically) {
  const std::string dir = fresh_dir("resume");

  const std::vector<std::string> sweep = {"--model", "squeezenet11",
                                          "--sweep", "array_n=8,16,32"};
  auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = sweep;
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  };

  const CliRun uninterrupted = run(sweep);
  ASSERT_EQ(uninterrupted.code, 0);

  const CliRun journaled = run(with({"--journal", dir}));
  ASSERT_EQ(journaled.code, 0);
  EXPECT_EQ(journaled.out, uninterrupted.out);
  ASSERT_TRUE(fs::exists(SweepJournal::journal_path(dir)));

  // Relaunch with --resume: every point restores from the journal (no
  // re-simulation) and the dump is byte-identical.
  const CliRun resumed = run(with({"--journal", dir, "--resume"}));
  EXPECT_EQ(resumed.code, 0);
  EXPECT_EQ(resumed.out, uninterrupted.out);
  EXPECT_NE(resumed.err.find("resumed 3 completed points"), std::string::npos);
  fs::remove_all(dir);
}

TEST(SweepResume, FlatJournalIsNotServedToATimelineSweep) {
  // One journal, the same points at two fidelities: the timeline sweep must
  // not restore the flat sweep's metrics, and each fidelity resumes its own.
  const std::string dir = fresh_dir("fidelity");
  const nn::Model model = nn::zoo::tiny_darknet();
  const auto configs = sweep_knob(
      sim::AcceleratorConfig::squeezelerator(), "rf_entries", {4, 8, 16});
  SweepOptions flat;
  SweepOptions timeline;
  timeline.tile_timeline = true;
  timeline.tile_search = true;
  const std::string fresh_flat =
      sweep_outcome_json("s", evaluate_designs_checked(model, configs, flat));
  const std::string fresh_timeline = sweep_outcome_json(
      "s", evaluate_designs_checked(model, configs, timeline));
  ASSERT_NE(fresh_flat, fresh_timeline);

  SweepJournal journal(dir);
  flat.journal = &journal;
  timeline.journal = &journal;
  const SweepOutcome a = evaluate_designs_checked(model, configs, flat);
  EXPECT_EQ(sweep_outcome_json("s", a), fresh_flat);
  const SweepOutcome b = evaluate_designs_checked(model, configs, timeline);
  EXPECT_EQ(b.resumed, 0u);
  EXPECT_EQ(sweep_outcome_json("s", b), fresh_timeline);
  for (const SweepOptions* opt : {&flat, &timeline}) {
    const SweepOutcome again = evaluate_designs_checked(model, configs, *opt);
    EXPECT_EQ(again.resumed, configs.size());
    EXPECT_EQ(sweep_outcome_json("s", again),
              opt == &flat ? fresh_flat : fresh_timeline);
  }
  fs::remove_all(dir);
}

TEST(SweepResume, FreshRunDiscardsAPriorJournal) {
  const std::string dir = fresh_dir("fresh");
  const std::vector<std::string> a = {"--model", "squeezenet11", "--sweep",
                                      "rf_entries=8,16", "--journal", dir};
  ASSERT_EQ(run(a).code, 0);

  // Without --resume the stale journal must not feed the new sweep: a
  // resumed count would mean stale metrics silently replaced re-evaluation.
  const CliRun again = run(a);
  EXPECT_EQ(again.code, 0);
  EXPECT_EQ(again.err.find("resumed"), std::string::npos);

  // The journal was rewritten from scratch and resumes cleanly.
  const CliRun resumed = run({"--model", "squeezenet11", "--sweep",
                              "rf_entries=8,16", "--journal", dir,
                              "--resume"});
  EXPECT_NE(resumed.err.find("resumed 2 completed points"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(SweepResume, ResumeWithoutJournalIsRejected) {
  const CliRun r = run({"--model", "squeezenet11", "--sweep", "rf_entries=8",
                        "--resume"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("--resume requires --journal"), std::string::npos);
}

TEST(SweepProgress, HeartbeatReportsDoneAndErrors) {
  const CliRun r = run({"--model", "squeezenet11", "--sweep",
                        "array_n=16,2000", "--progress"});
  EXPECT_EQ(r.code, 0);
  // The final heartbeat always prints (done == total bypasses throttling).
  EXPECT_NE(r.err.find("sweep 2/2 done, 1 errors"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The acceptance chaos drill: SIGKILL the real binary mid-sweep, relaunch
// with --resume, and diff the dump against an uninterrupted run.

struct ChildRun {
  pid_t pid = -1;
  std::string out_path;
  std::string err_path;
};

// fork+exec sqzsim with stdout/stderr redirected to files. `fault_spec`
// becomes SQZ_FAULT in the child only.
ChildRun spawn_sqzsim(const std::vector<std::string>& args,
                      const std::string& tag, const std::string& fault_spec) {
  ChildRun child;
  child.out_path = (fs::temp_directory_path() / (tag + ".out")).string();
  child.err_path = (fs::temp_directory_path() / (tag + ".err")).string();

  child.pid = fork();
  if (child.pid == 0) {
    if (!std::freopen(child.out_path.c_str(), "w", stdout) ||
        !std::freopen(child.err_path.c_str(), "w", stderr))
      _exit(127);
    if (fault_spec.empty())
      unsetenv("SQZ_FAULT");
    else
      setenv("SQZ_FAULT", fault_spec.c_str(), 1);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(SQZ_SQZSIM_BINARY));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv(SQZ_SQZSIM_BINARY, argv.data());
    _exit(127);
  }
  return child;
}

int wait_for(pid_t pid) {
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return status;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(SweepCrash, SigkillMidSweepThenResumeIsByteIdentical) {
  const std::string dir = fresh_dir("chaos");
  const std::string journal = SweepJournal::journal_path(dir);
  const std::vector<std::string> sweep = {"--model", "squeezenet11",
                                          "--sweep", "array_n=8,16,24,32"};

  // Reference: the uninterrupted run (no journal involved at all).
  const ChildRun golden = spawn_sqzsim(sweep, "sqz_chaos_golden", "");
  ASSERT_EQ(wait_for(golden.pid), 0) << slurp(golden.err_path);
  const std::string golden_out = slurp(golden.out_path);
  ASSERT_FALSE(golden_out.empty());

  // Victim: one point at a time (--jobs 1), each stalled 500 ms by the
  // dse.point fault, so after the first journal record lands there is >1 s
  // of sweep left — a wide, deterministic window for the SIGKILL.
  std::vector<std::string> victim_args = sweep;
  for (const std::string& a :
       {std::string("--jobs"), std::string("1"), std::string("--journal"), dir})
    victim_args.push_back(a);
  const ChildRun victim =
      spawn_sqzsim(victim_args, "sqz_chaos_victim", "dse.point=stall:500*4");

  // Kill as soon as the journal holds at least one completed point.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool saw_record = false;
  while (std::chrono::steady_clock::now() < deadline) {
    struct stat st;
    if (::stat(journal.c_str(), &st) == 0 && st.st_size > 0) {
      saw_record = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(saw_record) << "journal never appeared: " << slurp(victim.err_path);
  ASSERT_EQ(kill(victim.pid, SIGKILL), 0);
  const int status = wait_for(victim.pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "victim outran the kill";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // The journal survived the kill with at least the first point.
  {
    SweepJournal recovered(dir);
    EXPECT_GE(recovered.recovery().records, 1u);
    EXPECT_LT(recovered.recovery().records, 4u) << "nothing was in flight?";
  }

  // Relaunch with --resume: journaled points restore, the rest simulate,
  // and the dump matches the uninterrupted run byte for byte.
  std::vector<std::string> resume_args = sweep;
  for (const std::string& a : {std::string("--journal"), dir,
                               std::string("--resume")})
    resume_args.push_back(a);
  const ChildRun resumed = spawn_sqzsim(resume_args, "sqz_chaos_resume", "");
  ASSERT_EQ(wait_for(resumed.pid), 0) << slurp(resumed.err_path);
  EXPECT_EQ(slurp(resumed.out_path), golden_out);
  EXPECT_NE(slurp(resumed.err_path).find("resumed"), std::string::npos);

  for (const ChildRun* c : {&golden, &victim, &resumed}) {
    fs::remove(c->out_path);
    fs::remove(c->err_path);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sqz::core
