#include "core/cli.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/config_io.h"
#include "core/dse.h"
#include "core/sweepjournal.h"
#include "core/report.h"
#include "core/trace.h"
#include "sched/compile.h"
#include "sched/plan_io.h"
#include "core/squeezelerator.h"
#include "energy/model.h"
#include "nn/serialize.h"
#include "nn/zoo/zoo.h"
#include "sched/network_sim.h"
#include "serve/httpclient.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/threadpool.h"

namespace sqz::core {

namespace {

struct CliOptions {
  std::string model = "squeezenet10";
  std::string model_file;
  std::string config_file;
  int array_n = 0;        // 0 = keep config default
  int rf = 0;
  double sparsity = -1.0;
  std::string support;
  std::string objective = "cycles";
  int batch = 0;
  bool per_layer = false;
  bool compare = false;
  bool timeline = false;
  bool tile_search = false;
  bool fuse = false;
  bool program = false;
  bool csv = false;
  bool help = false;
  bool dump_rf_sweep = false;  ///< --dump-rf-sweep: sweep JSON to stdout.
  int jobs = 0;            ///< --jobs: 0 = SQZ_JOBS / hardware concurrency.
  std::string connect;     ///< --connect host:port: run on a sqzserved daemon.
  int retries = 3;         ///< --retries: extra attempts after a retryable
                           ///  failure (refused / timeout / 503); 0 = none.
  int retry_base_ms = 100; ///< --retry-base-ms: backoff floor per retry.
  std::string json_path;   ///< --json: machine-readable run report.
  std::string trace_path;  ///< --trace: Chrome trace-event schedule.
  std::string sweep_spec;  ///< --sweep KNOB=V1,V2,...: generic DSE sweep.
  std::string journal_dir; ///< --journal DIR: crash-safe sweep journal.
  bool resume = false;     ///< --resume: skip points the journal holds.
  bool progress = false;   ///< --progress: stderr heartbeat during sweeps.
  bool screen = false;     ///< --screen: accepted; the sweep runs exact.
  double screen_keep = -1.0;  ///< --screen-keep FRAC: validated, then unused.
  std::string save_plan_path;  ///< --save-plan: write the compiled plan.
  std::string load_plan_path;  ///< --load-plan: replay a compiled plan.
};

nn::Model load_model(const CliOptions& opt) {
  if (!opt.model_file.empty()) {
    std::ifstream in(opt.model_file);
    if (!in)
      throw std::invalid_argument("cannot open model file: " + opt.model_file);
    std::ostringstream text;
    text << in.rdbuf();
    return nn::parse_model(text.str());
  }
  return zoo_model_by_name(opt.model);
}

CliOptions parse_args(const std::vector<std::string>& args) {
  CliOptions opt;
  const auto value_of = [&](std::size_t& i) -> const std::string& {
    if (i + 1 >= args.size())
      throw std::invalid_argument("missing value for " + args[i]);
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") opt.help = true;
    else if (a == "--model") opt.model = value_of(i);
    else if (a == "--model-file") opt.model_file = value_of(i);
    else if (a == "--config") opt.config_file = value_of(i);
    else if (a == "--array") opt.array_n = std::stoi(value_of(i));
    else if (a == "--rf") opt.rf = std::stoi(value_of(i));
    else if (a == "--sparsity") opt.sparsity = std::stod(value_of(i));
    else if (a == "--support") opt.support = value_of(i);
    else if (a == "--objective") opt.objective = value_of(i);
    else if (a == "--batch") opt.batch = std::stoi(value_of(i));
    else if (a == "--per-layer") opt.per_layer = true;
    else if (a == "--compare") opt.compare = true;
    else if (a == "--timeline") opt.timeline = true;
    else if (a == "--tile-search") opt.tile_search = true;
    else if (a == "--fuse") opt.fuse = true;
    else if (a == "--program") opt.program = true;
    else if (a == "--csv") opt.csv = true;
    else if (a == "--jobs")
      opt.jobs = util::ThreadPool::parse_jobs(value_of(i), "--jobs");
    else if (a == "--connect") opt.connect = value_of(i);
    else if (a == "--retries") {
      const std::string& v = value_of(i);
      if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument(
            "--retries expects a non-negative integer, got '" + v + "'");
      opt.retries = std::stoi(v);
    }
    else if (a == "--retry-base-ms")
      opt.retry_base_ms =
          util::ThreadPool::parse_jobs(value_of(i), "--retry-base-ms");
    else if (a == "--json") opt.json_path = value_of(i);
    else if (a == "--trace") opt.trace_path = value_of(i);
    else if (a == "--dump-rf-sweep") opt.dump_rf_sweep = true;
    else if (a == "--sweep") opt.sweep_spec = value_of(i);
    else if (a == "--journal") opt.journal_dir = value_of(i);
    else if (a == "--resume") opt.resume = true;
    else if (a == "--progress") opt.progress = true;
    else if (a == "--screen") opt.screen = true;
    else if (a == "--screen-keep") {
      opt.screen_keep = std::stod(value_of(i));
      if (!(opt.screen_keep > 0.0) || opt.screen_keep > 1.0)
        throw std::invalid_argument("--screen-keep expects a fraction in (0, 1]");
    }
    else if (a == "--save-plan") opt.save_plan_path = value_of(i);
    else if (a == "--load-plan") opt.load_plan_path = value_of(i);
    else throw std::invalid_argument("unknown argument: " + a);
  }
  if ((!opt.save_plan_path.empty() || !opt.load_plan_path.empty()) &&
      (opt.dump_rf_sweep || !opt.sweep_spec.empty()))
    throw std::invalid_argument(
        "--save-plan/--load-plan apply to single runs, not sweeps");
  if (opt.screen_keep >= 0.0 && !opt.screen)
    throw std::invalid_argument("--screen-keep requires --screen");
  if (opt.screen && opt.sweep_spec.empty() && !opt.dump_rf_sweep)
    throw std::invalid_argument(
        "--screen requires a sweep (--sweep or --dump-rf-sweep)");
  return opt;
}

sim::AcceleratorConfig build_config(const CliOptions& opt) {
  sim::AcceleratorConfig cfg = sim::AcceleratorConfig::squeezelerator();
  if (!opt.config_file.empty()) {
    std::ifstream in(opt.config_file);
    if (!in)
      throw std::invalid_argument("cannot open config file: " + opt.config_file);
    std::ostringstream text;
    text << in.rdbuf();
    cfg = config_from_ini(util::IniFile::parse(text.str()), cfg);
  }
  if (opt.array_n > 0) {
    cfg.array_n = opt.array_n;
    cfg.preload_width = opt.array_n;
    cfg.drain_width = opt.array_n;
  }
  if (opt.rf > 0) cfg.rf_entries = opt.rf;
  if (opt.batch > 0) cfg.batch = opt.batch;
  if (opt.sparsity >= 0.0) cfg.weight_sparsity = opt.sparsity;
  if (!opt.support.empty()) {
    if (opt.support == "hybrid") cfg.support = sim::DataflowSupport::Hybrid;
    else if (opt.support == "ws") cfg.support = sim::DataflowSupport::WsOnly;
    else if (opt.support == "os") cfg.support = sim::DataflowSupport::OsOnly;
    else throw std::invalid_argument("--support must be hybrid|ws|os");
  }
  cfg.validate();
  return cfg;
}

sched::SimulationOptions build_sim_options(const CliOptions& opt) {
  sched::SimulationOptions sim_opt;
  if (opt.objective == "cycles") sim_opt.objective = sched::Objective::Cycles;
  else if (opt.objective == "energy")
    sim_opt.objective = sched::Objective::Energy;
  else throw std::invalid_argument("--objective must be cycles|energy");
  sim_opt.tile_timeline = opt.timeline || opt.tile_search;
  sim_opt.tile_search = opt.tile_search;
  sim_opt.fuse_pool_drain = opt.fuse;
  return sim_opt;
}

// --connect: post the run to a sqzserved daemon (serve/server.h) instead of
// simulating locally. The daemon executes the same core paths, so the JSON
// it returns is byte-identical to what a local `--json` run writes.
int run_remote(const CliOptions& opt, std::ostream& out, std::ostream& err) {
  const char* local_only = nullptr;
  if (opt.per_layer) local_only = "--per-layer";
  else if (opt.compare) local_only = "--compare";
  else if (opt.csv) local_only = "--csv";
  else if (opt.program) local_only = "--program";
  else if (!opt.trace_path.empty()) local_only = "--trace";
  else if (!opt.sweep_spec.empty()) local_only = "--sweep";
  else if (!opt.journal_dir.empty()) local_only = "--journal";
  else if (opt.resume) local_only = "--resume";
  else if (opt.progress) local_only = "--progress";
  else if (!opt.save_plan_path.empty()) local_only = "--save-plan";
  else if (!opt.load_plan_path.empty()) local_only = "--load-plan";
  if (local_only)
    throw std::invalid_argument(
        std::string(local_only) +
        " is local-only; with --connect the daemon returns the JSON report");

  const serve::HostPort endpoint =
      serve::parse_host_port(opt.connect, "--connect");

  if (opt.objective != "cycles" && opt.objective != "energy")
    throw std::invalid_argument("--objective must be cycles|energy");
  const sim::AcceleratorConfig cfg = build_config(opt);

  std::string body;
  util::JsonWriter w(body, /*indent=*/0);
  w.begin_object();
  if (!opt.model_file.empty()) {
    std::ifstream in(opt.model_file);
    if (!in)
      throw std::invalid_argument("cannot open model file: " + opt.model_file);
    std::ostringstream text;
    text << in.rdbuf();
    w.member("model_text", text.str());
  } else {
    w.member("model", opt.model);
  }
  w.member("config_ini", config_to_ini(cfg));
  if (opt.dump_rf_sweep) {
    // Mirrors the local path: the RF {8,16} sweep at the default objective.
    w.key("sweep");
    w.begin_object();
    w.member("knob", "rf_entries");
    w.key("values");
    w.begin_array();
    w.value(8);
    w.value(16);
    w.end_array();
    w.end_object();
  } else {
    w.key("options");
    w.begin_object();
    w.member("objective", opt.objective);
    w.member("timeline", opt.timeline || opt.tile_search);
    w.member("tile_search", opt.tile_search);
    w.member("fuse", opt.fuse);
    w.end_object();
  }
  w.end_object();

  serve::HttpRequest req;
  req.method = "POST";
  req.target = opt.dump_rf_sweep ? "/v1/sweep" : "/v1/simulate";
  req.headers.emplace_back("Content-Type", "application/json");
  req.body = std::move(body);

  // Bounded retries with decorrelated jitter on refused connections,
  // timeouts, and 503 sheds (serve/http.h). The service is idempotent —
  // the daemon's content-addressed cache makes a replayed request free —
  // so retrying is always safe; 4xx responses are never retried.
  serve::RetryPolicy policy;
  policy.max_attempts = opt.retries + 1;
  policy.base_ms = opt.retry_base_ms;
  const serve::HttpResponse resp = serve::http_fetch_retry(
      endpoint.host, endpoint.port, req, /*timeout_ms=*/60000, policy);
  if (resp.status != 200) {
    err << "sqzsim: daemon returned " << resp.status << " " << resp.reason
        << ": " << resp.body;
    return 1;
  }
  if (!opt.json_path.empty() && !opt.dump_rf_sweep) {
    std::ofstream f(opt.json_path);
    if (!f)
      throw std::invalid_argument("cannot open --json output: " + opt.json_path);
    f << resp.body;
  } else {
    out << resp.body;
  }
  return 0;
}

// --sweep KNOB=V1,V2,... -> the knob and its values; core::sweep_knob
// expands them exactly as /v1/sweep does.
std::pair<std::string, std::vector<double>> parse_sweep_spec(
    const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size())
    throw std::invalid_argument("--sweep expects KNOB=V1,V2,..., got '" +
                                spec + "'");
  const std::string knob = spec.substr(0, eq);
  std::vector<double> values;
  for (const std::string& tok : util::split(spec.substr(eq + 1), ',')) {
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(tok, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != tok.size() || tok.empty())
      throw std::invalid_argument("--sweep " + knob + ": bad value '" + tok +
                                  "'");
    values.push_back(v);
  }
  return {knob, values};
}

// The --sweep / --dump-rf-sweep execution path: checked evaluation with
// optional journaling, resume, and a stderr heartbeat. Exit code 0 as long
// as at least one point succeeded (failures are recorded in the dump's
// "errors" array); 1 when every point failed.
int run_sweep_cli(const CliOptions& opt, const nn::Model& model,
                  const sim::AcceleratorConfig& cfg, std::ostream& out,
                  std::ostream& err) {
  const auto [knob, values] = parse_sweep_spec(
      opt.sweep_spec.empty() ? "rf_entries=8,16" : opt.sweep_spec);
  SweepConfigs configs;
  try {
    configs = sweep_knob(cfg, knob, values);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("--sweep ") + e.what());
  }

  SweepOptions sopt{build_sim_options(opt)};
  if (opt.resume && opt.journal_dir.empty())
    throw std::invalid_argument("--resume requires --journal DIR");
  std::unique_ptr<SweepJournal> journal;
  if (!opt.journal_dir.empty()) {
    if (!opt.resume) {
      // A fresh (non-resumed) run must not inherit a previous run's
      // entries: stale metrics for a matching key would silently replace
      // re-evaluation.
      std::error_code ec;
      std::filesystem::remove(SweepJournal::journal_path(opt.journal_dir), ec);
    }
    journal = std::make_unique<SweepJournal>(opt.journal_dir);
    sopt.journal = journal.get();
  }

  std::mutex progress_mu;
  const auto start = std::chrono::steady_clock::now();
  std::int64_t last_print_ms = -1000000;
  if (opt.progress) {
    sopt.progress = [&](std::size_t done, std::size_t total,
                        std::size_t errors) {
      const std::int64_t ms = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start).count();
      std::lock_guard<std::mutex> lock(progress_mu);
      if (done < total && ms - last_print_ms < 500) return;
      last_print_ms = ms;
      err << util::format("sqzsim: sweep %zu/%zu done, %zu errors, %.1fs elapsed\n",
                          done, total, errors, static_cast<double>(ms) / 1000.0);
    };
  }

  const SweepOutcome outcome = evaluate_designs_checked(model, configs, sopt);
  if (opt.resume) {
    err << "sqzsim: resumed " << outcome.resumed << " completed points\n";
    // A journal written by a newer build (e.g. a coordinator's membership
    // events) replays fine; say what was passed over so nobody mistakes
    // skipped records for lost points.
    if (journal && journal->recovery().skipped > 0)
      err << "sqzsim: skipped " << journal->recovery().skipped
          << " journal records of unknown type (written by a newer build)\n";
  }
  if (!outcome.errors.empty())
    err << "sqzsim: " << outcome.errors.size() << " of " << configs.size()
        << " design points failed (see the dump's \"errors\" array)\n";

  const std::string name =
      opt.model_file.empty() ? opt.model : model.name();
  write_sweep_outcome_json(knob + " on " + name, outcome, out);
  return outcome.points.empty() && !configs.empty() ? 1 : 0;
}

void emit_csv(const nn::Model& model, const sim::NetworkResult& r,
              std::ostream& out) {
  util::CsvWriter csv(out);
  csv.write_row({"layer", "kind", "dataflow", "total_cycles", "compute_cycles",
                 "dram_words", "utilization", "energy"});
  for (const auto& l : r.layers) {
    csv.write_row(
        {l.layer_name, nn::layer_kind_name(model.layer(l.layer_idx).kind),
         l.on_pe_array ? sim::dataflow_abbrev(l.dataflow) : "simd",
         std::to_string(l.total_cycles), std::to_string(l.compute_cycles),
         std::to_string(l.counts.dram_words),
         util::format("%.4f", l.utilization(r.config.pe_count())),
         util::format("%.0f", energy::energy_of(l.counts).total())});
  }
}

}  // namespace

nn::Model zoo_model_by_name(const std::string& name) {
  using namespace nn::zoo;
  if (name == "alexnet") return alexnet();
  if (name == "mobilenet") return mobilenet();
  if (name == "tinydarknet") return tiny_darknet();
  if (name == "squeezenet10") return squeezenet_v10();
  if (name == "squeezenet11") return squeezenet_v11();
  if (name == "sqnxt" || name == "sqnxt23") return squeezenext();
  throw std::invalid_argument(
      "unknown model '" + name +
      "' (alexnet mobilenet tinydarknet squeezenet10 squeezenet11 sqnxt, or "
      "--model-file)");
}

const std::string& zoo_model_text(const std::string& name) {
  static std::mutex mu;
  static std::map<std::string, std::string> texts;  // nodes never move
  std::lock_guard<std::mutex> lock(mu);
  auto it = texts.find(name);
  if (it == texts.end())
    it = texts.emplace(name, nn::serialize_model(zoo_model_by_name(name)))
             .first;
  return it->second;
}

std::string cli_usage() {
  return
      "usage: sqzsim [options]\n"
      "  --model NAME        zoo network: alexnet mobilenet tinydarknet\n"
      "                      squeezenet10 squeezenet11 sqnxt (default\n"
      "                      squeezenet10)\n"
      "  --model-file FILE   load a network description (nn/serialize.h format)\n"
      "  --config FILE       accelerator INI (core/config_io.h format)\n"
      "  --array N           PE array N x N (also scales port widths)\n"
      "  --rf N              per-PE register file entries\n"
      "  --sparsity F        weight zero fraction in [0,1)\n"
      "  --support MODE      hybrid | ws | os\n"
      "  --objective OBJ     cycles | energy (per-layer dataflow choice)\n"
      "  --per-layer         print the per-layer schedule table\n"
      "  --compare           also simulate the WS-only / OS-only references\n"
      "  --batch N           images per inference (default 1, the paper's\n"
      "                      embedded operating point)\n"
      "  --timeline          re-time layers through the tile-level event\n"
      "                      timeline (double-buffered)\n"
      "  --tile-search       also search per-layer tile sizes for the\n"
      "                      shortest makespan (implies --timeline)\n"
      "  --fuse              fuse pools into their producing conv's drain\n"
      "  --program           print the compiled static schedule (the layer\n"
      "                      command stream a sequencer would execute)\n"
      "  --csv               per-layer CSV instead of tables\n"
      "  --jobs N            worker threads for parallel evaluation (sweeps,\n"
      "                      co-design tuning, multicore); default SQZ_JOBS or\n"
      "                      hardware concurrency. Results are bit-identical\n"
      "                      at any job count\n"
      "  --json FILE         write the machine-readable run report (per-layer\n"
      "                      cycles/counts/energy, config provenance; see\n"
      "                      ARCHITECTURE.md \"Observability\")\n"
      "  --trace FILE        write the schedule as a Chrome trace-event file\n"
      "                      (open at ui.perfetto.dev or chrome://tracing;\n"
      "                      tile-level detail with --timeline)\n"
      "  --dump-rf-sweep     evaluate the RF {8,16} sweep on the selected\n"
      "                      model and print the DSE sweep JSON to stdout\n"
      "                      (regenerates tests/data/rf_sweep_golden.json\n"
      "                      with --model sqnxt23)\n"
      "  --sweep KNOB=V1,V2,...\n"
      "                      evaluate a design-space sweep and print the DSE\n"
      "                      sweep JSON; knobs: rf_entries array_n sparsity\n"
      "                      dram_bytes_per_cycle. Each point is validated\n"
      "                      pre-flight and fault-isolated: a failing point\n"
      "                      lands in the dump's \"errors\" array instead of\n"
      "                      aborting the sweep. Honors --timeline,\n"
      "                      --tile-search, and --fuse for every point\n"
      "  --journal DIR       write-ahead journal for sweeps: append each\n"
      "                      completed point to DIR/sweep.sqzj so a killed\n"
      "                      sweep can be resumed. Without --resume any\n"
      "                      existing journal is discarded first\n"
      "  --resume            with --journal: skip points the journal already\n"
      "                      holds; the final dump is byte-identical to an\n"
      "                      uninterrupted run\n"
      "  --progress          stderr heartbeat during sweeps (done/total,\n"
      "                      errors, elapsed seconds)\n"
      "  --screen            accepted for compatibility: the sweep runs\n"
      "                      exactly as without it (two-phase screening\n"
      "                      was retired); requires a sweep\n"
      "  --screen-keep FRAC  accepted with --screen, in (0, 1]; ignored\n"
      "  --save-plan FILE    write the compiled plan (schedule + config +\n"
      "                      model identity + fidelity flags) as a versioned,\n"
      "                      checksummed binary artifact (docs/PLANS.md).\n"
      "                      Stdout is unchanged; a confirmation goes to\n"
      "                      stderr\n"
      "  --load-plan FILE    replay a saved plan instead of re-running the\n"
      "                      compile search. The artifact must match the\n"
      "                      requested model, config, and fidelity flags;\n"
      "                      output is byte-identical to a fresh run\n"
      "  --connect HOST:PORT run on a sqzserved daemon instead of locally;\n"
      "                      prints the daemon's JSON report (or sweep JSON\n"
      "                      with --dump-rf-sweep), byte-identical to a local\n"
      "                      --json run. Table flags (--per-layer, --compare,\n"
      "                      --csv, --program, --trace) are local-only\n"
      "  --retries N         with --connect: retry a refused connection,\n"
      "                      timeout, or 503 shed up to N times with\n"
      "                      exponential backoff + jitter (default 3; 0\n"
      "                      disables). 4xx errors are never retried\n"
      "  --retry-base-ms MS  backoff floor for --retries (default 100)\n";
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  try {
    const CliOptions opt = parse_args(args);
    if (opt.help) {
      out << cli_usage();
      return 0;
    }
    util::ThreadPool::set_global_jobs(opt.jobs);

    if (!opt.connect.empty()) return run_remote(opt, out, err);

    const nn::Model model = load_model(opt);
    const sim::AcceleratorConfig cfg = build_config(opt);

    if (opt.dump_rf_sweep || !opt.sweep_spec.empty())
      return run_sweep_cli(opt, model, cfg, out, err);

    const sched::SimulationOptions sim_opt = build_sim_options(opt);

    // --load-plan replays the artifact's recorded dataflow decisions; every
    // report below is byte-identical to a fresh compile by determinism
    // (tests/sched/test_plan_io.cpp), the compile search just never runs.
    const sim::NetworkResult result = [&] {
      if (!opt.load_plan_path.empty()) {
        const sched::PlanArtifact artifact =
            sched::load_plan(opt.load_plan_path);
        sched::check_plan_serves(artifact, model, cfg, sim_opt);
        return sched::simulate_with_plan(model, cfg, sim_opt,
                                         artifact.program);
      }
      return sched::simulate_network(model, cfg, sim_opt);
    }();

    if (!opt.save_plan_path.empty()) {
      sched::save_plan(opt.save_plan_path,
                       sched::plan_from_result(model, cfg, sim_opt, result));
      // Confirmation goes to the error stream: stdout must stay
      // byte-identical with and without --save-plan.
      err << "sqzsim: wrote compiled plan to " << opt.save_plan_path << "\n";
    }

    if (!opt.json_path.empty()) {
      std::ofstream f(opt.json_path);
      if (!f)
        throw std::invalid_argument("cannot open --json output: " +
                                    opt.json_path);
      write_json_report(model, result, sim_opt.units, f);
    }
    if (!opt.trace_path.empty()) {
      std::ofstream f(opt.trace_path);
      if (!f)
        throw std::invalid_argument("cannot open --trace output: " +
                                    opt.trace_path);
      write_chrome_trace(model, result, f);
    }

    if (opt.csv) {
      emit_csv(model, result, out);
      return 0;
    }

    out << model.name() << " on " << cfg.to_string() << "\n";
    out << util::format(
        "total: %s cycles (%.3f ms @ 1 GHz), utilization %s, energy %s\n",
        util::with_commas(result.total_cycles()).c_str(), result.latency_ms(),
        util::percent(result.utilization()).c_str(),
        util::si(energy::network_energy(result).total()).c_str());

    if (opt.compare) {
      const ComparisonResult cmp = compare_dataflows(model, cfg, sim_opt.objective);
      out << util::format(
          "references: %s faster than WS-only, %s faster than OS-only\n",
          util::times(cmp.speedup_vs_ws()).c_str(),
          util::times(cmp.speedup_vs_os()).c_str());
    }
    if (opt.per_layer) {
      out << "\n";
      per_layer_table(model, result, "Per-layer schedule").print(out);
    }
    if (opt.program) {
      out << "\n" << sched::compile(model, cfg, sim_opt).listing();
    }
    return 0;
  } catch (const std::exception& e) {
    err << "sqzsim: " << e.what() << "\n" << cli_usage();
    return 1;
  }
}

}  // namespace sqz::core
