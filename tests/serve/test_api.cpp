#include "serve/api.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>

#include "core/cli.h"
#include "core/config_io.h"
#include "core/report.h"
#include "core/sweepjournal.h"
#include "nn/serialize.h"
#include "nn/zoo/zoo.h"
#include "sched/network_sim.h"
#include "sched/plan_io.h"
#include "util/json_parse.h"

namespace sqz::serve {
namespace {

// Assert that parsing `body` as a simulate request raises ApiError(400)
// whose message mentions `needle`.
void expect_bad_simulate(const std::string& body, const std::string& needle) {
  try {
    parse_simulate_request(body);
    FAIL() << "expected ApiError for: " << body;
  } catch (const ApiError& e) {
    EXPECT_EQ(e.status(), 400) << body;
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message '" << e.what() << "' lacks '" << needle << "'";
  }
}

void expect_bad_sweep(const std::string& body, const std::string& needle) {
  try {
    parse_sweep_request(body);
    FAIL() << "expected ApiError for: " << body;
  } catch (const ApiError& e) {
    EXPECT_EQ(e.status(), 400) << body;
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message '" << e.what() << "' lacks '" << needle << "'";
  }
}

TEST(Api, ParsesMinimalSimulateRequest) {
  const SimulateRequest req = parse_simulate_request(R"({"model":"sqnxt23"})");
  EXPECT_EQ(req.model_label, "sqnxt23");
  EXPECT_EQ(req.model.name(), nn::zoo::squeezenext().name());
  // Config and options take their defaults.
  EXPECT_EQ(req.config.rf_entries,
            sim::AcceleratorConfig::squeezelerator().rf_entries);
  EXPECT_EQ(req.options.objective, sched::Objective::Cycles);
  EXPECT_FALSE(req.options.tile_timeline);
  EXPECT_TRUE(req.options.double_buffered);
}

TEST(Api, ConfigKnobsAndOptionsApply) {
  const SimulateRequest req = parse_simulate_request(
      R"({"model":"squeezenet11",
          "config":{"rf_entries":8,"weight_sparsity":0.4,"support":"ws"},
          "options":{"objective":"energy","tile_search":true}})");
  EXPECT_EQ(req.config.rf_entries, 8);
  EXPECT_DOUBLE_EQ(req.config.weight_sparsity, 0.4);
  EXPECT_EQ(req.config.support, sim::DataflowSupport::WsOnly);
  EXPECT_EQ(req.options.objective, sched::Objective::Energy);
  EXPECT_TRUE(req.options.tile_search);
  EXPECT_TRUE(req.options.tile_timeline);  // implied, as with the CLI flag
}

TEST(Api, RejectsInvalidRequests) {
  expect_bad_simulate("not json", "not valid JSON");
  expect_bad_simulate("[1,2]", "must be a JSON object");
  expect_bad_simulate(R"({"model":"sqnxt23","bogus":1})", "unknown field");
  expect_bad_simulate("{}", "'model'");
  expect_bad_simulate(R"({"model":"sqnxt23","model_text":"x"})", "not both");
  expect_bad_simulate(R"({"model":"vgg16"})", "unknown model");
  expect_bad_simulate(R"({"model":"sqnxt23","config":{"bogus":1}})",
                      "unknown key 'bogus'");
  expect_bad_simulate(
      R"({"model":"sqnxt23","config":{},"config_ini":""})", "not both");
  expect_bad_simulate(
      R"({"model":"sqnxt23","options":{"objective":"latency"}})",
      "cycles|energy");
  expect_bad_simulate(R"({"model":"sqnxt23","options":{"bogus":true}})",
                      "unknown field");
  expect_bad_simulate(R"({"model":"sqnxt23","config":{"rf_entries":0}})", "");
}

TEST(Api, RejectsInvalidSweepRequests) {
  expect_bad_sweep(R"({"model":"sqnxt23"})", "'sweep'");
  expect_bad_sweep(
      R"({"model":"sqnxt23","sweep":{"knob":"pe_voltage","values":[1]}})",
      "sweep.knob");
  expect_bad_sweep(R"({"model":"sqnxt23","sweep":{"knob":"rf_entries"}})",
                   "'knob' and 'values'");
  expect_bad_sweep(
      R"({"model":"sqnxt23","sweep":{"knob":"rf_entries","values":[]}})",
      "non-empty");
  expect_bad_sweep(
      R"({"model":"sqnxt23","sweep":{"knob":"rf_entries","values":["8"]}})",
      "numbers");
}

TEST(Api, CanonicalKeyCollapsesModelSpellings) {
  // Zoo aliases and the inline serialized text all mean the same network,
  // so they must share one cache entry.
  const auto by_name = parse_simulate_request(R"({"model":"sqnxt23"})");
  const auto by_alias = parse_simulate_request(R"({"model":"sqnxt"})");
  EXPECT_EQ(canonical_key(by_name), canonical_key(by_alias));

  std::string text = nn::serialize_model(nn::zoo::squeezenext());
  std::string escaped;
  for (const char c : text) {
    if (c == '"' || c == '\\') escaped += '\\';
    if (c == '\n') { escaped += "\\n"; continue; }
    escaped += c;
  }
  const auto by_text =
      parse_simulate_request("{\"model_text\":\"" + escaped + "\"}");
  EXPECT_EQ(canonical_key(by_name), canonical_key(by_text));
}

TEST(Api, RequestsCarryTheCanonicalModelText) {
  for (const char* name : {"alexnet", "mobilenet", "tinydarknet", "squeezenet10",
                           "squeezenet11", "sqnxt23"}) {
    const std::string text =
        nn::serialize_model(core::zoo_model_by_name(name));
    EXPECT_EQ(parse_simulate_request(std::string("{\"model\":\"") + name +
                                     "\"}")
                  .model_text,
              text)
        << name;
    EXPECT_EQ(parse_sweep_request(std::string("{\"model\":\"") + name +
                                  "\",\"sweep\":{\"knob\":\"rf_entries\","
                                  "\"values\":[8]}}")
                  .base.model_text,
              text)
        << name;
  }
  // An inline model carries its canonical re-serialization, not the bytes
  // the client sent.
  const auto inline_req = parse_simulate_request(
      R"({"model_text":"model TinyNet input 3x32x32\nconv   name=c1 out=16 kernel=3x3 stride=1\n"})");
  EXPECT_EQ(inline_req.model_text, nn::serialize_model(inline_req.model));
}

TEST(Api, PlanIdentityFromTheRequestTextIsUnchanged) {
  for (const bool fuse : {false, true}) {
    const auto req = parse_simulate_request(
        std::string(R"({"model":"squeezenet10","options":{"fuse":)") +
        (fuse ? "true" : "false") + "}}");
    EXPECT_EQ(sched::model_identity_hash(req.model_text),
              sched::model_identity_hash(req.model));
    sched::PlanArtifact served;
    run_simulate(req, &served);
    const sched::PlanArtifact reference = sched::plan_from_result(
        req.model, req.config, req.options,
        sched::simulate_network(req.model, req.config, req.options));
    EXPECT_EQ(sched::serialize_plan(served), sched::serialize_plan(reference));
  }
}

TEST(Api, CanonicalKeyCollapsesConfigSpellings) {
  sim::AcceleratorConfig cfg = sim::AcceleratorConfig::squeezelerator();
  cfg.rf_entries = 8;
  std::string ini = core::config_to_ini(cfg);
  std::string escaped;
  for (const char c : ini) {
    if (c == '"' || c == '\\') escaped += '\\';
    if (c == '\n') { escaped += "\\n"; continue; }
    escaped += c;
  }
  const auto knob = parse_simulate_request(
      R"({"model":"sqnxt23","config":{"rf_entries":8}})");
  const auto full = parse_simulate_request(
      "{\"model\":\"sqnxt23\",\"config_ini\":\"" + escaped + "\"}");
  EXPECT_EQ(canonical_key(knob), canonical_key(full));

  // Field order inside the request must not matter either.
  const auto reordered = parse_simulate_request(
      R"({"config":{"rf_entries":8},"model":"sqnxt23"})");
  EXPECT_EQ(canonical_key(knob), canonical_key(reordered));
}

TEST(Api, CanonicalKeySeparatesDistinctRequests) {
  const auto base = parse_simulate_request(R"({"model":"sqnxt23"})");
  const auto timeline = parse_simulate_request(
      R"({"model":"sqnxt23","options":{"timeline":true}})");
  const auto rf8 = parse_simulate_request(
      R"({"model":"sqnxt23","config":{"rf_entries":8}})");
  EXPECT_NE(canonical_key(base), canonical_key(timeline));
  EXPECT_NE(canonical_key(base), canonical_key(rf8));

  // Explicitly spelling a default is the same request.
  const auto explicit_default = parse_simulate_request(
      R"({"model":"sqnxt23","options":{"objective":"cycles"}})");
  EXPECT_EQ(canonical_key(base), canonical_key(explicit_default));
}

TEST(Api, SweepKeyCarriesTheResponseLabel) {
  // The sweep response embeds the verbatim model label in its "sweep" name,
  // so two spellings of the same network must not share response bytes.
  const auto a = parse_sweep_request(
      R"({"model":"sqnxt23","sweep":{"knob":"rf_entries","values":[8,16]}})");
  const auto b = parse_sweep_request(
      R"({"model":"sqnxt","sweep":{"knob":"rf_entries","values":[8,16]}})");
  EXPECT_NE(canonical_key(a), canonical_key(b));
  EXPECT_EQ(canonical_key(a), canonical_key(a));
}

TEST(Api, RunSimulateMatchesTheCoreReport) {
  const SimulateRequest req = parse_simulate_request(R"({"model":"squeezenet11"})");
  const sim::NetworkResult result =
      sched::simulate_network(req.model, req.config, req.options);
  EXPECT_EQ(run_simulate(req),
            core::json_report_string(req.model, result, req.options.units));
}

TEST(Api, HostileShapeIsRefusedQuicklyNamingTheOverflow) {
  // A two-line model whose shape arithmetic overflows int64. A per-tile
  // loop walk would spin for minutes here; the closed-form mappers and the
  // checked shape arithmetic must refuse it with a 400 almost at once, flat
  // and with timeline + tile search alike.
  const std::string model_text =
      R"(model ovf input 4096x2000000000x2000000000\n)"
      R"(conv name=c out=16 kernel=3x3 pad=1x1)";
  for (const char* options : {"{}", R"({"tile_search":true})"}) {
    const std::string body = R"({"model_text":")" + model_text +
                             R"(","options":)" + options + "}";
    const auto start = std::chrono::steady_clock::now();
    try {
      run_simulate(parse_simulate_request(body));
      ADD_FAILURE() << "expected ApiError for options " << options;
    } catch (const ApiError& e) {
      EXPECT_EQ(e.status(), 400) << options;
      EXPECT_NE(std::string(e.what()).find("overflows int64"),
                std::string::npos)
          << "message '" << e.what() << "' does not name the overflow";
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1))
        << options;
  }
}

TEST(Api, SimServiceServesRepeatsFromCache) {
  SimCache cache(8);
  SimService service(&cache);
  const std::string body = R"({"model":"squeezenet11"})";

  const SimService::Result first = service.simulate(body);
  EXPECT_FALSE(first.cache_hit);
  const SimService::Result second = service.simulate(body);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.body, second.body);

  // An equivalent spelling of the same request also hits.
  const SimService::Result third =
      service.simulate(R"({"options":{},"model":"squeezenet11"})");
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(third.body, first.body);

  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(Api, SimServiceWorksWithoutACache) {
  SimService service(nullptr);
  const SimService::Result r =
      service.simulate(R"({"model":"squeezenet11"})");
  EXPECT_FALSE(r.cache_hit);
  EXPECT_FALSE(r.body.empty());
}

TEST(Api, CleanSweepFillsStatsAndCaches) {
  SimCache cache(8);
  SimService service(&cache);
  const std::string body =
      R"({"model":"squeezenet11","sweep":{"knob":"rf_entries","values":[8,16]}})";

  const SimService::Result first = service.sweep(body);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.sweep.points, 2u);
  EXPECT_EQ(first.sweep.point_errors, 0u);
  EXPECT_EQ(first.sweep.resumed, 0u);
  EXPECT_FALSE(first.sweep.partial());

  const SimService::Result second = service.sweep(body);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.body, first.body);
}

TEST(Api, PartialSweepReportsErrorsAndIsNeverCached) {
  SimCache cache(8);
  SimService service(&cache);
  // array_n=2000 fails pre-flight validation; array_n=16 simulates fine.
  const std::string body =
      R"({"model":"squeezenet11","sweep":{"knob":"array_n","values":[16,2000]}})";

  const SimService::Result r = service.sweep(body);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(r.sweep.points, 1u);
  EXPECT_EQ(r.sweep.point_errors, 1u);
  EXPECT_TRUE(r.sweep.partial());

  const util::JsonValue doc = util::parse_json(r.body);
  ASSERT_EQ(doc.at("points").items.size(), 1u);
  ASSERT_EQ(doc.at("errors").items.size(), 1u);
  const util::JsonValue& e = doc.at("errors").at(std::size_t{0});
  EXPECT_EQ(e.at("phase").as_string(), "validate");
  EXPECT_NE(e.at("what").as_string().find("array_n=2000"), std::string::npos);

  // A partial response must not be cached: the failure may be transient,
  // and a cached body would pin it. The repeat is a miss that re-runs.
  const SimService::Result again = service.sweep(body);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(again.body, r.body);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(Api, ScreenedSweepParsesKeysAndFillsStats) {
  // Two-phase screening is retired: sweep.screen/screen_keep still parse
  // and malformed values are still 400s, but a valid screened request runs
  // the exact sweep. It shares the unscreened request's canonical key, and
  // its stats and response bytes equal the unscreened ones.
  const std::string plain =
      R"({"model":"squeezenet11","sweep":{"knob":"rf_entries","values":[2,4,8,16]}})";
  const std::string screened =
      R"({"model":"squeezenet11","sweep":{"knob":"rf_entries","values":[2,4,8,16],"screen":true,"screen_keep":0.5}})";
  const std::string key = canonical_key(parse_sweep_request(plain));
  EXPECT_EQ(canonical_key(parse_sweep_request(screened)), key);
  EXPECT_EQ(canonical_key(parse_sweep_request(
                R"({"model":"squeezenet11","sweep":{"knob":"rf_entries","values":[2,4,8,16],"screen":true}})")),
            key);
  EXPECT_EQ(canonical_key(parse_sweep_request(
                R"({"model":"squeezenet11","sweep":{"knob":"rf_entries","values":[2,4,8,16],"screen":false}})")),
            key);
  expect_bad_sweep(
      R"({"model":"squeezenet11","sweep":{"knob":"rf_entries","values":[8],"screen_keep":0.5}})",
      "requires sweep.screen");
  expect_bad_sweep(
      R"({"model":"squeezenet11","sweep":{"knob":"rf_entries","values":[8],"screen":false,"screen_keep":0.5}})",
      "requires sweep.screen");
  expect_bad_sweep(
      R"({"model":"squeezenet11","sweep":{"knob":"rf_entries","values":[8],"screen":true,"screen_keep":1.5}})",
      "(0, 1]");
  expect_bad_sweep(
      R"({"model":"squeezenet11","sweep":{"knob":"rf_entries","values":[8],"screen":true,"screen_keep":0}})",
      "(0, 1]");
  expect_bad_sweep(
      R"({"model":"squeezenet11","sweep":{"knob":"rf_entries","values":[8],"screen":true,"screen_keep":"half"}})",
      "(0, 1]");
  expect_bad_sweep(
      R"({"model":"squeezenet11","sweep":{"knob":"rf_entries","values":[8],"screen":"yes"}})",
      "must be a bool");

  SimService service(nullptr);
  const SimService::Result r = service.sweep(screened);
  const SimService::Result plain_r = service.sweep(plain);
  EXPECT_EQ(r.sweep.points, 4u);
  EXPECT_EQ(r.sweep.points, plain_r.sweep.points);
  EXPECT_EQ(r.sweep.point_errors, plain_r.sweep.point_errors);
  EXPECT_EQ(r.sweep.resumed, plain_r.sweep.resumed);
  EXPECT_EQ(r.body, plain_r.body);
  EXPECT_EQ(r.body.find("screen"), std::string::npos);

  // One key, one cache entry: the plain request hits the screened body.
  SimCache cache(8);
  SimService cached(&cache);
  EXPECT_FALSE(cached.sweep(screened).cache_hit);
  const SimService::Result hit = cached.sweep(plain);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.body, plain_r.body);
}

TEST(Api, SweepJournalRestoresAcrossServiceInstances) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sqz_api_journal").string();
  std::filesystem::remove_all(dir);
  const std::string body =
      R"({"model":"squeezenet11","sweep":{"knob":"rf_entries","values":[8,16]}})";

  std::string first_body;
  {
    core::SweepJournal journal(dir);
    SimService service(nullptr, &journal);
    const SimService::Result r = service.sweep(body);
    EXPECT_EQ(r.sweep.resumed, 0u);
    EXPECT_EQ(journal.entries().size(), 2u);
    first_body = r.body;
  }
  {
    // A "restarted daemon": fresh journal object over the same directory.
    core::SweepJournal journal(dir);
    EXPECT_EQ(journal.recovery().records, 2u);
    SimService service(nullptr, &journal);
    const SimService::Result r = service.sweep(body);
    EXPECT_EQ(r.sweep.resumed, 2u);  // nothing re-simulated
    EXPECT_EQ(r.body, first_body);   // and the bytes match exactly
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sqz::serve
