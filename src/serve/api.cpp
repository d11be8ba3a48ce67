#include "serve/api.h"

#include <functional>

#include "core/cli.h"
#include "core/config_io.h"
#include "core/dse.h"
#include "serve/coordinator.h"
#include "core/report.h"
#include "nn/serialize.h"
#include "util/ini.h"
#include "util/json.h"
#include "util/json_parse.h"

namespace sqz::serve {

namespace {

using util::JsonValue;

[[noreturn]] void bad_request(const std::string& why) {
  throw ApiError(400, why);
}

const JsonValue* member(const JsonValue& obj, const std::string& key) {
  for (const auto& [k, v] : obj.members)
    if (k == key) return &v;
  return nullptr;
}

JsonValue parse_body(const std::string& body) {
  JsonValue doc;
  try {
    doc = util::parse_json(body);
  } catch (const std::exception& e) {
    bad_request(std::string("request body is not valid JSON: ") + e.what());
  }
  if (!doc.is_object()) bad_request("request body must be a JSON object");
  return doc;
}

void reject_unknown_members(const JsonValue& obj,
                            std::initializer_list<const char*> known,
                            const std::string& where) {
  for (const auto& [k, v] : obj.members) {
    bool ok = false;
    for (const char* allowed : known) ok |= k == allowed;
    if (!ok) bad_request("unknown field '" + k + "' in " + where);
  }
}

// The model and its canonical text (SimulateRequest::model_text): an
// inline model is serialized back once here, a zoo name's text is memoized.
nn::Model parse_model_field(const JsonValue& doc, std::string& label,
                            std::string& model_text) {
  const JsonValue* name = member(doc, "model");
  const JsonValue* text = member(doc, "model_text");
  if (name && text) bad_request("give either 'model' or 'model_text', not both");
  try {
    if (text) {
      label = "custom";
      nn::Model model = nn::parse_model(text->as_string());
      model_text = nn::serialize_model(model);
      return model;
    }
    if (name) {
      label = name->as_string();
      nn::Model model = core::zoo_model_by_name(label);
      model_text = core::zoo_model_text(label);
      return model;
    }
  } catch (const ApiError&) {
    throw;
  } catch (const std::exception& e) {
    bad_request(e.what());
  }
  bad_request("request needs a 'model' (zoo name) or 'model_text'");
}

// The "config" object reuses core/config_io's INI path: each member becomes
// an INI key, so knob validation, unknown-key rejection, and defaults are
// exactly the CLI's. Numbers keep their original token for lossless
// int/double handling.
sim::AcceleratorConfig parse_config_field(const JsonValue& doc) {
  const JsonValue* obj = member(doc, "config");
  const JsonValue* ini_text = member(doc, "config_ini");
  if (obj && ini_text)
    bad_request("give either 'config' or 'config_ini', not both");
  try {
    if (ini_text)
      return core::config_from_ini(util::IniFile::parse(ini_text->as_string()));
    if (obj) {
      if (!obj->is_object()) bad_request("'config' must be an object");
      util::IniFile ini;
      for (const auto& [k, v] : obj->members) {
        switch (v.type) {
          case JsonValue::Type::Number: ini.set("", k, v.raw_number); break;
          case JsonValue::Type::String: ini.set("", k, v.text); break;
          case JsonValue::Type::Bool:
            ini.set("", k, v.boolean ? "true" : "false");
            break;
          default:
            bad_request("config." + k + " must be a number, string, or bool");
        }
      }
      return core::config_from_ini(ini);
    }
    return sim::AcceleratorConfig::squeezelerator();
  } catch (const ApiError&) {
    throw;
  } catch (const std::exception& e) {
    bad_request(e.what());
  }
}

sched::SimulationOptions parse_options_field(const JsonValue& doc) {
  sched::SimulationOptions opt;
  const JsonValue* o = member(doc, "options");
  if (!o) return opt;
  if (!o->is_object()) bad_request("'options' must be an object");
  reject_unknown_members(
      *o, {"objective", "timeline", "double_buffered", "tile_search", "fuse"},
      "options");
  try {
    if (const JsonValue* v = member(*o, "objective")) {
      if (v->as_string() == "cycles") opt.objective = sched::Objective::Cycles;
      else if (v->as_string() == "energy")
        opt.objective = sched::Objective::Energy;
      else bad_request("options.objective must be cycles|energy");
    }
    if (const JsonValue* v = member(*o, "timeline"))
      opt.tile_timeline = v->as_bool();
    if (const JsonValue* v = member(*o, "double_buffered"))
      opt.double_buffered = v->as_bool();
    if (const JsonValue* v = member(*o, "tile_search")) {
      opt.tile_search = v->as_bool();
      if (opt.tile_search) opt.tile_timeline = true;  // as the CLI implies
    }
    if (const JsonValue* v = member(*o, "fuse"))
      opt.fuse_pool_drain = v->as_bool();
  } catch (const ApiError&) {
    throw;
  } catch (const std::exception& e) {
    bad_request(std::string("options: ") + e.what());
  }
  return opt;
}

// nn::Model has no default constructor, so requests are assembled through
// aggregate initialization once every part has parsed.
SimulateRequest parse_simulate_fields(const JsonValue& doc) {
  std::string label, text;
  nn::Model model = parse_model_field(doc, label, text);
  return SimulateRequest{std::move(model), std::move(text), std::move(label),
                         parse_config_field(doc), parse_options_field(doc)};
}

}  // namespace

void options_to_canonical_json(const sched::SimulationOptions& opt,
                               util::JsonWriter& w) {
  w.key("options");
  w.begin_object();
  w.member("objective",
           opt.objective == sched::Objective::Energy ? "energy" : "cycles");
  w.member("timeline", opt.tile_timeline);
  w.member("double_buffered", opt.double_buffered);
  w.member("tile_search", opt.tile_search);
  w.member("fuse", opt.fuse_pool_drain);
  w.end_object();
}

SimulateRequest parse_simulate_request(const std::string& body) {
  const JsonValue doc = parse_body(body);
  reject_unknown_members(
      doc, {"model", "model_text", "config", "config_ini", "options"},
      "request");
  return parse_simulate_fields(doc);
}

SweepRequest parse_sweep_request(const std::string& body) {
  const JsonValue doc = parse_body(body);
  reject_unknown_members(
      doc, {"model", "model_text", "config", "config_ini", "options", "sweep"},
      "request");
  SweepRequest req{parse_simulate_fields(doc), /*knob=*/"", /*values=*/{}};

  const JsonValue* sweep = member(doc, "sweep");
  if (!sweep || !sweep->is_object())
    bad_request("sweep request needs a 'sweep' object");
  reject_unknown_members(*sweep, {"knob", "values", "screen", "screen_keep"},
                         "sweep");
  const JsonValue* knob = member(*sweep, "knob");
  const JsonValue* values = member(*sweep, "values");
  if (!knob || !values) bad_request("'sweep' needs 'knob' and 'values'");
  try {
    req.knob = knob->as_string();
  } catch (const std::exception&) {
    bad_request("sweep.knob must be a string");
  }
  // An empty sweep checks the knob name alone; the values are checked
  // against it when the sweep expands (sweep_configs).
  try {
    core::sweep_knob(req.base.config, req.knob, {});
  } catch (const std::invalid_argument& e) {
    bad_request(std::string("sweep.") + e.what());
  }
  if (!values->is_array() || values->items.empty())
    bad_request("sweep.values must be a non-empty array of numbers");
  if (values->items.size() > 4096)
    bad_request("sweep.values is limited to 4096 points");
  for (const JsonValue& v : values->items) {
    if (!v.is_number()) bad_request("sweep.values must be numbers");
    req.values.push_back(v.number);
  }
  // Two-phase screening is retired, but clients may still send its members:
  // reject malformed ones, ignore valid ones (the request runs exactly).
  bool screen = false;
  try {
    if (const JsonValue* v = member(*sweep, "screen")) screen = v->as_bool();
  } catch (const std::exception&) {
    bad_request("sweep.screen must be a bool");
  }
  if (const JsonValue* v = member(*sweep, "screen_keep")) {
    if (!screen) bad_request("sweep.screen_keep requires sweep.screen");
    if (!v->is_number() || !(v->number > 0.0) || v->number > 1.0)
      bad_request("sweep.screen_keep must be a number in (0, 1]");
  }
  return req;
}

WorkerRegistration parse_worker_registration(const std::string& body) {
  const JsonValue doc = parse_body(body);
  reject_unknown_members(doc, {"host", "port", "lease_ms"}, "request");
  WorkerRegistration reg;
  const JsonValue* host = member(doc, "host");
  const JsonValue* port = member(doc, "port");
  if (!host || !port) bad_request("registration needs 'host' and 'port'");
  try {
    reg.host = host->as_string();
  } catch (const std::exception&) {
    bad_request("'host' must be a string");
  }
  if (reg.host.empty() || reg.host.find(':') != std::string::npos)
    bad_request("'host' must be a bare address (no port)");
  if (!port->is_number() ||
      static_cast<double>(static_cast<int>(port->number)) != port->number ||
      port->number < 1 || port->number > 65535)
    bad_request("'port' must be an integer in [1, 65535]");
  reg.port = static_cast<int>(port->number);
  if (const JsonValue* lease = member(doc, "lease_ms")) {
    if (!lease->is_number() || lease->number < 0 ||
        static_cast<double>(static_cast<std::int64_t>(lease->number)) !=
            lease->number)
      bad_request("'lease_ms' must be a non-negative integer");
    reg.lease_ms = static_cast<std::int64_t>(lease->number);
  }
  return reg;
}

core::SweepConfigs sweep_configs(const SweepRequest& req) {
  try {
    return core::sweep_knob(req.base.config, req.knob, req.values);
  } catch (const std::invalid_argument& e) {
    bad_request(std::string("sweep.") + e.what());
  }
}

std::string canonical_key(const SimulateRequest& req) {
  std::string key;
  util::JsonWriter w(key, /*indent=*/0);
  w.begin_object();
  w.member("op", "simulate");
  w.member("model", req.model_text);
  w.member("config", core::config_to_ini(req.config));
  options_to_canonical_json(req.options, w);
  w.end_object();
  return key;
}

std::string canonical_key(const SweepRequest& req) {
  std::string key;
  util::JsonWriter w(key, /*indent=*/0);
  w.begin_object();
  w.member("op", "sweep");
  // The sweep label is embedded in the response's "sweep" name, so two
  // spellings of the same network must not share response bytes.
  w.member("label", req.base.model_label);
  w.member("model", req.base.model_text);
  w.member("config", core::config_to_ini(req.base.config));
  options_to_canonical_json(req.base.options, w);
  w.member("knob", req.knob);
  w.key("values");
  w.begin_array();
  for (const double v : req.values) w.value(v);
  w.end_array();
  w.end_object();
  return key;
}

std::string run_simulate(const SimulateRequest& req,
                         sched::PlanArtifact* compiled_plan) {
  try {
    const sim::NetworkResult result =
        sched::simulate_network(req.model, req.config, req.options);
    if (compiled_plan)
      *compiled_plan = sched::plan_from_result(req.model, req.model_text,
                                               req.config, req.options, result);
    return core::json_report_string(req.model, result, req.options.units);
  } catch (const std::exception& e) {
    bad_request(e.what());
  }
}

std::string run_simulate_with_plan(const SimulateRequest& req,
                                   const sched::Program& program) {
  try {
    const sim::NetworkResult result =
        sched::simulate_with_plan(req.model, req.config, req.options, program);
    return core::json_report_string(req.model, result, req.options.units);
  } catch (const std::exception& e) {
    bad_request(e.what());
  }
}

std::string run_sweep(const SweepRequest& req, core::SweepJournal* journal,
                      SweepRunStats* stats) {
  core::SweepOutcome outcome;
  try {
    core::SweepOptions options{req.base.options};
    options.journal = journal;
    outcome = core::evaluate_designs_checked(
        req.base.model, req.base.model_text, sweep_configs(req), options);
  } catch (const ApiError&) {
    throw;
  } catch (const std::exception& e) {
    bad_request(e.what());
  }
  return sweep_response(req, outcome, stats);
}

std::string sweep_response(const SweepRequest& req,
                           const core::SweepOutcome& outcome,
                           SweepRunStats* stats) {
  if (stats) {
    stats->points = outcome.points.size();
    stats->point_errors = outcome.errors.size();
    stats->resumed = outcome.resumed;
  }
  return core::sweep_outcome_json(req.knob + " on " + req.base.model_label,
                                  outcome);
}

namespace {

SimService::Result serve_cached(SimCache* cache, const std::string& key,
                                const std::function<std::string()>& execute) {
  if (!cache) return {execute(), false, false, {}};
  if (auto hit = cache->get(key)) return {*hit, true, false, {}};
  SimService::Result r{execute(), false, false, {}};
  cache->put(key, r.body);
  return r;
}

}  // namespace

SimService::Result SimService::simulate(const std::string& request_body) {
  const SimulateRequest req = parse_simulate_request(request_body);
  const std::string key = canonical_key(req);
  if (!plans_)
    return serve_cached(cache_, key, [&] { return run_simulate(req); });

  // Plan-aware path: response cache, then plan cache, then a fresh compile
  // (which seeds the plan cache for next time).
  if (cache_) {
    if (auto hit = cache_->get(key)) return {*hit, true, false, {}};
  }
  Result r;
  const std::uint64_t model_hash = sched::model_identity_hash(req.model_text);
  if (auto plan = plans_->get(key, model_hash, req.config, req.options)) {
    try {
      r.body = run_simulate_with_plan(req, plan->program);
      r.plan_hit = true;
    } catch (const std::exception&) {
      // A plan may never fail a request: any replay defect (a stale or
      // hand-edited artifact that slipped past the semantic match) falls
      // back to the fresh-compile path below.
      r.body.clear();
    }
  }
  if (!r.plan_hit) {
    sched::PlanArtifact compiled;
    r.body = run_simulate(req, &compiled);
    plans_->put(key, compiled);
  }
  if (cache_) cache_->put(key, r.body);
  return r;
}

SimService::Result SimService::sweep(const std::string& request_body) {
  const SweepRequest req = parse_sweep_request(request_body);
  const std::string key = canonical_key(req);
  if (cache_) {
    if (auto hit = cache_->get(key)) return {*hit, true, false, {}};
  }
  Result r;
  r.body = coordinator_ ? coordinator_->run_sweep(req, journal_, &r.sweep)
                        : run_sweep(req, journal_, &r.sweep);
  // A partial response is never cached: its failures may be transient
  // (fault injection, resource pressure), and a cached body would pin them
  // until eviction. The journal still holds every point that did succeed.
  if (cache_ && !r.sweep.partial()) cache_->put(key, r.body);
  return r;
}

}  // namespace sqz::serve
