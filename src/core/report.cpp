#include "core/report.h"

#include <ostream>

#include <thread>

#include "core/config_io.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/threadpool.h"

namespace sqz::core {

using util::format;
using util::Table;

Table per_layer_table(const nn::Model& model, const sim::NetworkResult& result,
                      const std::string& title) {
  Table t(title);
  t.set_header({"layer", "dataflow", "kcycles", "util", "dram kwords"});
  std::int64_t other_cycles = 0;
  for (const sim::LayerResult& r : result.layers) {
    if (!model.layer(r.layer_idx).is_macs_layer()) {
      other_cycles += r.total_cycles;
      continue;
    }
    t.add_row({r.layer_name, sim::dataflow_abbrev(r.dataflow),
               format("%.1f", static_cast<double>(r.total_cycles) / 1e3),
               util::percent(r.utilization(result.config.pe_count())),
               format("%.1f", static_cast<double>(r.counts.dram_words) / 1e3)});
  }
  t.add_separator();
  t.add_row({"(other layers)", "-",
             format("%.1f", static_cast<double>(other_cycles) / 1e3), "-", "-"});
  t.add_row({"TOTAL", "-",
             format("%.1f", static_cast<double>(result.total_cycles()) / 1e3),
             util::percent(result.utilization()), "-"});
  return t;
}

Table per_layer_comparison_table(const nn::Model& model, const ComparisonResult& cmp,
                                 const std::string& title) {
  Table t(title);
  t.set_header({"layer", "WS kcyc", "OS kcyc", "SQZ kcyc", "SQZ df", "SQZ util"});
  const int pes = cmp.hybrid.config.pe_count();
  for (std::size_t i = 0; i < cmp.hybrid.layers.size(); ++i) {
    const sim::LayerResult& h = cmp.hybrid.layers[i];
    if (!model.layer(h.layer_idx).is_macs_layer()) continue;
    const sim::LayerResult& ws = cmp.ws_only.layers[i];
    const sim::LayerResult& os = cmp.os_only.layers[i];
    t.add_row({h.layer_name,
               format("%.1f", static_cast<double>(ws.total_cycles) / 1e3),
               format("%.1f", static_cast<double>(os.total_cycles) / 1e3),
               format("%.1f", static_cast<double>(h.total_cycles) / 1e3),
               sim::dataflow_abbrev(h.dataflow), util::percent(h.utilization(pes))});
  }
  t.add_separator();
  t.add_row({"TOTAL",
             format("%.1f", static_cast<double>(cmp.ws_only.total_cycles()) / 1e3),
             format("%.1f", static_cast<double>(cmp.os_only.total_cycles()) / 1e3),
             format("%.1f", static_cast<double>(cmp.hybrid.total_cycles()) / 1e3),
             "-", util::percent(cmp.hybrid.utilization())});
  return t;
}

Table2Row table2_row(const nn::Model& model, const ComparisonResult& cmp) {
  Table2Row row;
  row.network = model.name();
  row.speedup_vs_os = cmp.speedup_vs_os();
  row.speedup_vs_ws = cmp.speedup_vs_ws();
  row.energy_red_vs_os = cmp.energy_reduction_vs_os();
  row.energy_red_vs_ws = cmp.energy_reduction_vs_ws();
  return row;
}

Table energy_table(const sim::NetworkResult& result, const energy::UnitEnergies& units,
                   const std::string& title) {
  const energy::EnergyBreakdown e = energy::network_energy(result, units);
  Table t(title);
  t.set_header({"level", "energy (MAC units)", "share"});
  const auto add = [&](const char* name, double v) {
    t.add_row({name, util::si(v), util::percent(e.total() > 0 ? v / e.total() : 0)});
  };
  add("MAC", e.mac);
  add("RF", e.rf);
  add("inter-PE", e.inter_pe);
  add("psum accumulator", e.acc);
  add("global buffer", e.gb);
  add("DRAM", e.dram);
  t.add_separator();
  t.add_row({"TOTAL", util::si(e.total()), "100.0%"});
  return t;
}

std::string json_report_string(const nn::Model& model,
                               const sim::NetworkResult& result,
                               const energy::UnitEnergies& units) {
  std::string out;
  util::JsonWriter w(out);
  w.begin_object();
  w.member("schema_version", kReportSchemaVersion);
  w.member("generator", "sqzsim");

  // Provenance of the producing process, not of the result: metrics are
  // bit-identical at any job count, so `jobs` here is purely diagnostic.
  w.key("provenance");
  w.begin_object();
  w.member("jobs", util::ThreadPool::global_jobs());
  w.member("hardware_concurrency",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.end_object();

  w.key("model");
  w.begin_object();
  w.member("name", result.model_name);
  w.member("layers", static_cast<std::int64_t>(result.layers.size()));
  w.end_object();

  w.key("config");
  w.begin_object();
  config_to_json(result.config, w);
  w.end_object();

  w.key("unit_energies");
  w.begin_object();
  energy::units_to_json(units, w);
  w.end_object();

  w.key("totals");
  w.begin_object();
  w.member("cycles", result.total_cycles());
  w.member("latency_ms", result.latency_ms());
  w.member("useful_macs", result.total_useful_macs());
  w.member("utilization", result.utilization());
  w.key("counts");
  w.begin_object();
  sim::counts_to_json(result.total_counts(), w);
  w.end_object();
  w.key("energy");
  w.begin_object();
  energy::breakdown_to_json(energy::network_energy(result, units), w);
  w.end_object();
  w.end_object();

  w.key("layers");
  w.begin_array();
  const int pes = result.config.pe_count();
  for (const sim::LayerResult& l : result.layers) {
    w.begin_object();
    w.member("index", l.layer_idx);
    w.member("name", l.layer_name);
    w.member("kind", nn::layer_kind_name(model.layer(l.layer_idx).kind));
    w.member("engine", l.on_pe_array ? "pe-array" : "simd");
    w.key("dataflow");
    if (l.on_pe_array)
      w.value(sim::dataflow_abbrev(l.dataflow));
    else
      w.null_value();
    w.member("useful_macs", l.useful_macs);
    w.member("compute_cycles", l.compute_cycles);
    w.member("dram_cycles", l.dram_cycles);
    w.member("total_cycles", l.total_cycles);
    w.member("utilization", l.utilization(pes));
    w.key("counts");
    w.begin_object();
    sim::counts_to_json(l.counts, w);
    w.end_object();
    w.key("energy");
    w.begin_object();
    energy::breakdown_to_json(energy::energy_of(l.counts, units), w);
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.end_object();
  out += '\n';
  return out;
}

void write_json_report(const nn::Model& model, const sim::NetworkResult& result,
                       const energy::UnitEnergies& units, std::ostream& out) {
  out << json_report_string(model, result, units);
}

}  // namespace sqz::core
