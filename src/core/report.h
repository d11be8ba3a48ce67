// Report builders shared by the benchmark binaries: render simulation
// results as the paper's tables and per-layer figures, plus the
// machine-readable JSON run report behind `sqzsim --json`.
#pragma once

#include <iosfwd>
#include <string>

#include "core/squeezelerator.h"
#include "energy/model.h"
#include "nn/model.h"
#include "sim/counters.h"
#include "util/table.h"

namespace sqz::core {

/// Per-layer inference time + utilization table (Figure 1 / Figure 3 style).
/// Lists MAC layers; non-MAC layers are folded into an "(other)" row.
util::Table per_layer_table(const nn::Model& model, const sim::NetworkResult& result,
                            const std::string& title);

/// Side-by-side per-layer comparison of the three architectures (Figure 1).
util::Table per_layer_comparison_table(const nn::Model& model,
                                       const ComparisonResult& cmp,
                                       const std::string& title);

/// One Table-2 row: speedups and energy reductions vs the references.
struct Table2Row {
  std::string network;
  double speedup_vs_os = 0.0;
  double speedup_vs_ws = 0.0;
  double energy_red_vs_os = 0.0;  ///< Fraction (0.23 == 23%).
  double energy_red_vs_ws = 0.0;
};

Table2Row table2_row(const nn::Model& model, const ComparisonResult& cmp);

/// Energy breakdown table over hierarchy levels for one result.
util::Table energy_table(const sim::NetworkResult& result,
                         const energy::UnitEnergies& units,
                         const std::string& title);

/// Version of the JSON run-report schema ("schema_version" in the report).
/// Bump on any field rename/removal; additions are backward compatible.
inline constexpr int kReportSchemaVersion = 1;

/// Write the complete machine-readable run report: schema version, config
/// provenance, unit energies, network totals, and one record per layer
/// (dataflow decision, cycles, per-level access counts, energy breakdown).
/// Every total is computed from `result` exactly as the ASCII tables
/// compute it, so the JSON and table paths can be diffed against each other.
void write_json_report(const nn::Model& model, const sim::NetworkResult& result,
                       const energy::UnitEnergies& units, std::ostream& out);

/// The same report as one string — the serving layer's response body and
/// cache value, and what write_json_report streams out (`sqzsim --json`).
std::string json_report_string(const nn::Model& model,
                               const sim::NetworkResult& result,
                               const energy::UnitEnergies& units);

}  // namespace sqz::core
