// Access counters and per-layer / per-network simulation results.
//
// Counters follow the Eyeriss energy methodology (paper §4.1.3): every level
// of the memory hierarchy counts its accesses; the energy model multiplies
// each count by a unit energy normalized to one MAC.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.h"

namespace sqz::util {
class JsonWriter;
}

namespace sqz::sim {

/// Word-granularity access counts at each level of the hierarchy.
struct AccessCounts {
  std::int64_t mac_ops = 0;       ///< MACs actually executed (OS skips zeros).
  std::int64_t rf_reads = 0;      ///< Per-PE register file reads.
  std::int64_t rf_writes = 0;
  std::int64_t inter_pe = 0;      ///< Mesh/chain word transfers between PEs.
  std::int64_t acc_reads = 0;     ///< Psum accumulator SRAM (WS column sums).
  std::int64_t acc_writes = 0;
  std::int64_t gb_reads = 0;      ///< Global buffer word reads.
  std::int64_t gb_writes = 0;
  std::int64_t dram_words = 0;    ///< Words moved between DRAM and GB.

  /// Overflow-checked accumulation and scaling (util/checked.h): wrapping
  /// any counter throws std::overflow_error rather than silently corrupting
  /// totals on absurd configurations.
  AccessCounts& operator+=(const AccessCounts& o);
  AccessCounts& operator*=(std::int64_t k);
  friend AccessCounts operator+(AccessCounts a, const AccessCounts& b) {
    a += b;
    return a;
  }
  bool operator==(const AccessCounts&) const = default;
};

/// Append every counter as a member of the currently open JSON object
/// (the caller brackets with begin_object/end_object).
void counts_to_json(const AccessCounts& counts, util::JsonWriter& w);

/// One interval on one engine. Recorded by the tile timeline
/// (sim/timeline.h) and retained per layer in timeline-mode runs so
/// exporters (core/trace.h) can reconstruct the whole-network schedule.
struct TimelineEvent {
  enum class Engine { Dma, Compute } engine;
  int tile = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::string what;  ///< "load", "compute", "store"
};

/// Result of simulating one layer on a fixed configuration and dataflow.
struct LayerResult {
  int layer_idx = 0;
  std::string layer_name;
  bool on_pe_array = false;          ///< false => 1-D SIMD unit (pool/relu/...).
  Dataflow dataflow = Dataflow::WeightStationary;  ///< Meaningful if on_pe_array.

  std::int64_t useful_macs = 0;      ///< Algorithmic MACs (before zero-skip).
  std::int64_t compute_cycles = 0;   ///< PE-array (or SIMD) busy cycles.
  std::int64_t dram_cycles = 0;      ///< DMA transfer cycles.
  std::int64_t total_cycles = 0;     ///< After double-buffer overlap + latency.

  AccessCounts counts;

  /// Tile-level engine intervals, layer-relative (cycle 0 = layer start).
  /// Populated by retime_layer when the run uses the tile timeline; empty
  /// under the flat analytic model.
  std::vector<TimelineEvent> timeline;
  /// Row bands the tile timeline ran (fixed heuristic or searched); 0 under
  /// the flat analytic model.
  int tile_bands = 0;

  /// PE-array utilization: useful MACs per PE per total cycle.
  double utilization(int pe_count) const noexcept {
    if (total_cycles <= 0 || pe_count <= 0) return 0.0;
    return static_cast<double>(useful_macs) /
           (static_cast<double>(total_cycles) * pe_count);
  }
};

/// Result of simulating a whole network.
struct NetworkResult {
  std::string model_name;
  AcceleratorConfig config;
  std::vector<LayerResult> layers;

  /// Totals are overflow-checked: they throw std::overflow_error instead of
  /// wrapping when per-layer results sum past INT64_MAX.
  std::int64_t total_cycles() const;
  std::int64_t total_useful_macs() const;
  AccessCounts total_counts() const;
  /// Whole-network utilization (useful MACs / (cycles * PEs)).
  double utilization() const;
  /// Milliseconds at the given clock (default: the paper's 1 GHz).
  double latency_ms(double clock_ghz = 1.0) const;
};

}  // namespace sqz::sim
