#include "sim/layer_sim.h"

#include <algorithm>
#include <stdexcept>

#include "sim/dram.h"
#include "sim/mappers.h"
#include "util/checked.h"

namespace sqz::sim {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Elementwise-op count of a non-MAC layer on the 1-D SIMD unit.
std::int64_t simd_ops(const nn::Layer& l) {
  switch (l.kind) {
    case nn::LayerKind::MaxPool:
    case nn::LayerKind::AvgPool:
      return l.out_shape.elems() * l.pool.kh * l.pool.kw;
    case nn::LayerKind::GlobalAvgPool:
      return l.in_shape.elems();
    case nn::LayerKind::ReLU:
      return l.in_shape.elems();
    case nn::LayerKind::Add:
      return l.in_shape.elems() * 2;
    case nn::LayerKind::Concat:
      return 0;  // an addressing view inside the global buffer
    default:
      return 0;
  }
}

std::int64_t simd_input_reads(const nn::Layer& l) {
  switch (l.kind) {
    case nn::LayerKind::MaxPool:
    case nn::LayerKind::AvgPool:
      return l.out_shape.elems() * l.pool.kh * l.pool.kw;
    case nn::LayerKind::GlobalAvgPool:
    case nn::LayerKind::ReLU:
      return l.in_shape.elems();
    case nn::LayerKind::Add:
      return l.in_shape.elems() * 2;
    case nn::LayerKind::Concat:
      return 0;
    default:
      return 0;
  }
}

std::int64_t input_words_total(const nn::Model& model, const nn::Layer& l) {
  std::int64_t words = 0;
  for (int in : l.inputs) words += model.layer(in).out_shape.elems();
  return words;
}

/// Pre-DRAM result of a non-MAC layer on the 1-D SIMD unit: compute cycles
/// and global-buffer traffic for pool/ReLU/add/concat.
LayerResult simd_layer_pre_dram(const nn::Model& model, int layer_idx,
                                const AcceleratorConfig& config) {
  const nn::Layer& l = model.layer(layer_idx);
  const int batch = config.batch;
  LayerResult r;
  r.layer_idx = layer_idx;
  r.layer_name = l.name;
  r.useful_macs = l.macs() * batch;
  r.on_pe_array = false;
  r.compute_cycles = ceil_div(simd_ops(l) * batch, config.simd_lanes);
  r.counts.gb_reads = simd_input_reads(l) * batch;
  r.counts.gb_writes =
      l.kind == nn::LayerKind::Concat ? 0 : l.out_shape.elems() * batch;
  return r;
}

/// The memory-system tail of simulate_layer: apply the fused-drain stored-
/// output override, account DRAM traffic (weights + spilled activations) and
/// its global-buffer echoes, and compose total_cycles from the double-
/// buffered DRAM model. `r` carries the pre-DRAM state.
LayerResult finish_layer_result(const nn::Model& model, int layer_idx,
                                const AcceleratorConfig& config, LayerResult r,
                                TensorPlacement placement) {
  const nn::Layer& l = model.layer(layer_idx);
  const int batch = config.batch;
  const std::int64_t weight_words = l.is_macs_layer() ? l.params() : 0;

  // The stored output may be smaller than the computed tensor (drain-side
  // pooling fusion: only the pooled result reaches the GB / DRAM).
  const std::int64_t stored_out_words =
      (placement.output_words_override >= 0 ? placement.output_words_override
                                            : l.out_shape.elems()) *
      batch;
  if (placement.output_words_override >= 0 && l.is_macs_layer()) {
    // The fused drain writes the reduced tensor instead of the full one.
    r.counts.gb_writes -= l.out_shape.elems() * batch;
    r.counts.gb_writes += stored_out_words;
  }

  // DRAM traffic. Weights cross DRAM once per batch (at batch 1 — the
  // paper's operating point — each weight is used exactly once per
  // inference); activations move per image when the residency plan spilled
  // them.
  std::int64_t dram_words = weight_words;
  if (!placement.input_in_gb) dram_words += input_words_total(model, l) * batch;
  if (!placement.output_in_gb) dram_words += stored_out_words;
  r.counts.dram_words = dram_words;
  // Everything DMA'd in lands in the GB; everything DMA'd out is read from it.
  r.counts.gb_writes +=
      weight_words +
      (placement.input_in_gb ? 0 : input_words_total(model, l) * batch);
  if (!placement.output_in_gb) r.counts.gb_reads += stored_out_words;

  const DramModel dram(config);
  r.dram_cycles = dram.transfer_cycles(dram_words);
  r.total_cycles = r.compute_cycles + dram.exposed_cycles(dram_words, r.compute_cycles);
  return r;
}

}  // namespace

Dataflow effective_dataflow(const nn::Layer& layer, const AcceleratorConfig& config,
                            Dataflow requested) {
  if (layer.is_fc()) return Dataflow::WeightStationary;
  switch (config.support) {
    case DataflowSupport::WsOnly: return Dataflow::WeightStationary;
    case DataflowSupport::OsOnly: return Dataflow::OutputStationary;
    case DataflowSupport::Hybrid: return requested;
  }
  return requested;
}

LayerResult simulate_layer(const nn::Model& model, int layer_idx,
                           const AcceleratorConfig& config, Dataflow dataflow,
                           const SparsityInfo& sparsity, TensorPlacement placement) {
  const nn::Layer& l = model.layer(layer_idx);
  if (l.kind == nn::LayerKind::Input)
    throw std::invalid_argument("simulate_layer: cannot simulate the input layer");

  const int batch = config.batch;
  LayerResult r;
  if (l.is_macs_layer()) {
    r.layer_idx = layer_idx;
    r.layer_name = l.name;
    r.useful_macs = l.macs() * batch;
    r.on_pe_array = true;
    r.dataflow = effective_dataflow(l, config, dataflow);
    if (r.dataflow == Dataflow::WeightStationary) {
      // The WS schedule streams all batch images through each stationary
      // weight block (WsSchedule::plan folds batch into the pixel count).
      const MappingResult m = map_weight_stationary(l, config);
      r.compute_cycles = m.compute_cycles;
      r.counts = m.counts;
    } else {
      // The OS schedule repeats identically per image.
      const MappingResult m = map_output_stationary(l, config, sparsity);
      r.compute_cycles =
          util::checked_mul(m.compute_cycles, batch, "os compute_cycles");
      r.counts = m.counts;
      r.counts *= batch;
    }
  } else {
    r = simd_layer_pre_dram(model, layer_idx, config);
  }
  return finish_layer_result(model, layer_idx, config, std::move(r), placement);
}

LayerResult simulate_layer(const nn::Model& model, int layer_idx,
                           const AcceleratorConfig& config, Dataflow dataflow,
                           TensorPlacement placement) {
  const nn::Layer& l = model.layer(layer_idx);
  const SparsityInfo sparsity =
      config.os_zero_skip && l.is_macs_layer()
          ? SparsityInfo::expected(l, config.weight_sparsity)
          : SparsityInfo::dense(l);
  return simulate_layer(model, layer_idx, config, dataflow, sparsity, placement);
}

}  // namespace sqz::sim
