#include "est/estimator.h"

#include <algorithm>
#include <array>

#include "sim/dram.h"
#include "sim/tiling.h"

namespace sqz::est {

namespace {

/// Sum of per-band transfer cycles when `total` words split into `bands`
/// near-equal shares (the tiler's split: total/bands, +1 word for the first
/// total%bands bands).
std::int64_t split_transfer(const sim::DramModel& dram, std::int64_t total,
                            int bands) {
  if (total <= 0) return 0;
  if (bands <= 1) return dram.transfer_cycles(total);
  const std::int64_t base = total / bands;
  const std::int64_t rem = total % bands;
  return rem * dram.transfer_cycles(base + 1) +
         (static_cast<std::int64_t>(bands) - rem) * dram.transfer_cycles(base);
}

struct BandEstimate {
  std::int64_t makespan = 0;
  std::int64_t dma_busy = 0;
  std::int64_t halo = 0;
};

/// Closed-form makespan for the row-band timeline at `bands` bands.
///
/// Single-buffer mode: the event schedule collapses to the recurrence
///   load_end[i+1] = load_end[i] + max(store[i-1], compute[i]) + load[i+1]
/// (band i+1's load waits for band i's compute AND band i-1's store on the
/// shared DMA engine), whose sum is closed-form because every per-band
/// sequence takes at most two values (base share / base+1). Exact whenever
/// each band loads at least one word.
///
/// Double-buffer mode: max(compute-bound, DMA-bound) pipeline bound
/// (see docs/ESTIMATOR.md for the validated error).
BandEstimate estimate_bands(const sim::LayerDmaFacts& d,
                            const sim::DramModel& dram,
                            const sim::AcceleratorConfig& config,
                            std::int64_t compute, int bands,
                            bool double_buffered) {
  BandEstimate e;
  e.halo = d.halo_words(bands);
  const std::int64_t in = d.dma_in_total + e.halo;
  const std::int64_t out = d.dma_out_total;
  // One DRAM access latency per band that actually loads something.
  const std::int64_t lat = static_cast<std::int64_t>(config.dram_latency_cycles) *
                           std::min<std::int64_t>(bands, in);
  e.dma_busy = lat + split_transfer(dram, in, bands) +
               split_transfer(dram, out, bands);
  if (!double_buffered) {
    // Per-band values: first total%bands bands carry one extra word/cycle.
    const std::int64_t rem_c = compute % bands;
    const std::int64_t rem_o = out % bands;
    const std::int64_t c_lo = compute / bands;
    const std::int64_t c_hi = c_lo + (rem_c > 0 ? 1 : 0);
    const std::int64_t st_lo = dram.transfer_cycles(out / bands);
    const std::int64_t st_hi =
        dram.transfer_cycles(out / bands + (rem_o > 0 ? 1 : 0));
    // Sum_{i=1..bands-1} max(store[i-1], compute[i]): both sequences step
    // down once, so the index range splits into at most three constant
    // segments at rem_c and rem_o + 1.
    std::array<std::int64_t, 4> cuts = {
        1, std::clamp<std::int64_t>(rem_c, 1, bands),
        std::clamp<std::int64_t>(rem_o + 1, 1, bands), bands};
    std::sort(cuts.begin(), cuts.end());
    std::int64_t overlap_sum = 0;
    for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
      const std::int64_t a = cuts[s];
      const std::int64_t b = cuts[s + 1];
      if (b <= a) continue;
      const std::int64_t c_i = a < rem_c ? c_hi : c_lo;
      const std::int64_t st_prev = a <= rem_o ? st_hi : st_lo;
      overlap_sum += (b - a) * std::max(c_i, st_prev);
    }
    const std::int64_t c_first = bands > 1 ? c_hi : compute;
    const std::int64_t st_last = bands > 1 ? st_lo : dram.transfer_cycles(out);
    e.makespan = lat + split_transfer(dram, in, bands) + c_first + overlap_sum +
                 st_last;
    return e;
  }
  // Compute-bound: the first load fills the pipe, computes run back to back,
  // the last store drains. DMA-bound: the engine never idles after cycle 0;
  // the last band's compute trails it only where it outlasts the penultimate
  // store it overlaps with.
  const std::int64_t l0 =
      in > 0 ? config.dram_latency_cycles +
                   dram.transfer_cycles(in / bands + (in % bands ? 1 : 0))
             : 0;
  const std::int64_t st_last = dram.transfer_cycles(out / bands);
  const std::int64_t c_last = compute / bands;
  const std::int64_t st_penult =
      bands > 1 ? dram.transfer_cycles(out / bands +
                                       (bands - 2 < out % bands ? 1 : 0))
                : 0;
  e.makespan = std::max(l0 + compute + st_last,
                        e.dma_busy + std::max<std::int64_t>(0, c_last - st_penult));
  return e;
}

}  // namespace

sim::LayerResult estimate_retimed_layer(const nn::Model& model,
                                        const sim::LayerResult& analytic,
                                        const sim::AcceleratorConfig& config,
                                        sim::TensorPlacement placement,
                                        bool double_buffered,
                                        bool search_tiles) {
  const sim::LayerDmaFacts d =
      sim::analyze_layer_dma(model, analytic.layer_idx, config, placement);
  const sim::DramModel dram(config);

  int bands = d.clamp_bands(8);  // the tiler's fixed streaming heuristic
  if (search_tiles) {
    // Mirror search_layer_tiles: candidates scored double-buffered, first
    // minimum wins.
    std::int64_t best = 0;
    bool first = true;
    for (const int candidate : {1, 2, 4, 8, 16, 32, 64}) {
      const int b = d.clamp_bands(candidate);
      const BandEstimate e =
          estimate_bands(d, dram, config, analytic.compute_cycles, b, true);
      if (first || e.makespan < best) {
        best = e.makespan;
        bands = b;
        first = false;
      }
    }
  }
  const BandEstimate e = estimate_bands(d, dram, config, analytic.compute_cycles,
                                        bands, double_buffered);
  sim::LayerResult r = analytic;
  r.total_cycles = e.makespan;
  r.dram_cycles = e.dma_busy;
  // Same halo re-read traffic the real tiler discovers.
  r.counts.dram_words += e.halo;
  r.counts.gb_writes += e.halo;
  return r;
}

}  // namespace sqz::est
