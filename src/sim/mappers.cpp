#include "sim/mappers.h"

#include <algorithm>
#include <array>
#include <vector>

#include "sim/schedule.h"
#include "util/checked.h"

namespace sqz::sim {

namespace {

using util::checked_add;
using util::checked_mul;

/// One distinct value a blocked loop axis takes, with its multiplicity.
struct Variant {
  std::int64_t value = 0;
  std::int64_t count = 0;
};
using Variants = std::array<Variant, 2>;

/// An axis of extent `total` walked in blocks of `block` takes at most two
/// values: the full block (total/block times) and the remainder (once).
int block_variants(std::int64_t total, std::int64_t block, Variants& out) {
  int n = 0;
  if (total <= 0 || block <= 0) return 0;
  if (total / block > 0) out[n++] = {block, total / block};
  if (total % block > 0) out[n++] = {total % block, 1};
  return n;
}

/// Overflow-checked product; an overflow error names the term `what`.
template <class... Ts>
std::int64_t mul(const char* what, std::int64_t a, Ts... rest) {
  ((a = checked_mul(a, static_cast<std::int64_t>(rest), what)), ...);
  return a;
}

/// Overflow-checked `acc += term`, naming `what`.
void add(std::int64_t& acc, std::int64_t term, const char* what) {
  acc = checked_add(acc, term, what);
}

}  // namespace

MappingResult map_weight_stationary(const nn::Layer& layer,
                                    const AcceleratorConfig& config) {
  const WsSchedule s = WsSchedule::plan(layer, config);
  const int n = config.array_n;

  Variants cols, rows, taps;
  const int ncols = block_variants(s.cout_pg, n, cols);
  int nrows = 1;
  if (s.tap_pack > 1)
    rows[0] = {s.cin_pg, 1};  // tap packing keeps every channel in one block
  else
    nrows = block_variants(s.cin_pg, n, rows);
  const int ntaps = block_variants(s.kw, s.tap_pack, taps);

  const std::int64_t nchunks = ceil_div_i64(s.pixels, s.pixel_chunk);
  const std::int64_t passes =
      mul("ws passes", s.cin_blocks, s.kh, s.tap_groups_per_row());

  MappingResult r;
  // Each pass preloads its stationary weight block, then pays the chain
  // fill; both depend on the (columns, rows, taps) block shape, so
  // enumerate the <= 8 shape variants with their multiplicities.
  for (int i = 0; i < ncols; ++i)
    for (int j = 0; j < nrows; ++j)
      for (int k = 0; k < ntaps; ++k) {
        const std::int64_t block_rows =
            mul("ws block rows", rows[j].value, taps[k].value);
        const std::int64_t preload = ceil_div_i64(
            mul("ws block weights", block_rows, cols[i].value),
            config.preload_width);
        const std::int64_t blocks =
            mul("ws block passes", cols[i].count, rows[j].count,
                taps[k].count, s.kh, nchunks);
        add(r.compute_cycles,
            mul("ws preload cycles", blocks,
                checked_add(preload, block_rows, "ws preload cycles")),
            "ws compute_cycles");
      }
  // Every pass of every output block streams all pixels (penalized when
  // strided).
  add(r.compute_cycles,
      mul("ws stream cycles", s.cout_blocks, passes, s.pixels,
          s.stream_penalty),
      "ws compute_cycles");
  r.compute_cycles = mul("ws compute_cycles", r.compute_cycles, s.groups);

  // The loop axes separate, so each count is a product of full extents
  // (the blocked values of an axis sum to its extent).
  const std::int64_t wpg = mul("ws weights per filter", s.cin_pg, s.kh, s.kw);
  AccessCounts& c = r.counts;
  c.mac_ops = mul("ws mac_ops", s.pixels, wpg, s.cout_pg);
  c.rf_reads = c.mac_ops;  // weight reg read per MAC
  c.inter_pe = c.mac_ops;  // psum chain hop per MAC
  // Stationary weight regs, refilled per pixel chunk, via the preload buf.
  c.rf_writes = mul("ws rf_writes", nchunks, wpg, s.cout_pg);
  // Streamed inputs: packed taps are shifted copies of the same sequential
  // stream, so distinct words ~ pixels x channels per pass group.
  c.gb_reads = checked_add(
      c.rf_writes,
      mul("ws streamed inputs", s.cout_blocks, s.pixels, s.cin_pg, s.kh,
          s.tap_groups_per_row()),
      "ws gb_reads");
  // Column sums accumulate in the psum accumulator SRAM (naive reference
  // WS: read-modify-write through the global buffer); the first pass of a
  // chunk writes without reading. Finished chunks commit to the GB.
  const std::int64_t psum_writes =
      mul("ws psum writes", passes, s.pixels, s.cout_pg);
  const std::int64_t psum_reads =
      mul("ws psum reads", passes - 1, s.pixels, s.cout_pg);
  c.gb_writes = mul("ws chunk commits", s.pixels, s.cout_pg);
  if (config.ws_psums_in_gb) {
    add(c.gb_writes, psum_writes, "ws gb_writes");
    add(c.gb_reads, psum_reads, "ws gb_reads");
  } else {
    c.acc_writes = psum_writes;
    c.acc_reads = psum_reads;
  }
  c *= s.groups;
  return r;
}

MappingResult map_output_stationary(const nn::Layer& layer,
                                    const AcceleratorConfig& config,
                                    const SparsityInfo& sparsity) {
  const OsSchedule s = OsSchedule::plan(layer, config);
  const int rf = config.rf_entries;

  Variants th, tw, ch;
  const int nth = block_variants(s.oh, config.array_n, th);
  const int ntw = block_variants(s.ow, config.array_n, tw);
  const int nch = block_variants(s.cout_pg, rf, ch);

  // Every output tile walks the same (group, filter chunk, input channel)
  // passes, and a pass's broadcasts never depend on the tile.
  const std::vector<SparsityInfo::BroadcastRun> runs =
      sparsity.os_broadcasts(s.groups, s.cout_pg, s.cin_pg, rf);
  std::int64_t broadcasts = 0;  // per tile
  for (const SparsityInfo::BroadcastRun& b : runs)
    add(broadcasts, mul("os broadcasts", b.broadcasts, b.passes),
        "os broadcasts");
  const std::int64_t chunks =
      mul("os filter chunks", s.groups, ceil_div_i64(s.cout_pg, rf));
  const std::int64_t passes = mul("os passes", chunks, s.cin_pg);

  MappingResult r;
  AccessCounts& c = r.counts;
  for (int i = 0; i < nth; ++i)
    for (int j = 0; j < ntw; ++j) {
      const int nh = static_cast<int>(th[i].value);
      const int nw = static_cast<int>(tw[j].value);
      const std::int64_t tiles = mul("os tiles", th[i].count, tw[j].count);
      const std::int64_t load = s.load_cycles(nh, nw, config);
      const std::int64_t tile_pes = mul("os tile pes", nh, nw);

      // Per (group, chunk): fixed sequencing overhead, then the drain of
      // the finished outputs, serial with compute by design.
      std::int64_t cycles =
          mul("os overhead cycles", chunks, kOsTileOverheadCycles);
      for (int k = 0; k < nch; ++k)
        add(cycles,
            mul("os drain cycles", s.groups, ch[k].count,
                ceil_div_i64(mul("os drain words", tile_pes, ch[k].value),
                             config.drain_width)),
            "os compute_cycles");
      // Per pass: inject the input block, broadcast the non-zero weights
      // (one per cycle). Pointwise layers overlap the next injection with
      // compute; spatial filters keep the mesh busy shifting.
      for (const SparsityInfo::BroadcastRun& b : runs)
        add(cycles,
            mul("os pass cycles", b.passes,
                s.loads_overlap_compute
                    ? std::max(load, b.broadcasts)
                    : checked_add(load, b.broadcasts, "os pass cycles")),
            "os compute_cycles");
      add(r.compute_cycles, mul("os compute_cycles", tiles, cycles),
          "os compute_cycles");

      const std::int64_t macs = mul("os mac_ops", tiles, tile_pes, broadcasts);
      const std::int64_t injected = mul("os injected words", tiles, passes,
                                        s.block_pixels(nh, nw));
      add(c.mac_ops, macs, "os mac_ops");
      add(c.inter_pe, macs, "os inter_pe");  // mesh shift feeding each MAC
      add(c.rf_reads, mul("os rf_reads", 2, macs),
          "os rf_reads");  // input reg + psum read per MAC
      // Input regs fill from the injected block; each MAC writes its psum.
      add(c.rf_writes, checked_add(injected, macs, "os rf_writes"),
          "os rf_writes");
      // The input block and the weight broadcasts come from the GB.
      add(c.gb_reads,
          checked_add(injected, mul("os weight reads", tiles, broadcasts),
                      "os gb_reads"),
          "os gb_reads");
      add(c.gb_writes,
          mul("os gb_writes", tiles, tile_pes, s.groups, s.cout_pg),
          "os gb_writes");
    }
  return r;
}

}  // namespace sqz::sim
