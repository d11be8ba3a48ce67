// Mapping golden: per-layer cycles and access counts of both dataflows over
// the Table-1 zoo x an 8-point configuration grid, pinned in
// tests/data/mapping_golden.txt. The file was generated from the original
// per-tile loop-walk mappers, so this test proves the closed-form mappers
// reproduce the walk's numbers exactly. It is the only pin on the expected-
// sparsity provider, which has no emulator oracle (the functional emulators
// run on real, measured weights).
//
// Line format (space-separated):
//   model config_index WS|OS compute_cycles mac_ops rf_reads rf_writes
//   inter_pe acc_reads acc_writes gb_reads gb_writes dram_words fnv
// where the counts are summed over every layer of the model and `fnv` is
// the FNV-1a-64 (hex) of the per-layer tuples "idx,compute,total,dram,
// useful,dataflow,<9 counters>;" concatenated in layer order.
#include <gtest/gtest.h>

#include <cinttypes>
#include <fstream>
#include <string>
#include <vector>

#include "nn/zoo/zoo.h"
#include "sim/layer_sim.h"
#include "util/hash.h"
#include "util/strings.h"

namespace sqz::sim {
namespace {

std::vector<AcceleratorConfig> config_grid() {
  std::vector<AcceleratorConfig> grid;
  grid.push_back(AcceleratorConfig::squeezelerator());
  grid.push_back(AcceleratorConfig::squeezelerator_rf8());
  grid.push_back(AcceleratorConfig::reference_ws());
  grid.push_back(AcceleratorConfig::reference_os());
  {
    AcceleratorConfig c = AcceleratorConfig::squeezelerator();
    c.array_n = 16;
    c.preload_width = 16;
    c.drain_width = 16;
    grid.push_back(c);
  }
  {
    AcceleratorConfig c = AcceleratorConfig::squeezelerator();
    c.array_n = 8;
    c.rf_entries = 8;
    c.os_zero_skip = false;
    grid.push_back(c);
  }
  {
    AcceleratorConfig c = AcceleratorConfig::squeezelerator();
    c.ws_psums_in_gb = true;
    c.weight_sparsity = 0.25;
    grid.push_back(c);
  }
  {
    AcceleratorConfig c = AcceleratorConfig::squeezelerator();
    c.batch = 4;
    grid.push_back(c);
  }
  return grid;
}

std::string counts_text(const AccessCounts& c, char sep) {
  return util::format(
      "%" PRId64 "%c%" PRId64 "%c%" PRId64 "%c%" PRId64 "%c%" PRId64
      "%c%" PRId64 "%c%" PRId64 "%c%" PRId64 "%c%" PRId64,
      c.mac_ops, sep, c.rf_reads, sep, c.rf_writes, sep, c.inter_pe, sep,
      c.acc_reads, sep, c.acc_writes, sep, c.gb_reads, sep, c.gb_writes, sep,
      c.dram_words);
}

std::string golden_line(const nn::Model& m, int cfg_idx,
                        const AcceleratorConfig& cfg, Dataflow df) {
  std::int64_t compute = 0;
  AccessCounts sum;
  std::string tuples;
  for (int i = 1; i < m.layer_count(); ++i) {
    const LayerResult r = simulate_layer(m, i, cfg, df);
    compute += r.compute_cycles;
    sum += r.counts;
    tuples += util::format("%d,%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64
                           ",%d,",
                           i, r.compute_cycles, r.total_cycles, r.dram_cycles,
                           r.useful_macs, static_cast<int>(r.dataflow)) +
              counts_text(r.counts, ',') + ";";
  }
  return util::format("%s %d %s %" PRId64 " ", m.name().c_str(), cfg_idx,
                      df == Dataflow::WeightStationary ? "WS" : "OS",
                      compute) +
         counts_text(sum, ' ') +
         util::format(" %016" PRIx64, util::fnv1a64(tuples));
}

TEST(MappingGolden, ZooTimesConfigGridMatchesPinnedWalk) {
  std::ifstream in(SQZ_TEST_DATA_DIR "/mapping_golden.txt");
  ASSERT_TRUE(in) << "missing tests/data/mapping_golden.txt";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);

  std::size_t k = 0;
  const std::vector<AcceleratorConfig> grid = config_grid();
  for (const nn::Model& m : nn::zoo::all_table1_models()) {
    for (std::size_t c = 0; c < grid.size(); ++c) {
      for (const Dataflow df :
           {Dataflow::WeightStationary, Dataflow::OutputStationary}) {
        const std::string got =
            golden_line(m, static_cast<int>(c), grid[c], df);
        ASSERT_LT(k, golden.size()) << "golden too short at: " << got;
        EXPECT_EQ(got, golden[k]);
        ++k;
      }
    }
  }
  EXPECT_EQ(k, golden.size());
}

}  // namespace
}  // namespace sqz::sim
