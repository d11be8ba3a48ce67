#include "sim/counters.h"

#include "util/checked.h"
#include "util/json.h"

namespace sqz::sim {

void counts_to_json(const AccessCounts& counts, util::JsonWriter& w) {
  w.member("mac_ops", counts.mac_ops);
  w.member("rf_reads", counts.rf_reads);
  w.member("rf_writes", counts.rf_writes);
  w.member("inter_pe", counts.inter_pe);
  w.member("acc_reads", counts.acc_reads);
  w.member("acc_writes", counts.acc_writes);
  w.member("gb_reads", counts.gb_reads);
  w.member("gb_writes", counts.gb_writes);
  w.member("dram_words", counts.dram_words);
}

AccessCounts& AccessCounts::operator+=(const AccessCounts& o) {
  using util::checked_add;
  mac_ops = checked_add(mac_ops, o.mac_ops, "AccessCounts: mac_ops");
  rf_reads = checked_add(rf_reads, o.rf_reads, "AccessCounts: rf_reads");
  rf_writes = checked_add(rf_writes, o.rf_writes, "AccessCounts: rf_writes");
  inter_pe = checked_add(inter_pe, o.inter_pe, "AccessCounts: inter_pe");
  acc_reads = checked_add(acc_reads, o.acc_reads, "AccessCounts: acc_reads");
  acc_writes = checked_add(acc_writes, o.acc_writes, "AccessCounts: acc_writes");
  gb_reads = checked_add(gb_reads, o.gb_reads, "AccessCounts: gb_reads");
  gb_writes = checked_add(gb_writes, o.gb_writes, "AccessCounts: gb_writes");
  dram_words = checked_add(dram_words, o.dram_words, "AccessCounts: dram_words");
  return *this;
}

AccessCounts& AccessCounts::operator*=(std::int64_t k) {
  using util::checked_mul;
  mac_ops = checked_mul(mac_ops, k, "AccessCounts: mac_ops");
  rf_reads = checked_mul(rf_reads, k, "AccessCounts: rf_reads");
  rf_writes = checked_mul(rf_writes, k, "AccessCounts: rf_writes");
  inter_pe = checked_mul(inter_pe, k, "AccessCounts: inter_pe");
  acc_reads = checked_mul(acc_reads, k, "AccessCounts: acc_reads");
  acc_writes = checked_mul(acc_writes, k, "AccessCounts: acc_writes");
  gb_reads = checked_mul(gb_reads, k, "AccessCounts: gb_reads");
  gb_writes = checked_mul(gb_writes, k, "AccessCounts: gb_writes");
  dram_words = checked_mul(dram_words, k, "AccessCounts: dram_words");
  return *this;
}

std::int64_t NetworkResult::total_cycles() const {
  std::int64_t total = 0;
  for (const LayerResult& l : layers)
    total = util::checked_add(total, l.total_cycles,
                              "NetworkResult: total_cycles");
  return total;
}

std::int64_t NetworkResult::total_useful_macs() const {
  std::int64_t total = 0;
  for (const LayerResult& l : layers)
    total = util::checked_add(total, l.useful_macs,
                              "NetworkResult: total_useful_macs");
  return total;
}

AccessCounts NetworkResult::total_counts() const {
  AccessCounts total;
  for (const LayerResult& l : layers) total += l.counts;
  return total;
}

double NetworkResult::utilization() const {
  const std::int64_t cycles = total_cycles();
  if (cycles <= 0) return 0.0;
  return static_cast<double>(total_useful_macs()) /
         (static_cast<double>(cycles) * config.pe_count());
}

double NetworkResult::latency_ms(double clock_ghz) const {
  return static_cast<double>(total_cycles()) / (clock_ghz * 1e6);
}

}  // namespace sqz::sim
