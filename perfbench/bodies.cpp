#include "bodies.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "core/cli.h"
#include "core/validate.h"
#include "nn/serialize.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using sqz::sim::AcceleratorConfig;

// Seed of the reserved (warm-up) streams; any constant works.
constexpr std::uint64_t kReservedSeed = 0x77a2'6e0b'5eedULL;

// Base weight reserve for array_n sweeps: holds a double-buffered 95x95
// weight block, so the whole [16, 95] range is feasible.
constexpr int kArraySweepReserve = 2 * 95 * 95;

struct Zoo {
  std::vector<sqz::nn::Model> models;
  std::vector<std::string> escaped_text;  ///< JSON-escaped serialize_model.
};

const Zoo& zoo() {
  static const Zoo z = [] {
    Zoo out;
    for (const char* name : kZoo) {
      out.models.push_back(sqz::core::zoo_model_by_name(name));
      out.escaped_text.push_back(
          sqz::util::json_escape(sqz::nn::serialize_model(out.models.back())));
    }
    return out;
  }();
  return z;
}

std::string fmt(const char* format, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

template <typename T>
T pick(sqz::util::Rng& rng, std::initializer_list<T> options) {
  return *(options.begin() + rng.next_below(options.size()));
}

/// The knobs a generated point varies, as the body spells them. DRAM latency,
/// bandwidth and sparsity change the simulated result but hardly the
/// simulation's cost, so they carry most of the uniqueness; array size, RF
/// and buffer size stay in ranges of similar cost.
struct Knobs {
  int array_n = 32;
  int rf_entries = 16;
  int gb_kib = 128;
  int dram_latency = 100;
  std::string dram;      ///< dram_bytes_per_cycle token.
  std::string sparsity;  ///< weight_sparsity token.
  int weight_reserve_words = 0;  ///< 0 = leave the default.

  auto tie() const {
    return std::tie(array_n, rf_entries, gb_kib, dram_latency, dram, sparsity,
                    weight_reserve_words);
  }
  bool operator<(const Knobs& o) const { return tie() < o.tie(); }

  AcceleratorConfig config() const {
    AcceleratorConfig c = AcceleratorConfig::squeezelerator();
    c.array_n = array_n;
    c.rf_entries = rf_entries;
    c.gb_kib = gb_kib;
    c.dram_latency_cycles = dram_latency;
    c.dram_bytes_per_cycle = std::stod(dram);
    c.weight_sparsity = std::stod(sparsity);
    if (weight_reserve_words > 0) c.weight_reserve_words = weight_reserve_words;
    return c;
  }

  std::string json() const {
    std::string s = "{\"array_n\":" + std::to_string(array_n) +
                    ",\"rf_entries\":" + std::to_string(rf_entries) +
                    ",\"gb_kib\":" + std::to_string(gb_kib) +
                    ",\"dram_latency\":" + std::to_string(dram_latency) +
                    ",\"dram_bytes_per_cycle\":" + dram +
                    ",\"weight_sparsity\":" + sparsity;
    if (weight_reserve_words > 0)
      s += ",\"weight_reserve_words\":" + std::to_string(weight_reserve_words);
    return s + "}";
  }
};

/// DRAM latency is the reserved streams' marker: they always use 50 cycles,
/// which the seeded streams never draw, so no warm-up point can ever share a
/// design point (or a cache key) with a timed one.
int dram_latency(sqz::util::Rng& rng, bool reserved) {
  return reserved ? 50 : static_cast<int>(rng.next_in(60, 140));
}

std::string sparsity_token(sqz::util::Rng& rng) {
  return fmt("%.2f", 0.20 + 0.01 * rng.next_in(0, 40));
}

std::string dram_token(sqz::util::Rng& rng) {
  return fmt("%.2f", 4.0 + 0.25 * rng.next_in(0, 112));
}

std::string body_prefix(std::size_t model, bool inline_model) {
  return inline_model
             ? "{\"model_text\":\"" + zoo().escaped_text[model] + "\""
             : std::string("{\"model\":\"") + kZoo[model] + "\"";
}

std::string options_json(bool timeline) {
  return timeline ? "{\"timeline\":true,\"tile_search\":true}"
                  : "{\"timeline\":false,\"tile_search\":false}";
}

bool feasible(std::size_t model, const AcceleratorConfig& c) {
  return sqz::core::validate_design(zoo().models[model], c).ok();
}

/// Draw `kSweepPoints` distinct feasible values of `knob` over `base`, as
/// number tokens in ascending order.
std::vector<std::string> sweep_values(sqz::util::Rng& rng, std::size_t model,
                                      std::string_view knob,
                                      const AcceleratorConfig& base) {
  // 80 candidates as integers k; the value is k (k / 100 for sparsity). Any
  // two draws share most of their values, so a sweep's cost hardly depends
  // on the seed, and every candidate costs about the same to simulate.
  const int lo = knob == "sparsity" ? 0 : knob == "dram_bytes_per_cycle" ? 1 : 16;
  const int hi = lo + 79;
  std::vector<int> cand;
  for (int k = lo; k <= hi; ++k) cand.push_back(k);
  for (std::size_t i = cand.size(); i > 1; --i)
    std::swap(cand[i - 1], cand[rng.next_below(i)]);

  std::vector<int> kept;
  for (const int k : cand) {
    if (kept.size() == kSweepPoints) break;
    AcceleratorConfig c = base;
    if (knob == "rf_entries") c.rf_entries = k;
    else if (knob == "array_n") c.array_n = k;
    else if (knob == "sparsity") c.weight_sparsity = k / 100.0;
    else c.dram_bytes_per_cycle = k;
    if (feasible(model, c)) kept.push_back(k);
  }
  if (kept.size() < kSweepPoints)
    throw std::runtime_error(std::string("perfbench: too few feasible ") +
                             std::string(knob) + " values for " + kZoo[model]);
  std::sort(kept.begin(), kept.end());
  std::vector<std::string> out;
  for (const int k : kept)
    out.push_back(knob == "sparsity" ? fmt("%.2f", k / 100.0)
                                     : std::to_string(k));
  return out;
}

}  // namespace

std::vector<std::string> simulate_bodies(std::uint64_t seed, std::size_t count,
                                         bool reserved) {
  sqz::util::Rng rng(reserved ? kReservedSeed : seed);
  std::set<std::tuple<std::size_t, bool, Knobs>> seen;
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t model = i % kZooSize;
    const bool timeline = (i / kZooSize) % 2 == 1;
    const bool inline_model = (i / (2 * kZooSize)) % 4 == 3;
    Knobs k;
    for (int attempt = 0;; ++attempt) {
      if (attempt == 1000)
        throw std::runtime_error("perfbench: simulate design space exhausted");
      k.array_n = pick(rng, {24, 28, 32});
      k.rf_entries = pick(rng, {12, 16, 20, 24, 32});
      k.gb_kib = pick(rng, {96, 128, 160, 192, 256});
      k.dram_latency = dram_latency(rng, reserved);
      k.dram = dram_token(rng);
      k.sparsity = sparsity_token(rng);
      if (!feasible(model, k.config())) continue;
      if (seen.emplace(model, timeline, k).second) break;
    }
    out.push_back(body_prefix(model, inline_model) + ",\"config\":" +
                  k.json() + ",\"options\":" + options_json(timeline) + "}");
  }
  return out;
}

std::vector<std::string> sweep_bodies(std::uint64_t seed, std::size_t count,
                                      bool reserved) {
  sqz::util::Rng rng((reserved ? kReservedSeed : seed) ^ 0x5753ULL);
  // Design-point keys (core/dse.h) carry no fidelity options, so a flat and
  // a timeline sweep of one base would share them — and a coordinator's
  // sweep journal would then serve one sweep's points to the other. The
  // base is therefore new per (model, knob), whatever the fidelity.
  std::set<std::tuple<std::size_t, std::string, Knobs>> seen;
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string knob = kKnobs[i % 4];
    const std::size_t model = (i / 4) % kZooSize;
    const bool timeline = (i / (4 * kZooSize)) % 2 == 1;
    Knobs k;
    for (int attempt = 0;; ++attempt) {
      if (attempt == 1000)
        throw std::runtime_error("perfbench: sweep design space exhausted");
      // The swept knob keeps its default in the base: a base value it
      // overrides would make two sweeps share design points. Array size, RF
      // and buffer vary like a simulate point's, so sweeps of one (model,
      // knob, fidelity) differ in cost and the latency tail has no steps.
      k.array_n = knob == "array_n" ? 32 : pick(rng, {24, 28, 32});
      k.rf_entries = knob == "rf_entries" ? 16 : pick(rng, {12, 16, 20, 24, 32});
      k.gb_kib = pick(rng, {128, 160, 192, 256});
      k.dram_latency = dram_latency(rng, reserved);
      k.dram = knob == "dram_bytes_per_cycle" ? "16.00" : dram_token(rng);
      k.sparsity = knob == "sparsity" ? "0.40" : sparsity_token(rng);
      if (knob == "array_n") k.weight_reserve_words = kArraySweepReserve;
      if (seen.emplace(model, knob, k).second) break;
    }
    const std::vector<std::string> values =
        sweep_values(rng, model, knob, k.config());
    std::string list;
    for (const std::string& v : values) list += (list.empty() ? "" : ",") + v;
    out.push_back(std::string("{\"model\":\"") + kZoo[model] +
                  "\",\"config\":" + k.json() +
                  ",\"options\":" + options_json(timeline) +
                  ",\"sweep\":{\"knob\":\"" + knob + "\",\"values\":[" + list +
                  "]}}");
  }
  return out;
}

std::vector<std::size_t> replay_order(std::uint64_t seed, std::size_t count,
                                      std::size_t size) {
  sqz::util::Rng rng(seed ^ 0x7265706cULL);
  std::vector<std::size_t> out(count);
  for (std::size_t& i : out) i = rng.next_below(size);
  return out;
}

}  // namespace perfbench
