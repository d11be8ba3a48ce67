// Seeded request-body generators for the serving benchmark.
//
// The server only ever sees these generated JSON bodies, and one seed always
// produces the same sequence. Every stream is built so its design points are
// distinct (no canonical cache key repeats within a run) and valid for their
// model (core::validate_design passes), so a run exercises cache misses
// without any request failing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The six zoo networks, in rotation order.
inline constexpr const char* kZoo[] = {"alexnet",      "mobilenet",
                                       "tinydarknet",  "squeezenet10",
                                       "squeezenet11", "sqnxt23"};
inline constexpr std::size_t kZooSize = 6;

/// The four /v1/sweep knobs, in rotation order.
inline constexpr const char* kKnobs[] = {"rf_entries", "array_n", "sparsity",
                                         "dram_bytes_per_cycle"};

/// Points per generated sweep.
inline constexpr std::size_t kSweepPoints = 64;

/// /v1/simulate bodies. Request i rotates the zoo model (i % 6), flips
/// between flat and timeline+tile_search every six requests, and sends the
/// network inline as model_text for one request in four (every fourth
/// block of twelve), so every 48 requests cover each combination equally.
/// Config knobs are drawn from the seed until the point is new.
/// `reserved` draws from a seed-independent stream whose DRAM latency (50
/// cycles) the seeded stream never uses: warm-up traffic that can never
/// collide with a timed request.
std::vector<std::string> simulate_bodies(std::uint64_t seed, std::size_t count,
                                         bool reserved = false);

/// /v1/sweep bodies, each a new 64-point single-knob sweep. Sweep i rotates
/// the knob (i % 4), then the model ((i / 4) % 6), then flat versus
/// timeline+tile_search ((i / 24) % 2). The base config is drawn until the
/// (model, knob, base) tuple is new, and the 64 knob values are
/// drawn from the knob's range keeping only points that pass
/// core::validate_design. `reserved` as for simulate_bodies.
std::vector<std::string> sweep_bodies(std::uint64_t seed, std::size_t count,
                                      bool reserved = false);

/// A seeded replay order: `count` indices into a working set of `size`.
std::vector<std::size_t> replay_order(std::uint64_t seed, std::size_t count,
                                      std::size_t size);

}  // namespace perfbench
