// Seeded property test over random model x config pairs: the flat network
// model is monotone in PE count — scaling the array up (with its feed/drain
// ports scaled alongside) never yields a slower network.
#include <gtest/gtest.h>

#include <string>

#include "sched/network_sim.h"
#include "util/rng.h"

namespace sqz::sched {
namespace {

constexpr std::uint64_t kSeed = 0x5eed0e57;

// prefix + decimal index, appended in place: GCC 12's -Wrestrict misfires
// on `"literal" + std::to_string(i)` once that is inlined into a test.
std::string numbered(const char* prefix, int i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

nn::Model random_model(util::Rng& rng, int tag) {
  const int cin = static_cast<int>(rng.next_in(1, 64));
  const int hw = static_cast<int>(rng.next_in(7, 64));
  nn::Model m(numbered("rand-", tag), nn::TensorShape{cin, hw, hw});
  const int layers = static_cast<int>(rng.next_in(1, 5));
  for (int i = 0; i < layers; ++i) {
    const int kind = static_cast<int>(rng.next_below(4));
    const nn::TensorShape cur = m.layer(m.layer_count() - 1).out_shape;
    if (kind == 0 && cur.h >= 3) {
      m.add_maxpool(numbered("mp", i), 2, 2);
    } else if (kind == 1 && cur.h >= 3) {
      const int k = rng.next_bernoulli(0.5) ? 3 : 1;
      m.add_conv(numbered("c", i),
                 static_cast<int>(rng.next_in(1, 96)), k,
                 rng.next_bernoulli(0.3) ? 2 : 1, k / 2);
    } else if (kind == 2 && cur.h >= 3) {
      m.add_depthwise(numbered("dw", i), 3, 1, 1);
    } else {
      m.add_relu(numbered("r", i));
    }
  }
  m.finalize();
  return m;
}

sim::AcceleratorConfig random_config(util::Rng& rng) {
  sim::AcceleratorConfig c = sim::AcceleratorConfig::squeezelerator();
  c.array_n = 1 << rng.next_in(2, 5);  // 4..32
  c.rf_entries = 1 << rng.next_in(1, 4);
  c.preload_width = 1 << rng.next_in(2, 5);
  c.drain_width = 1 << rng.next_in(2, 5);
  c.gb_kib = static_cast<int>(rng.next_in(32, 256));
  c.weight_sparsity = 0.1 * static_cast<double>(rng.next_in(0, 6));
  c.os_zero_skip = rng.next_bernoulli(0.8);
  c.ws_psums_in_gb = rng.next_bernoulli(0.2);
  c.batch = rng.next_bernoulli(0.2) ? 2 : 1;
  return c;
}

TEST(NetworkSimProperty, FlatCyclesMonotoneInPeCount) {
  // Doubling the array edge (with the feed/drain ports scaled with it, as
  // any real scale-up would) must never yield a slower network.
  util::Rng rng(kSeed ^ 0xab5);
  for (int trial = 0; trial < 40; ++trial) {
    const nn::Model m = random_model(rng, trial);
    sim::AcceleratorConfig small = random_config(rng);
    small.array_n = 1 << rng.next_in(2, 4);  // 4..16, leaves room to double
    sim::AcceleratorConfig big = small;
    big.array_n = small.array_n * 2;
    big.preload_width = small.preload_width * 2;
    big.drain_width = small.drain_width * 2;
    big.psum_accum_words = small.psum_accum_words * 2;
    const std::int64_t cycles_small =
        simulate_network(m, small, SimulationOptions{}).total_cycles();
    const std::int64_t cycles_big =
        simulate_network(m, big, SimulationOptions{}).total_cycles();
    EXPECT_LE(cycles_big, cycles_small)
        << m.name() << " n=" << small.array_n << " -> " << big.array_n;
  }
}

}  // namespace
}  // namespace sqz::sched
