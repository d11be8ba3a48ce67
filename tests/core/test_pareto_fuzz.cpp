// Property test for core::pareto_front on random point clouds, driven by
// util/rng so every failure is reproducible from the printed seed. These
// invariants are what the parallel sweep writer relies on: membership is a
// pure function of the point multiset (ties all kept, order preserved), so
// evaluation order can never change the front.
#include "core/dse.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.h"

namespace sqz::core {
namespace {

bool dominates(const DesignPoint& q, const DesignPoint& p) {
  const bool no_worse = q.cycles <= p.cycles && q.energy <= p.energy;
  const bool better = q.cycles < p.cycles || q.energy < p.energy;
  return no_worse && better;
}

bool dominated_by_any_of(const DesignPoint& p,
                         const std::vector<DesignPoint>& points) {
  for (const DesignPoint& q : points)
    if (dominates(q, p)) return true;
  return false;
}

// Random cloud with a small value range so duplicate (cycles, energy) pairs
// and single-axis ties occur constantly.
std::vector<DesignPoint> random_cloud(util::Rng& rng, std::size_t n) {
  std::vector<DesignPoint> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i].label = std::to_string(i);  // label == input index
    pts[i].cycles = rng.next_in(0, 15);
    pts[i].energy = static_cast<double>(rng.next_in(0, 15));
  }
  return pts;
}

TEST(ParetoFuzz, FrontInvariantsHoldOnRandomClouds) {
  util::Rng rng(0xC0DE5EEDULL);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = static_cast<std::size_t>(rng.next_in(0, 80));
    const std::vector<DesignPoint> pts = random_cloud(rng, n);
    const std::vector<DesignPoint> front = pareto_front(pts);
    SCOPED_TRACE("iter " + std::to_string(iter) + " n=" + std::to_string(n));

    // Membership by input index (labels are unique indices).
    std::vector<bool> in_front(n, false);
    long long prev = -1;
    for (const DesignPoint& f : front) {
      const long long idx = std::stoll(f.label);
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, static_cast<long long>(n));
      // Input order preserved: front labels strictly increase.
      EXPECT_GT(idx, prev);
      prev = idx;
      in_front[static_cast<std::size_t>(idx)] = true;
      // A front member carries its point unchanged.
      EXPECT_EQ(f.cycles, pts[static_cast<std::size_t>(idx)].cycles);
      EXPECT_EQ(f.energy, pts[static_cast<std::size_t>(idx)].energy);
    }

    for (std::size_t i = 0; i < n; ++i) {
      if (in_front[i]) {
        // No front member is dominated by any point in the cloud.
        EXPECT_FALSE(dominated_by_any_of(pts[i], pts)) << "front member " << i;
      } else {
        // Every excluded point is dominated by some front member.
        EXPECT_TRUE(dominated_by_any_of(pts[i], front)) << "non-member " << i;
      }
    }
  }
}

TEST(ParetoFuzz, DuplicatesShareTheirFate) {
  // All copies of the same (cycles, energy) pair are either all on the
  // front or all off it — the invariant that makes front membership
  // independent of evaluation order.
  util::Rng rng(0xD0B1E5ULL);
  for (int iter = 0; iter < 100; ++iter) {
    const std::vector<DesignPoint> pts =
        random_cloud(rng, static_cast<std::size_t>(rng.next_in(2, 40)));
    const std::vector<DesignPoint> front = pareto_front(pts);
    std::vector<bool> in_front(pts.size(), false);
    for (const DesignPoint& f : front)
      in_front[static_cast<std::size_t>(std::stoll(f.label))] = true;
    for (std::size_t i = 0; i < pts.size(); ++i)
      for (std::size_t j = i + 1; j < pts.size(); ++j)
        if (pts[i].cycles == pts[j].cycles && pts[i].energy == pts[j].energy) {
          EXPECT_EQ(in_front[i], in_front[j])
              << "duplicates " << i << "/" << j << " split at iter " << iter;
        }
  }
}

}  // namespace
}  // namespace sqz::core
