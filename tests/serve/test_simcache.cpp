#include "serve/simcache.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/faultinject.h"
#include "util/logging.h"

namespace sqz::serve {
namespace {

namespace fs = std::filesystem;

// prefix + decimal index, appended in place: GCC 12's -Wrestrict misfires
// on `"literal" + std::to_string(i)` once that is inlined into a test.
std::string numbered(const char* prefix, int i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The single published cache entry in `dir` (fails the test when the tier
// holds anything but one).
fs::path only_entry(const fs::path& dir) {
  fs::path found;
  int count = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".sqz") {
      found = e.path();
      ++count;
    }
  }
  EXPECT_EQ(count, 1) << "expected exactly one .sqz entry in " << dir;
  return found;
}

int count_with_extension(const fs::path& dir, const std::string& ext) {
  int count = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ext) ++count;
  return count;
}

// Unique per-test scratch directory under the build tree.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("sqz_simcache_" + name);
  fs::remove_all(dir);
  return dir;
}

TEST(SimCache, Fnv1aMatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(SimCache::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(SimCache::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(SimCache::fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(SimCache, MissThenHit) {
  SimCache cache(4);
  EXPECT_FALSE(cache.get("k1").has_value());
  cache.put("k1", "v1");
  const auto v = cache.get("k1");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "v1");

  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.disk_hits, 0u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(SimCache, LruEvictsOldestEntry) {
  SimCache cache(2);
  cache.put("a", "1");
  cache.put("b", "2");
  ASSERT_TRUE(cache.get("a").has_value());  // "a" now most recent
  cache.put("c", "3");                      // evicts "b"

  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_TRUE(cache.get("c").has_value());

  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(SimCache, ReinsertRefreshesInsteadOfDuplicating) {
  SimCache cache(2);
  cache.put("a", "1");
  cache.put("a", "1");
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.put("b", "2");
  cache.put("c", "3");  // capacity 2: one eviction, not two
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SimCache, CapacityClampsToAtLeastOne) {
  SimCache cache(0);
  cache.put("a", "1");
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SimCache, DiskTierSurvivesNewInstance) {
  const fs::path dir = scratch_dir("persist");
  {
    SimCache cache(4, dir.string());
    cache.put("design-point", "report bytes");
  }
  SimCache fresh(4, dir.string());
  const auto v = fresh.get("design-point");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "report bytes");

  const auto s = fresh.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.disk_hits, 1u);
  // Promoted to memory: the second lookup does not touch disk again.
  ASSERT_TRUE(fresh.get("design-point").has_value());
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
  fs::remove_all(dir);
}

TEST(SimCache, DiskTierOutlivesMemoryEviction) {
  const fs::path dir = scratch_dir("evict");
  SimCache cache(1, dir.string());
  cache.put("a", "1");
  cache.put("b", "2");  // evicts "a" from memory; disk still has it
  const auto v = cache.get("a");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "1");
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  fs::remove_all(dir);
}

TEST(SimCache, ValuesWithBinaryContentRoundTrip) {
  const fs::path dir = scratch_dir("binary");
  const std::string value("a\0b\r\nc", 6);
  {
    SimCache cache(4, dir.string());
    cache.put("k", value);
  }
  SimCache fresh(4, dir.string());
  const auto v = fresh.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, value);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Fault tolerance: corruption, torn writes, disk errors, startup hygiene.
// ---------------------------------------------------------------------------

class SimCacheFaults : public ::testing::Test {
 protected:
  void SetUp() override { util::fault::reset(); }
  void TearDown() override { util::fault::reset(); }
};

TEST_F(SimCacheFaults, CorruptedEntryIsQuarantinedNeverServed) {
  const fs::path dir = scratch_dir("corrupt");
  {
    SimCache cache(4, dir.string());
    cache.put("design-point", "precious report bytes");
  }
  // Flip the last payload byte; the stored checksum no longer matches.
  const fs::path entry = only_entry(dir);
  std::string raw = read_file(entry);
  ASSERT_FALSE(raw.empty());
  raw.back() ^= 0x01;
  write_file(entry, raw);

  SimCache fresh(4, dir.string());
  EXPECT_FALSE(fresh.get("design-point").has_value())
      << "a corrupt entry must read as a miss, never as data";
  const auto s = fresh.stats();
  EXPECT_EQ(s.disk_quarantined, 1u);
  EXPECT_EQ(count_with_extension(dir, ".sqz"), 0);
  EXPECT_EQ(count_with_extension(dir, ".bad"), 1);

  // The slot is reusable: a fresh put publishes and round-trips again.
  fresh.put("design-point", "precious report bytes");
  SimCache after(4, dir.string());
  const auto v = after.get("design-point");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "precious report bytes");
  fs::remove_all(dir);
}

TEST_F(SimCacheFaults, TruncatedEntrySkippedOnWarmRestart) {
  const fs::path dir = scratch_dir("truncated");
  {
    SimCache cache(4, dir.string());
    cache.put("kept", "value that stays intact");
    cache.put("mangled", "value that gets cut off");
  }
  // Truncate one entry mid-payload, plant a zero-length entry and a stray
  // tmp file: the crash-landing scenarios a warm restart must shrug off.
  bool truncated_one = false;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".sqz") continue;
    if (read_file(e.path()).find("cut off") == std::string::npos) continue;
    const std::string raw = read_file(e.path());
    write_file(e.path(), raw.substr(0, raw.size() / 2));
    truncated_one = true;
  }
  ASSERT_TRUE(truncated_one);
  write_file(dir / "00deadbeef000000.sqz", "");
  write_file(dir / "0badc0ffee000000.sqz.tmp", "leftover partial publish");

  SimCache fresh(4, dir.string());  // must construct, not crash
  // Startup swept the zero-length entry and the tmp leftover.
  EXPECT_FALSE(fs::exists(dir / "0badc0ffee000000.sqz.tmp"));
  EXPECT_EQ(fresh.stats().disk_quarantined, 1u);
  // The truncated entry dies lazily at first read; the intact one serves.
  EXPECT_FALSE(fresh.get("mangled").has_value());
  EXPECT_EQ(fresh.stats().disk_quarantined, 2u);
  const auto v = fresh.get("kept");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "value that stays intact");
  fs::remove_all(dir);
}

TEST_F(SimCacheFaults, PreChecksumFormatIsQuarantinedAsBadHeader) {
  const fs::path dir = scratch_dir("oldformat");
  {
    SimCache cache(4, dir.string());
    cache.put("design-point", "value");
  }
  // Rewrite the entry in the pre-checksum format: no magic, no checksum.
  write_file(only_entry(dir), "12 5\ndesign-pointvalue");
  SimCache cache(4, dir.string());
  EXPECT_FALSE(cache.get("design-point").has_value());
  EXPECT_EQ(cache.stats().disk_quarantined, 1u);
  fs::remove_all(dir);
}

TEST_F(SimCacheFaults, TornWriteIsCaughtByTheReadPath) {
  const fs::path dir = scratch_dir("torn");
  {
    SimCache cache(4, dir.string());
    // Publish only the first 12 bytes of the record (power loss mid-write).
    util::fault::arm("simcache.write", util::fault::make_short(12));
    cache.put("torn-key", "bytes that never fully land");
    EXPECT_EQ(util::fault::hits("simcache.write"), 1u);
  }
  SimCache fresh(4, dir.string());
  EXPECT_FALSE(fresh.get("torn-key").has_value());
  EXPECT_EQ(fresh.stats().disk_quarantined, 1u);
  fs::remove_all(dir);
}

TEST_F(SimCacheFaults, ReadErrorCountsButDoesNotQuarantine) {
  const fs::path dir = scratch_dir("readerr");
  {
    SimCache cache(4, dir.string());
    cache.put("k", "v");
  }
  SimCache fresh(4, dir.string());
  util::fault::arm("simcache.read", util::fault::make_errno(EIO));
  EXPECT_FALSE(fresh.get("k").has_value());
  auto s = fresh.stats();
  EXPECT_EQ(s.disk_errors, 1u);
  EXPECT_EQ(s.disk_quarantined, 0u) << "transient I/O error is not corruption";
  // The entry itself is fine: the next read (fault exhausted) serves it.
  const auto v = fresh.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "v");
  EXPECT_FALSE(fresh.stats().disk_demoted);
  fs::remove_all(dir);
}

TEST_F(SimCacheFaults, PersistentWriteFailureDemotesToMemoryOnly) {
  const fs::path dir = scratch_dir("demote");
  SimCache cache(8, dir.string());
  util::fault::arm("simcache.write", util::fault::make_errno(ENOSPC),
                   SimCache::kDiskFailureLimit);
  for (int i = 0; i < SimCache::kDiskFailureLimit; ++i)
    cache.put(numbered("k", i), numbered("v", i));
  auto s = cache.stats();
  EXPECT_EQ(s.disk_errors,
            static_cast<std::uint64_t>(SimCache::kDiskFailureLimit));
  EXPECT_TRUE(s.disk_demoted);

  // Demoted: later puts skip the disk entirely (the fault is exhausted, so
  // any file that appears would prove the tier was still live).
  cache.put("after-demotion", "still cached in memory");
  EXPECT_EQ(count_with_extension(dir, ".sqz"), 0);
  const auto v = cache.get("after-demotion");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "still cached in memory");
  fs::remove_all(dir);
}

TEST_F(SimCacheFaults, OneTransientWriteErrorDoesNotDemote) {
  const fs::path dir = scratch_dir("transient");
  SimCache cache(8, dir.string());
  util::fault::arm("simcache.write", util::fault::make_errno(ENOSPC));
  cache.put("a", "1");  // fails on disk, absorbed
  cache.put("b", "2");  // succeeds, resets the failure streak
  auto s = cache.stats();
  EXPECT_EQ(s.disk_errors, 1u);
  EXPECT_FALSE(s.disk_demoted);
  EXPECT_EQ(count_with_extension(dir, ".sqz"), 1);
  fs::remove_all(dir);
}

TEST(SimCache, ConcurrentPutGetIsSafe) {
  SimCache cache(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string key = numbered("k", (t * 31 + i) % 50);
        cache.put(key, "v" + key);
        const auto v = cache.get(key);
        if (v) {
          EXPECT_EQ(*v, "v" + key);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 50u);
  EXPECT_GT(s.hits, 0u);
}

}  // namespace
}  // namespace sqz::serve
