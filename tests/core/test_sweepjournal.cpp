#include "core/sweepjournal.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cli.h"
#include "util/faultinject.h"
#include "util/hash.h"

namespace sqz::core {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("sqz_journal_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(SweepJournal, RoundTripsAppendedRecords) {
  const std::string dir = fresh_dir("roundtrip");
  {
    SweepJournal j(dir);
    EXPECT_TRUE(j.entries().empty());
    j.append("point-a", "{\"cycles\":1}");
    j.append("point-b", "{\"cycles\":2}");
  }
  SweepJournal j(dir);
  EXPECT_FALSE(j.recovery().torn);
  EXPECT_EQ(j.recovery().records, 2u);
  ASSERT_EQ(j.entries().size(), 2u);
  EXPECT_EQ(j.entries().at("point-a"), "{\"cycles\":1}");
  EXPECT_EQ(j.entries().at("point-b"), "{\"cycles\":2}");
}

TEST(SweepJournal, LookupsDoNotRaceAppends) {
  // A served journal is shared by every concurrent sweep: one sweep's
  // restore lookups run while another sweep's points append, and an append
  // may rehash the table under the lookup.
  const std::string dir = fresh_dir("lookup_race");
  SweepJournal j(dir);
  constexpr int kKeys = 3000;
  std::atomic<bool> appended{false};
  std::thread writer([&] {
    for (int i = 0; i < kKeys; ++i)
      j.append("point-" + std::to_string(i), std::to_string(i));
    appended = true;
  });
  std::size_t found = 0;
  do {
    for (int i = 0; i < kKeys; i += 7) {
      const std::optional<std::string> v = j.find("point-" + std::to_string(i));
      if (!v) continue;
      EXPECT_EQ(*v, std::to_string(i));
      ++found;
    }
  } while (!appended);
  writer.join();
  EXPECT_GT(found, 0u);
  EXPECT_EQ(j.entries().size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(j.find("point-2999").value_or(""), "2999");
  EXPECT_FALSE(j.find("point-3000").has_value());
}

TEST(SweepJournal, LaterDuplicateKeyWins) {
  const std::string dir = fresh_dir("dup");
  {
    SweepJournal j(dir);
    j.append("point", "old");
    j.append("point", "new");
  }
  SweepJournal j(dir);
  ASSERT_EQ(j.entries().size(), 1u);
  EXPECT_EQ(j.entries().at("point"), "new");
}

TEST(SweepJournal, LaterDuplicateKeyWinsThroughFind) {
  const std::string dir = fresh_dir("dup_find");
  {
    SweepJournal j(dir);
    j.append("point", "old");
    j.append("other", "x");
    j.append("point", "new");
    EXPECT_EQ(j.find("point").value_or(""), "new");
  }
  SweepJournal j(dir);
  EXPECT_EQ(j.recovery().records, 3u);
  EXPECT_EQ(j.find("point").value_or(""), "new");
  EXPECT_EQ(j.find("other").value_or(""), "x");
}

TEST(SweepJournal, FindComparesTheFullKeyReadBackFromDisk) {
  // Memory holds only a hash and an offset per point: a hit must read the
  // record back and compare every key byte. Rot one byte of a committed
  // key under the open journal and the lookup has to miss.
  const std::string dir = fresh_dir("keyrot");
  SweepJournal j(dir);
  j.append("point-a", "{\"cycles\":1}");
  j.append("point-b", "{\"cycles\":2}");
  ASSERT_EQ(j.find("point-a").value_or(""), "{\"cycles\":1}");

  const std::string path = SweepJournal::journal_path(dir);
  const std::size_t at = read_file(path).find("point-a");
  ASSERT_NE(at, std::string::npos);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(at + 6));
    f.put('z');  // "point-a" -> "point-z"
  }
  EXPECT_FALSE(j.find("point-a").has_value());
  EXPECT_FALSE(j.find("point-z").has_value());  // indexed under "point-a"
  EXPECT_EQ(j.find("point-b").value_or(""), "{\"cycles\":2}");
  EXPECT_EQ(j.entries().count("point-a"), 0u);
}

TEST(SweepJournal, ThousandsOfKilobyteKeysResumeExactly) {
  // Design-point keys embed the model text, kilobytes each. Every one of
  // them must resume from the file alone.
  const std::string dir = fresh_dir("bigkeys");
  constexpr int kKeys = 2000;
  const auto key_of = [](int i) {
    std::string key(4096, 'm');
    const std::string tag = std::to_string(i);
    key.replace(key.size() / 2, tag.size(), tag);  // differ mid-key
    return key;
  };
  {
    SweepJournal j(dir);
    for (int i = 0; i < kKeys; ++i)
      j.append(key_of(i), "{\"cycles\":" + std::to_string(i) + "}");
  }
  {
    SweepJournal j(dir);
    EXPECT_FALSE(j.recovery().torn);
    EXPECT_EQ(j.recovery().records, static_cast<std::size_t>(kKeys));
    for (int i = 0; i < kKeys; ++i)
      ASSERT_EQ(j.find(key_of(i)).value_or(""),
                "{\"cycles\":" + std::to_string(i) + "}")
          << i;
    EXPECT_FALSE(j.find(key_of(kKeys)).has_value());
    EXPECT_EQ(j.entries().size(), static_cast<std::size_t>(kKeys));
  }
  fs::remove_all(dir);  // 8 MB of journal
}

TEST(SweepJournal, BinaryKeysAndValuesSurvive) {
  const std::string dir = fresh_dir("binary");
  const std::string key("k\0\n ey", 6);
  const std::string value("v\xff\x00\nalue", 8);
  {
    SweepJournal j(dir);
    j.append(key, value);
  }
  SweepJournal j(dir);
  ASSERT_EQ(j.entries().count(key), 1u);
  EXPECT_EQ(j.entries().at(key), value);
}

TEST(SweepJournal, TornTailIsDroppedAndTruncated) {
  const std::string dir = fresh_dir("torn");
  {
    SweepJournal j(dir);
    j.append("a", "1");
    j.append("b", "2");
  }
  // Crash mid-append: tear the last record's bytes.
  const std::string path = SweepJournal::journal_path(dir);
  const std::string full = read_file(path);
  fs::resize_file(path, full.size() - 3);

  {
    SweepJournal j(dir);
    EXPECT_TRUE(j.recovery().torn);
    EXPECT_EQ(j.recovery().records, 1u);
    EXPECT_GT(j.recovery().dropped_bytes, 0u);
    EXPECT_EQ(j.entries().count("a"), 1u);
    EXPECT_EQ(j.entries().count("b"), 0u);

    // The torn bytes were truncated away, so the next append starts on a
    // clean frame and a third open sees both records.
    j.append("c", "3");
  }
  SweepJournal j2(dir);
  EXPECT_FALSE(j2.recovery().torn);
  EXPECT_EQ(j2.recovery().records, 2u);
  EXPECT_EQ(j2.entries().count("c"), 1u);
}

TEST(SweepJournal, CorruptChecksumEndsTheTrustedPrefix) {
  const std::string dir = fresh_dir("bitrot");
  {
    SweepJournal j(dir);
    j.append("first", "1");
    j.append("second", "2");
    j.append("third", "3");
  }
  const std::string path = SweepJournal::journal_path(dir);
  std::string raw = read_file(path);
  // Flip one payload byte of the middle record.
  const std::size_t at = raw.find("second");
  ASSERT_NE(at, std::string::npos);
  raw[at] ^= 0x01;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << raw;

  // Nothing after a bad frame is believed: only the first record survives.
  SweepJournal j(dir);
  EXPECT_TRUE(j.recovery().torn);
  EXPECT_EQ(j.recovery().records, 1u);
  EXPECT_EQ(j.entries().count("first"), 1u);
  EXPECT_EQ(j.entries().count("third"), 0u);
}

TEST(SweepJournal, GarbageFileRecoversToEmpty) {
  const std::string dir = fresh_dir("garbage");
  fs::create_directories(dir);
  std::ofstream(SweepJournal::journal_path(dir), std::ios::binary)
      << "this is not a journal\nsqzw1 lies 0 0\n";
  {
    SweepJournal j(dir);
    EXPECT_TRUE(j.recovery().torn);
    EXPECT_EQ(j.recovery().records, 0u);
    EXPECT_TRUE(j.entries().empty());
    j.append("fresh", "start");
  }
  SweepJournal j2(dir);
  EXPECT_EQ(j2.recovery().records, 1u);
}

TEST(SweepJournal, HostileLengthHeaderIsRejectedNotOverflowed) {
  const std::string dir = fresh_dir("hostile");
  fs::create_directories(dir);
  // Lengths near SIZE_MAX must not wrap the bounds check into acceptance.
  std::ofstream(SweepJournal::journal_path(dir), std::ios::binary)
      << "sqzw1 18446744073709551615 7 0123456789abcdef\npayload";
  SweepJournal j(dir);
  EXPECT_EQ(j.recovery().records, 0u);
  EXPECT_TRUE(j.entries().empty());
}

TEST(SweepJournal, InjectedShortWritePublishesRecoverableTornRecord) {
  const std::string dir = fresh_dir("shortio");
  {
    SweepJournal j(dir);
    j.append("good", "1");
    util::fault::arm("sweepjournal.append", util::fault::make_short(10), 1);
    j.append("torn", "2");  // only 10 bytes of the record reach the file
    util::fault::reset();
  }
  SweepJournal j(dir);
  EXPECT_TRUE(j.recovery().torn);
  EXPECT_EQ(j.recovery().records, 1u);
  EXPECT_EQ(j.entries().count("good"), 1u);
  EXPECT_EQ(j.entries().count("torn"), 0u);
}

TEST(SweepJournal, InjectedShortWriteIsAMissInProcessToo) {
  // The torn record is not on disk in full, so it is not served before a
  // reopen either: the point re-simulates, as it would after a restart.
  const std::string dir = fresh_dir("shortio_live");
  SweepJournal j(dir);
  j.append("good", "1");
  util::fault::arm("sweepjournal.append", util::fault::make_short(10), 1);
  j.append("torn", "2");
  util::fault::reset();
  EXPECT_FALSE(j.find("torn").has_value());
  EXPECT_EQ(j.entries().count("torn"), 0u);
  EXPECT_EQ(j.find("good").value_or(""), "1");
  // Appends after the torn bytes are still located correctly in-process.
  j.append("after", "3");
  EXPECT_EQ(j.find("after").value_or(""), "3");
}

TEST(SweepJournal, InjectedAppendFailureThrowsLoudly) {
  const std::string dir = fresh_dir("enospc");
  SweepJournal j(dir);
  util::fault::arm("sweepjournal.append", util::fault::make_errno(ENOSPC), 1);
  EXPECT_THROW(j.append("k", "v"), SweepJournalError);
  util::fault::reset();
  // The journal object remains usable once the disk "recovers".
  j.append("k", "v");
  EXPECT_EQ(j.entries().count("k"), 1u);
}

TEST(SweepJournal, UnwritableDirectoryThrows) {
  EXPECT_THROW(SweepJournal("/proc/definitely/not/writable"),
               SweepJournalError);
}

TEST(SweepJournal, SecondConcurrentWriterIsRefused) {
  // The single-writer fence: as long as one writer holds the directory, a
  // second open throws SweepJournalLocked — this is what stops a
  // partitioned standby from promoting onto a live primary's journal.
  const std::string dir = fresh_dir("lock");
  {
    SweepJournal first(dir);
    first.append("k", "v");
    EXPECT_THROW({ SweepJournal second(dir); }, SweepJournalLocked);
    // The refused open must not have disturbed the holder.
    first.append("k2", "v2");
  }
  // Destruction releases the lock (as does a SIGKILLed holder process):
  // the next writer opens cleanly and sees everything.
  SweepJournal next(dir);
  EXPECT_EQ(next.recovery().records, 2u);
}

TEST(SweepJournal, LockIsReleasedWhenConstructionFailsAfterAcquiring) {
  // A construction failure *after* the lock is taken (here: the recovery
  // read works but the torn-tail truncate fails on a directory made
  // read-only) must release the lock, or the directory would be stranded
  // until process exit.
  const std::string dir = fresh_dir("lockfail");
  {
    SweepJournal j(dir);
    j.append("a", "1");
  }
  // Tear the tail so the next open needs resize_file, then deny writes on
  // the file so the truncate fails.
  const std::string path = SweepJournal::journal_path(dir);
  std::ofstream(path, std::ios::binary | std::ios::app) << "sqzw1 torn";
  fs::permissions(path, fs::perms::owner_read, fs::perm_options::replace);
  const bool denied = []() {
    // Root ignores permission bits; skip the failure leg if so.
    return ::geteuid() != 0;
  }();
  if (denied) {
    EXPECT_THROW({ SweepJournal failing(dir); }, SweepJournalError);
    fs::permissions(path, fs::perms::owner_all, fs::perm_options::replace);
    // The lock must be free again: a fresh open succeeds.
    SweepJournal j(dir);
    EXPECT_EQ(j.recovery().records, 1u);
  } else {
    fs::permissions(path, fs::perms::owner_all, fs::perm_options::replace);
  }
}

/// A correctly framed record with an arbitrary magic — what a newer (or
/// foreign) build would append. The checksum is genuine, so only the magic
/// distinguishes it from a record this build understands.
std::string framed_record(const char* magic, const std::string& key,
                          const std::string& value) {
  char header[128];
  std::snprintf(header, sizeof(header), "%s %zu %zu %016llx\n", magic,
                key.size(), value.size(),
                static_cast<unsigned long long>(util::fnv1a64(key + value)));
  return header + key + value;
}

TEST(SweepJournal, LegacyMembershipRecordsAreCountedAndIgnored) {
  // Earlier builds' coordinators appended sqzm1 fleet-membership events
  // between the points. This build writes none, but still knows the type:
  // such records count as records, are not skipped with a warning, and
  // leave the points intact.
  const std::string dir = fresh_dir("membership");
  {
    SweepJournal j(dir);
    j.append("point-a", "{\"cycles\":1}");
  }
  const std::string path = SweepJournal::journal_path(dir);
  std::ofstream(path, std::ios::binary | std::ios::app)
      << framed_record("sqzm1", "10.0.0.1:7070", "{\"event\":\"register\"}")
      << framed_record("sqzm1", "10.0.0.1:7070", "{\"event\":\"expire\"}")
      << framed_record("sqzw1", "point-b", "{\"cycles\":2}");
  {
    SweepJournal j(dir);
    EXPECT_FALSE(j.recovery().torn);
    EXPECT_EQ(j.recovery().records, 4u);
    EXPECT_EQ(j.recovery().skipped, 0u);
    ASSERT_EQ(j.entries().size(), 2u);
    EXPECT_EQ(j.find("point-b").value_or(""), "{\"cycles\":2}");
    EXPECT_FALSE(j.find("10.0.0.1:7070").has_value());
    j.append("point-c", "{\"cycles\":3}");
  }
  SweepJournal j(dir);
  EXPECT_EQ(j.recovery().records, 5u);
  EXPECT_EQ(j.entries().size(), 3u);
}

TEST(SweepJournal, UnknownRecordTypeIsSkippedNotFatal) {
  const std::string dir = fresh_dir("futuremagic");
  {
    SweepJournal j(dir);
    j.append("before", "1");
  }
  // A future build appends a record type this build has never heard of,
  // then a known record lands after it.
  const std::string path = SweepJournal::journal_path(dir);
  std::ofstream(path, std::ios::binary | std::ios::app)
      << framed_record("sqzx7", "future-key", "{\"novel\":true}")
      << framed_record("sqzw1", "after", "2");

  {
    SweepJournal j(dir);
    EXPECT_FALSE(j.recovery().torn);
    EXPECT_EQ(j.recovery().records, 2u);
    EXPECT_EQ(j.recovery().skipped, 1u);
    EXPECT_EQ(j.entries().count("before"), 1u);
    EXPECT_EQ(j.entries().count("after"), 1u);
    EXPECT_EQ(j.entries().count("future-key"), 0u);

    // Appends continue on a clean frame after the foreign record.
    j.append("resumed", "3");
  }
  SweepJournal j2(dir);
  EXPECT_EQ(j2.recovery().records, 3u);
  EXPECT_EQ(j2.recovery().skipped, 1u);
}

TEST(SweepJournal, UnknownRecordWithBadChecksumStillEndsThePrefix) {
  const std::string dir = fresh_dir("futurerot");
  {
    SweepJournal j(dir);
    j.append("first", "1");
  }
  // Forward compatibility must not become a corruption loophole: an
  // unknown-type record is only skippable behind a *valid* checksum.
  std::string forged = framed_record("sqzx7", "future", "payload");
  forged[forged.size() - 1] ^= 0x01;  // rot inside the payload
  const std::string path = SweepJournal::journal_path(dir);
  std::ofstream(path, std::ios::binary | std::ios::app)
      << forged << framed_record("sqzw1", "after", "2");

  SweepJournal j(dir);
  EXPECT_TRUE(j.recovery().torn);
  EXPECT_EQ(j.recovery().records, 1u);
  EXPECT_EQ(j.recovery().skipped, 0u);
  EXPECT_EQ(j.entries().count("after"), 0u);
}

TEST(SweepJournal, GoldenPreMembershipJournalReplaysUnchanged) {
  // tests/data/pre_membership.sqzj is a journal written before typed
  // records existed (sqzw1 only, checksums baked in). Rolling upgrades
  // depend on this build replaying it byte-for-byte-compatibly.
  const std::string golden =
      std::string(SQZ_TEST_DATA_DIR) + "/pre_membership.sqzj";
  const std::string raw = read_file(golden);
  ASSERT_FALSE(raw.empty()) << "missing golden: tests/data/pre_membership.sqzj";

  const std::string dir = fresh_dir("golden");
  fs::create_directories(dir);
  std::ofstream(SweepJournal::journal_path(dir), std::ios::binary) << raw;

  {
    SweepJournal j(dir);
    EXPECT_FALSE(j.recovery().torn);
    EXPECT_EQ(j.recovery().records, 3u);
    EXPECT_EQ(j.recovery().skipped, 0u);
    ASSERT_EQ(j.entries().size(), 2u);
    // The golden journal re-records rf=16;pe=4; later duplicate wins.
    EXPECT_EQ(j.entries().at("rf=16;pe=4"),
              "{\"cycles\":1020,\"energy_pj\":3.5}");
    EXPECT_EQ(j.entries().at("rf=32;pe=8"),
              "{\"cycles\":512,\"energy_pj\":5.25}");

  }
  // A membership-era build appended sqzm1 records to the same file: the
  // mixed journal still replays every point, and skips nothing.
  std::ofstream(SweepJournal::journal_path(dir),
                std::ios::binary | std::ios::app)
      << framed_record("sqzm1", "10.0.0.9:7070", "{\"event\":\"register\"}");
  SweepJournal j2(dir);
  EXPECT_EQ(j2.recovery().records, 4u);
  EXPECT_EQ(j2.recovery().skipped, 0u);
  EXPECT_EQ(j2.entries().size(), 2u);
}

TEST(SweepJournal, MembershipEraJournalResumesItsPointsByteIdentically) {
  // tests/data/membership_era.sqzj was written by a build whose
  // coordinators journaled fleet membership: `sqzsim --model tinydarknet
  // --sweep rf_entries=2,4` and then `rf_entries=2,4,8`, both with
  // --journal --resume, and around them six sqzm1 records (register,
  // expire, takeover) appended by that build's Coordinator. This build
  // counts those records, skips none, and resumes the three points.
  const std::string dir = fresh_dir("membership_era");
  fs::create_directories(dir);
  fs::copy_file(std::string(SQZ_TEST_DATA_DIR) + "/membership_era.sqzj",
                SweepJournal::journal_path(dir));
  {
    SweepJournal j(dir);
    EXPECT_FALSE(j.recovery().torn);
    EXPECT_EQ(j.recovery().records, 9u);
    EXPECT_EQ(j.recovery().skipped, 0u);
    EXPECT_EQ(j.entries().size(), 3u);
  }

  std::vector<std::string> args = {"--model", "tinydarknet", "--sweep",
                                   "rf_entries=2,4,8,16"};
  std::ostringstream plain, plain_err;
  ASSERT_EQ(run_cli(args, plain, plain_err), 0) << plain_err.str();
  args.insert(args.end(), {"--journal", dir, "--resume"});
  std::ostringstream out, err;
  ASSERT_EQ(run_cli(args, out, err), 0) << err.str();
  EXPECT_EQ(out.str(), plain.str());
  EXPECT_EQ(err.str(), "sqzsim: resumed 3 completed points\n");
}

}  // namespace
}  // namespace sqz::core
