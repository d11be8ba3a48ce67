#include "core/sweepjournal.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/faultinject.h"
#include "util/hash.h"
#include "util/logging.h"

namespace sqz::core {

namespace fs = std::filesystem;

namespace {

constexpr char kPointMagic[] = "sqzw1";
/// Fleet-membership events written by earlier builds: known, and ignored.
constexpr char kMembershipMagic[] = "sqzm1";
constexpr std::size_t kMagicLen = 5;  ///< "sqz" + two type characters.
constexpr std::size_t kMaxHeader = 96;

std::string render_record(const std::string& key, const std::string& value) {
  char header[kMaxHeader];
  std::snprintf(header, sizeof(header), "%s %zu %zu %016llx\n", kPointMagic,
                key.size(), value.size(),
                static_cast<unsigned long long>(
                    util::fnv1a64(key + value)));
  std::string record = header;
  record += key;
  record += value;
  return record;
}

/// One framed record located in the recovery buffer.
struct Frame {
  char magic[8] = {0};         ///< The 5-byte type tag, NUL-terminated.
  std::size_t payload_at = 0;  ///< Offset of the key bytes.
  std::size_t key_len = 0;
  std::size_t value_len = 0;
};

// Parse one record at `offset`. On success returns the offset one past the
// record and fills `frame`; 0 on any framing or checksum violation (the
// caller stops trusting the file from `offset` on). The type tag is *not*
// interpreted here: any "sqz??" record whose frame and checksum verify
// parses, so recovery can skip types this build does not know (forward
// compatibility).
std::size_t parse_record(const std::string& raw, std::size_t offset,
                         Frame& frame) {
  const std::size_t nl = raw.find('\n', offset);
  if (nl == std::string::npos || nl - offset > kMaxHeader) return 0;
  unsigned long long key_len = 0, value_len = 0, stored_sum = 0;
  if (std::sscanf(raw.c_str() + offset, "%7s %llu %llu %16llx", frame.magic,
                  &key_len, &value_len, &stored_sum) != 4 ||
      std::strlen(frame.magic) != kMagicLen ||
      std::strncmp(frame.magic, "sqz", 3) != 0)
    return 0;
  const std::size_t payload_at = nl + 1;
  // Length guards before the sum: hostile lengths must not wrap the check.
  if (key_len > raw.size() || value_len > raw.size()) return 0;
  if (key_len + value_len > raw.size() - payload_at) return 0;  // torn tail
  const std::string_view payload(raw.data() + payload_at, key_len + value_len);
  if (util::fnv1a64(payload) != stored_sum) return 0;
  frame.payload_at = payload_at;
  frame.key_len = key_len;
  frame.value_len = value_len;
  return payload_at + key_len + value_len;
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t put = 0;
  while (put < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + put, bytes.size() - put);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    put += static_cast<std::size_t>(n);
  }
  return true;
}

// Fill `buf` (already sized) from `fd` at `at`; false on an error or a file
// that ends early.
bool read_at(int fd, std::uint64_t at, std::string& buf) {
  std::size_t got = 0;
  while (got < buf.size()) {
    const ssize_t n = ::pread(fd, buf.data() + got, buf.size() - got,
                              static_cast<off_t>(at + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

std::size_t key_hash(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

}  // namespace

std::string SweepJournal::journal_path(const std::string& dir) {
  return dir + "/sweep.sqzj";
}

std::string SweepJournal::lock_path(const std::string& dir) {
  return dir + "/sweep.lock";
}

SweepJournal::SweepJournal(const std::string& dir)
    : path_(journal_path(dir)) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir))
    throw SweepJournalError("sweepjournal: cannot create journal dir '" +
                             dir + "'");

  // Writer fence, before the first byte is read: an exclusive flock held
  // for this object's lifetime. Recovery under the lock cannot race a
  // concurrent append, and a second writer (a partitioned standby trying
  // to promote onto a live primary's journal) is refused outright. flock
  // conflicts between separate open descriptions even within one process,
  // and evaporates with a SIGKILLed holder — no stale-lock cleanup.
  lock_fd_ = ::open(lock_path(dir).c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                    0644);
  if (lock_fd_ < 0)
    throw SweepJournalError("sweepjournal: cannot open " + lock_path(dir) +
                             ": " + std::strerror(errno));
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(lock_fd_);
    lock_fd_ = -1;
    if (err == EWOULDBLOCK)
      throw SweepJournalLocked(
          "sweepjournal: " + path_ +
          " is held by another live writer (journal dirs are single-writer)");
    throw SweepJournalError("sweepjournal: cannot lock " + lock_path(dir) +
                             ": " + std::strerror(err));
  }
  // From here on a throw must release the lock: a half-constructed object
  // never runs its destructor.
  try {
    open_and_recover();
  } catch (...) {
    ::close(lock_fd_);
    lock_fd_ = -1;
    throw;
  }
}

SweepJournal::~SweepJournal() {
  if (fd_ >= 0) ::close(fd_);
  if (lock_fd_ >= 0) ::close(lock_fd_);  // releases the flock
}

void SweepJournal::open_and_recover() {
  std::error_code ec;
  // Recovery: replay the valid record prefix, truncate everything after it.
  std::string raw;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      std::ostringstream bytes;
      bytes << in.rdbuf();
      if (in.bad())
        throw SweepJournalError("sweepjournal: cannot read " + path_);
      raw = bytes.str();
    }
  }
  std::size_t trusted = 0;
  while (trusted < raw.size()) {
    Frame f;
    const std::size_t next = parse_record(raw, trusted, f);
    if (next == 0) break;
    const std::string_view key(raw.data() + f.payload_at, f.key_len);
    if (std::strcmp(f.magic, kPointMagic) == 0) {
      index_point(key, f.payload_at, f.value_len);
      ++recovery_.records;
    } else if (std::strcmp(f.magic, kMembershipMagic) == 0) {
      ++recovery_.records;
    } else {
      // A record type this build does not know, behind a valid checksum: a
      // newer writer appended it. Skip it — failing recovery here would
      // strand every point already journaled (forward compatibility).
      ++recovery_.skipped;
      SQZ_LOG(Warn) << "sweepjournal: skipping unknown record type '"
                    << f.magic << "' (" << (next - trusted) << " bytes) in "
                    << path_;
    }
    trusted = next;
  }
  if (trusted < raw.size()) {
    recovery_.torn = true;
    recovery_.dropped_bytes = raw.size() - trusted;
    fs::resize_file(path_, trusted, ec);
    if (ec)
      throw SweepJournalError("sweepjournal: cannot truncate torn tail of " +
                               path_ + ": " + ec.message());
    SQZ_LOG(Warn) << "sweepjournal: dropped torn tail ("
                  << recovery_.dropped_bytes << " bytes) of " << path_
                  << "; " << recovery_.records << " records recovered";
  }
  end_ = trusted;

  fd_ = ::open(path_.c_str(), O_CREAT | O_RDWR | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0)
    throw SweepJournalError("sweepjournal: cannot open " + path_ +
                             " for append: " + std::strerror(errno));
}

void SweepJournal::index_point(std::string_view key, std::uint64_t at,
                               std::size_t value_len) {
  // A record too large for a slot is never served (a miss re-simulates it);
  // no sweep writes one.
  constexpr std::size_t kMaxLen = UINT32_MAX;
  if (key.size() > kMaxLen || value_len > kMaxLen) return;
  index_.emplace(key_hash(key),
                 Slot{at, static_cast<std::uint32_t>(key.size()),
                      static_cast<std::uint32_t>(value_len)});
}

void SweepJournal::append(const std::string& key, const std::string& value) {
  std::string record = render_record(key, value);
  const std::size_t header_len = record.size() - key.size() - value.size();

  // "sweepjournal.append" fault point: ShortIo publishes a torn record (the
  // crash-mid-write wire — recovery must drop it on the next open, and it
  // is not served in-process either), Errno models a full disk (the append
  // fails loudly; crash safety that silently stopped journaling would be a
  // lie).
  bool torn = false;
  if (util::fault::enabled()) {
    const util::fault::Action a = util::fault::at("sweepjournal.append");
    if (a.kind == util::fault::Kind::Errno)
      throw SweepJournalError("sweepjournal: append to " + path_ +
                               " failed (injected)");
    if (a.kind == util::fault::Kind::ShortIo && a.bytes < record.size()) {
      record.resize(a.bytes);
      torn = true;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t at = end_;
  if (!write_all(fd_, record)) {
    // Part of the record may have landed: the next record starts wherever
    // the file now ends.
    const off_t size = ::lseek(fd_, 0, SEEK_END);
    if (size >= 0) end_ = static_cast<std::uint64_t>(size);
    throw SweepJournalError("sweepjournal: append to " + path_ + " failed");
  }
  end_ += record.size();
  if (!torn) index_point(key, at + header_len, value.size());
}

std::optional<std::string> SweepJournal::find(const std::string& key) const {
  std::vector<Slot> slots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto [lo, hi] = index_.equal_range(key_hash(key));
    for (auto it = lo; it != hi; ++it)
      if (it->second.key_len == key.size()) slots.push_back(it->second);
  }
  // Later duplicates win: try the newest record first. The reads need no
  // lock, since an indexed record is fully written and never rewritten.
  std::sort(slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return a.at > b.at; });
  std::string record;
  for (const Slot& s : slots) {
    record.resize(std::size_t{s.key_len} + s.value_len);
    if (read_at(fd_, s.at, record) &&
        record.compare(0, key.size(), key) == 0)
      return record.substr(key.size());
  }
  return std::nullopt;
}

std::unordered_map<std::string, std::string> SweepJournal::entries() const {
  std::vector<Slot> slots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [hash, slot] : index_) slots.push_back(slot);
  }
  // Append order, so later duplicates overwrite earlier ones.
  std::sort(slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return a.at < b.at; });
  std::unordered_map<std::string, std::string> out;
  std::string record;
  for (const Slot& s : slots) {
    record.resize(std::size_t{s.key_len} + s.value_len);
    if (read_at(fd_, s.at, record))
      out[record.substr(0, s.key_len)] = record.substr(s.key_len);
  }
  return out;
}

}  // namespace sqz::core
