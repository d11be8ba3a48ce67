#include "core/sweepjournal.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "util/faultinject.h"
#include "util/hash.h"
#include "util/logging.h"

namespace sqz::core {

namespace fs = std::filesystem;

namespace {

constexpr char kPointMagic[] = "sqzw1";
constexpr char kMembershipMagic[] = "sqzm1";
constexpr std::size_t kMagicLen = 5;  ///< "sqz" + two type characters.
constexpr std::size_t kMaxHeader = 96;

std::string render_record(const char* magic, const std::string& key,
                          const std::string& value) {
  char header[kMaxHeader];
  std::snprintf(header, sizeof(header), "%s %zu %zu %016llx\n", magic,
                key.size(), value.size(),
                static_cast<unsigned long long>(
                    util::fnv1a64(key + value)));
  std::string record = header;
  record += key;
  record += value;
  return record;
}

// Parse one record at `offset`. On success returns the offset one past the
// record and fills `magic` with the record's 5-byte type tag; 0 on any
// framing or checksum violation (the caller stops trusting the file from
// `offset` on). The type tag is *not* interpreted here: any "sqz??" record
// whose frame and checksum verify parses, so recovery can skip types this
// build does not know (forward compatibility).
std::size_t parse_record(const std::string& raw, std::size_t offset,
                         std::string& magic, std::string& key,
                         std::string& value) {
  const std::size_t nl = raw.find('\n', offset);
  if (nl == std::string::npos || nl - offset > kMaxHeader) return 0;
  unsigned long long key_len = 0, value_len = 0, stored_sum = 0;
  char magic_buf[8] = {0};
  if (std::sscanf(raw.c_str() + offset, "%7s %llu %llu %16llx", magic_buf,
                  &key_len, &value_len, &stored_sum) != 4 ||
      std::strlen(magic_buf) != kMagicLen ||
      std::strncmp(magic_buf, "sqz", 3) != 0)
    return 0;
  const std::size_t payload_at = nl + 1;
  // Length guards before the sum: hostile lengths must not wrap the check.
  if (key_len > raw.size() || value_len > raw.size()) return 0;
  if (key_len + value_len > raw.size() - payload_at) return 0;  // torn tail
  const std::string_view payload(raw.data() + payload_at, key_len + value_len);
  if (util::fnv1a64(payload) != stored_sum) return 0;
  magic.assign(magic_buf);
  key.assign(payload.substr(0, key_len));
  value.assign(payload.substr(key_len, value_len));
  return payload_at + key_len + value_len;
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
    std::string magic, key, value;
    const std::size_t next = parse_record(raw, trusted, magic, key, value);
    if (next == 0) break;
    if (magic == kPointMagic) {
      entries_[std::move(key)] = std::move(value);
      ++recovery_.records;
    } else if (magic == kMembershipMagic) {
      membership_.emplace_back(std::move(key), std::move(value));
      ++recovery_.records;
    } else {
      // A record type this build does not know, behind a valid checksum: a
      // newer writer appended it. Skip it — failing recovery here would
      // strand every point already journaled (forward compatibility).
      ++recovery_.skipped;
      SQZ_LOG(Warn) << "sweepjournal: skipping unknown record type '" << magic
                    << "' (" << (next - trusted) << " bytes) in " << path_;
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

  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_)
    throw SweepJournalError("sweepjournal: cannot open " + path_ +
                             " for append");
}

void SweepJournal::append_record(const char* magic, const std::string& key,
                                 const std::string& value) {
  std::string record = render_record(magic, key, value);

  // "sweepjournal.append" fault point: ShortIo publishes a torn record (the
  // crash-mid-write wire — recovery must drop it on the next open), Errno
  // models a full disk (the append fails loudly; crash safety that silently
  // stopped journaling would be a lie).
  if (util::fault::enabled()) {
    const util::fault::Action a = util::fault::at("sweepjournal.append");
    if (a.kind == util::fault::Kind::Errno)
      throw SweepJournalError("sweepjournal: append to " + path_ +
                               " failed (injected)");
    if (a.kind == util::fault::Kind::ShortIo)
      record.resize(std::min(record.size(), a.bytes));
  }

  std::lock_guard<std::mutex> lock(mu_);
  out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  out_.flush();
  if (!out_.good())
    throw SweepJournalError("sweepjournal: append to " + path_ + " failed");
  if (std::strcmp(magic, kPointMagic) == 0)
    entries_[key] = value;
  else if (std::strcmp(magic, kMembershipMagic) == 0)
    membership_.emplace_back(key, value);
}

std::optional<std::string> SweepJournal::find(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::unordered_map<std::string, std::string> SweepJournal::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

void SweepJournal::append(const std::string& key, const std::string& value) {
  append_record(kPointMagic, key, value);
}

void SweepJournal::append_membership(const std::string& key,
                                     const std::string& value) {
  append_record(kMembershipMagic, key, value);
}

}  // namespace sqz::core
