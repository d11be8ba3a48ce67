// Write-ahead journal for design-space sweeps: crash safety for the batch
// path (ARCHITECTURE.md "Crash safety & resumable sweeps").
//
// A sweep evaluates hundreds of independent design points over hours; a
// SIGKILL (OOM killer, preempted batch node, ctrl-C) must not lose the
// points already computed. The journal is a single append-only file
// (`<dir>/sweep.sqzj`) of framed, typed records:
//
//   "<magic> <key-bytes> <value-bytes> <fnv1a-of-payload, 16 hex>\n<key><value>"
//
// Record types share the framing and differ only in the 5-byte magic
// ("sqz" + two type characters):
//
//   sqzw1  completed design point. Key = the canonical design-point string
//          (core/dse.h design_point_key — the same canonicalization
//          discipline as the serving cache, serve/simcache.h); value = the
//          point's metrics as compact JSON whose numbers round-trip
//          bit-exactly (util/json.h), so a resumed sweep reproduces the
//          uninterrupted dump byte for byte.
//   sqzm1  fleet-membership event, written by earlier builds' coordinators
//          (key = a worker's "host:port", value = a JSON event record). This
//          build writes none: fleet membership comes from the workers'
//          heartbeats (ARCHITECTURE.md "Dynamic membership & coordinator
//          HA"). Recovery recognizes the type, counts it in
//          Recovery::records and ignores it, so an older journal opens
//          without a warning.
//
// Forward compatibility: a record whose magic is "sqz??" but of a type this
// build does not know is *skipped with a warning* — provided its checksum
// verifies — instead of ending recovery. A newer coordinator can therefore
// append new record types without stranding the journal for older readers,
// and a pre-membership journal (sqzw1 only) replays unchanged under this
// build. Only a record that fails its checksum (bit rot, torn write) ends
// the trusted prefix.
//
// Atomicity comes from the framing, not from rename tricks: appends are
// flushed record-at-a-time, and a crash can only tear the *tail* record.
// Opening the journal replays the valid prefix, then truncates any torn
// tail so subsequent appends start on a clean frame — the classic WAL
// recovery. A record whose checksum fails mid-file (bit rot) also ends the
// trusted prefix: nothing after a bad frame is believed. The
// "sweepjournal.append" fault point (util/faultinject.h) lets chaos tests
// tear a record deterministically.
//
// Memory: the journal does not keep its point records in memory. Each
// point costs one in-memory index entry (about 40 bytes: the key's
// std::hash, the record's file offset, and its key and value lengths),
// whatever the size of its key — a design-point key embeds the whole model
// text, kilobytes per point. A lookup reads each candidate record back from
// the file with pread(2) and compares the full key, so a hash collision or
// a record changed on disk since it was indexed is a miss, never a wrong
// answer.
//
// Single-writer fence: a journal directory has exactly one writer at a
// time, enforced with an exclusive flock(2) on `<dir>/sweep.lock` held for
// the journal's lifetime. Opening a directory whose lock another *live*
// process (or object) holds throws SweepJournalLocked. The lock is the
// coordinator election: a standby coordinator promotes exactly when its
// open succeeds, so it never promotes onto a journal a live primary — hung
// or partitioned — is still appending to, since interleaved appends from
// two writers would corrupt the shared file both sides recover from. The
// lock dies with its holder: a SIGKILLed primary releases it automatically,
// so takeover after a real crash needs no cleanup step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

namespace sqz::core {

/// Journal failure (unwritable dir, torn-tail truncation failure, failed
/// append). Typed so the sweep engine can classify it as a PointError with
/// phase "journal" instead of mistaking it for a simulation failure.
class SweepJournalError : public std::runtime_error {
 public:
  explicit SweepJournalError(const std::string& what)
      : std::runtime_error(what) {}
};

/// The journal directory's writer lock is held by another live writer.
/// Distinct from SweepJournalError so a standby coordinator can treat it
/// as proof the primary is alive (refuse promotion) rather than as a
/// broken journal.
class SweepJournalLocked : public SweepJournalError {
 public:
  explicit SweepJournalLocked(const std::string& what)
      : SweepJournalError(what) {}
};

class SweepJournal {
 public:
  struct Recovery {
    std::size_t records = 0;        ///< Valid records replayed (all types).
    std::size_t skipped = 0;        ///< Unknown-type records skipped (valid
                                    ///< checksum, future/foreign magic).
    std::size_t dropped_bytes = 0;  ///< Torn/untrusted tail truncated away.
    bool torn = false;              ///< True when a tail was dropped.
  };

  /// Open (creating `dir` if needed) and recover: acquire the directory's
  /// exclusive writer lock, replay valid records into entries(), truncate
  /// any torn tail, and position for appends. Throws SweepJournalLocked
  /// when another live writer holds the lock, SweepJournalError when the
  /// directory or file cannot be opened.
  explicit SweepJournal(const std::string& dir);

  ~SweepJournal();  ///< Releases the writer lock.

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// The journaled metrics JSON of one completed point, recovered at open
  /// or appended since; nullopt when `key` has no record. Later duplicate
  /// records win. The record is read back from the file and its full key
  /// compared, so a record torn by an injected short write, or whose key no
  /// longer reads back intact, is a miss. Thread-safe against concurrent
  /// appends (a served journal is shared by every concurrent sweep).
  std::optional<std::string> find(const std::string& key) const;

  /// A snapshot of every completed point, recovered at open or appended
  /// since (key -> metrics JSON); later duplicate records win, matching
  /// append order. Reads every indexed record back from the file — for
  /// tests and tools, not per-point lookups (use find()).
  std::unordered_map<std::string, std::string> entries() const;

  const Recovery& recovery() const { return recovery_; }

  /// Append one completed point and flush. Thread-safe (the sweep engine
  /// journals from worker threads as points finish). Throws
  /// SweepJournalError when the write fails — a sweep that was promised
  /// crash safety must not silently lose it.
  void append(const std::string& key, const std::string& value);

  /// The journal file inside `dir`.
  static std::string journal_path(const std::string& dir);

  /// The writer-lock file inside `dir` (exclusive flock, held while open).
  static std::string lock_path(const std::string& dir);

 private:
  /// Constructor tail, run under the writer lock: replay, truncate any
  /// torn tail, open for append. Split out so a throw can release the lock
  /// (a half-constructed object never runs its destructor).
  void open_and_recover();

  /// Where one completed point's record lies in the file.
  struct Slot {
    std::uint64_t at = 0;  ///< Offset of the record's key bytes.
    std::uint32_t key_len = 0;
    std::uint32_t value_len = 0;
  };

  /// Index a point whose key and value bytes start at `at` (caller holds
  /// mu_ or is the constructor).
  void index_point(std::string_view key, std::uint64_t at,
                   std::size_t value_len);

  std::string path_;
  int lock_fd_ = -1;  ///< Exclusive flock on lock_path(); held until ~.
  int fd_ = -1;       ///< O_APPEND for appends, pread for lookups.
  mutable std::mutex mu_;
  std::uint64_t end_ = 0;  ///< File size: the next record's offset; mu_.
  /// std::hash of each point's key -> its record; guarded by mu_.
  std::unordered_multimap<std::size_t, Slot> index_;
  Recovery recovery_;
};

}  // namespace sqz::core
