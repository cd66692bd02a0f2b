//===- store/root_log.h - fsync'd append-only root records -------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durability point of the segment store: `roots.awrl`, an append-only
/// file of checksummed root records. A commit appends one record (payload =
/// the serialized root: the live chunk table, see segment_store.h) and
/// fsync()s; the store's data segments were already synced before the
/// append, so the moment the record's last byte is durable, the commit is
/// published. Recovery scans forward from the start and truncates at the
/// first invalid record — a torn tail from a crash mid-append reverts to
/// the previous root, never to garbage. A whole record header with the
/// magic but another version is not a torn tail: another build wrote the
/// store, so open(), openReadOnly() and scanAll() refuse it with an error
/// naming both versions and change nothing on disk.
///
/// Record framing (all integers little-endian):
///
///   [u32 magic "AWRT"] [u32 version] [u64 seq] [u64 payload size]
///   [u64 XXH64 of payload] [payload]
///
/// Sequence numbers strictly increase; scanAll() (used by fsck) reports
/// every valid record, open() keeps only the last. The log is rotated —
/// rewritten via temp+rename with just the newest record — when it grows
/// past a threshold or when rotation is needed to unpin dead segments
/// (reclamation must not break an older root a concurrent reader of the
/// previous file generation may still hold; rename keeps that file alive
/// via its open descriptor).
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_STORE_ROOT_LOG_H
#define AWDIT_STORE_ROOT_LOG_H

#include <cstdint>
#include <string>
#include <vector>

namespace awdit {
namespace store {

/// The store framing version this build writes and reads: the root record
/// and chunk frame layouts and their checksum (XXH64 since version 2; FNV-1a
/// in version 1). The chunked state inside is versioned separately
/// (CheckpointStoreVersion, checker/checkpoint.h).
inline constexpr uint32_t RootLogVersion = 2;

/// A parsed root record (scanAll / lastPayload).
struct RootRecord {
  uint64_t Seq = 0;
  std::string Payload;
};

class RootLog {
public:
  RootLog() = default;
  ~RootLog();
  RootLog(const RootLog &) = delete;
  RootLog &operator=(const RootLog &) = delete;

  /// Opens (creating if absent) \p Dir/roots.awrl, scans it, truncates any
  /// torn tail, and positions for appending. Returns false only on I/O or
  /// structural errors that truncation cannot repair (e.g. unreadable
  /// file) and on a record of another version, which leaves the file
  /// untouched; a valid-but-empty log opens fine with hasRoot() == false.
  bool open(const std::string &Dir, std::string *Err);

  /// Opens read-only for inspection; no truncation is performed (a torn
  /// tail is simply ignored, as recovery would). Refuses a record of
  /// another version as open() does.
  bool openReadOnly(const std::string &Dir, std::string *Err);

  bool hasRoot() const { return HasLast; }
  uint64_t lastSeq() const { return LastSeq; }
  const std::string &lastPayload() const { return LastPayload; }

  /// Bytes currently in the log file (drives rotation policy).
  uint64_t sizeBytes() const { return FileBytes; }
  /// Valid records seen at open() plus appended since.
  uint64_t recordCount() const { return Records; }

  /// Appends one record with seq = lastSeq()+1 and fsync()s. On success
  /// the record is the published root (and \p Payload is kept as
  /// lastPayload()).
  bool append(std::string Payload, std::string *Err);

  /// Rewrites the log as a single record (the current last root) via
  /// temp + rename + directory fsync, then continues appending to the new
  /// file. No-op without a root.
  bool rotate(std::string *Err);

  /// Parses every valid record of \p Dir/roots.awrl in order, stopping at
  /// the first invalid byte (reported via \p TornTail). Fails on a record
  /// of another version. For awdit-store fsck.
  static bool scanAll(const std::string &Dir, std::vector<RootRecord> &Out,
                      bool &TornTail, std::string *Err);

  static std::string filePath(const std::string &Dir);

private:
  bool scanAndTruncate(std::string *Err);

  int Fd = -1;
  std::string Path;
  std::string Dir;
  bool ReadOnly = false;
  bool HasLast = false;
  uint64_t LastSeq = 0;
  std::string LastPayload;
  uint64_t FileBytes = 0;
  uint64_t Records = 0;
};

} // namespace store
} // namespace awdit

#endif // AWDIT_STORE_ROOT_LOG_H
