//===- store/segment_store.h - append-only CoW chunk store -------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent state store behind monitor checkpoints
/// (`awdit monitor --checkpoint-store DIR`): a directory of append-only
/// segment files plus a root log (store/root_log.h), both plain files
/// written with pwrite/write and read with pread/read — the store maps
/// nothing. State is stored as *chunks* — checksummed byte extents keyed by
/// a 64-bit id — and a commit publishes a complete chunk table (the
/// "root"):
///
///   - A commit is streamed: beginCommit(), then putChunk() once per chunk
///     of the new state in strictly ascending id order (a serializer hands
///     each chunk over as soon as it is complete), then finishCommit().
///     Chunks whose (id, size, XXH64) match the current root are carried
///     by reference — zero bytes written. Changed or new chunks are
///     appended to the open segment, each framed as
///     [u32 magic "AWCK"] [u32 size] [u64 id] [u64 hash] [payload] on a
///     64-byte boundary. That hash-gated copy-on-write is what makes a
///     steady-state checkpoint O(delta) in bytes written: the serializer
///     re-emits every chunk, the store writes only the ones that moved. A
///     commit holds one chunk and one bounded write buffer in memory, never
///     the state.
///   - Segments are written once: a strictly growing cursor, staged writes
///     made durable with fdatasync before any root referencing the bytes
///     (store/page_alloc.h). A full segment is sealed — synced and closed
///     for writing — and a fresh `seg-%06u.awseg` (default 4 MiB) is
///     started.
///   - The commit point is one fsync'd append to the root log. A crash at
///     any moment can only tear the root-log tail or the open segment's
///     unpublished extents — both invisible to the last published root —
///     so recovery is "truncate torn tail, open the segments the last root
///     names".
///
/// Space is reclaimed with per-segment refcounts (live chunks referencing
/// the segment under the current root): a sealed segment whose refcount
/// drops to zero is dead, and a sealed segment under 25% live is picked
/// (one per commit) as a relocation victim — its surviving chunks are
/// force-reappended so the whole segment dies. Dead segments are unlinked
/// inline by the commit that killed them, right after it rotates the root
/// log down to the current root, so no record on disk references a file
/// about to vanish. The store starts no thread.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_STORE_SEGMENT_STORE_H
#define AWDIT_STORE_SEGMENT_STORE_H

#include "store/page_alloc.h"
#include "store/root_log.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace awdit {
namespace store {

/// Target capacity of a data segment. Large enough that a steady-state
/// delta commit (tens to hundreds of KB) does not churn files, small
/// enough that one mostly-dead segment pins little space.
inline constexpr size_t SegmentTargetBytes = 4u << 20;

/// Rotate the root log down to one record when it outgrows this.
inline constexpr uint64_t RootLogRotateBytes = 256u << 10;

/// Relocate a sealed segment when less than this fraction of its bytes
/// are live under the current root.
inline constexpr double RelocateLiveFraction = 0.25;

/// Where a chunk lives under the current root.
struct ChunkEntry {
  uint32_t Seg = 0;
  uint64_t Offset = 0; ///< of the chunk header inside the segment
  uint32_t Size = 0;   ///< payload bytes (header excluded)
  uint64_t Hash = 0;   ///< checksum64 (XXH64) of the payload
};

/// A root's chunk table: (id, entry), strictly ascending by id.
using ChunkTable = std::vector<std::pair<uint64_t, ChunkEntry>>;

struct SegmentInfo {
  uint32_t Id = 0;
  uint64_t EndBytes = 0;   ///< bytes up to the last written extent
  uint64_t LiveBytes = 0;  ///< header+payload bytes live under the root
  uint64_t LiveChunks = 0; ///< refcount: live chunks in this segment
  bool Open = false;
};

struct StoreStats {
  uint64_t Segments = 0;
  uint64_t LiveChunks = 0;
  uint64_t LiveBytes = 0;
  uint64_t DeadBytes = 0; ///< written but no longer referenced
  uint64_t RootLogBytes = 0;
  uint64_t RootRecords = 0;
  uint64_t LastRootSeq = 0;
  std::vector<SegmentInfo> PerSegment;
};

struct FsckReport {
  uint64_t Roots = 0;
  uint64_t ChunksChecked = 0;
  uint64_t SegmentFiles = 0;
  uint64_t StraySegmentFiles = 0;
  bool TornTail = false;
  std::vector<std::string> Errors;
  bool clean() const { return Errors.empty(); }
};

class SegmentStore {
public:
  SegmentStore() = default;
  SegmentStore(const SegmentStore &) = delete;
  SegmentStore &operator=(const SegmentStore &) = delete;

  /// Opens \p Dir for committing, creating it if needed. Recovers from the
  /// last valid root: torn root-log tails are truncated, segment files no
  /// root references (unpublished leftovers of a crashed commit) are
  /// removed, referenced segments are opened read-only. A root log of
  /// another version (RootLogVersion) fails the open before any of that,
  /// so a store another build wrote is refused and left as it is.
  bool open(const std::string &Dir, std::string *Err);

  /// Opens \p Dir for inspection only (awdit-store): nothing is truncated,
  /// rotated, or unlinked.
  bool openReadOnly(const std::string &Dir, std::string *Err);

  /// True if \p Dir looks like a segment store (has a root log file) —
  /// how `--resume` tells a checkpoint store from any other directory.
  static bool isStoreDir(const std::string &Dir);

  bool hasRoot() const { return Roots.hasRoot(); }
  uint64_t rootSeq() const { return Roots.lastSeq(); }

  /// The caller-owned meta blob of the current root (checkpoint meta +
  /// machine state in the checkpoint usage).
  const std::string &rootMeta() const { return RootMetaBlob; }

  /// Ids of every chunk under the current root, ascending.
  std::vector<uint64_t> chunkIds() const;

  /// (id, payload bytes) of every chunk under the current root, ascending
  /// by id — what `awdit-store stats` groups into per-kind breakdowns
  /// (the kind lives in the id's top byte, support/serialize.h).
  std::vector<std::pair<uint64_t, uint32_t>> chunkEntries() const;

  /// Reads one chunk's payload, verifying the header and checksum.
  bool readChunk(uint64_t Id, std::string &Out, std::string *Err) const;

  /// Reads every chunk's payload into \p Out, concatenated in ascending id
  /// order — the reassembled state. Reserves the total once and reads each
  /// chunk straight into place, verifying it there.
  bool readAllChunks(std::string &Out, std::string *Err) const;

  /// Starts a streamed commit, discarding any unfinished one. Picks at most
  /// one mostly-dead segment to vacate: its surviving chunks are rewritten
  /// by this commit even when unchanged.
  bool beginCommit(std::string *Err);

  /// Adds chunk \p Id of the new root: carried by reference when its size
  /// and hash match the current root's chunk \p Id, appended otherwise.
  /// Ids must strictly increase within a commit; a duplicate or
  /// out-of-order id, like an I/O error, fails the commit — this call and
  /// every later one return false, and finishCommit() reports the first
  /// error. \p Bytes is not retained.
  bool putChunk(uint64_t Id, std::string_view Bytes, std::string *Err);

  /// Publishes the new root: \p MetaBlob plus exactly the chunks put since
  /// beginCommit(). On success the new root is durable; on failure
  /// (including an earlier putChunk failure) the previous root still
  /// stands and the next commit may proceed.
  bool finishCommit(const std::string &MetaBlob, std::string *Err);

  /// One whole commit of \p Chunks (ids strictly ascending): beginCommit,
  /// a putChunk per chunk, finishCommit.
  bool commit(const std::string &MetaBlob,
              const std::vector<std::pair<uint64_t, std::string_view>> &Chunks,
              std::string *Err);

  /// Cumulative bytes appended by commits through this handle — chunk
  /// frames plus root records. The O(delta) bench meters this.
  uint64_t bytesAppended() const { return BytesAppended; }
  uint64_t commits() const { return Commits; }

  StoreStats stats() const;

  /// Walks every valid root record, verifying each referenced chunk's
  /// bounds, header, and checksum, and cross-checking per-segment
  /// refcounts of the newest root. Standalone (no store instance).
  static bool fsck(const std::string &Dir, FsckReport &Report,
                   std::string *Err);

private:
  struct Segment {
    SegmentFile File;
    uint32_t Id = 0;
    std::string Path;
    uint64_t EndBytes = 0;
    uint64_t LiveBytes = 0;
    uint64_t LiveChunks = 0;
  };

  bool loadRootTable(std::string_view Payload, std::string *Err);
  bool openReferencedSegments(std::string *Err);
  const ChunkEntry *findChunk(uint64_t Id) const;
  bool readChunkInto(uint64_t Id, const ChunkEntry &E, char *Dst,
                     std::string *Err) const;
  bool ensureOpenSegment(size_t Need, std::string *Err);
  bool appendChunk(uint64_t Id, std::string_view Bytes, uint64_t Hash,
                   ChunkEntry &E, std::string *Err);
  bool failCommit(const std::string &Msg, std::string *Err);
  void recomputeLiveCounts();
  void reclaimDeadSegments();
  std::string segmentPath(uint32_t Id) const;

  std::string Dir;
  bool ReadOnly = false;
  RootLog Roots;
  std::string RootMetaBlob;
  ChunkTable Table;                     ///< current root's chunk table
  std::map<uint32_t, Segment> Segments; ///< open segment files by id
  uint32_t OpenSeg = UINT32_MAX;        ///< id of the writable segment
  uint32_t NextSegId = 0;
  uint64_t BytesAppended = 0;
  uint64_t Commits = 0;

  // The streamed commit in progress (beginCommit .. finishCommit).
  bool Committing = false;
  /// The commit's first failure; once set, the commit cannot publish.
  std::string CommitErr;
  uint32_t Victim = UINT32_MAX;
  ChunkTable NewTable;
  /// Entries of Table with ids below the last put id.
  size_t OldCursor = 0;
};

} // namespace store
} // namespace awdit

#endif // AWDIT_STORE_SEGMENT_STORE_H
