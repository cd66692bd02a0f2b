//===- store/segment_store.h - append-only CoW chunk store -------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent state store behind monitor checkpoints
/// (`awdit monitor --checkpoint-store DIR`): a directory of append-only,
/// mmap-backed segment files plus a root log (store/root_log.h). State is
/// stored as *chunks* — checksummed byte extents keyed by a 64-bit id —
/// and a commit publishes a complete chunk table (the "root"):
///
///   - The caller hands commit() the full chunk set for the new state.
///     Chunks whose (id, size, FNV-1a) match the current root are carried
///     by reference — zero bytes written. Changed or new chunks are
///     appended to the open segment, each framed as
///     [u32 magic "AWCK"] [u32 size] [u64 id] [u64 hash] [payload] on a
///     64-byte boundary. That hash-gated copy-on-write is what makes a
///     steady-state checkpoint O(delta): the serializer re-emits every
///     chunk, the store writes only the ones that moved.
///   - Segments are written once: a strictly growing cursor, msync before
///     any root referencing the bytes, mprotect(PROT_READ) sealing of
///     completed pages (store/page_alloc.h). Full segments are sealed and
///     a fresh `seg-%06u.awseg` (default 4 MiB) is started.
///   - The commit point is one fsync'd append to the root log. A crash at
///     any moment can only tear the root-log tail or the open segment's
///     unpublished extents — both invisible to the last published root —
///     so recovery is "truncate torn tail, map the segments the last root
///     names".
///
/// Space is reclaimed with per-segment refcounts (live chunks referencing
/// the segment under the current root): a sealed segment whose refcount
/// drops to zero is dead, and a sealed segment under 25% live is picked
/// (one per commit) as a relocation victim — its surviving chunks are
/// force-reappended so the whole segment dies. Dead segments are unlinked
/// by a background compactor thread, but only after the root log has been
/// rotated down to the current root, so no record on disk references a
/// file about to vanish.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_STORE_SEGMENT_STORE_H
#define AWDIT_STORE_SEGMENT_STORE_H

#include "store/page_alloc.h"
#include "store/root_log.h"

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
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
  uint64_t Hash = 0;   ///< FNV-1a of the payload
};

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
  ~SegmentStore();
  SegmentStore(const SegmentStore &) = delete;
  SegmentStore &operator=(const SegmentStore &) = delete;

  /// Opens \p Dir for committing, creating it if needed. Recovers from the
  /// last valid root: torn root-log tails are truncated, segment files no
  /// root references (unpublished leftovers of a crashed commit) are
  /// removed, referenced segments are mapped read-only.
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

  /// Publishes a new root: \p MetaBlob plus exactly the chunks in
  /// \p Chunks (ids must be unique). Unchanged chunks cost no data bytes.
  /// On success the new root is durable; on failure the previous root
  /// still stands.
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
    MappedSegment Map;
    uint32_t Id = 0;
    std::string Path;
    uint64_t EndBytes = 0;
    uint64_t LiveBytes = 0;
    uint64_t LiveChunks = 0;
  };

  bool loadRootTable(std::string_view Payload, std::string *Err);
  bool mapReferencedSegments(std::string *Err);
  bool ensureOpenSegment(size_t Need, std::string *Err);
  bool appendChunk(uint64_t Id, std::string_view Bytes, uint64_t Hash,
                   ChunkEntry &E, std::string *Err);
  void recomputeLiveCounts();
  void reclaimDeadSegments();
  std::string segmentPath(uint32_t Id) const;

  void startCompactor();
  void stopCompactor();
  void compactorMain();

  std::string Dir;
  bool ReadOnly = false;
  RootLog Roots;
  std::string RootMetaBlob;
  std::map<uint64_t, ChunkEntry> Table; ///< current root's chunk table
  std::map<uint32_t, Segment> Segments; ///< mapped segments by id
  uint32_t OpenSeg = UINT32_MAX;        ///< id of the writable segment
  uint32_t NextSegId = 0;
  uint64_t BytesAppended = 0;
  uint64_t Commits = 0;

  std::thread Compactor;
  std::mutex CompactorMu;
  std::condition_variable CompactorCv;
  std::vector<std::string> UnlinkQueue;
  bool CompactorStop = false;
};

} // namespace store
} // namespace awdit

#endif // AWDIT_STORE_SEGMENT_STORE_H
