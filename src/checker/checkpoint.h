//===- checker/checkpoint.h - Persistent monitor checkpoints -----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent checkpoints for the streaming Monitor: a versioned snapshot of
/// the complete monitoring state — the live window, the incremental wr
/// resolution, the saturation engine (including its dynamic topological
/// order, verbatim), the exactly-once delivery state, the format parser's
/// machine state, and the byte offset of the stream — so
/// `awdit monitor --resume <dir>` can restart mid-stream and emit exactly
/// the violations a never-killed monitor would have emitted after the
/// checkpoint (enforced by tests/test_checkpoint.cpp and the CI
/// kill-and-resume smoke).
///
/// Layout: one append-only mmap-backed segment store per checkpointed
/// stream (store/segment_store.h). The Monitor state is serialized in
/// *global* stream coordinates (see StateCoords in support/serialize.h) and
/// cut at stable chunk boundaries (ChunkMark), so window eviction's id
/// rebasing does not dirty untouched chunks and a checkpoint appends only
/// what changed — O(delta), not O(state). Each commit publishes an fsync'd
/// root record whose meta blob carries everything restore needs
/// out-of-band:
///
///   [u32 magic "AWCP"] [u32 CheckpointStoreVersion] [meta: format string,
///   MonitorOptions, stream cursor] [str machine-state blob]
///   [u32 window id base] [u64 count] [count x u64 session so-base]
///
/// Compatibility policy: CheckpointStoreVersion bumps on any change to the
/// root meta blob or the chunked state encoding, and a reader only accepts
/// its own version (checkpoints are operational state, not archival data —
/// a monitor restart across an awdit upgrade re-reads the stream instead).
/// Truncated or corrupted state fails with a clear error, never UB: every
/// count is bounds-checked against the remaining bytes and per-chunk and
/// per-root FNV-1a checksums cover every byte. A root is published only
/// after the chunks it references are durable, so a kill mid-write leaves
/// the previous checkpoint intact.
///
/// What counts as "layout": only durable logical state. The speculative
/// saturation machinery (per-flush epoch stamps, speculative rows and edge
/// buffers, adoption counters) is transient within one flush and
/// deliberately serialized nowhere, so enabling or disabling speculation —
/// or resuming on a machine with a different thread count — reads and
/// writes the same bytes. If epoch metadata ever becomes persistent (e.g.
/// cross-flush snapshot reuse), that is a layout change and must bump
/// CheckpointStoreVersion.
///
/// The monitor/machine serialization lives with the classes themselves
/// (Monitor::saveStateChunked, StreamMachine::saveState); this header owns
/// the meta block, the root encoding, and the store plumbing.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_CHECKPOINT_H
#define AWDIT_CHECKER_CHECKPOINT_H

#include "checker/monitor.h"

#include <memory>
#include <string>
#include <string_view>

namespace awdit {

/// Everything a resume needs before (and besides) the monitor state
/// itself: how the monitor was configured, which format the stream is in,
/// and where in the stream the snapshot was taken.
struct CheckpointMeta {
  /// Stream format: "native", "plume", or "dbcop".
  std::string Format;
  /// The monitor configuration at checkpoint time. A resume must run with
  /// exactly these options — the CLI rejects incompatible flags.
  MonitorOptions Options;
  /// Bytes of the stream fully applied; resume seeks here.
  uint64_t StreamOffset = 0;
  /// 1-based number of the last applied line.
  uint64_t LineNo = 0;
  /// Committed transactions applied so far.
  uint64_t CommittedTxns = 0;
  /// Checking passes run so far.
  uint64_t Flushes = 0;
};

/// Encodes a client-chosen stream id into a string safe to use as a file
/// name: [A-Za-z0-9._-] pass through (a leading '.' is encoded so a name
/// can never be hidden or traverse upward), everything else — slashes, NUL,
/// control bytes, spaces — becomes %XX. Injective on case-sensitive
/// filesystems (the server's supported deployment target), so distinct
/// stream ids cannot collide on one checkpoint store or sink file; on a
/// case-folding filesystem ids differing only in letter case would share
/// them.
std::string sanitizeStreamName(std::string_view Name);

namespace store {
class SegmentStore;
} // namespace store

/// The checkpoint layout version this build writes and reads. Bumps on any
/// change to the root meta blob layout or the chunked monitor-state
/// encoding.
inline constexpr uint32_t CheckpointStoreVersion = 3;

/// A checkpoint writer/reader over an append-only segment store: each
/// write() appends only the chunks whose bytes changed since the last
/// committed root (the store hash-gates unchanged chunks), then publishes
/// an fsync'd root whose meta blob carries everything restore needs
/// out-of-band — the CheckpointMeta, the format machine state, and the
/// coordinate bases (window id base, per-session so bases) that globalize
/// the chunk contents. Crash recovery is the store's: the last valid root
/// wins, torn tails are truncated.
class StoreCheckpointer {
public:
  StoreCheckpointer();
  ~StoreCheckpointer();
  StoreCheckpointer(const StoreCheckpointer &) = delete;
  StoreCheckpointer &operator=(const StoreCheckpointer &) = delete;

  /// Opens (creating if needed) the store at \p Dir for checkpointing.
  bool open(const std::string &Dir, std::string *Err);

  /// True when the opened store has a committed checkpoint to resume from.
  bool hasCheckpoint() const;

  /// Parses the CheckpointMeta from the current root. Cheap relative to a
  /// full restore; the CLI uses it to check flag compatibility before
  /// constructing the monitor.
  bool readMeta(CheckpointMeta &Meta, std::string *Err) const;

  /// Restores the full state into \p M (freshly constructed with the meta's
  /// Options) and hands back the machine-state bytes for
  /// StreamMachine::loadState.
  bool restore(Monitor &M, std::string &MachineState, std::string *Err) const;

  /// Checkpoints \p M: slices the chunked state at its marks, commits the
  /// changed chunks plus a fresh root. Durable once it returns true.
  bool write(const Monitor &M, std::string_view MachineState,
             const CheckpointMeta &Meta, std::string *Err);

  /// Bytes physically appended across all write() calls — changed chunk
  /// frames plus the root record each commit publishes. This is the full
  /// per-checkpoint write cost the O(delta) bench meters: unchanged state
  /// contributes only its root-table entry (a few dozen bytes per chunk),
  /// never its payload.
  uint64_t bytesAppended() const;
  uint64_t commits() const;

  /// True when \p Dir looks like a segment store (has a root log) — the
  /// only thing `--resume` accepts.
  static bool isStoreDir(const std::string &Dir);

private:
  std::unique_ptr<store::SegmentStore> Store;
};

/// Parses the CheckpointMeta out of a store root meta blob (the bytes
/// SegmentStore::rootMeta() returns) without touching the store — for
/// read-only inspectors like `awdit-store stats`.
bool decodeStoreCheckpointMeta(std::string_view MetaBlob,
                               CheckpointMeta &Meta, std::string *Err);

/// The checkpoint store directory of stream \p Stream inside \p Dir — the
/// multi-tenant server layout: one store per stream, named
/// `<dir>/<sanitized-stream>.store`.
std::string checkpointStoreDirFor(const std::string &Dir,
                                  std::string_view Stream);

/// Recursively removes a checkpoint store directory (used when a stream
/// ends cleanly and its state is no longer needed). Refuses to remove a
/// directory that does not look like a store.
bool removeStoreDir(const std::string &Dir, std::string *Err);

} // namespace awdit

#endif // AWDIT_CHECKER_CHECKPOINT_H
