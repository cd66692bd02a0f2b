//===- checker/checkpoint_chunks.h - Checkpoint chunk kinds ------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The section-kind numbering of chunked (store-backed) checkpoints. Each
/// kind labels one section of the Monitor serialization stream, in stream
/// order; chunk ids are chunkId(Kind, Bucket) (see support/serialize.h) and
/// must be strictly increasing through the stream, so kinds here must stay
/// in the order the sections are written. The byte stream itself does not
/// depend on the numbering (marks are out-of-band), but a resume pairs
/// chunks written and read by the same build, so bump CheckpointStoreVersion
/// on any change that alters reassembly.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_CHECKPOINT_CHUNKS_H
#define AWDIT_CHECKER_CHECKPOINT_CHUNKS_H

#include <cstdint>

namespace awdit {
namespace ckchunk {

enum Kind : uint64_t {
  // Monitor window state.
  MTxns = 1, ///< live transactions, bucketed by global id >> 4
  MSess,     ///< per-session member lists, bucketed by member id >> 8
  MMisc,     ///< op totals + window base (dirty every checkpoint)
  MMeta,     ///< per-transaction meta, bucketed by global id >> 6
  // Saturation engine (kinds SPos..SPos+2 are claimed by the embedded
  // IncrementalTopoOrder serialization: positions, out-, in-adjacency).
  SHdr,
  SPos,
  SOut,
  SIn,
  SSources, ///< source-tagged edge lists, bucketed by (tag, id >> 4)
  SQuar,
  SProc,    ///< processed flags, bucketed by global id >> 8
  SReaders, ///< reader lists, bucketed by global id >> 4
  SHb,      ///< happens-before rows, bucketed by global id >> 4
  SWriters, ///< per-key writer index, bucketed by key >> 4
  SRa,      ///< per-session RA state, bucketed by session
  // Monitor resolution + delivery state.
  MWrites,  ///< write-site index, bucketed by key >> 4
  MPending, ///< pending reads, bucketed by key >> 4
  MWaiters, ///< close waiters, bucketed by global writer id >> 4
  MDirty,
  MOpen,
  MForced,
  MSoBase,
  MFp,  ///< delivery fingerprints, bucketed by insertion-sorted index >> 5
  MCyc, ///< reported cycle txns, bucketed by global id >> 6
  MRep, ///< reported violations, bucketed by index >> 4
  MTail ///< stats + cursors + flags (dirty every checkpoint)
};

} // namespace ckchunk
} // namespace awdit

#endif // AWDIT_CHECKER_CHECKPOINT_CHUNKS_H
