//===- tools/awdit-store.cpp - Checkpoint-store inspector -------------------===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline inspector for awdit's copy-on-write checkpoint stores
/// (store/segment_store.h):
///
/// \code
///   awdit-store fsck <dir>    # verify every chunk of every root
///   awdit-store stats <dir>   # space accounting and the current root
/// \endcode
///
/// `fsck` exits 0 only when every root record in the log is fully
/// readable: each referenced chunk present in its segment with matching
/// id, size, and checksum, and no two live chunks of a root overlapping.
/// A torn tail on the root log (a crash mid-commit) is reported but is
/// not an error — recovery truncates it and resumes from the last
/// published root, which is exactly what fsck verified. `stats` prints
/// the per-segment live/dead byte ledger that reclamation works from,
/// plus the checkpoint meta of the current root.
///
//===----------------------------------------------------------------------===//

#include "checker/checkpoint.h"
#include "checker/checkpoint_chunks.h"
#include "store/segment_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

using namespace awdit;

namespace {

/// Human name of a chunk-section kind (checker/checkpoint_chunks.h).
/// Stores written by other producers may use kinds we do not know.
const char *chunkKindName(uint64_t Kind) {
  switch (static_cast<ckchunk::Kind>(Kind)) {
  case ckchunk::MTxns:
    return "monitor/txns";
  case ckchunk::MSess:
    return "monitor/sessions";
  case ckchunk::MMisc:
    return "monitor/misc";
  case ckchunk::MMeta:
    return "monitor/txn-meta";
  case ckchunk::SHdr:
    return "saturation/header";
  case ckchunk::SPos:
    return "saturation/topo-pos";
  case ckchunk::SOut:
    return "saturation/topo-out";
  case ckchunk::SIn:
    return "saturation/topo-in";
  case ckchunk::SSources:
    return "saturation/source-edges";
  case ckchunk::SQuar:
    return "saturation/quarantine";
  case ckchunk::SProc:
    return "saturation/processed";
  case ckchunk::SReaders:
    return "saturation/readers";
  case ckchunk::SHb:
    return "saturation/hb-rows";
  case ckchunk::SWriters:
    return "saturation/writer-index";
  case ckchunk::SRa:
    return "saturation/ra-state";
  case ckchunk::MWrites:
    return "monitor/write-sites";
  case ckchunk::MPending:
    return "monitor/pending-reads";
  case ckchunk::MWaiters:
    return "monitor/close-waiters";
  case ckchunk::MDirty:
    return "monitor/dirty";
  case ckchunk::MOpen:
    return "monitor/open-txns";
  case ckchunk::MForced:
    return "monitor/forced-aborts";
  case ckchunk::MSoBase:
    return "monitor/so-base";
  case ckchunk::MFp:
    return "monitor/fingerprints";
  case ckchunk::MCyc:
    return "monitor/cycle-txns";
  case ckchunk::MRep:
    return "monitor/reported";
  case ckchunk::MTail:
    return "monitor/tail";
  }
  return "unknown";
}

int usage() {
  std::fprintf(stderr, "usage:\n"
                       "  awdit-store fsck <dir>   # verify every chunk of"
                       " every root record\n"
                       "  awdit-store stats <dir>  # segment space ledger"
                       " and current root\n");
  return 2;
}

int cmdFsck(const std::string &Dir) {
  store::FsckReport Report;
  std::string Err;
  if (!store::SegmentStore::fsck(Dir, Report, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  std::printf("roots checked:   %" PRIu64 "\n", Report.Roots);
  std::printf("chunks checked:  %" PRIu64 "\n", Report.ChunksChecked);
  std::printf("segment files:   %" PRIu64 " (%" PRIu64 " stray)\n",
              Report.SegmentFiles, Report.StraySegmentFiles);
  if (Report.TornTail)
    std::printf("torn tail:       yes (unpublished commit; recovery "
                "truncates it)\n");
  for (const std::string &E : Report.Errors)
    std::printf("ERROR: %s\n", E.c_str());
  std::printf("%s\n", Report.clean() ? "clean" : "CORRUPT");
  return Report.clean() ? 0 : 1;
}

int cmdStats(const std::string &Dir) {
  std::string Err;
  if (!store::SegmentStore::isStoreDir(Dir)) {
    std::fprintf(stderr, "error: '%s' is not a checkpoint store "
                         "directory (no root log)\n",
                 Dir.c_str());
    return 2;
  }
  store::SegmentStore S;
  if (!S.openReadOnly(Dir, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  store::StoreStats St = S.stats();
  std::printf("root seq:        %" PRIu64 " (%" PRIu64 " records, %" PRIu64
              " log bytes)\n",
              St.LastRootSeq, St.RootRecords, St.RootLogBytes);
  std::printf("live chunks:     %" PRIu64 " (%" PRIu64 " bytes)\n",
              St.LiveChunks, St.LiveBytes);
  std::printf("dead bytes:      %" PRIu64 "\n", St.DeadBytes);
  std::printf("segments:        %" PRIu64 "\n", St.Segments);
  for (const store::SegmentInfo &Seg : St.PerSegment)
    std::printf("  seg-%06u  %8" PRIu64 " bytes, %6" PRIu64
                " live chunks, %8" PRIu64 " live bytes%s\n",
                Seg.Id, Seg.EndBytes, Seg.LiveChunks, Seg.LiveBytes,
                Seg.Open ? "  (open)" : "");

  // What the live bytes are made of: chunk count and payload bytes per
  // section kind (the id's top byte), largest first. This is the answer
  // to "why is my checkpoint this big" — e.g. a graph-heavy workload
  // shows up as saturation/edges dominating.
  struct KindAgg {
    uint64_t Chunks = 0;
    uint64_t Bytes = 0;
  };
  std::map<uint64_t, KindAgg> ByKind;
  for (const auto &[Id, Size] : S.chunkEntries()) {
    KindAgg &A = ByKind[Id >> 56];
    ++A.Chunks;
    A.Bytes += Size;
  }
  if (!ByKind.empty()) {
    std::vector<std::pair<uint64_t, KindAgg>> Order(ByKind.begin(),
                                                    ByKind.end());
    std::sort(Order.begin(), Order.end(),
              [](const auto &A, const auto &B) {
                return A.second.Bytes > B.second.Bytes;
              });
    std::printf("chunk kinds:\n");
    for (const auto &[Kind, A] : Order)
      std::printf("  %-24s %6" PRIu64 " chunks, %10" PRIu64 " bytes\n",
                  chunkKindName(Kind), A.Chunks, A.Bytes);
  }

  // The checkpoint riding on the root, when the root is one of ours.
  if (S.hasRoot()) {
    CheckpointMeta Meta;
    if (decodeStoreCheckpointMeta(S.rootMeta(), Meta, &Err))
      std::printf("checkpoint:      format=%s offset=%" PRIu64
                  " line=%" PRIu64 " flushes=%" PRIu64 "\n",
                  Meta.Format.c_str(), Meta.StreamOffset, Meta.LineNo,
                  Meta.Flushes);
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 3)
    return usage();
  std::string Cmd = Argv[1];
  std::string Dir = Argv[2];
  if (Cmd == "fsck")
    return cmdFsck(Dir);
  if (Cmd == "stats")
    return cmdStats(Dir);
  return usage();
}
