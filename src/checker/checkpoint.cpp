//===- checker/checkpoint.cpp - Persistent monitor checkpoints -------------===//

#include "checker/checkpoint.h"

#include "obs/histogram.h"
#include "obs/trace.h"
#include "store/segment_store.h"
#include "support/serialize.h"

#include <filesystem>

using namespace awdit;

namespace {

constexpr uint32_t CheckpointMagic = 0x50435741; // "AWCP" little-endian

void saveOptions(ByteWriter &W, const MonitorOptions &O) {
  W.u8(static_cast<uint8_t>(O.Level));
  W.u64(O.CheckIntervalTxns);
  W.u64(O.WindowTxns);
  W.u64(O.WindowEdges);
  W.u64(O.WindowAgeTicks);
  W.u64(O.ForceAbortOpenTicks);
  W.u64(O.Check.MaxWitnesses);
  W.boolean(O.Check.UseSingleSessionFastPath);
  W.u8(static_cast<uint8_t>(O.Check.Cc));
  W.u32(O.Check.Threads);
  W.u64(O.Check.ParallelThreshold);
}

void loadOptions(ByteReader &R, MonitorOptions &O) {
  O.Level = static_cast<IsolationLevel>(R.u8());
  O.CheckIntervalTxns = R.u64();
  O.WindowTxns = R.u64();
  O.WindowEdges = R.u64();
  O.WindowAgeTicks = R.u64();
  O.ForceAbortOpenTicks = R.u64();
  O.Check.MaxWitnesses = R.u64();
  O.Check.UseSingleSessionFastPath = R.boolean();
  O.Check.Cc = static_cast<CcVariant>(R.u8());
  O.Check.Threads = R.u32();
  O.Check.ParallelThreshold = R.u64();
}

void saveMeta(ByteWriter &W, const CheckpointMeta &Meta) {
  W.str(Meta.Format);
  saveOptions(W, Meta.Options);
  W.u64(Meta.StreamOffset);
  W.u64(Meta.LineNo);
  W.u64(Meta.CommittedTxns);
  W.u64(Meta.Flushes);
}

void loadMeta(ByteReader &R, CheckpointMeta &Meta) {
  Meta.Format = R.str();
  loadOptions(R, Meta.Options);
  Meta.StreamOffset = R.u64();
  Meta.LineNo = R.u64();
  Meta.CommittedTxns = R.u64();
  Meta.Flushes = R.u64();
}

} // namespace

std::string awdit::sanitizeStreamName(std::string_view Name) {
  static const char Hex[] = "0123456789ABCDEF";
  std::string Out;
  Out.reserve(Name.size());
  for (size_t I = 0; I < Name.size(); ++I) {
    char C = Name[I];
    bool Safe = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                (C >= '0' && C <= '9') || C == '_' || C == '-' ||
                (C == '.' && I != 0);
    if (Safe) {
      Out += C;
    } else {
      Out += '%';
      Out += Hex[(static_cast<unsigned char>(C) >> 4) & 0xf];
      Out += Hex[static_cast<unsigned char>(C) & 0xf];
    }
  }
  // An empty id still needs a file name.
  if (Out.empty())
    Out = "%";
  return Out;
}

//===----------------------------------------------------------------------===//
// The segment-store checkpointer.
//===----------------------------------------------------------------------===//

namespace {

/// Parses the root meta blob:
///   [u32 magic "AWCP"] [u32 version] [meta] [str machine-state]
///   [u32 id-base] [u64 count] [count x u64 session so-base]
/// \p MachineState may be null when only the meta is wanted.
bool parseStoreMeta(std::string_view Blob, CheckpointMeta &Meta,
                    std::string *MachineState, uint32_t &IdBase,
                    std::vector<uint64_t> &SoBase, std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  ByteReader R(Blob);
  if (R.u32() != CheckpointMagic || !R.ok())
    return Fail("not an awdit checkpoint store root (bad magic)");
  uint32_t Version = R.u32();
  if (Version != CheckpointStoreVersion)
    return Fail("unsupported checkpoint store version " +
                std::to_string(Version) + " (this build reads version " +
                std::to_string(CheckpointStoreVersion) + ")");
  loadMeta(R, Meta);
  std::string Machine = R.str();
  if (MachineState)
    *MachineState = std::move(Machine);
  IdBase = R.u32();
  uint64_t N = R.u64();
  if (!R.checkCount(N, 8))
    return Fail("corrupted checkpoint store root (session base count)");
  SoBase.resize(N);
  for (uint64_t &V : SoBase)
    V = R.u64();
  if (!R.ok() || R.remaining() != 0)
    return Fail("corrupted checkpoint store root (meta blob)");
  return true;
}

} // namespace

StoreCheckpointer::StoreCheckpointer() = default;
StoreCheckpointer::~StoreCheckpointer() = default;

bool StoreCheckpointer::open(const std::string &Dir, std::string *Err) {
  Store = std::make_unique<store::SegmentStore>();
  if (!Store->open(Dir, Err)) {
    Store.reset();
    return false;
  }
  return true;
}

bool StoreCheckpointer::hasCheckpoint() const {
  return Store && Store->hasRoot();
}

bool StoreCheckpointer::readMeta(CheckpointMeta &Meta,
                                 std::string *Err) const {
  if (!hasCheckpoint()) {
    if (Err)
      *Err = "checkpoint store has no committed checkpoint";
    return false;
  }
  uint32_t IdBase = 0;
  std::vector<uint64_t> SoBase;
  return parseStoreMeta(Store->rootMeta(), Meta, nullptr, IdBase, SoBase,
                        Err);
}

bool StoreCheckpointer::restore(Monitor &M, std::string &MachineState,
                                std::string *Err) const {
  if (!hasCheckpoint()) {
    if (Err)
      *Err = "checkpoint store has no committed checkpoint";
    return false;
  }
  CheckpointMeta Meta;
  uint32_t IdBase = 0;
  std::vector<uint64_t> SoBase;
  if (!parseStoreMeta(Store->rootMeta(), Meta, &MachineState, IdBase, SoBase,
                      Err))
    return false;
  // Reassembly: chunk ids are assigned in stream-write order, strictly
  // increasing, so concatenating the live chunks in ascending id order
  // reproduces the serialized state byte-for-byte.
  std::string Bytes;
  std::string Chunk;
  for (uint64_t Id : Store->chunkIds()) {
    if (!Store->readChunk(Id, Chunk, Err))
      return false;
    Bytes += Chunk;
  }
  return M.loadStateChunked(Bytes, IdBase, SoBase, Err);
}

bool StoreCheckpointer::write(const Monitor &M, std::string_view MachineState,
                              const CheckpointMeta &Meta, std::string *Err) {
  AWDIT_SPAN("checkpoint.store");
  obs::ScopedLatency Lat(obs::metrics().CheckpointStoreCommit);
  if (!Store) {
    if (Err)
      *Err = "checkpoint store not open";
    return false;
  }
  std::string Bytes;
  std::vector<ChunkMark> Marks;
  uint32_t IdBase = 0;
  std::vector<uint64_t> SoBase;
  M.saveStateChunked(Bytes, Marks, IdBase, SoBase);

  std::string MetaBlob;
  ByteWriter W(MetaBlob);
  W.u32(CheckpointMagic);
  W.u32(CheckpointStoreVersion);
  saveMeta(W, Meta);
  W.str(MachineState);
  W.u32(IdBase);
  W.u64(SoBase.size());
  for (uint64_t V : SoBase)
    W.u64(V);

  // Slice the serialized state at its marks. A mark at offset X starts the
  // chunk [X, next mark); marks are emitted at offset 0 first, but guard
  // against an unmarked prefix anyway (chunk id 0 sorts before every real
  // id, so reassembly order stays correct).
  std::vector<std::pair<uint64_t, std::string_view>> Chunks;
  Chunks.reserve(Marks.size() + 1);
  std::string_view All(Bytes);
  if (!Marks.empty() && Marks.front().Offset != 0)
    Chunks.emplace_back(0, All.substr(0, Marks.front().Offset));
  else if (Marks.empty() && !Bytes.empty())
    Chunks.emplace_back(0, All);
  for (size_t I = 0; I < Marks.size(); ++I) {
    size_t End = I + 1 < Marks.size() ? Marks[I + 1].Offset : Bytes.size();
    Chunks.emplace_back(Marks[I].Id,
                        All.substr(Marks[I].Offset, End - Marks[I].Offset));
  }
  return Store->commit(MetaBlob, Chunks, Err);
}

uint64_t StoreCheckpointer::bytesAppended() const {
  return Store ? Store->bytesAppended() : 0;
}

uint64_t StoreCheckpointer::commits() const {
  return Store ? Store->commits() : 0;
}

bool StoreCheckpointer::isStoreDir(const std::string &Dir) {
  return store::SegmentStore::isStoreDir(Dir);
}

bool awdit::decodeStoreCheckpointMeta(std::string_view MetaBlob,
                                      CheckpointMeta &Meta,
                                      std::string *Err) {
  uint32_t IdBase = 0;
  std::vector<uint64_t> SoBase;
  return parseStoreMeta(MetaBlob, Meta, nullptr, IdBase, SoBase, Err);
}

std::string awdit::checkpointStoreDirFor(const std::string &Dir,
                                         std::string_view Stream) {
  return Dir + "/" + sanitizeStreamName(Stream) + ".store";
}

bool awdit::removeStoreDir(const std::string &Dir, std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  if (!store::SegmentStore::isStoreDir(Dir))
    return Fail("'" + Dir + "' is not a checkpoint store directory");
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  if (Ec)
    return Fail("cannot remove checkpoint store '" + Dir +
                "': " + Ec.message());
  return true;
}
