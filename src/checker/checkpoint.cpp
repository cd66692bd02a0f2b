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

/// What the layout's four slots for one-shot check knobs always hold: the
/// single-session RA fast path (on), the CC variant (0, Algorithm 3), the
/// pool's worker count (1) and its transaction threshold (4096). None is
/// an option any more, so a load reads and discards them, and every store
/// written before they were dropped holds exactly these bytes.
constexpr bool StoredSingleSessionFastPath = true;
constexpr uint8_t StoredCcChecker = 0;
constexpr uint32_t StoredThreads = 1;
constexpr uint64_t StoredParallelThreshold = 4096;

void saveOptions(ByteWriter &W, const MonitorOptions &O) {
  W.u8(static_cast<uint8_t>(O.Level));
  W.u64(O.CheckIntervalTxns);
  W.u64(O.WindowTxns);
  W.u64(O.WindowEdges);
  W.u64(O.WindowAgeTicks);
  W.u64(O.ForceAbortOpenTicks);
  W.u64(O.Check.MaxWitnesses);
  W.boolean(StoredSingleSessionFastPath);
  W.u8(StoredCcChecker);
  W.u32(StoredThreads);
  W.u64(StoredParallelThreshold);
}

/// False when the level byte names no isolation level: a crafted root with
/// valid checksums must be refused here, before anything switches on it.
bool loadOptions(ByteReader &R, MonitorOptions &O) {
  uint8_t Level = R.u8();
  if (Level > static_cast<uint8_t>(IsolationLevel::CausalConsistency))
    return false;
  O.Level = static_cast<IsolationLevel>(Level);
  O.CheckIntervalTxns = R.u64();
  O.WindowTxns = R.u64();
  O.WindowEdges = R.u64();
  O.WindowAgeTicks = R.u64();
  O.ForceAbortOpenTicks = R.u64();
  O.Check.MaxWitnesses = R.u64();
  (void)R.boolean(); // StoredSingleSessionFastPath
  (void)R.u8();      // StoredCcChecker
  (void)R.u32();     // StoredThreads
  (void)R.u64();     // StoredParallelThreshold
  return true;
}

void saveMeta(ByteWriter &W, const CheckpointMeta &Meta) {
  W.str(Meta.Format);
  saveOptions(W, Meta.Options);
  W.u64(Meta.StreamOffset);
  W.u64(Meta.LineNo);
  W.u64(Meta.CommittedTxns);
  W.u64(Meta.Flushes);
}

bool loadMeta(ByteReader &R, CheckpointMeta &Meta) {
  Meta.Format = R.str();
  if (!loadOptions(R, Meta.Options))
    return false;
  Meta.StreamOffset = R.u64();
  Meta.LineNo = R.u64();
  Meta.CommittedTxns = R.u64();
  Meta.Flushes = R.u64();
  return true;
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
  if (!loadMeta(R, Meta))
    return Fail("corrupted checkpoint store root (isolation level)");
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
  if (!Store->readAllChunks(Bytes, Err))
    return false;
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
  // Stream the state into a commit: each chunk goes to the store the
  // moment the serializer completes it, so the commit holds one chunk, not
  // the state. A failed put dooms the commit, and finishCommit reports it.
  struct StoreSink final : ChunkSink {
    store::SegmentStore &Store;
    explicit StoreSink(store::SegmentStore &S) : Store(S) {}
    void put(uint64_t Id, std::string_view Bytes) override {
      Store.putChunk(Id, Bytes, nullptr);
    }
  } Sink(*Store);
  if (!Store->beginCommit(Err))
    return false;
  uint32_t IdBase = 0;
  std::vector<uint64_t> SoBase;
  M.saveStateChunked(Sink, IdBase, SoBase);

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
  return Store->finishCommit(MetaBlob, Err);
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
