//===- store/segment_store.cpp - append-only CoW chunk store ----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "store/segment_store.h"

#include "support/serialize.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

namespace awdit {
namespace store {

namespace {

constexpr uint32_t ChunkMagic = 0x4B435741; // "AWCK" little-endian
constexpr size_t ChunkHeaderBytes = 4 + 4 + 8 + 8;
/// One chunk-table entry of a root record: id, segment, offset, size, hash.
constexpr size_t RootEntryBytes = 8 + 4 + 8 + 4 + 8;

bool setErr(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

bool makeDir(const std::string &Dir) {
  struct stat St;
  if (::stat(Dir.c_str(), &St) == 0)
    return S_ISDIR(St.st_mode);
  // Create missing parents too: the server derives per-stream store
  // directories under a configured root that need not exist yet.
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  return !Ec && std::filesystem::is_directory(Dir, Ec);
}

/// seg-%06u.awseg → segment id, or false for any other name.
bool parseSegmentName(const char *Name, uint32_t &Id) {
  unsigned V = 0;
  int Len = 0;
  if (std::sscanf(Name, "seg-%6u.awseg%n", &V, &Len) != 1)
    return false;
  if (Name[Len] != '\0')
    return false;
  Id = V;
  return true;
}

std::vector<std::pair<uint32_t, std::string>>
listSegmentFiles(const std::string &Dir) {
  std::vector<std::pair<uint32_t, std::string>> Out;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Out;
  while (struct dirent *E = ::readdir(D)) {
    uint32_t Id;
    if (parseSegmentName(E->d_name, Id))
      Out.emplace_back(Id, Dir + "/" + E->d_name);
  }
  ::closedir(D);
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::string encodeRootPayload(const std::string &MetaBlob,
                              const ChunkTable &Table) {
  std::string Out;
  Out.reserve(8 + MetaBlob.size() + 8 + Table.size() * RootEntryBytes);
  ByteWriter W(Out);
  W.str(MetaBlob);
  W.u64(Table.size());
  for (const auto &[Id, E] : Table) {
    W.u64(Id);
    W.u32(E.Seg);
    W.u64(E.Offset);
    W.u32(E.Size);
    W.u64(E.Hash);
  }
  return Out;
}

bool decodeRootPayload(std::string_view Payload, std::string &MetaBlob,
                       ChunkTable &Table, std::string *Err) {
  ByteReader R(Payload);
  MetaBlob = R.str();
  uint64_t N = R.u64();
  Table.clear();
  if (!R.checkCount(N, RootEntryBytes))
    return setErr(Err, "root record chunk table overruns payload");
  Table.reserve(N);
  for (uint64_t I = 0; I < N; ++I) {
    uint64_t Id = R.u64();
    ChunkEntry E;
    E.Seg = R.u32();
    E.Offset = R.u64();
    E.Size = R.u32();
    E.Hash = R.u64();
    if (!Table.empty() && Id == Table.back().first)
      return setErr(Err, "root record repeats chunk id");
    if (!Table.empty() && Id < Table.back().first)
      return setErr(Err, "root record chunk ids out of order");
    Table.emplace_back(Id, E);
  }
  if (!R.ok() || R.remaining() != 0)
    return setErr(Err, "malformed root record payload");
  return true;
}

/// Orders a chunk table's entries against an id (for binary search).
bool idBelow(const std::pair<uint64_t, ChunkEntry> &Entry, uint64_t Id) {
  return Entry.first < Id;
}

/// Validates one chunk extent against its segment file and reads the
/// payload into \p Dst (E.Size bytes), checksumming it there. Shared by
/// the reads of a live store and by fsck.
bool checkAndReadChunk(const SegmentFile &Seg, uint64_t Id,
                       const ChunkEntry &E, char *Dst, std::string *Err) {
  if (E.Offset + ChunkHeaderBytes + E.Size > Seg.capacity() ||
      E.Offset + ChunkHeaderBytes + E.Size < E.Offset)
    return setErr(Err, "chunk extent out of segment bounds");
  char Header[ChunkHeaderBytes];
  iovec V[2] = {{Header, ChunkHeaderBytes}, {Dst, E.Size}};
  if (!Seg.readv(E.Offset, V, 2, Err))
    return false;
  ByteReader R(Header, ChunkHeaderBytes);
  if (R.u32() != ChunkMagic)
    return setErr(Err, "chunk header magic mismatch");
  if (R.u32() != E.Size)
    return setErr(Err, "chunk header size mismatch");
  if (R.u64() != Id)
    return setErr(Err, "chunk header id mismatch");
  uint64_t StoredHash = R.u64();
  if (StoredHash != E.Hash)
    return setErr(Err, "chunk header hash differs from root entry");
  if (checksum64(std::string_view(Dst, E.Size)) != E.Hash)
    return setErr(Err, "chunk payload checksum mismatch");
  return true;
}

} // namespace

std::string SegmentStore::segmentPath(uint32_t Id) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "seg-%06u.awseg", Id);
  return Dir + "/" + Name;
}

bool SegmentStore::isStoreDir(const std::string &Dir) {
  struct stat St;
  return ::stat(RootLog::filePath(Dir).c_str(), &St) == 0 &&
         S_ISREG(St.st_mode);
}

bool SegmentStore::loadRootTable(std::string_view Payload, std::string *Err) {
  return decodeRootPayload(Payload, RootMetaBlob, Table, Err);
}

bool SegmentStore::openReferencedSegments(std::string *Err) {
  std::set<uint32_t> Needed;
  for (const auto &[Id, E] : Table)
    Needed.insert(E.Seg);
  for (uint32_t SegId : Needed) {
    Segment S;
    S.Id = SegId;
    S.Path = segmentPath(SegId);
    if (!S.File.openExisting(S.Path, Err))
      return false;
    Segments.emplace(SegId, std::move(S));
  }
  return true;
}

bool SegmentStore::open(const std::string &D, std::string *Err) {
  Dir = D;
  ReadOnly = false;
  if (!makeDir(Dir))
    return setErr(Err, "cannot create store directory '" + Dir + "'");
  if (!Roots.open(Dir, Err))
    return false;
  Table.clear();
  Segments.clear();
  RootMetaBlob.clear();
  if (Roots.hasRoot()) {
    if (!loadRootTable(Roots.lastPayload(), Err))
      return false;
    if (!openReferencedSegments(Err))
      return false;
  }
  // Collapse the log to the recovered root, then clear crash leftovers:
  // any segment file no longer referenced (an unpublished commit's new
  // segment, or a dead segment a crash kept from being unlinked).
  if (Roots.hasRoot() && !Roots.rotate(Err))
    return false;
  NextSegId = 0;
  for (const auto &[SegId, Path] : listSegmentFiles(Dir)) {
    NextSegId = std::max(NextSegId, SegId + 1);
    if (!Segments.count(SegId))
      ::unlink(Path.c_str());
  }
  recomputeLiveCounts();
  OpenSeg = UINT32_MAX; // appends start a fresh segment
  return true;
}

bool SegmentStore::openReadOnly(const std::string &D, std::string *Err) {
  Dir = D;
  ReadOnly = true;
  if (!Roots.openReadOnly(Dir, Err))
    return false;
  Table.clear();
  Segments.clear();
  RootMetaBlob.clear();
  if (Roots.hasRoot()) {
    if (!loadRootTable(Roots.lastPayload(), Err))
      return false;
    if (!openReferencedSegments(Err))
      return false;
  }
  recomputeLiveCounts();
  return true;
}

std::vector<uint64_t> SegmentStore::chunkIds() const {
  std::vector<uint64_t> Ids;
  Ids.reserve(Table.size());
  for (const auto &[Id, E] : Table)
    Ids.push_back(Id);
  return Ids;
}

std::vector<std::pair<uint64_t, uint32_t>>
SegmentStore::chunkEntries() const {
  std::vector<std::pair<uint64_t, uint32_t>> Entries;
  Entries.reserve(Table.size());
  for (const auto &[Id, E] : Table)
    Entries.emplace_back(Id, E.Size);
  return Entries;
}

const ChunkEntry *SegmentStore::findChunk(uint64_t Id) const {
  auto It = std::lower_bound(Table.begin(), Table.end(), Id, idBelow);
  return It != Table.end() && It->first == Id ? &It->second : nullptr;
}

bool SegmentStore::readChunkInto(uint64_t Id, const ChunkEntry &E, char *Dst,
                                 std::string *Err) const {
  auto SegIt = Segments.find(E.Seg);
  if (SegIt == Segments.end())
    return setErr(Err, "chunk references an unopened segment");
  return checkAndReadChunk(SegIt->second.File, Id, E, Dst, Err);
}

bool SegmentStore::readChunk(uint64_t Id, std::string &Out,
                             std::string *Err) const {
  const ChunkEntry *E = findChunk(Id);
  if (!E)
    return setErr(Err, "chunk not present under the current root");
  Out.resize(E->Size);
  return readChunkInto(Id, *E, Out.data(), Err);
}

bool SegmentStore::readAllChunks(std::string &Out, std::string *Err) const {
  size_t Total = 0;
  for (const auto &[Id, E] : Table)
    Total += E.Size;
  Out.clear();
  Out.reserve(Total);
  for (const auto &[Id, E] : Table) {
    size_t At = Out.size();
    Out.resize(At + E.Size);
    if (!readChunkInto(Id, E, Out.data() + At, Err))
      return false;
  }
  return true;
}

bool SegmentStore::ensureOpenSegment(size_t Need, std::string *Err) {
  size_t Framed = alignUp(Need, ChunkAlign);
  if (OpenSeg != UINT32_MAX) {
    Segment &S = Segments.at(OpenSeg);
    if (alignUp(S.File.used(), ChunkAlign) + Framed <= S.File.capacity())
      return true;
    // Full: make it durable and close it for writing, then start a fresh
    // file.
    if (!S.File.seal(Err))
      return false;
    OpenSeg = UINT32_MAX;
  }
  Segment S;
  S.Id = NextSegId++;
  S.Path = segmentPath(S.Id);
  if (!S.File.create(S.Path, std::max(Framed, SegmentTargetBytes), Err))
    return false;
  uint32_t Id = S.Id;
  Segments.emplace(Id, std::move(S));
  OpenSeg = Id;
  return true;
}

bool SegmentStore::appendChunk(uint64_t Id, std::string_view Bytes,
                               uint64_t Hash, ChunkEntry &E,
                               std::string *Err) {
  if (Bytes.size() > UINT32_MAX - ChunkHeaderBytes)
    return setErr(Err, "chunk exceeds the 4 GiB frame limit");
  size_t Need = ChunkHeaderBytes + Bytes.size();
  if (!ensureOpenSegment(Need, Err))
    return false;
  Segment &S = Segments.at(OpenSeg);
  size_t Off = S.File.allocate(Need);
  if (Off == SIZE_MAX)
    return setErr(Err, "segment allocation failed after ensure");
  std::string Header;
  ByteWriter W(Header);
  W.u32(ChunkMagic);
  W.u32(static_cast<uint32_t>(Bytes.size()));
  W.u64(Id);
  W.u64(Hash);
  if (!S.File.write(Off, Header, Err) ||
      !S.File.write(Off + ChunkHeaderBytes, Bytes, Err))
    return false;
  S.EndBytes = S.File.used();
  E.Seg = S.Id;
  E.Offset = Off;
  E.Size = static_cast<uint32_t>(Bytes.size());
  E.Hash = Hash;
  BytesAppended += Need;
  return true;
}

void SegmentStore::recomputeLiveCounts() {
  for (auto &[SegId, S] : Segments) {
    S.LiveBytes = 0;
    S.LiveChunks = 0;
  }
  for (const auto &[Id, E] : Table) {
    auto It = Segments.find(E.Seg);
    if (It == Segments.end())
      continue;
    It->second.LiveBytes += ChunkHeaderBytes + E.Size;
    It->second.LiveChunks += 1;
    It->second.EndBytes = std::max(
        It->second.EndBytes,
        static_cast<uint64_t>(E.Offset + ChunkHeaderBytes + E.Size));
  }
}

bool SegmentStore::failCommit(const std::string &Msg, std::string *Err) {
  if (CommitErr.empty())
    CommitErr = Msg;
  return setErr(Err, CommitErr);
}

bool SegmentStore::beginCommit(std::string *Err) {
  if (ReadOnly)
    return setErr(Err, "store opened read-only");
  Committing = true;
  CommitErr.clear();
  NewTable.clear();
  NewTable.reserve(Table.size());
  OldCursor = 0;

  // Pick at most one mostly-dead sealed segment to vacate this commit: its
  // surviving chunks are treated as changed so nothing live remains in it.
  Victim = UINT32_MAX;
  for (const auto &[SegId, S] : Segments) {
    if (SegId == OpenSeg || S.LiveChunks == 0 || S.EndBytes == 0)
      continue;
    if (static_cast<double>(S.LiveBytes) <
        RelocateLiveFraction * static_cast<double>(S.EndBytes)) {
      Victim = SegId;
      break;
    }
  }
  return true;
}

bool SegmentStore::putChunk(uint64_t Id, std::string_view Bytes,
                            std::string *Err) {
  if (!Committing)
    return setErr(Err, "no commit in progress");
  if (!CommitErr.empty())
    return setErr(Err, CommitErr);
  if (!NewTable.empty() && Id == NewTable.back().first)
    return failCommit("duplicate chunk id in commit", Err);
  if (!NewTable.empty() && Id < NewTable.back().first)
    return failCommit("chunk id out of order in commit", Err);
  uint64_t Hash = checksum64(Bytes);
  // Ids arrive ascending, so the current root's entry for Id (if any) is
  // found by walking the old table forward.
  while (OldCursor < Table.size() && Table[OldCursor].first < Id)
    ++OldCursor;
  ChunkEntry E;
  if (OldCursor < Table.size() && Table[OldCursor].first == Id &&
      Table[OldCursor].second.Hash == Hash &&
      Table[OldCursor].second.Size == Bytes.size() &&
      Table[OldCursor].second.Seg != Victim) {
    E = Table[OldCursor].second; // unchanged: carry by reference
  } else {
    std::string Msg;
    if (!appendChunk(Id, Bytes, Hash, E, &Msg))
      return failCommit(Msg, Err);
  }
  NewTable.emplace_back(Id, E);
  return true;
}

bool SegmentStore::finishCommit(const std::string &MetaBlob,
                                std::string *Err) {
  if (!Committing)
    return setErr(Err, "no commit in progress");
  Committing = false;
  ChunkTable Next = std::move(NewTable); // released on every early return
  if (!CommitErr.empty())
    return setErr(Err, CommitErr);

  // Data before root: everything the new root references must be durable
  // before the root record that publishes it.
  if (OpenSeg != UINT32_MAX && !Segments.at(OpenSeg).File.sync(Err))
    return false;

  std::string Payload = encodeRootPayload(MetaBlob, Next);
  uint64_t PayloadBytes = Payload.size();
  if (!Roots.append(std::move(Payload), Err))
    return false;
  BytesAppended += PayloadBytes;

  // Published: the new table is the truth from here on.
  Table = std::move(Next);
  RootMetaBlob = MetaBlob;
  ++Commits;
  recomputeLiveCounts();
  reclaimDeadSegments();
  return true;
}

bool SegmentStore::commit(
    const std::string &MetaBlob,
    const std::vector<std::pair<uint64_t, std::string_view>> &Chunks,
    std::string *Err) {
  if (!beginCommit(Err))
    return false;
  for (const auto &[Id, Bytes] : Chunks)
    if (!putChunk(Id, Bytes, Err))
      break;
  return finishCommit(MetaBlob, Err);
}

void SegmentStore::reclaimDeadSegments() {
  std::vector<uint32_t> Dead;
  for (const auto &[SegId, S] : Segments)
    if (SegId != OpenSeg && S.LiveChunks == 0)
      Dead.push_back(SegId);
  bool WantRotate = !Dead.empty() || Roots.sizeBytes() > RootLogRotateBytes;
  if (!WantRotate)
    return;
  // Rotation first: after it, no on-disk root record references the dead
  // files, so unlinking them cannot orphan a recoverable root.
  if (!Roots.rotate(nullptr))
    return; // keep the files; a failed rotation only wastes space
  for (uint32_t SegId : Dead) {
    std::string Path = Segments.at(SegId).Path;
    Segments.erase(SegId); // closes the file
    ::unlink(Path.c_str());
  }
}

StoreStats SegmentStore::stats() const {
  StoreStats St;
  St.Segments = Segments.size();
  St.RootLogBytes = Roots.sizeBytes();
  St.RootRecords = Roots.recordCount();
  St.LastRootSeq = Roots.lastSeq();
  for (const auto &[SegId, S] : Segments) {
    SegmentInfo Info;
    Info.Id = SegId;
    Info.EndBytes = std::max<uint64_t>(S.EndBytes, S.File.writable()
                                                       ? S.File.used()
                                                       : S.EndBytes);
    Info.LiveBytes = S.LiveBytes;
    Info.LiveChunks = S.LiveChunks;
    Info.Open = SegId == OpenSeg;
    St.LiveChunks += S.LiveChunks;
    St.LiveBytes += S.LiveBytes;
    St.DeadBytes += Info.EndBytes > S.LiveBytes ? Info.EndBytes - S.LiveBytes
                                                : 0;
    St.PerSegment.push_back(Info);
  }
  return St;
}

bool SegmentStore::fsck(const std::string &Dir, FsckReport &Report,
                        std::string *Err) {
  Report = FsckReport();
  std::vector<RootRecord> Records;
  if (!RootLog::scanAll(Dir, Records, Report.TornTail, Err))
    return false;
  Report.Roots = Records.size();

  // Open every segment file in the directory once.
  std::map<uint32_t, SegmentFile> Files;
  auto Listed = listSegmentFiles(Dir);
  Report.SegmentFiles = Listed.size();
  for (const auto &[SegId, Path] : Listed) {
    SegmentFile F;
    std::string OpenErr;
    if (!F.openExisting(Path, &OpenErr)) {
      Report.Errors.push_back("segment " + Path + ": " + OpenErr);
      continue;
    }
    Files.emplace(SegId, std::move(F));
  }

  std::set<uint32_t> Referenced;
  std::string Scratch;
  for (const RootRecord &Rec : Records) {
    std::string Meta;
    ChunkTable Table;
    std::string DecErr;
    if (!decodeRootPayload(Rec.Payload, Meta, Table, &DecErr)) {
      Report.Errors.push_back("root seq " + std::to_string(Rec.Seq) + ": " +
                              DecErr);
      continue;
    }
    std::map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>> Extents;
    for (const auto &[Id, E] : Table) {
      Referenced.insert(E.Seg);
      Extents[E.Seg].emplace_back(E.Offset,
                                  E.Offset + ChunkHeaderBytes + E.Size);
      auto FileIt = Files.find(E.Seg);
      if (FileIt == Files.end()) {
        Report.Errors.push_back(
            "root seq " + std::to_string(Rec.Seq) + " chunk " +
            std::to_string(Id) + ": references missing segment " +
            std::to_string(E.Seg));
        continue;
      }
      std::string ChkErr;
      Scratch.resize(E.Size);
      if (!checkAndReadChunk(FileIt->second, Id, E, Scratch.data(),
                             &ChkErr))
        Report.Errors.push_back("root seq " + std::to_string(Rec.Seq) +
                                " chunk " + std::to_string(Id) + ": " +
                                ChkErr);
      else
        ++Report.ChunksChecked;
    }
    // Extent integrity: within one root, no two live chunks may share
    // bytes — an overlap means a refcount or allocation bug, since the
    // store's bump allocator hands out disjoint extents.
    for (auto &[SegId, Ranges] : Extents) {
      std::sort(Ranges.begin(), Ranges.end());
      for (size_t I = 1; I < Ranges.size(); ++I)
        if (Ranges[I].first < Ranges[I - 1].second)
          Report.Errors.push_back("root seq " + std::to_string(Rec.Seq) +
                                  " segment " + std::to_string(SegId) +
                                  ": overlapping live chunk extents");
    }
  }
  for (const auto &[SegId, Path] : Listed)
    if (!Referenced.count(SegId))
      ++Report.StraySegmentFiles;
  return true;
}

} // namespace store
} // namespace awdit
