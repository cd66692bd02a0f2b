//===- tests/test_store.cpp - CoW segment store battery ---------------------===//
//
// The acceptance battery of the persistent state store (store/): segment
// files, the fsync'd root log, and the copy-on-write chunk store built
// on both. The properties that matter: a published root survives any
// crash (torn tails revert to the previous root, never to garbage),
// unchanged chunks cost zero bytes to re-commit (the O(delta) claim),
// dead space is reclaimed without ever breaking the current root, and
// every corruption is a clear error — checked both by the seeded
// truncate/flip fuzz here and by the fsck the awdit-store tool exposes.
//
//===----------------------------------------------------------------------===//

#include "store/page_alloc.h"
#include "store/root_log.h"
#include "store/segment_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

using namespace awdit;
using namespace awdit::store;

namespace {

namespace fs = std::filesystem;

/// A per-test scratch directory, removed on destruction.
struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    static int Counter = 0;
    Path = fs::temp_directory_path() /
           ("awdit_store_" + Tag + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(Counter++));
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }
};

/// Deterministic pseudo-random chunk payload.
std::string payload(uint64_t Seed, size_t Bytes) {
  std::mt19937_64 Rng(Seed);
  std::string Out(Bytes, '\0');
  for (char &C : Out)
    C = static_cast<char>(Rng());
  return Out;
}

std::vector<std::pair<uint64_t, std::string_view>>
chunkList(const std::vector<std::pair<uint64_t, std::string>> &Owned) {
  std::vector<std::pair<uint64_t, std::string_view>> Out;
  Out.reserve(Owned.size());
  for (const auto &[Id, Bytes] : Owned)
    Out.emplace_back(Id, Bytes);
  return Out;
}

/// Appends \p N garbage bytes to a file (a simulated torn write).
void appendGarbage(const std::string &Path, size_t N, uint64_t Seed) {
  std::ofstream Out(Path, std::ios::binary | std::ios::app);
  Out << payload(Seed, N);
}

void truncateFile(const std::string &Path, uint64_t Bytes) {
  std::error_code Ec;
  fs::resize_file(Path, Bytes, Ec);
  ASSERT_FALSE(Ec) << Path;
}

/// Reads \p Size bytes of \p F at \p Off into \p Dst.
bool readAt(const SegmentFile &F, size_t Off, char *Dst, size_t Size,
            std::string *Err) {
  iovec V{Dst, Size};
  return F.readv(Off, &V, 1, Err);
}

/// Expects \p S's current root to hold \p Meta and exactly \p Want.
void expectRoot(const SegmentStore &S, const std::string &Meta,
                const std::vector<std::pair<uint64_t, std::string>> &Want) {
  EXPECT_EQ(S.rootMeta(), Meta);
  ASSERT_EQ(S.chunkIds().size(), Want.size());
  for (const auto &[Id, Bytes] : Want) {
    std::string Out, Err;
    ASSERT_TRUE(S.readChunk(Id, Out, &Err)) << Err;
    EXPECT_EQ(Out, Bytes) << "chunk " << Id;
  }
}

/// Recursive directory copy — a crash image taken at a commit boundary.
void copyDir(const fs::path &From, const fs::path &To) {
  fs::copy(From, To, fs::copy_options::recursive);
}

/// FNV-1a over the name and bytes of every file in \p Dir, in name order:
/// the on-disk layout of a store, pinned.
uint64_t dirHash(const std::string &Dir) {
  std::vector<fs::path> Files;
  for (const auto &E : fs::directory_iterator(Dir))
    Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  uint64_t H = 1469598103934665603ULL;
  auto Fold = [&](const std::string &Bytes) {
    for (char C : Bytes)
      H = (H ^ static_cast<uint8_t>(C)) * 1099511628211ULL;
  };
  for (const fs::path &F : Files) {
    Fold(F.filename().string());
    std::ifstream In(F, std::ios::binary);
    Fold(std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>()));
  }
  return H;
}

/// Every file of \p Dir by name, with its bytes: a store image to compare
/// byte for byte.
std::map<std::string, std::string> dirImage(const std::string &Dir) {
  std::map<std::string, std::string> Files;
  for (const auto &E : fs::directory_iterator(Dir)) {
    std::ifstream In(E.path(), std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    Files[E.path().filename().string()] = std::move(Bytes);
  }
  return Files;
}

/// Rewrites the version word of the root record at \p RecordOffset of the
/// root log \p Path, as another build would have written it.
void setRecordVersion(const std::string &Path, uint64_t RecordOffset,
                      uint32_t Version) {
  char Word[4];
  for (int I = 0; I < 4; ++I)
    Word[I] = static_cast<char>(Version >> (8 * I));
  std::fstream F(Path, std::ios::binary | std::ios::in | std::ios::out);
  F.seekp(static_cast<std::streamoff>(RecordOffset + 4));
  F.write(Word, 4);
}

/// Expects \p Err to be the refusal of a root log of version \p Version.
void expectVersionRefusal(const std::string &Err, uint32_t Version) {
  std::string Found = "unsupported root log version " + std::to_string(Version);
  std::string Reads =
      "this build reads version " + std::to_string(RootLogVersion);
  EXPECT_NE(Err.find(Found), std::string::npos) << Err;
  EXPECT_NE(Err.find(Reads), std::string::npos) << Err;
}

} // namespace

//===----------------------------------------------------------------------===//
// SegmentFile
//===----------------------------------------------------------------------===//

TEST(SegmentFile, CreateWriteReopenReadBack) {
  TempDir D("seg");
  std::string Path = D.str() + "/seg-000001.awseg";
  std::string Err;
  SegmentFile S;
  ASSERT_TRUE(S.create(Path, 2 * PageSize, &Err)) << Err;
  EXPECT_TRUE(S.writable());
  EXPECT_EQ(S.capacity(), 2 * PageSize);

  std::string Data = payload(1, 300);
  size_t Off = S.allocate(Data.size());
  ASSERT_NE(Off, SIZE_MAX);
  ASSERT_TRUE(S.write(Off, Data, &Err)) << Err;
  // Alignment: the next extent starts at a ChunkAlign boundary.
  size_t Off2 = S.allocate(10);
  EXPECT_EQ(Off2 % ChunkAlign, 0u);
  EXPECT_GE(Off2, Off + Data.size());
  // Bytes are written once: nothing below the cursor, nothing past the
  // allocation.
  EXPECT_FALSE(S.write(Off, "x", &Err));
  EXPECT_FALSE(S.write(Off2, payload(2, 11), &Err));
  ASSERT_TRUE(S.write(Off2, payload(2, 10), &Err)) << Err;
  ASSERT_TRUE(S.sync(&Err)) << Err;
  std::string Back(Data.size(), '\0');
  ASSERT_TRUE(readAt(S, Off, Back.data(), Back.size(), &Err)) << Err;
  EXPECT_EQ(Back, Data);

  SegmentFile R;
  ASSERT_TRUE(R.openExisting(Path, &Err)) << Err;
  EXPECT_FALSE(R.writable());
  EXPECT_EQ(R.capacity(), 2 * PageSize);
  EXPECT_EQ(R.allocate(1), SIZE_MAX);
  std::fill(Back.begin(), Back.end(), '\0');
  ASSERT_TRUE(readAt(R, Off, Back.data(), Back.size(), &Err)) << Err;
  EXPECT_EQ(Back, Data);
  // The padding between extents reads as zeros; reads past the file fail.
  char Pad = 1;
  ASSERT_TRUE(readAt(R, Off + Data.size(), &Pad, 1, &Err)) << Err;
  EXPECT_EQ(Pad, 0);
  EXPECT_FALSE(readAt(R, 2 * PageSize - 4, Back.data(), 8, &Err));
}

TEST(SegmentFile, AllocateFailsWhenFull) {
  TempDir D("segfull");
  std::string Err;
  SegmentFile S;
  ASSERT_TRUE(S.create(D.str() + "/s.awseg", PageSize, &Err)) << Err;
  EXPECT_NE(S.allocate(PageSize), SIZE_MAX);
  EXPECT_EQ(S.allocate(1), SIZE_MAX);
}

/// Writes larger than the write buffer, and runs of small ones that
/// overflow it, land at their offsets exactly as one in-memory image would.
TEST(SegmentFile, BufferedAndDirectWritesMatchTheImage) {
  TempDir D("segbuf");
  std::string Path = D.str() + "/s.awseg";
  std::string Err;
  size_t Cap = 3 * WriteBufferBytes;
  std::string Image(Cap, '\0');
  {
    SegmentFile S;
    ASSERT_TRUE(S.create(Path, Cap, &Err)) << Err;
    std::mt19937_64 Rng(9);
    for (uint64_t I = 0;; ++I) {
      size_t Size = 1 + Rng() % 3000;
      if (I % 7 == 3)
        Size = WriteBufferBytes + Rng() % 5000;
      size_t Off = S.allocate(Size);
      if (Off == SIZE_MAX)
        break;
      std::string Bytes = payload(I, Size);
      ASSERT_TRUE(S.write(Off, Bytes, &Err)) << Err;
      Image.replace(Off, Size, Bytes);
    }
    ASSERT_TRUE(S.seal(&Err)) << Err;
    EXPECT_FALSE(S.writable());
  }
  std::ifstream In(Path, std::ios::binary);
  std::string OnDisk((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
  EXPECT_TRUE(OnDisk == Image);
}

//===----------------------------------------------------------------------===//
// RootLog
//===----------------------------------------------------------------------===//

TEST(RootLog, AppendReopenKeepsLastRoot) {
  TempDir D("rl");
  std::string Err;
  {
    RootLog L;
    ASSERT_TRUE(L.open(D.str(), &Err)) << Err;
    EXPECT_FALSE(L.hasRoot());
    ASSERT_TRUE(L.append("alpha", &Err)) << Err;
    ASSERT_TRUE(L.append("beta", &Err)) << Err;
    EXPECT_EQ(L.lastSeq(), 2u);
  }
  RootLog L;
  ASSERT_TRUE(L.open(D.str(), &Err)) << Err;
  ASSERT_TRUE(L.hasRoot());
  EXPECT_EQ(L.lastSeq(), 2u);
  EXPECT_EQ(L.lastPayload(), "beta");
  EXPECT_EQ(L.recordCount(), 2u);
}

TEST(RootLog, TornTailRevertsToPreviousRoot) {
  TempDir D("rltear");
  std::string Err;
  uint64_t CleanBytes = 0;
  {
    RootLog L;
    ASSERT_TRUE(L.open(D.str(), &Err)) << Err;
    ASSERT_TRUE(L.append("first", &Err)) << Err;
    CleanBytes = L.sizeBytes();
    ASSERT_TRUE(L.append("second-which-tears", &Err)) << Err;
  }
  // Tear the second record: cut it anywhere strictly inside.
  std::string Path = RootLog::filePath(D.str());
  for (uint64_t Cut : {CleanBytes + 1, CleanBytes + 12, CleanBytes + 30}) {
    TempDir Copy("rltear_cut");
    fs::copy(Path, Copy.Path / "roots.awrl");
    truncateFile((Copy.Path / "roots.awrl").string(), Cut);
    RootLog L;
    ASSERT_TRUE(L.open(Copy.str(), &Err)) << Err;
    ASSERT_TRUE(L.hasRoot());
    EXPECT_EQ(L.lastSeq(), 1u) << "cut at " << Cut;
    EXPECT_EQ(L.lastPayload(), "first");
    // The torn tail was physically truncated; appending resumes cleanly.
    ASSERT_TRUE(L.append("third", &Err)) << Err;
    EXPECT_EQ(L.lastSeq(), 2u);
  }
}

TEST(RootLog, GarbageTailIsIgnoredAndTruncated) {
  TempDir D("rlgarbage");
  std::string Err;
  {
    RootLog L;
    ASSERT_TRUE(L.open(D.str(), &Err)) << Err;
    ASSERT_TRUE(L.append("keep", &Err)) << Err;
  }
  appendGarbage(RootLog::filePath(D.str()), 97, /*Seed=*/3);
  RootLog L;
  ASSERT_TRUE(L.open(D.str(), &Err)) << Err;
  EXPECT_EQ(L.lastPayload(), "keep");
  ASSERT_TRUE(L.append("next", &Err)) << Err;
  EXPECT_EQ(L.lastSeq(), 2u);
}

/// A whole record header with the root magic and another version is another
/// build's log, not a torn tail: open, openReadOnly and scanAll refuse it,
/// name both versions and change no byte, wherever the record sits. A
/// refused log takes no append.
TEST(RootLog, OtherVersionIsRefusedAndLeftAsItIs) {
  TempDir D("rlver");
  std::string Err;
  uint64_t SecondAt = 0;
  {
    RootLog L;
    ASSERT_TRUE(L.open(D.str(), &Err)) << Err;
    ASSERT_TRUE(L.append("first", &Err)) << Err;
    SecondAt = L.sizeBytes();
    ASSERT_TRUE(L.append("second", &Err)) << Err;
  }
  for (uint64_t At : {uint64_t(0), SecondAt}) {
    for (uint32_t Version : {1u, 99u}) {
      SCOPED_TRACE("record at " + std::to_string(At) + ", version " +
                   std::to_string(Version));
      TempDir Copy("rlver_img");
      fs::copy(RootLog::filePath(D.str()), Copy.Path / "roots.awrl");
      setRecordVersion(RootLog::filePath(Copy.str()), At, Version);
      auto Before = dirImage(Copy.str());

      RootLog L;
      Err.clear();
      EXPECT_FALSE(L.open(Copy.str(), &Err));
      expectVersionRefusal(Err, Version);
      EXPECT_FALSE(L.hasRoot());
      EXPECT_FALSE(L.append("over it", &Err));
      Err.clear();
      EXPECT_FALSE(L.openReadOnly(Copy.str(), &Err));
      expectVersionRefusal(Err, Version);
      std::vector<RootRecord> Records;
      bool TornTail = false;
      Err.clear();
      EXPECT_FALSE(RootLog::scanAll(Copy.str(), Records, TornTail, &Err));
      expectVersionRefusal(Err, Version);
      EXPECT_TRUE(dirImage(Copy.str()) == Before);
    }
  }
}

TEST(RootLog, RotateKeepsOnlyNewestRecord) {
  TempDir D("rlrot");
  std::string Err;
  RootLog L;
  ASSERT_TRUE(L.open(D.str(), &Err)) << Err;
  for (int I = 0; I < 20; ++I)
    ASSERT_TRUE(L.append("root " + std::to_string(I), &Err)) << Err;
  uint64_t Before = L.sizeBytes();
  ASSERT_TRUE(L.rotate(&Err)) << Err;
  EXPECT_LT(L.sizeBytes(), Before);
  EXPECT_EQ(L.recordCount(), 1u);
  EXPECT_EQ(L.lastSeq(), 20u);
  EXPECT_EQ(L.lastPayload(), "root 19");
  // Appending continues past the rotation with the same sequence.
  ASSERT_TRUE(L.append("root 20", &Err)) << Err;
  EXPECT_EQ(L.lastSeq(), 21u);
}

//===----------------------------------------------------------------------===//
// SegmentStore
//===----------------------------------------------------------------------===//

TEST(SegmentStore, CommitReopenReadsBackEveryChunk) {
  TempDir D("st");
  std::string Err;
  std::vector<std::pair<uint64_t, std::string>> Chunks;
  for (uint64_t I = 0; I < 40; ++I)
    Chunks.emplace_back(I * 7 + 1, payload(I, 100 + I * 37));
  {
    SegmentStore S;
    ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
    EXPECT_FALSE(S.hasRoot());
    ASSERT_TRUE(S.commit("meta-1", chunkList(Chunks), &Err)) << Err;
    EXPECT_TRUE(S.hasRoot());
  }
  SegmentStore S;
  ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
  EXPECT_EQ(S.rootMeta(), "meta-1");
  std::vector<uint64_t> Ids = S.chunkIds();
  ASSERT_EQ(Ids.size(), Chunks.size());
  EXPECT_TRUE(std::is_sorted(Ids.begin(), Ids.end()));
  for (const auto &[Id, Bytes] : Chunks) {
    std::string Out;
    ASSERT_TRUE(S.readChunk(Id, Out, &Err)) << Err;
    EXPECT_EQ(Out, Bytes) << "chunk " << Id;
  }
}

TEST(SegmentStore, UnchangedChunksAppendNothing) {
  TempDir D("stcow");
  std::string Err;
  SegmentStore S;
  ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
  std::vector<std::pair<uint64_t, std::string>> Chunks;
  for (uint64_t I = 1; I <= 64; ++I)
    Chunks.emplace_back(I, payload(I, 512));
  ASSERT_TRUE(S.commit("m1", chunkList(Chunks), &Err)) << Err;
  uint64_t AfterFirst = S.bytesAppended();
  EXPECT_GE(AfterFirst, 64u * 512u);

  // Identical content: the hash gate carries every chunk by reference, so
  // the only bytes appended are the root record (the table of references),
  // a small fraction of the payload it avoids rewriting.
  ASSERT_TRUE(S.commit("m2", chunkList(Chunks), &Err)) << Err;
  uint64_t RootOnly = S.bytesAppended() - AfterFirst;
  EXPECT_LT(RootOnly, AfterFirst / 8);

  // One changed chunk: the delta is that chunk plus a root record — not
  // the state.
  Chunks[10].second = payload(999, 512);
  ASSERT_TRUE(S.commit("m3", chunkList(Chunks), &Err)) << Err;
  uint64_t Delta = S.bytesAppended() - AfterFirst - RootOnly;
  EXPECT_GE(Delta, 512u);
  EXPECT_LT(Delta, RootOnly + 3u * 512u);
  std::string Out;
  ASSERT_TRUE(S.readChunk(Chunks[10].first, Out, &Err)) << Err;
  EXPECT_EQ(Out, Chunks[10].second);
}

TEST(SegmentStore, DroppedChunksDisappearFromTheRoot) {
  TempDir D("stdrop");
  std::string Err;
  SegmentStore S;
  ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
  std::vector<std::pair<uint64_t, std::string>> Chunks{
      {1, payload(1, 64)}, {2, payload(2, 64)}, {3, payload(3, 64)}};
  ASSERT_TRUE(S.commit("m1", chunkList(Chunks), &Err)) << Err;
  Chunks.erase(Chunks.begin() + 1);
  ASSERT_TRUE(S.commit("m2", chunkList(Chunks), &Err)) << Err;
  EXPECT_EQ(S.chunkIds(), (std::vector<uint64_t>{1, 3}));
  std::string Out;
  EXPECT_FALSE(S.readChunk(2, Out, &Err));
}

TEST(SegmentStore, OverwrittenStateIsReclaimedFromDisk) {
  TempDir D("strec");
  std::string Err;
  {
    SegmentStore S;
    ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
    // Each round rewrites every chunk, so each round's segment bytes die
    // on the next commit. ~600KB per round x 24 rounds pushes well past
    // several 4MiB segments; reclamation must keep disk usage bounded.
    for (uint64_t Round = 0; Round < 24; ++Round) {
      std::vector<std::pair<uint64_t, std::string>> Chunks;
      for (uint64_t I = 1; I <= 12; ++I)
        Chunks.emplace_back(I, payload(Round * 100 + I, 50'000));
      ASSERT_TRUE(S.commit("round " + std::to_string(Round),
                           chunkList(Chunks), &Err))
          << Err;
    }
    // The commit that kills a segment unlinks it before it returns.
    size_t SegFiles = 0;
    for (const auto &E : fs::directory_iterator(D.str()))
      if (E.path().extension() == ".awseg")
        ++SegFiles;
    EXPECT_LE(SegFiles, 2u) << "dead segments were not reclaimed";
    // Reclamation never touches the live root.
    for (uint64_t I = 1; I <= 12; ++I) {
      std::string Out;
      ASSERT_TRUE(S.readChunk(I, Out, &Err)) << Err;
      EXPECT_EQ(Out, payload(23 * 100 + I, 50'000));
    }
  }
  // And the reclaimed store reopens whole.
  SegmentStore S;
  ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
  EXPECT_EQ(S.chunkIds().size(), 12u);
}

TEST(SegmentStore, RelocationCompactsMostlyDeadSegments) {
  TempDir D("strel");
  std::string Err;
  SegmentStore S;
  ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
  // One big victim-to-be (dies) plus a small survivor in the same
  // segment; then enough churn on other ids to seal that segment and give
  // the relocation scan a reason to move the survivor out.
  std::vector<std::pair<uint64_t, std::string>> Chunks{
      {1, payload(1, 900'000)}, {2, payload(2, 600)}};
  ASSERT_TRUE(S.commit("m0", chunkList(Chunks), &Err)) << Err;
  for (uint64_t Round = 1; Round <= 12; ++Round) {
    std::vector<std::pair<uint64_t, std::string>> Next{
        {1, payload(Round * 31, 900'000)}, {2, payload(2, 600)}};
    ASSERT_TRUE(S.commit("m" + std::to_string(Round), chunkList(Next),
                         &Err))
        << Err;
  }
  // Wherever chunk 2 lives now, it must read back exactly.
  std::string Out;
  ASSERT_TRUE(S.readChunk(2, Out, &Err)) << Err;
  EXPECT_EQ(Out, payload(2, 600));
  StoreStats St = S.stats();
  // Relocation + reclamation keep the dead tail bounded: without them 12
  // dead 900KB generations would sit on disk.
  EXPECT_LT(St.DeadBytes, 8'000'000u);
  FsckReport Report;
  ASSERT_TRUE(SegmentStore::fsck(D.str(), Report, &Err)) << Err;
  EXPECT_TRUE(Report.clean()) << (Report.Errors.empty()
                                      ? ""
                                      : Report.Errors.front());
}

/// The files a relocation-and-reclaim sequence leaves behind, pinned byte
/// for byte: segment framing, extent placement and padding, relocation
/// victims, reclaimed segments and the rotated root log. The value was
/// re-taken when the store's checksum became XXH64 (RootLogVersion 2),
/// which rewrites every frame's checksum field and the root records'
/// version word and nothing else.
TEST(SegmentStore, RelocationAndReclaimMatchGoldenBytes) {
  TempDir D("stgold");
  std::string Err;
  {
    SegmentStore S;
    ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
    std::vector<std::pair<uint64_t, std::string>> Chunks{
        {1, payload(1, 900'000)}, {2, payload(2, 600)}, {9, payload(9, 70)}};
    ASSERT_TRUE(S.commit("m0", chunkList(Chunks), &Err)) << Err;
    for (uint64_t Round = 1; Round <= 12; ++Round) {
      std::vector<std::pair<uint64_t, std::string>> Next;
      Next.emplace_back(1, payload(Round * 31, 900'000));
      Next.emplace_back(2, payload(2, 600));
      Next.emplace_back(5, payload(Round, 300 + Round * 40));
      Next.emplace_back(9, payload(9, 70));
      ASSERT_TRUE(S.commit("m" + std::to_string(Round), chunkList(Next),
                           &Err))
          << Err;
    }
  } // joins the compactor: every queued unlink has happened
  uint64_t Hash = dirHash(D.str());
  EXPECT_EQ(Hash, 0x5b2de9c21f2f71f7ull) << std::hex << "0x" << Hash;
  FsckReport Report;
  ASSERT_TRUE(SegmentStore::fsck(D.str(), Report, &Err)) << Err;
  EXPECT_TRUE(Report.clean());
  EXPECT_EQ(Report.StraySegmentFiles, 0u);
}

/// A commit stopped mid-stream by a duplicate or out-of-order chunk id
/// publishes nothing: the previous root stays readable, in this handle and
/// after a reopen, and the next commit succeeds.
TEST(SegmentStore, AbortedCommitKeepsThePreviousRoot) {
  TempDir D("stabort");
  std::string Err;
  std::vector<std::pair<uint64_t, std::string>> Chunks{
      {1, payload(1, 5000)}, {4, payload(4, 300)}, {7, payload(7, 90'000)}};
  SegmentStore S;
  ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
  ASSERT_TRUE(S.commit("m1", chunkList(Chunks), &Err)) << Err;
  EXPECT_FALSE(S.putChunk(1, "no commit open", &Err));

  // Out of order mid-stream: the commit is doomed from there on.
  ASSERT_TRUE(S.beginCommit(&Err)) << Err;
  ASSERT_TRUE(S.putChunk(1, payload(11, 5000), &Err)) << Err;
  ASSERT_TRUE(S.putChunk(7, payload(17, 3000), &Err)) << Err;
  EXPECT_FALSE(S.putChunk(4, payload(14, 300), &Err));
  EXPECT_NE(Err.find("out of order"), std::string::npos) << Err;
  EXPECT_FALSE(S.putChunk(9, payload(19, 30), &Err));
  Err.clear();
  EXPECT_FALSE(S.finishCommit("doomed", &Err));
  EXPECT_NE(Err.find("out of order"), std::string::npos) << Err;
  expectRoot(S, "m1", Chunks);
  EXPECT_EQ(S.rootSeq(), 1u);

  // A duplicate id, the same way.
  ASSERT_TRUE(S.beginCommit(&Err)) << Err;
  ASSERT_TRUE(S.putChunk(4, payload(24, 300), &Err)) << Err;
  EXPECT_FALSE(S.putChunk(4, payload(25, 300), &Err));
  EXPECT_NE(Err.find("duplicate"), std::string::npos) << Err;
  EXPECT_FALSE(S.finishCommit("doomed", &Err));
  expectRoot(S, "m1", Chunks);

  // The next commit goes through, and a reopen sees it.
  std::vector<std::pair<uint64_t, std::string>> Next{
      {1, payload(1, 5000)}, {7, payload(27, 4000)}, {8, payload(8, 10)}};
  ASSERT_TRUE(S.commit("m2", chunkList(Next), &Err)) << Err;
  expectRoot(S, "m2", Next);
  SegmentStore Reopened;
  ASSERT_TRUE(Reopened.open(D.str(), &Err)) << Err;
  expectRoot(Reopened, "m2", Next);
  FsckReport Report;
  ASSERT_TRUE(SegmentStore::fsck(D.str(), Report, &Err)) << Err;
  EXPECT_TRUE(Report.clean());
}

TEST(SegmentStore, FsckDetectsFlippedBitInSealedChunk) {
  TempDir D("stflip");
  std::string Err;
  std::string SegPath;
  {
    SegmentStore S;
    ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
    std::vector<std::pair<uint64_t, std::string>> Chunks{
        {1, payload(1, 5000)}, {2, payload(2, 5000)}};
    ASSERT_TRUE(S.commit("m", chunkList(Chunks), &Err)) << Err;
  }
  for (const auto &E : fs::directory_iterator(D.str()))
    if (E.path().extension() == ".awseg")
      SegPath = E.path().string();
  ASSERT_FALSE(SegPath.empty());
  // Flip one payload byte on disk (the store process is gone; this is
  // bit-rot, not a write by the store).
  {
    std::fstream F(SegPath, std::ios::binary | std::ios::in | std::ios::out);
    F.seekp(2000);
    char C;
    F.seekg(2000);
    F.get(C);
    F.seekp(2000);
    F.put(static_cast<char>(C ^ 0x40));
  }
  FsckReport Report;
  ASSERT_TRUE(SegmentStore::fsck(D.str(), Report, &Err)) << Err;
  EXPECT_FALSE(Report.clean());

  // The live store fails that chunk's read with a clear error — and only
  // that chunk's.
  SegmentStore S;
  ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
  std::string Out;
  std::string ReadErr;
  bool Ok1 = S.readChunk(1, Out, &ReadErr);
  bool Ok2 = S.readChunk(2, Out, &ReadErr);
  EXPECT_FALSE(Ok1 && Ok2);
  EXPECT_TRUE(Ok1 || Ok2);
}

/// The seeded crash fuzz: a store image truncated or scribbled at a
/// random point must either recover to a previously published root (every
/// chunk readable, exactly as committed) or fail with a clear error —
/// never crash, never serve garbage.
TEST(SegmentStore, CrashImageFuzzRecoversToAPublishedRoot) {
  TempDir D("stfuzz");
  std::string Err;
  // Reference content per committed root.
  std::vector<std::vector<std::pair<uint64_t, std::string>>> Roots;
  {
    SegmentStore S;
    ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
    std::vector<std::pair<uint64_t, std::string>> Chunks;
    for (uint64_t Commit = 0; Commit < 6; ++Commit) {
      for (uint64_t I = 0; I <= Commit; ++I) {
        uint64_t Id = I * 3 + 1;
        std::string Bytes = payload(Commit * 50 + I, 700 + 97 * I);
        bool Found = false;
        for (auto &[Cid, Cb] : Chunks)
          if (Cid == Id) {
            Cb = Bytes;
            Found = true;
          }
        if (!Found)
          Chunks.emplace_back(Id, Bytes);
      }
      ASSERT_TRUE(S.commit("root", chunkList(Chunks), &Err)) << Err;
      Roots.push_back(Chunks);
    }
  }

  std::mt19937_64 Rng(42);
  for (int Trial = 0; Trial < 30; ++Trial) {
    TempDir Image("stfuzz_img");
    fs::remove_all(Image.Path);
    copyDir(D.Path, Image.Path);

    // Mutate the root log: truncate at a random offset (a torn append) or
    // append garbage (a torn append that got bytes down before the crash).
    std::string LogPath = RootLog::filePath(Image.str());
    uint64_t LogBytes = fs::file_size(LogPath);
    if (Trial % 2 == 0) {
      truncateFile(LogPath, Rng() % (LogBytes + 1));
    } else {
      appendGarbage(LogPath, 1 + Rng() % 200, Rng());
    }

    SegmentStore S;
    if (!S.open(Image.str(), &Err))
      continue; // a clear failure is an accepted outcome
    if (!S.hasRoot())
      continue; // everything torn away: a fresh store is consistent too
    // Whatever root survived must be one that was published, bit-exact.
    uint64_t Seq = S.rootSeq();
    ASSERT_GE(Seq, 1u);
    ASSERT_LE(Seq, Roots.size());
    const auto &Expect = Roots[Seq - 1];
    ASSERT_EQ(S.chunkIds().size(), Expect.size()) << "trial " << Trial;
    for (const auto &[Id, Bytes] : Expect) {
      std::string Out;
      ASSERT_TRUE(S.readChunk(Id, Out, &Err))
          << "trial " << Trial << ": " << Err;
      EXPECT_EQ(Out, Bytes) << "trial " << Trial << " chunk " << Id;
    }
    // And the recovered store accepts new commits.
    std::vector<std::pair<uint64_t, std::string>> Next{{1, payload(7, 64)}};
    EXPECT_TRUE(S.commit("after-recovery", chunkList(Next), &Err)) << Err;
  }
}

/// A store whose root log another build wrote is refused by every way in,
/// and not one byte of it changes: open() truncates, rotates and unlinks
/// nothing, and openReadOnly() and fsck fail the same way.
TEST(SegmentStore, StoreOfAnotherVersionIsRefusedAndLeftAsItIs) {
  TempDir D("stver");
  std::string Err;
  {
    SegmentStore S;
    ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
    for (uint64_t Round = 0; Round < 2; ++Round) {
      std::vector<std::pair<uint64_t, std::string>> Chunks{
          {1, payload(1, 3'000'000)},
          {2, payload(2, 3'000'000)},
          {3, payload(3 + Round, 700)},
      };
      ASSERT_TRUE(S.commit("m" + std::to_string(Round), chunkList(Chunks),
                           &Err))
          << Err;
    }
  }
  for (uint32_t Version : {1u, 99u}) {
    SCOPED_TRACE("version " + std::to_string(Version));
    TempDir Image("stver_img");
    fs::remove_all(Image.Path);
    copyDir(D.Path, Image.Path);
    setRecordVersion(RootLog::filePath(Image.str()), 0, Version);
    auto Before = dirImage(Image.str());
    ASSERT_GE(Before.size(), 3u); // the root log and two segments

    SegmentStore S;
    Err.clear();
    EXPECT_FALSE(S.open(Image.str(), &Err));
    expectVersionRefusal(Err, Version);
    EXPECT_FALSE(S.hasRoot());
    SegmentStore R;
    Err.clear();
    EXPECT_FALSE(R.openReadOnly(Image.str(), &Err));
    expectVersionRefusal(Err, Version);
    FsckReport Report;
    Err.clear();
    EXPECT_FALSE(SegmentStore::fsck(Image.str(), Report, &Err));
    expectVersionRefusal(Err, Version);
    EXPECT_TRUE(dirImage(Image.str()) == Before);
  }
}

TEST(SegmentStore, TruncatedSegmentFileFailsCleanly) {
  TempDir D("stcut");
  std::string Err;
  {
    SegmentStore S;
    ASSERT_TRUE(S.open(D.str(), &Err)) << Err;
    std::vector<std::pair<uint64_t, std::string>> Chunks{
        {1, payload(1, 100'000)}};
    ASSERT_TRUE(S.commit("m", chunkList(Chunks), &Err)) << Err;
  }
  for (const auto &E : fs::directory_iterator(D.str()))
    if (E.path().extension() == ".awseg")
      truncateFile(E.path().string(), 4096);
  // Either the open or the chunk read must fail with a message — no UB.
  SegmentStore S;
  if (S.open(D.str(), &Err)) {
    std::string Out;
    EXPECT_FALSE(S.readChunk(1, Out, &Err));
    EXPECT_FALSE(Err.empty());
  } else {
    EXPECT_FALSE(Err.empty());
  }
}

TEST(SegmentStore, IsStoreDirDetectsLayout) {
  TempDir D("stdetect");
  EXPECT_FALSE(SegmentStore::isStoreDir(D.str()));
  EXPECT_FALSE(SegmentStore::isStoreDir(D.str() + "/missing"));
  std::string Err;
  SegmentStore S;
  ASSERT_TRUE(S.open(D.str() + "/store", &Err)) << Err;
  EXPECT_TRUE(SegmentStore::isStoreDir(D.str() + "/store"));
}
