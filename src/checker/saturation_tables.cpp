//===- checker/saturation_tables.cpp - The engine's flat tables -----------===//

#include "checker/saturation_tables.h"

#include "support/assert.h"

using namespace awdit;
using namespace awdit::detail;

//===----------------------------------------------------------------------===//
// SourceLog.
//===----------------------------------------------------------------------===//

void SourceLog::grow(size_t NumTxns, size_t NumSessions) {
  for (std::vector<Span> &Table : Txns)
    if (Table.size() < NumTxns)
      Table.resize(NumTxns);
  for (std::vector<std::vector<uint64_t>> &Lists : Sessions)
    if (Lists.size() < NumSessions)
      Lists.resize(NumSessions);
}

std::span<const uint64_t> SourceLog::entries(uint32_t T, uint32_t Id) const {
  if (isPerTxn(T)) {
    const Span &S = Txns[txnTable(T)][Id];
    return {Log.data() + S.Begin, S.Size};
  }
  return Sessions[sessionTable(T)][Id];
}

void SourceLog::append(uint32_t T, uint32_t Id,
                       std::span<const uint64_t> Edges, uint64_t Shift) {
  if (Edges.empty())
    return;
  if (!isPerTxn(T)) {
    std::vector<uint64_t> &List = Sessions[sessionTable(T)][Id];
    for (uint64_t E : Edges)
      List.push_back(E + Shift);
    return;
  }
  Span &S = Txns[txnTable(T)][Id];
  AWDIT_ASSERT(S.Size == 0, "SourceLog::append: per-transaction source set");
  // Spans hold 32-bit offsets; running out must stop the program, not wrap.
  if (Log.size() + Edges.size() > UINT32_MAX)
    awditUnreachable("SourceLog::append: log offsets exhausted");
  S.Begin = static_cast<uint32_t>(Log.size());
  S.Size = static_cast<uint32_t>(Edges.size());
  for (uint64_t E : Edges)
    Log.push_back(E + Shift);
}

void SourceLog::clear(uint32_t T, uint32_t Id) {
  if (!isPerTxn(T)) {
    Sessions[sessionTable(T)][Id].clear();
    return;
  }
  Span &S = Txns[txnTable(T)][Id];
  Dead += S.Size;
  S = Span();
  if (2 * Dead > Log.size() && Dead > Txns[0].size())
    rewrite();
}

size_t SourceLog::numSources() const {
  size_t N = 0;
  for (const std::vector<Span> &Table : Txns)
    for (const Span &S : Table)
      N += S.Size != 0;
  for (const std::vector<std::vector<uint64_t>> &Lists : Sessions)
    for (const std::vector<uint64_t> &List : Lists)
      N += !List.empty();
  return N;
}

void SourceLog::rewrite() {
  std::vector<uint64_t> Fresh;
  Fresh.reserve(Log.size() - Dead);
  for (std::vector<Span> &Table : Txns)
    for (Span &S : Table) {
      if (!S.Size)
        continue;
      uint32_t Begin = static_cast<uint32_t>(Fresh.size());
      Fresh.insert(Fresh.end(), Log.begin() + S.Begin,
                   Log.begin() + S.Begin + S.Size);
      S.Begin = Begin;
    }
  Log.swap(Fresh);
  Dead = 0;
}

//===----------------------------------------------------------------------===//
// CcWriterIndex.
//===----------------------------------------------------------------------===//

void CcWriterIndex::add(Key K, SessionId S, CcWriterEntry E) {
  uint32_t Id = Ids.intern(K);
  if (Id == Keys.size())
    Keys.emplace_back();
  KeyWriters &KW = Keys[Id];
  size_t SlotIdx = 0;
  while (SlotIdx < KW.Slots.size() && KW.Slots[SlotIdx].Session != S)
    ++SlotIdx;
  if (SlotIdx == KW.Slots.size())
    KW.Slots.push_back(
        {S, static_cast<uint32_t>(KW.Entries.size()), 0, 0});
  reserveOne(KW, KW.Slots[SlotIdx]);
  Slot &Sl = KW.Slots[SlotIdx];
  // Commits of one session arrive in so order, so this is almost always an
  // append; a flush processing two commits of one session out of local-id
  // order is the rare exception.
  CcWriterEntry *Begin = KW.Entries.data() + Sl.Begin;
  CcWriterEntry *End = Begin + Sl.Size;
  CcWriterEntry *Pos = std::lower_bound(
      Begin, End, E, [](const CcWriterEntry &A, const CcWriterEntry &B) {
        return A.SoIndex < B.SoIndex;
      });
  std::move_backward(Pos, End, End + 1);
  *Pos = E;
  ++Sl.Size;
}

void CcWriterIndex::reserveOne(KeyWriters &KW, Slot &S) {
  if (S.Size < S.Cap)
    return;
  if (S.Begin + S.Cap == KW.Entries.size()) {
    // The last run of the array grows in place.
    KW.Entries.emplace_back();
    ++S.Cap;
    return;
  }
  uint32_t NewBegin = static_cast<uint32_t>(KW.Entries.size());
  uint32_t NewCap = std::max<uint32_t>(1, 2 * S.Size);
  KW.Entries.resize(NewBegin + NewCap);
  std::copy(KW.Entries.begin() + S.Begin,
            KW.Entries.begin() + S.Begin + S.Size,
            KW.Entries.begin() + NewBegin);
  KW.Holes += S.Cap;
  S.Begin = NewBegin;
  S.Cap = NewCap;
  if (2 * static_cast<size_t>(KW.Holes) > KW.Entries.size())
    repack(KW);
}

void CcWriterIndex::repack(KeyWriters &KW) {
  size_t Room = 0;
  for (const Slot &S : KW.Slots)
    Room += S.Cap;
  std::vector<CcWriterEntry> Fresh(Room);
  uint32_t Begin = 0;
  for (Slot &S : KW.Slots) {
    std::span<const CcWriterEntry> Run = KW.run(S);
    std::copy(Run.begin(), Run.end(), Fresh.begin() + Begin);
    S.Begin = Begin;
    Begin += S.Cap;
  }
  KW.Entries.swap(Fresh);
  KW.Holes = 0;
}

CcWriterIndex::KeyWriters *CcWriterIndex::addKey(Key K) {
  uint32_t Id = Ids.intern(K);
  if (Id != Keys.size())
    return nullptr;
  Keys.emplace_back();
  return &Keys.back();
}
