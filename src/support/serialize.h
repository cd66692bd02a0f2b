//===- support/serialize.h - Little-endian byte serialization ----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level primitives of the checkpoint layout (checker/checkpoint.h):
/// a writer appending fixed-width little-endian fields to a growing buffer,
/// and a bounds-checked reader over a byte range. The reader never throws
/// and never reads past the end — a truncated or corrupted checkpoint turns
/// into ok() == false (plus zero values), which the loaders translate into
/// a clean error instead of UB. Counts read from untrusted bytes must pass
/// checkCount() before vectors are sized from them, so a flipped length
/// field cannot demand a terabyte allocation.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_SUPPORT_SERIALIZE_H
#define AWDIT_SUPPORT_SERIALIZE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace awdit {

/// A chunk boundary recorded during chunked (checkpoint) serialization:
/// bytes [Offset, next mark's Offset) belong to the chunk \p Id. Marks are
/// out-of-band — the byte stream itself is identical with or without them —
/// and ids are strictly increasing in stream order, so a reader reassembles
/// the stream by concatenating chunks in ascending id order.
struct ChunkMark {
  size_t Offset = 0;
  uint64_t Id = 0;
};

/// Chunk ids are (Kind << 56) | Sub: Kind numbers the serialized sections
/// in stream order, Sub is a section-specific bucket (typically a range of
/// global transaction ids or keys) that stays put as the window slides —
/// the property that makes unchanged chunks byte-identical between
/// checkpoints and lets the segment store skip writing them.
inline constexpr uint64_t chunkId(uint64_t Kind, uint64_t Sub = 0) {
  // Sub saturates below the kind field so a pathological bucket (e.g. a
  // huge key) degrades chunk granularity instead of corrupting the id.
  constexpr uint64_t MaxSub = (uint64_t(1) << 56) - 1;
  return (Kind << 56) | (Sub < MaxSub ? Sub : MaxSub);
}

/// The local-to-global coordinate transform of checkpoint serialization.
/// Windowed eviction rebases every local transaction id (by the window
/// base) and every session-order index (by the per-session evicted count)
/// at nearly every flush, so locally-addressed bytes would churn completely
/// between checkpoints. Serializing ids in global coordinates — local +
/// base, applied on save and inverted on load with the same bases captured
/// alongside the bytes — makes the serialized form of surviving state
/// rebase-invariant.
struct StateCoords {
  /// Added to every local transaction id (Monitor::Base).
  uint32_t IdBase = 0;
  /// Added per session to so-indices/frontiers (Monitor::SessionSoBase).
  const std::vector<uint64_t> &SoBase;
};

/// Appends little-endian fields to a byte buffer.
class ByteWriter {
public:
  explicit ByteWriter(std::string &Out) : Out(Out) {}

  /// Starts recording chunk marks into \p M (chunked serialization only).
  void enableChunks(std::vector<ChunkMark> *M) { Marks = M; }

  /// Declares that bytes written from here on belong to chunk \p Id.
  /// No-op unless enableChunks() was called. Non-increasing ids are
  /// ignored (the bytes stay in the current chunk), and a re-mark at the
  /// current offset replaces the empty previous mark.
  void chunk(uint64_t Id) {
    if (!Marks)
      return;
    if (!Marks->empty()) {
      if (Id <= Marks->back().Id)
        return;
      if (Marks->back().Offset == Out.size()) {
        Marks->back().Id = Id;
        return;
      }
    }
    Marks->push_back({Out.size(), Id});
  }

  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }

  void u32(uint32_t V) {
    char Buf[4];
    for (int I = 0; I < 4; ++I)
      Buf[I] = static_cast<char>(V >> (8 * I));
    Out.append(Buf, 4);
  }

  void u64(uint64_t V) {
    char Buf[8];
    for (int I = 0; I < 8; ++I)
      Buf[I] = static_cast<char>(V >> (8 * I));
    Out.append(Buf, 8);
  }

  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }

  void boolean(bool V) { u8(V ? 1 : 0); }

  /// Length-prefixed byte string.
  void str(std::string_view S) {
    u64(S.size());
    Out.append(S.data(), S.size());
  }

private:
  std::string &Out;
  std::vector<ChunkMark> *Marks = nullptr;
};

/// Bounds-checked little-endian reader. Reads past the end set the failed
/// flag and yield zeros; callers check ok() (typically once, at the end of
/// a load).
class ByteReader {
public:
  ByteReader(const char *Data, size_t Size) : P(Data), End(Data + Size) {}
  explicit ByteReader(std::string_view Bytes)
      : ByteReader(Bytes.data(), Bytes.size()) {}

  bool ok() const { return !Failed; }
  void fail() { Failed = true; }
  size_t remaining() const { return static_cast<size_t>(End - P); }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return static_cast<uint8_t>(*P++);
  }

  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(static_cast<uint8_t>(P[I])) << (8 * I);
    P += 4;
    return V;
  }

  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(static_cast<uint8_t>(P[I])) << (8 * I);
    P += 8;
    return V;
  }

  int64_t i64() { return static_cast<int64_t>(u64()); }

  bool boolean() { return u8() != 0; }

  std::string str() {
    uint64_t Len = u64();
    if (!need(Len))
      return {};
    std::string S(P, static_cast<size_t>(Len));
    P += Len;
    return S;
  }

  /// Guards a count read from untrusted bytes: fails (and returns false)
  /// unless \p Count elements of at least \p MinElemBytes each could still
  /// fit in the remaining input.
  bool checkCount(uint64_t Count, size_t MinElemBytes) {
    if (MinElemBytes != 0 && Count > remaining() / MinElemBytes) {
      Failed = true;
      return false;
    }
    return true;
  }

private:
  bool need(uint64_t N) {
    if (Failed || N > remaining()) {
      Failed = true;
      return false;
    }
    return true;
  }

  const char *P;
  const char *End;
  bool Failed = false;
};

/// FNV-1a over a byte range: the checkpoint payload checksum. Not
/// cryptographic — it guards against truncation and bit rot, not malice.
inline uint64_t fnv1a(std::string_view Bytes) {
  uint64_t H = 1469598103934665603ULL;
  for (char C : Bytes) {
    H ^= static_cast<uint8_t>(C);
    H *= 1099511628211ULL;
  }
  return H;
}

} // namespace awdit

#endif // AWDIT_SUPPORT_SERIALIZE_H
