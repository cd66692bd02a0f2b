//===- support/serialize.h - Little-endian byte serialization ----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level primitives of the checkpoint layout (checker/checkpoint.h):
/// a writer appending fixed-width little-endian fields to a growing buffer
/// (or, in chunk mode, handing each completed chunk to a ChunkSink), and a
/// bounds-checked reader over a byte range. The reader never throws
/// and never reads past the end — a truncated or corrupted checkpoint turns
/// into ok() == false (plus zero values), which the loaders translate into
/// a clean error instead of UB. Counts read from untrusted bytes must pass
/// checkCount() before vectors are sized from them, so a flipped length
/// field cannot demand a terabyte allocation. checksum64() is the store's
/// checksum (XXH64) over chunk payloads and root records.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_SUPPORT_SERIALIZE_H
#define AWDIT_SUPPORT_SERIALIZE_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace awdit {

/// Where a chunk starts in a collected chunked serialization (see
/// ChunkCollector): bytes [Offset, next mark's Offset) belong to the chunk
/// \p Id. Marks are out-of-band — the byte stream itself is identical with
/// or without them — and ids are strictly increasing in stream order, so a
/// reader reassembles the stream by concatenating chunks in ascending id
/// order.
struct ChunkMark {
  size_t Offset = 0;
  uint64_t Id = 0;
};

/// Receives a chunked serialization one chunk at a time, in stream order
/// (ByteWriter's chunk mode). \p Bytes is only valid during the call: the
/// writer reuses its buffer for the next chunk, so a serialization never
/// holds more than its largest chunk.
class ChunkSink {
public:
  virtual void put(uint64_t Id, std::string_view Bytes) = 0;

protected:
  ~ChunkSink() = default;
};

/// A ChunkSink that concatenates the chunks into one buffer and records
/// where each begins — an in-memory snapshot of a chunked serialization.
class ChunkCollector final : public ChunkSink {
public:
  ChunkCollector(std::string &Bytes, std::vector<ChunkMark> &Marks)
      : Bytes(Bytes), Marks(Marks) {}

  void put(uint64_t Id, std::string_view Chunk) override {
    Marks.push_back({Bytes.size(), Id});
    Bytes.append(Chunk);
  }

private:
  std::string &Bytes;
  std::vector<ChunkMark> &Marks;
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
  /// Plain mode: every field is appended to \p Out; chunk() is a no-op.
  explicit ByteWriter(std::string &Out) : Out(Out) {}

  /// Chunk mode: \p Scratch holds only the chunk being written. Each
  /// chunk() boundary hands the bytes written since the previous one to
  /// \p Sink and clears \p Scratch; finish() hands over the last chunk.
  ByteWriter(std::string &Scratch, ChunkSink &Sink)
      : Out(Scratch), Sink(&Sink) {
    Out.clear();
  }

  /// Declares that bytes written from here on belong to chunk \p Id.
  /// No-op in plain mode. Non-increasing ids are ignored (the bytes stay in
  /// the current chunk), a re-mark before any byte of the current chunk
  /// replaces its id, and bytes written before the first mark form chunk 0.
  void chunk(uint64_t Id) {
    if (!Sink || (Marked && Id <= Cur))
      return;
    if (!Out.empty())
      emit(); // an unmarked prefix goes out as chunk 0
    Marked = true;
    Cur = Id;
  }

  /// Chunk mode: hands the last chunk to the sink — even an empty one, so
  /// every mark names a chunk. Nothing is emitted when nothing was marked
  /// or written. Call once, after the last field.
  void finish() {
    if (Sink && (Marked || !Out.empty()))
      emit();
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
  void emit() {
    Sink->put(Cur, Out);
    Out.clear();
  }

  std::string &Out;
  ChunkSink *Sink = nullptr;
  /// Chunk mode: whether chunk() has been called, and the open chunk's id
  /// (0, the unmarked prefix's id, until then).
  bool Marked = false;
  uint64_t Cur = 0;
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

namespace detail {

/// A little-endian word at \p P, any alignment: one load on a
/// little-endian host, plus a byte swap on a big-endian one.
inline uint64_t loadLe64(const char *P) {
  uint64_t V;
  std::memcpy(&V, P, sizeof(V));
  if constexpr (std::endian::native == std::endian::big)
    V = __builtin_bswap64(V);
  return V;
}

inline uint32_t loadLe32(const char *P) {
  uint32_t V;
  std::memcpy(&V, P, sizeof(V));
  if constexpr (std::endian::native == std::endian::big)
    V = __builtin_bswap32(V);
  return V;
}

} // namespace detail

/// XXH64 with seed 0 (https://github.com/Cyan4973/xxHash, doc/
/// xxhash_spec.md): the store's checksum of every chunk payload and root
/// record. Four independent 64-bit lanes take 32-byte stripes, so their
/// multiplies overlap instead of waiting on one another as a byte-serial
/// hash's do. Not cryptographic: it guards against truncation and bit rot,
/// not malice. It is 64-bit because the store carries a chunk by reference
/// when (id, size, checksum) match.
inline uint64_t checksum64(std::string_view Bytes) {
  constexpr uint64_t P1 = 0x9E3779B185EBCA87ull;
  constexpr uint64_t P2 = 0xC2B2AE3D27D4EB4Full;
  constexpr uint64_t P3 = 0x165667B19E3779F9ull;
  constexpr uint64_t P4 = 0x85EBCA77C2B2AE63ull;
  constexpr uint64_t P5 = 0x27D4EB2F165667C5ull;
  auto Round = [](uint64_t Acc, uint64_t Lane) {
    return std::rotl(Acc + Lane * P2, 31) * P1;
  };
  auto Merge = [&](uint64_t Acc, uint64_t Lane) {
    return (Acc ^ Round(0, Lane)) * P1 + P4;
  };
  const char *P = Bytes.data();
  const char *End = P + Bytes.size();
  uint64_t H = P5;
  if (Bytes.size() >= 32) {
    uint64_t V1 = P1 + P2, V2 = P2, V3 = 0, V4 = 0 - P1;
    for (; End - P >= 32; P += 32) {
      V1 = Round(V1, detail::loadLe64(P));
      V2 = Round(V2, detail::loadLe64(P + 8));
      V3 = Round(V3, detail::loadLe64(P + 16));
      V4 = Round(V4, detail::loadLe64(P + 24));
    }
    H = std::rotl(V1, 1) + std::rotl(V2, 7) + std::rotl(V3, 12) +
        std::rotl(V4, 18);
    H = Merge(Merge(Merge(Merge(H, V1), V2), V3), V4);
  }
  H += Bytes.size();
  for (; End - P >= 8; P += 8)
    H = std::rotl(H ^ Round(0, detail::loadLe64(P)), 27) * P1 + P4;
  if (End - P >= 4) {
    H = std::rotl(H ^ (detail::loadLe32(P) * P1), 23) * P2 + P3;
    P += 4;
  }
  for (; P < End; ++P)
    H = std::rotl(H ^ (static_cast<uint8_t>(*P) * P5), 11) * P1;
  H ^= H >> 33;
  H *= P2;
  H ^= H >> 29;
  H *= P3;
  H ^= H >> 32;
  return H;
}

} // namespace awdit

#endif // AWDIT_SUPPORT_SERIALIZE_H
