//===- io/token_util.h - Shared line-tokenizing helpers ----------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tokenizing primitives every history-format parser uses — batch and
/// streaming alike — so the native/dbcop whitespace grammar and the plume
/// CSV grammar each live in exactly one place.
///
/// This is the hot ingest path: the context-free decode runs on every
/// byte of every stream. Three things keep it branch-light and
/// allocation-free:
///
///  - TokenCursor / CsvCursor walk a line's tokens in place — no per-line
///    std::vector, no heap traffic. They are the only tokenizer API: the
///    server's verb parser walks its tokens with TokenCursor too.
///  - The whitespace/newline scanners classify 8 bytes per step with SWAR
///    bitmasks (16 with SSE2/NEON where compiled in). The SIMD paths sit
///    behind a runtime switch — setSimdTokenizer(false) forces the scalar
///    SWAR fallback, which is always compiled so the fuzz suite can check
///    the two produce identical token spans on arbitrary bytes.
///  - parseInt() takes a branchless all-digit fast path (8 digits per
///    multiply, simdjson-style) whenever the token is short enough that
///    overflow is impossible, and falls back to std::from_chars for
///    everything else — so signs, overflow at exactly INT64_MAX/UINT64_MAX,
///    leading '+', and empty tokens keep from_chars strictness bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_IO_TOKEN_UTIL_H
#define AWDIT_IO_TOKEN_UTIL_H

#include <atomic>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>

#if defined(__SSE2__)
#include <emmintrin.h>
#define AWDIT_TOKEN_SIMD 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define AWDIT_TOKEN_SIMD 1
#else
#define AWDIT_TOKEN_SIMD 0
#endif

namespace awdit::io {

namespace detail {

// The SWAR fallback assumes the byte order of a loaded word; on a
// big-endian target the plain byte loops below take over.
constexpr bool LittleEndian =
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    true;
#else
    false;
#endif

constexpr uint64_t SwarLow = 0x0101010101010101ull;
constexpr uint64_t SwarLow7 = 0x7f7f7f7f7f7f7f7full;
constexpr uint64_t SwarHigh = 0x8080808080808080ull;

inline uint64_t swarLoad(const char *P) {
  uint64_t W;
  std::memcpy(&W, P, sizeof(W));
  return W;
}

/// 0x80 in exactly the bytes of \p W that are zero. Carry-free (each
/// byte's sum stays below 0x100), unlike the classic (w - 1s) & ~w form
/// whose borrows can mark the byte above a zero.
inline uint64_t swarZeroMask(uint64_t W) {
  return ~(((W & SwarLow7) + SwarLow7) | W | SwarLow7);
}

/// 0x80 in exactly the bytes of \p W equal to \p C.
inline uint64_t swarEqMask(uint64_t W, char C) {
  return swarZeroMask(W ^ (SwarLow * static_cast<uint8_t>(C)));
}

/// 0x80 in the bytes that are ' ', '\t', or '\n' — the token-separator
/// class shared by the native and dbcop grammars (lines never contain a
/// '\n', so including it costs nothing and lets the same scanner split
/// multi-line buffers).
inline uint64_t swarSeparatorMask(uint64_t W) {
  return swarEqMask(W, ' ') | swarEqMask(W, '\t') | swarEqMask(W, '\n');
}

inline bool isSeparator(char C) { return C == ' ' || C == '\t' || C == '\n'; }

/// First separator at or after \p Pos, or Len. Scalar-register path: SWAR
/// word-at-a-time on little-endian, plain bytes otherwise.
inline size_t scanToSepScalar(const char *D, size_t Len, size_t Pos) {
  if constexpr (LittleEndian) {
    while (Pos + 8 <= Len) {
      uint64_t M = swarSeparatorMask(swarLoad(D + Pos));
      if (M)
        return Pos + (static_cast<size_t>(std::countr_zero(M)) >> 3);
      Pos += 8;
    }
  }
  while (Pos < Len && !isSeparator(D[Pos]))
    ++Pos;
  return Pos;
}

/// First non-separator at or after \p Pos, or Len.
inline size_t scanPastSepScalar(const char *D, size_t Len, size_t Pos) {
  if constexpr (LittleEndian) {
    while (Pos + 8 <= Len) {
      uint64_t M = ~swarSeparatorMask(swarLoad(D + Pos)) & SwarHigh;
      if (M)
        return Pos + (static_cast<size_t>(std::countr_zero(M)) >> 3);
      Pos += 8;
    }
  }
  while (Pos < Len && isSeparator(D[Pos]))
    ++Pos;
  return Pos;
}

/// First '\n' at or after \p Pos, or Len.
inline size_t scanToNewlineScalar(const char *D, size_t Len, size_t Pos) {
  if constexpr (LittleEndian) {
    while (Pos + 8 <= Len) {
      uint64_t M = swarEqMask(swarLoad(D + Pos), '\n');
      if (M)
        return Pos + (static_cast<size_t>(std::countr_zero(M)) >> 3);
      Pos += 8;
    }
  }
  while (Pos < Len && D[Pos] != '\n')
    ++Pos;
  return Pos;
}

#if defined(__SSE2__)

inline int sseSeparatorMask(__m128i V) {
  __m128i M = _mm_or_si128(
      _mm_or_si128(_mm_cmpeq_epi8(V, _mm_set1_epi8(' ')),
                   _mm_cmpeq_epi8(V, _mm_set1_epi8('\t'))),
      _mm_cmpeq_epi8(V, _mm_set1_epi8('\n')));
  return _mm_movemask_epi8(M);
}

inline size_t scanToSepSimd(const char *D, size_t Len, size_t Pos) {
  while (Pos + 16 <= Len) {
    int M = sseSeparatorMask(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(D + Pos)));
    if (M)
      return Pos + static_cast<size_t>(
                       std::countr_zero(static_cast<unsigned>(M)));
    Pos += 16;
  }
  return scanToSepScalar(D, Len, Pos);
}

inline size_t scanPastSepSimd(const char *D, size_t Len, size_t Pos) {
  while (Pos + 16 <= Len) {
    int M = ~sseSeparatorMask(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(D + Pos))) &
            0xffff;
    if (M)
      return Pos + static_cast<size_t>(
                       std::countr_zero(static_cast<unsigned>(M)));
    Pos += 16;
  }
  return scanPastSepScalar(D, Len, Pos);
}

inline size_t scanToNewlineSimd(const char *D, size_t Len, size_t Pos) {
  const __m128i Nl = _mm_set1_epi8('\n');
  while (Pos + 16 <= Len) {
    int M = _mm_movemask_epi8(_mm_cmpeq_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(D + Pos)), Nl));
    if (M)
      return Pos + static_cast<size_t>(
                       std::countr_zero(static_cast<unsigned>(M)));
    Pos += 16;
  }
  return scanToNewlineScalar(D, Len, Pos);
}

#elif defined(__aarch64__)

/// Narrows a byte-wise compare result to a 64-bit mask, one nibble per
/// byte lane (the usual vshrn trick); countr_zero(mask) >> 2 is the lane.
inline uint64_t neonNibbleMask(uint8x16_t Eq) {
  return vget_lane_u64(
      vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(Eq), 4)), 0);
}

inline uint8x16_t neonSeparatorEq(uint8x16_t V) {
  return vorrq_u8(vorrq_u8(vceqq_u8(V, vdupq_n_u8(' ')),
                           vceqq_u8(V, vdupq_n_u8('\t'))),
                  vceqq_u8(V, vdupq_n_u8('\n')));
}

inline size_t scanToSepSimd(const char *D, size_t Len, size_t Pos) {
  while (Pos + 16 <= Len) {
    uint64_t M = neonNibbleMask(neonSeparatorEq(
        vld1q_u8(reinterpret_cast<const uint8_t *>(D + Pos))));
    if (M)
      return Pos + (static_cast<size_t>(std::countr_zero(M)) >> 2);
    Pos += 16;
  }
  return scanToSepScalar(D, Len, Pos);
}

inline size_t scanPastSepSimd(const char *D, size_t Len, size_t Pos) {
  while (Pos + 16 <= Len) {
    uint64_t M = neonNibbleMask(vmvnq_u8(neonSeparatorEq(
        vld1q_u8(reinterpret_cast<const uint8_t *>(D + Pos)))));
    if (M)
      return Pos + (static_cast<size_t>(std::countr_zero(M)) >> 2);
    Pos += 16;
  }
  return scanPastSepScalar(D, Len, Pos);
}

inline size_t scanToNewlineSimd(const char *D, size_t Len, size_t Pos) {
  while (Pos + 16 <= Len) {
    uint64_t M = neonNibbleMask(
        vceqq_u8(vld1q_u8(reinterpret_cast<const uint8_t *>(D + Pos)),
                 vdupq_n_u8('\n')));
    if (M)
      return Pos + (static_cast<size_t>(std::countr_zero(M)) >> 2);
    Pos += 16;
  }
  return scanToNewlineScalar(D, Len, Pos);
}

#endif // SIMD flavor

/// 0x80 in exactly the bytes of \p W that are NOT ASCII digits. Carry-free:
/// the low-nibble +6 probe cannot cross a byte (0x0f + 6 < 0x100).
inline uint64_t swarNonDigitMask(uint64_t W) {
  constexpr uint64_t HighNibbles = 0xf0f0f0f0f0f0f0f0ull;
  constexpr uint64_t Zeros = 0x3030303030303030ull;
  uint64_t HighIs3 = swarZeroMask((W ^ Zeros) & HighNibbles);
  uint64_t LowGt9 = ((W & ~HighNibbles) + 0x0606060606060606ull) &
                    0x1010101010101010ull;
  return (~HighIs3 | (LowGt9 << 3)) & SwarHigh;
}

/// True iff all 8 bytes of \p W are ASCII digits.
inline bool isEightDigits(uint64_t W) {
  return ((W & 0xf0f0f0f0f0f0f0f0ull) |
          (((W + 0x0606060606060606ull) & 0xf0f0f0f0f0f0f0f0ull) >> 4)) ==
         0x3333333333333333ull;
}

/// Converts 8 ASCII digits (little-endian in \p W, leftmost digit in the
/// low byte) to their value with three multiplies.
inline uint32_t parseEightDigits(uint64_t W) {
  constexpr uint64_t Mask = 0x000000ff000000ffull;
  constexpr uint64_t Mul1 = 100 + (1000000ull << 32);
  constexpr uint64_t Mul2 = 1 + (10000ull << 32);
  W -= 0x3030303030303030ull;
  W = (W * 10) + (W >> 8); // adjacent digit pairs
  return static_cast<uint32_t>(
      (((W & Mask) * Mul1) + (((W >> 16) & Mask) * Mul2)) >> 32);
}

/// Accumulates \p N all-digit bytes into \p Out. False if any byte is not
/// a digit; no overflow checks — the caller bounds N so the value fits.
/// Branch-light: validity is a running flag, not a per-digit branch.
template <typename IntT>
inline bool parseDigitsFast(const char *P, size_t N, IntT &Out) {
  uint64_t Val = 0;
  bool Ok = true;
  size_t I = 0;
  if constexpr (LittleEndian) {
    for (; N - I >= 8; I += 8) {
      uint64_t W = swarLoad(P + I);
      Ok &= isEightDigits(W);
      Val = Val * 100000000 + parseEightDigits(W);
    }
  }
  for (; I < N; ++I) {
    unsigned D = static_cast<unsigned char>(P[I]) - '0';
    Ok &= D <= 9;
    Val = Val * 10 + D;
  }
  Out = static_cast<IntT>(Val);
  return Ok;
}

/// The runtime dispatch switch. Relaxed atomic (a plain load on every
/// target) so the fuzz suite can flip implementations between pipeline
/// runs without racing the check itself.
inline std::atomic<bool> SimdEnabled{true};

} // namespace detail

/// True when an SSE2/NEON scanner was compiled in at all.
constexpr bool simdTokenizerCompiled() { return AWDIT_TOKEN_SIMD != 0; }

/// Runtime switch between the SIMD scanners and the scalar SWAR fallback
/// (testing hook; the fallback is always compiled). No-op when no SIMD
/// flavor was compiled in.
inline void setSimdTokenizer(bool On) {
  detail::SimdEnabled.store(On, std::memory_order_relaxed);
}
inline bool simdTokenizerEnabled() {
#if AWDIT_TOKEN_SIMD
  return detail::SimdEnabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Position of the first token separator (space/tab/newline) at or after
/// \p Pos, or Text.size() if none.
inline size_t scanToSeparator(std::string_view Text, size_t Pos) {
#if AWDIT_TOKEN_SIMD
  if (detail::SimdEnabled.load(std::memory_order_relaxed))
    return detail::scanToSepSimd(Text.data(), Text.size(), Pos);
#endif
  return detail::scanToSepScalar(Text.data(), Text.size(), Pos);
}

/// Position of the first non-separator at or after \p Pos, or Text.size().
inline size_t scanPastSeparators(std::string_view Text, size_t Pos) {
#if AWDIT_TOKEN_SIMD
  if (detail::SimdEnabled.load(std::memory_order_relaxed))
    return detail::scanPastSepSimd(Text.data(), Text.size(), Pos);
#endif
  return detail::scanPastSepScalar(Text.data(), Text.size(), Pos);
}

/// Position of the first '\n' at or after \p Pos, or Text.size() — the
/// line splitter of the ingest pipeline.
inline size_t scanToNewline(std::string_view Text, size_t Pos) {
#if AWDIT_TOKEN_SIMD
  if (detail::SimdEnabled.load(std::memory_order_relaxed))
    return detail::scanToNewlineSimd(Text.data(), Text.size(), Pos);
#endif
  return detail::scanToNewlineScalar(Text.data(), Text.size(), Pos);
}

/// from_chars over the whole token — the shared slow path of parseInt()
/// and the cursors' nextInt(), and the definition of their strictness.
template <typename IntT>
bool parseIntSlow(std::string_view Token, IntT &Out) {
  auto [Ptr, Ec] =
      std::from_chars(Token.data(), Token.data() + Token.size(), Out);
  return Ec == std::errc() && Ptr == Token.data() + Token.size();
}

/// Walks the space/tab-separated tokens of one line in place (the native
/// and dbcop grammars, and the server's verbs). Tokens are never empty, so
/// an empty next() means the line is exhausted.
class TokenCursor {
public:
  explicit TokenCursor(std::string_view Line) : Line(Line) {}

  /// The next token, or an empty view once the line is exhausted.
  std::string_view next() {
    skipSeparators();
    size_t Start = Pos;
    if (Pos == Line.size())
      return {};
    // One-char tokens — every native/dbcop directive — skip the scanner.
    if (Pos + 1 == Line.size() || detail::isSeparator(Line[Pos + 1]))
      Pos = Start + 1;
    else
      Pos = scanToSeparator(Line, Pos + 1);
    return Line.substr(Start, Pos - Start);
  }

  /// True when only separators (or nothing) remain — the cursor's
  /// equivalent of the old `Tok.size() != N` trailing-garbage check.
  bool atEnd() {
    skipSeparators();
    return Pos == Line.size();
  }

  /// Fused next()+parseInt(): skips separators, accumulates the digit run
  /// and checks its terminator in one pass — the common token is a short
  /// decimal number, and scanning it twice (once to delimit, once to
  /// parse) is the decode path's main waste. Any token that is not a
  /// short all-digit run (signs, overflow-length, garbage, nothing left)
  /// is re-delimited and handed to std::from_chars, so accept/reject
  /// behavior is bit-identical to parseInt(next(), Out).
  template <typename IntT> bool nextInt(IntT &Out) {
    skipSeparators();
    size_t Start = Pos;
    constexpr size_t FastDigits = std::numeric_limits<IntT>::digits10;
    if constexpr (detail::LittleEndian) {
      // The hot shape: a 1-7 digit run — classified and parsed with two
      // multiplies, no per-digit dependency chain. The window is clamped
      // to the line so the final token qualifies too; the right-shift
      // zero-fill reads as non-digits, ending the run at the line end.
      if (Line.size() >= 8 && Start < Line.size()) {
        size_t LoadAt = Start < Line.size() - 8 ? Start : Line.size() - 8;
        uint64_t W = detail::swarLoad(Line.data() + LoadAt) >>
                     (8 * (Start - LoadAt));
        uint64_t NonDigit = detail::swarNonDigitMask(W);
        size_t N =
            NonDigit ? static_cast<size_t>(std::countr_zero(NonDigit)) >> 3
                     : 8;
        if (N - 1 < 7 && N <= FastDigits && // 1 <= digits <= 7
            (Start + N == Line.size() ||
             detail::isSeparator(Line[Start + N]))) {
          // Left-align the digits and fill the lead bytes with '0'.
          uint64_t Digits = (W << (8 * (8 - N))) |
                            (0x3030303030303030ull >> (8 * N));
          Out = static_cast<IntT>(detail::parseEightDigits(Digits));
          Pos = Start + N;
          return true;
        }
      }
    }
    uint64_t Val = 0;
    size_t P = Start;
    while (P < Line.size()) {
      unsigned D = static_cast<unsigned char>(Line[P]) - '0';
      if (D > 9)
        break;
      Val = Val * 10 + D;
      ++P;
    }
    if (P - Start - 1 < FastDigits && // 1 <= digits <= digits10
        (P == Line.size() || detail::isSeparator(Line[P]))) {
      Pos = P;
      Out = static_cast<IntT>(Val);
      return true;
    }
    Pos = scanToSeparator(Line, P);
    return parseIntSlow(Line.substr(Start, Pos - Start), Out);
  }

private:
  /// Positions the cursor on the next non-separator (or the end). The
  /// grammar's norm is exactly one space between tokens, so one byte test
  /// settles it; runs fall through to the block scanners.
  void skipSeparators() {
    if (Pos < Line.size() && detail::isSeparator(Line[Pos])) {
      ++Pos;
      if (Pos < Line.size() && detail::isSeparator(Line[Pos]))
        Pos = scanPastSeparators(Line, Pos);
    }
  }

  std::string_view Line;
  size_t Pos = 0;
};

/// Walks the comma-separated fields of one line in place (the plume
/// grammar: empty fields are kept, so a line always has at least one).
class CsvCursor {
public:
  explicit CsvCursor(std::string_view Line) : Line(Line) {}

  /// Writes the next field into \p Field; false once all fields have been
  /// consumed. The first call on any line returns true.
  bool next(std::string_view &Field) {
    if (Done)
      return false;
    const void *Comma = std::memchr(Line.data() + Pos, ',', Line.size() - Pos);
    if (!Comma) {
      Field = Line.substr(Pos);
      Pos = Line.size();
      Done = true;
      return true;
    }
    size_t At = static_cast<size_t>(static_cast<const char *>(Comma) -
                                    Line.data());
    Field = Line.substr(Pos, At - Pos);
    Pos = At + 1;
    return true;
  }

  /// True when every field has been consumed (the `F.size() != N` check).
  bool atEnd() const { return Done; }

  /// Fused next()+parseInt() for a field, mirroring TokenCursor::nextInt:
  /// the short all-digit field terminated by ',' or end-of-line parses in
  /// one pass; anything else falls back to from_chars on the delimited
  /// field. False when no field remains.
  template <typename IntT> bool nextInt(IntT &Out) {
    if (Done)
      return false;
    size_t Start = Pos;
    constexpr size_t FastDigitsSwar = 7;
    if constexpr (detail::LittleEndian) {
      // Mirror of TokenCursor::nextInt's word fast path, ',' or line-end
      // terminated.
      if (Line.size() >= 8 && Start < Line.size() &&
          FastDigitsSwar <= std::numeric_limits<IntT>::digits10) {
        size_t LoadAt = Start < Line.size() - 8 ? Start : Line.size() - 8;
        uint64_t W = detail::swarLoad(Line.data() + LoadAt) >>
                     (8 * (Start - LoadAt));
        uint64_t NonDigit = detail::swarNonDigitMask(W);
        size_t N =
            NonDigit ? static_cast<size_t>(std::countr_zero(NonDigit)) >> 3
                     : 8;
        if (N - 1 < FastDigitsSwar) { // 1 <= digits <= 7
          uint64_t Digits = (W << (8 * (8 - N))) |
                            (0x3030303030303030ull >> (8 * N));
          if (Start + N == Line.size()) {
            Out = static_cast<IntT>(detail::parseEightDigits(Digits));
            Pos = Line.size();
            Done = true;
            return true;
          }
          if (Line[Start + N] == ',') {
            Out = static_cast<IntT>(detail::parseEightDigits(Digits));
            Pos = Start + N + 1;
            return true;
          }
        }
      }
    }
    uint64_t Val = 0;
    size_t P = Pos;
    while (P < Line.size()) {
      unsigned D = static_cast<unsigned char>(Line[P]) - '0';
      if (D > 9)
        break;
      Val = Val * 10 + D;
      ++P;
    }
    constexpr size_t FastDigits = std::numeric_limits<IntT>::digits10;
    if (P - Start - 1 < FastDigits) { // 1 <= digits <= digits10
      if (P == Line.size()) {
        Pos = P;
        Done = true;
        Out = static_cast<IntT>(Val);
        return true;
      }
      if (Line[P] == ',') {
        Pos = P + 1;
        Out = static_cast<IntT>(Val);
        return true;
      }
    }
    std::string_view Field;
    next(Field);
    return parseIntSlow(Field, Out);
  }

private:
  std::string_view Line;
  size_t Pos = 0;
  bool Done = false;
};

/// Parses the whole token as an integer; false on any trailing garbage.
/// All-digit tokens short enough that overflow is impossible (digits10 of
/// the type) take the branch-light fast path; everything else — signs,
/// boundary lengths, garbage — is decided by std::from_chars, whose
/// strictness (no leading '+', no empty token, exact overflow at the
/// type's limits) this function inherits unchanged.
template <typename IntT>
bool parseInt(std::string_view Token, IntT &Out) {
  constexpr size_t FastDigits = std::numeric_limits<IntT>::digits10;
  size_t N = Token.size();
  if (N - 1 < FastDigits) { // 1 <= N <= digits10 (wraps on N == 0)
    IntT V;
    if (detail::parseDigitsFast(Token.data(), N, V)) {
      Out = V;
      return true;
    }
  }
  return parseIntSlow(Token, Out);
}

} // namespace awdit::io

#endif // AWDIT_IO_TOKEN_UTIL_H
