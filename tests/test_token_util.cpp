//===- tests/test_token_util.cpp - Tokenizer and parseInt battery -----------===//
//
// Locks the ingest fast path's contract:
//
//  - parseInt()/nextInt() keep std::from_chars strictness bit for bit —
//    leading '+', overflow at exactly INT64_MAX / UINT64_MAX + 1, empty
//    tokens, and a lone '-' all behave as the pre-fast-path parser did.
//  - The SIMD scanners and the always-compiled scalar SWAR fallback are
//    interchangeable: on random byte soup and random valid lines they
//    must produce identical token spans and identical decode results, and
//    a chunked pipeline run must not care which one was active or where
//    the chunk boundaries fell.
//
//===----------------------------------------------------------------------===//

#include "checker/monitor.h"
#include "io/sharded_ingest.h"
#include "io/stream_parser.h"
#include "io/token_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

using namespace awdit;

namespace {

/// Restores the tokenizer dispatch on scope exit so a failing test cannot
/// leave the process on the scalar path.
struct SimdGuard {
  ~SimdGuard() { io::setSimdTokenizer(true); }
};

template <typename IntT>
void expectParse(std::string_view Token, bool Ok, IntT Expected = 0) {
  IntT Via = static_cast<IntT>(~Expected); // poison
  EXPECT_EQ(io::parseInt(Token, Via), Ok) << "parseInt('" << Token << "')";
  if (Ok) {
    EXPECT_EQ(Via, Expected) << "parseInt('" << Token << "')";
  }

  // An empty token cannot be embedded in a line — the space-separated
  // variants below would just collapse around it.
  if (Token.empty())
    return;

  // The fused cursor paths must agree with parseInt exactly, both as the
  // only token and mid-line (word fast path vs line-tail path).
  for (std::string Line : {std::string(Token),
                           std::string(Token) + " 1",
                           "1 " + std::string(Token)}) {
    io::TokenCursor C(Line);
    if (Line.front() == '1' && Line[1] == ' ') {
      IntT Skip;
      ASSERT_TRUE(C.nextInt(Skip));
    }
    IntT Got = static_cast<IntT>(~Expected);
    EXPECT_EQ(C.nextInt(Got), Ok) << "nextInt('" << Token << "') in '"
                                  << Line << "'";
    if (Ok) {
      EXPECT_EQ(Got, Expected) << "nextInt('" << Token << "') in '" << Line
                               << "'";
    }
  }
  for (std::string Line : {std::string(Token),
                           std::string(Token) + ",1",
                           "1," + std::string(Token)}) {
    io::CsvCursor C(Line);
    if (Line.front() == '1' && Line[1] == ',') {
      IntT Skip;
      ASSERT_TRUE(C.nextInt(Skip));
    }
    IntT Got = static_cast<IntT>(~Expected);
    EXPECT_EQ(C.nextInt(Got), Ok) << "csv nextInt('" << Token << "') in '"
                                  << Line << "'";
    if (Ok) {
      EXPECT_EQ(Got, Expected) << "csv nextInt('" << Token << "') in '"
                               << Line << "'";
    }
  }
}

} // namespace

TEST(ParseInt, PlainDigits) {
  expectParse<uint64_t>("0", true, 0);
  expectParse<uint64_t>("7", true, 7);
  expectParse<uint64_t>("1234567", true, 1234567);
  expectParse<uint64_t>("12345678", true, 12345678);
  expectParse<uint64_t>("123456789012345", true, 123456789012345ull);
  expectParse<int64_t>("42", true, 42);
  // Leading zeros are plain digits to from_chars, so they stay accepted.
  expectParse<uint64_t>("007", true, 7);
}

TEST(ParseInt, LeadingPlusRejected) {
  // std::from_chars never accepted '+'; the fast path must not start.
  expectParse<uint64_t>("+5", false);
  expectParse<int64_t>("+5", false);
  expectParse<int64_t>("+", false);
}

TEST(ParseInt, NegativeNumbers) {
  // Signed targets keep from_chars' '-' handling; unsigned reject it.
  expectParse<int64_t>("-5", true, -5);
  expectParse<int64_t>("-0", true, 0);
  expectParse<uint64_t>("-5", false);
}

TEST(ParseInt, OverflowAtExactBoundary) {
  expectParse<int64_t>("9223372036854775807", true,
                       std::numeric_limits<int64_t>::max());
  expectParse<int64_t>("9223372036854775808", false);
  expectParse<int64_t>("-9223372036854775808", true,
                       std::numeric_limits<int64_t>::min());
  expectParse<int64_t>("-9223372036854775809", false);
  expectParse<uint64_t>("18446744073709551615", true,
                        std::numeric_limits<uint64_t>::max());
  expectParse<uint64_t>("18446744073709551616", false);
  expectParse<uint32_t>("4294967295", true,
                        std::numeric_limits<uint32_t>::max());
  expectParse<uint32_t>("4294967296", false);
}

TEST(ParseInt, EmptyToken) {
  uint64_t V = 99;
  EXPECT_FALSE(io::parseInt(std::string_view(), V));
  expectParse<uint64_t>("", false);
}

TEST(ParseInt, LoneMinus) {
  expectParse<int64_t>("-", false);
  expectParse<uint64_t>("-", false);
}

TEST(ParseInt, TrailingGarbageRejected) {
  expectParse<uint64_t>("12x", false);
  expectParse<uint64_t>("x12", false);
  expectParse<uint64_t>("1.5", false);
  expectParse<uint64_t>("0x10", false);
}

//===----------------------------------------------------------------------===//
// SIMD vs scalar equivalence.
//===----------------------------------------------------------------------===//

namespace {

/// Token spans of one line as (offset, length) pairs under the currently
/// selected scanner implementation.
std::vector<std::pair<size_t, size_t>> spansOf(std::string_view Line) {
  std::vector<std::pair<size_t, size_t>> Spans;
  io::TokenCursor C(Line);
  for (std::string_view T = C.next(); !T.empty(); T = C.next())
    Spans.emplace_back(static_cast<size_t>(T.data() - Line.data()),
                       T.size());
  return Spans;
}

void expectSameEvent(const LineEvent &A, const LineEvent &B,
                     const std::string &Context) {
  EXPECT_EQ(A.Kind, B.Kind) << Context;
  EXPECT_EQ(A.Session, B.Session) << Context;
  EXPECT_EQ(A.Num, B.Num) << Context;
  EXPECT_EQ(A.K, B.K) << Context;
  EXPECT_EQ(A.V, B.V) << Context;
  EXPECT_EQ(A.Flag, B.Flag) << Context;
  EXPECT_EQ(A.Error, B.Error) << Context;
}

/// A seeded mix of valid-looking history lines and raw byte soup,
/// including separators, signs, long digit runs, and high bytes.
std::string randomSoup(std::mt19937_64 &Rng, size_t Bytes) {
  static const char Alphabet[] =
      "0123456789 \t\nbrwcat#,-+xyz\x01\x7f\x80\xff";
  std::string S;
  S.reserve(Bytes);
  while (S.size() < Bytes) {
    if (Rng() % 4 == 0) {
      // A plausible native/dbcop/plume fragment.
      switch (Rng() % 5) {
      case 0:
        S += "b " + std::to_string(Rng() % 100) + "\n";
        break;
      case 1:
        S += "w " + std::to_string(Rng() % 1000000) + " " +
             std::to_string(Rng()) + "\n";
        break;
      case 2:
        S += "r\t" + std::to_string(Rng() % 97) + "  " +
             std::to_string(Rng() % 1000) + "\n";
        break;
      case 3:
        S += std::to_string(Rng() % 50) + "," + std::to_string(Rng() % 50) +
             ",w," + std::to_string(Rng() % 1000) + "," +
             std::to_string(Rng()) + "\n";
        break;
      default:
        S += "c\n";
        break;
      }
    } else {
      size_t N = 1 + Rng() % 24;
      for (size_t I = 0; I < N; ++I)
        S += Alphabet[Rng() % (sizeof(Alphabet) - 1)];
    }
  }
  return S;
}

std::vector<std::string_view> linesOf(std::string_view Text) {
  std::vector<std::string_view> Lines;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string_view::npos) {
      Lines.push_back(Text.substr(Pos));
      break;
    }
    Lines.push_back(Text.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  return Lines;
}

} // namespace

TEST(TokenizerFuzz, SimdAndScalarProduceIdenticalSpansAndDecodes) {
  SimdGuard Guard;
  std::mt19937_64 Rng(0x70CE17u); // fixed seed: failures must reproduce
  for (int Iter = 0; Iter < 40; ++Iter) {
    std::string Soup = randomSoup(Rng, 300 + Rng() % 700);
    for (std::string_view Line : linesOf(Soup)) {
      io::setSimdTokenizer(true);
      auto SimdSpans = spansOf(Line);
      LineEvent SimdNative = decodeNativeLine(Line);
      LineEvent SimdPlume = decodePlumeLine(Line);
      LineEvent SimdDbcop = decodeDbcopLine(Line);

      io::setSimdTokenizer(false);
      auto ScalarSpans = spansOf(Line);
      LineEvent ScalarNative = decodeNativeLine(Line);
      LineEvent ScalarPlume = decodePlumeLine(Line);
      LineEvent ScalarDbcop = decodeDbcopLine(Line);

      std::string Context =
          "iter " + std::to_string(Iter) + " line '" + std::string(Line) +
          "'";
      EXPECT_EQ(SimdSpans, ScalarSpans) << Context;
      expectSameEvent(SimdNative, ScalarNative, Context + " [native]");
      expectSameEvent(SimdPlume, ScalarPlume, Context + " [plume]");
      expectSameEvent(SimdDbcop, ScalarDbcop, Context + " [dbcop]");
    }
  }
}

/// Scanner equivalence position by position: every scan primitive agrees
/// between implementations from every starting offset of random buffers.
TEST(TokenizerFuzz, ScannersAgreeAtEveryOffset) {
  SimdGuard Guard;
  std::mt19937_64 Rng(0x5EEDu);
  for (int Iter = 0; Iter < 20; ++Iter) {
    std::string Soup = randomSoup(Rng, 200);
    std::string_view V = Soup;
    for (size_t Pos = 0; Pos <= V.size(); ++Pos) {
      io::setSimdTokenizer(true);
      size_t ToSep = io::scanToSeparator(V, Pos);
      size_t PastSep = io::scanPastSeparators(V, Pos);
      size_t ToNl = io::scanToNewline(V, Pos);
      io::setSimdTokenizer(false);
      EXPECT_EQ(ToSep, io::scanToSeparator(V, Pos)) << "pos " << Pos;
      EXPECT_EQ(PastSep, io::scanPastSeparators(V, Pos)) << "pos " << Pos;
      EXPECT_EQ(ToNl, io::scanToNewline(V, Pos)) << "pos " << Pos;
    }
  }
}

/// End to end: a chunked pipeline run must not care which scanner was
/// active or where the chunk boundaries fell — same error, same cursor,
/// same stats (the chunking-invariance pattern of test_sharded_monitor,
/// pointed at the tokenizer dispatch). A failure is synchronous, so the
/// cursor after an error must agree too.
TEST(TokenizerFuzz, ChunkedPipelineInvariantUnderDispatch) {
  SimdGuard Guard;
  std::mt19937_64 Rng(0xCAFEu);
  for (int Iter = 0; Iter < 6; ++Iter) {
    // A valid prefix followed by soup: the pipeline decodes real lines,
    // then fails on garbage — the failure line and text must agree too.
    std::string Text;
    for (int S = 0; S < 4; ++S) {
      Text += "b " + std::to_string(S) + "\n";
      for (int O = 0; O < 8; ++O)
        Text += "w " + std::to_string(1 + Rng() % 64) + " " +
                std::to_string(1 + Iter * 1000 + S * 100 + O) + "\n";
      Text += "c\n";
    }
    if (Iter % 2 == 1)
      Text += randomSoup(Rng, 120);

    struct Outcome {
      ShardedMonitorIngest::EndState End;
      std::string Error;
      uint64_t Offset, LineNo, Txns;
      bool operator==(const Outcome &O) const {
        return End == O.End && Error == O.Error && Txns == O.Txns &&
               Offset == O.Offset && LineNo == O.LineNo;
      }
    };
    auto Run = [&](bool Simd, size_t Chunk) {
      io::setSimdTokenizer(Simd);
      MonitorOptions Options;
      Options.Level = IsolationLevel::CausalConsistency;
      Options.CheckIntervalTxns = 16;
      Monitor M(Options);
      ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1);
      for (size_t Pos = 0; Pos < Text.size(); Pos += Chunk)
        if (!Ingest.feed(std::string_view(Text).substr(Pos, Chunk)))
          break;
      Outcome O;
      O.End = Ingest.finishStream();
      O.Error = Ingest.errorText();
      O.Offset = Ingest.streamOffset();
      O.LineNo = Ingest.lineNumber();
      O.Txns = M.stats().IngestedTxns;
      return O;
    };

    Outcome Ref = Run(true, 4096);
    for (size_t Chunk : {1ul, 7ul, 333ul})
      for (bool Simd : {true, false}) {
        Outcome Got = Run(Simd, Chunk);
        EXPECT_TRUE(Ref == Got)
            << "iter " << Iter << " chunk " << Chunk << " simd " << Simd
            << " — ref error '" << Ref.Error << "' line " << Ref.LineNo
            << " offset " << Ref.Offset << ", got error '" << Got.Error
            << "' line " << Got.LineNo << " offset " << Got.Offset;
      }
  }
}
