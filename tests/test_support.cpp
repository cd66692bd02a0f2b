//===- tests/test_support.cpp - Support utilities tests ----------------------===//

#include "support/rng.h"
#include "support/serialize.h"
#include "support/timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

using namespace awdit;

TEST(Rng, DeterministicForSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversDomain) {
  Rng R(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.nextBelow(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(3);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 200; ++I) {
    uint64_t V = R.nextInRange(5, 7);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 7u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 3u);
}

TEST(Rng, NextBoolExtremes) {
  Rng R(9);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(R.nextBool(0.0));
    EXPECT_TRUE(R.nextBool(1.0));
  }
}

TEST(Rng, NextDoubleUnitInterval) {
  Rng R(11);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng R(13);
  std::vector<double> Weights = {0.0, 1.0, 0.0};
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(R.nextWeighted(Weights), 1u);
}

TEST(Rng, WeightedHitsAllPositive) {
  Rng R(17);
  std::vector<double> Weights = {1.0, 2.0, 1.0};
  std::set<size_t> Seen;
  for (int I = 0; I < 300; ++I)
    Seen.insert(R.nextWeighted(Weights));
  EXPECT_EQ(Seen.size(), 3u);
}

TEST(Rng, ZipfStaysInDomain) {
  Rng R(19);
  for (double Theta : {0.0, 0.5, 1.0, 1.5})
    for (int I = 0; I < 500; ++I)
      EXPECT_LT(R.nextZipf(37, Theta), 37u);
}

TEST(Rng, ZipfSkewsTowardLowIndices) {
  Rng R(23);
  size_t Low = 0;
  constexpr int Samples = 2000;
  for (int I = 0; I < Samples; ++I)
    if (R.nextZipf(100, 1.0) < 10)
      ++Low;
  // Uniform would put ~10% below 10; Zipf(1.0) puts roughly half.
  EXPECT_GT(Low, Samples / 4u);
}

TEST(Rng, ForkDecorrelates) {
  Rng A(31);
  Rng B = A.fork();
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer T;
  double E1 = T.elapsedSeconds();
  EXPECT_GE(E1, 0.0);
  volatile uint64_t Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + I;
  EXPECT_GE(T.elapsedSeconds(), E1);
}

TEST(Deadline, NonPositiveNeverExpires) {
  Deadline D(0.0);
  EXPECT_FALSE(D.expired());
  Deadline D2(-1.0);
  EXPECT_FALSE(D2.expired());
}

TEST(Deadline, TinyDeadlineExpires) {
  Deadline D(1e-9);
  volatile uint64_t Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + I;
  EXPECT_TRUE(D.expired());
}

//===----------------------------------------------------------------------===//
// ByteWriter chunk mode
//===----------------------------------------------------------------------===//

namespace {

/// The buffered form of a chunked serialization, as the reference: marks
/// recorded by ByteWriter's rules while the whole stream is buffered, then
/// the stream sliced at them.
struct SlicedAtMarks {
  std::string Bytes;
  std::vector<ChunkMark> Marks;
  uint64_t Ignored = 0, Remarked = 0;

  void chunk(uint64_t Id) {
    if (!Marks.empty()) {
      if (Id <= Marks.back().Id) {
        ++Ignored;
        return;
      }
      if (Marks.back().Offset == Bytes.size()) {
        Marks.back().Id = Id;
        ++Remarked;
        return;
      }
    }
    Marks.push_back({Bytes.size(), Id});
  }

  std::vector<std::pair<uint64_t, std::string>> slices() const {
    std::vector<std::pair<uint64_t, std::string>> Out;
    if (!Marks.empty() && Marks.front().Offset != 0)
      Out.emplace_back(0, Bytes.substr(0, Marks.front().Offset));
    else if (Marks.empty() && !Bytes.empty())
      Out.emplace_back(0, Bytes);
    for (size_t I = 0; I < Marks.size(); ++I) {
      size_t End = I + 1 < Marks.size() ? Marks[I + 1].Offset : Bytes.size();
      Out.emplace_back(Marks[I].Id,
                       Bytes.substr(Marks[I].Offset, End - Marks[I].Offset));
    }
    return Out;
  }
};

struct RecordingSink final : ChunkSink {
  std::vector<std::pair<uint64_t, std::string>> Got;
  void put(uint64_t Id, std::string_view Bytes) override {
    Got.emplace_back(Id, std::string(Bytes));
  }
};

} // namespace

/// Streaming each chunk to a sink gives exactly the (id, bytes) list that
/// slicing the buffered stream at its recorded marks gives: non-increasing
/// ids ignored, a re-mark before any byte replacing the empty mark, an
/// unmarked prefix as chunk 0, and the chunk after the last mark emitted
/// even when empty. The collector reassembles the same stream and marks.
TEST(ByteWriter, ChunkSinkMatchesSlicingAtMarks) {
  Rng R(2024);
  // How often each rule fired, over all trials.
  uint64_t Ignored = 0, Remarked = 0, Prefixes = 0;
  uint64_t EmptyLast = 0, Unmarked = 0, Nothing = 0;
  for (int Trial = 0; Trial < 400; ++Trial) {
    SlicedAtMarks Ref;
    RecordingSink Sink;
    std::string Scratch = "stale bytes the writer must drop";
    ByteWriter W(Scratch, Sink);
    std::string Plain;
    ByteWriter PW(Plain);
    uint64_t NextId = R.nextBelow(3);
    bool Marks = Trial % 17 != 0; // some trials never mark
    size_t Steps = Trial % 23 == 0 ? 0 : R.nextBelow(40);
    for (size_t Step = 0; Step < Steps; ++Step) {
      uint64_t Op = R.nextBelow(10);
      if (Marks && Op < 4) {
        // A quarter of the marks repeat or go back, and are ignored.
        uint64_t Id = NextId + 1 + R.nextBelow(1000);
        if (R.nextBelow(4) == 0)
          Id = NextId - R.nextBelow(std::min<uint64_t>(NextId, 3) + 1);
        NextId = std::max(NextId, Id);
        W.chunk(Id);
        PW.chunk(Id);
        Ref.chunk(Id);
        continue;
      }
      uint64_t V = R.next();
      std::string S(R.nextBelow(20), static_cast<char>('a' + Op));
      auto Field = [&](ByteWriter &X) {
        switch (Op % 5) {
        case 0:
          X.u8(static_cast<uint8_t>(V));
          break;
        case 1:
          X.u32(static_cast<uint32_t>(V));
          break;
        case 2:
          X.u64(V);
          break;
        case 3:
          X.boolean(V & 1);
          break;
        default:
          X.str(S);
          break;
        }
      };
      size_t Before = Plain.size();
      Field(PW);
      Field(W);
      Ref.Bytes.append(Plain, Before);
    }
    if (Marks && R.nextBool(0.3)) { // a mark as the very last call
      W.chunk(NextId + 1);
      Ref.chunk(NextId + 1);
    }
    W.finish();

    auto Want = Ref.slices();
    ASSERT_EQ(Sink.Got, Want) << "trial " << Trial;
    EXPECT_EQ(Ref.Bytes, Plain) << "trial " << Trial;

    // The collector concatenates the same chunks and records their starts.
    std::string Bytes;
    std::vector<ChunkMark> Collected;
    ChunkCollector Collect(Bytes, Collected);
    for (const auto &[Id, Chunk] : Sink.Got)
      Collect.put(Id, Chunk);
    EXPECT_EQ(Bytes, Ref.Bytes) << "trial " << Trial;
    ASSERT_EQ(Collected.size(), Want.size());
    for (size_t I = 0; I < Want.size(); ++I)
      EXPECT_EQ(Collected[I].Id, Want[I].first);

    Ignored += Ref.Ignored;
    Remarked += Ref.Remarked;
    Prefixes += !Ref.Marks.empty() && Ref.Marks.front().Offset != 0;
    EmptyLast += !Want.empty() && Want.back().second.empty();
    Unmarked += Ref.Marks.empty() && !Ref.Bytes.empty();
    Nothing += Want.empty();
  }
  // Every rule was exercised.
  EXPECT_GT(Ignored, 0u);
  EXPECT_GT(Remarked, 0u);
  EXPECT_GT(Prefixes, 0u);
  EXPECT_GT(EmptyLast, 0u);
  EXPECT_GT(Unmarked, 0u);
  EXPECT_GT(Nothing, 0u);
}

/// Plain mode ignores marks: the bytes are the stream itself.
TEST(ByteWriter, PlainModeIgnoresChunkMarks) {
  std::string Out;
  ByteWriter W(Out);
  W.u32(7);
  W.chunk(5);
  W.u8(1);
  W.finish();
  EXPECT_EQ(Out.size(), 5u);
}

//===----------------------------------------------------------------------===//
// checksum64 (XXH64, seed 0)
//===----------------------------------------------------------------------===//

namespace {

/// Bytes 0, 1, ..., n-1 (mod 256).
std::string countingBytes(size_t N) {
  std::string Out(N, '\0');
  for (size_t I = 0; I < N; ++I)
    Out[I] = static_cast<char>(I);
  return Out;
}

/// \p N bytes of the splitmix64 stream from \p Seed, each output word
/// little-endian: easy to regenerate outside C++ to cross-check a value.
std::string splitmixBytes(uint64_t Seed, size_t N) {
  std::string Out;
  Out.reserve(N + 8);
  while (Out.size() < N) {
    Seed += 0x9E3779B97F4A7C15ull;
    uint64_t Z = Seed;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    Z ^= Z >> 31;
    for (int I = 0; I < 8; ++I)
      Out.push_back(static_cast<char>(Z >> (8 * I)));
  }
  Out.resize(N);
  return Out;
}

} // namespace

/// Known answers of the reference XXH64 (seed 0) at every tail path: below
/// one stripe, one stripe exactly, and stripes plus 8-, 4- and 1-byte
/// tails.
TEST(Checksum64, MatchesReferenceXxh64OnCountingBytes) {
  const std::pair<size_t, uint64_t> Cases[] = {
      {0, 0xef46db3751d8e999ull},
      {1, 0xe934a84adb052768ull},
      {3, 0xe5c7bb4533bc65ddull},
      {4, 0xffced8604453cc1eull},
      {7, 0x14cc643f630c72d2ull},
      {8, 0x884a173614b81b8dull},
      {13, 0x13d17c4c779723a8ull},
      {31, 0xc346d2b59b4d8ee1ull},
      {32, 0xcbf59c5116ff32b4ull},
      {33, 0x0c535d1acafb8eadull},
      {63, 0xe26aa9e2a95f8e4full},
      {65, 0xc31eb63b2ae4465bull},
  };
  for (const auto &[N, Want] : Cases)
    EXPECT_EQ(checksum64(countingBytes(N)), Want) << "n = " << N;
}

TEST(Checksum64, MatchesReferenceXxh64OnASeededMebibyte) {
  std::string Bytes = splitmixBytes(23, size_t(1) << 20);
  EXPECT_EQ(static_cast<uint8_t>(Bytes[0]), 0xd6);
  EXPECT_EQ(checksum64(Bytes), 0x84e44d4bbe576f20ull);
}

/// Word loads at any alignment read the same bytes.
TEST(Checksum64, UnalignedStartGivesTheSameValue) {
  std::string Bytes = splitmixBytes(5, 1000);
  uint64_t Want = checksum64(Bytes);
  for (size_t Shift = 1; Shift < 16; ++Shift) {
    std::string Padded(Shift, 'x');
    Padded += Bytes;
    EXPECT_EQ(checksum64(std::string_view(Padded).substr(Shift)), Want)
        << "shift " << Shift;
  }
}

TEST(Checksum64, EverySingleBitFlipChangesTheValue) {
  std::string Bytes = splitmixBytes(7, 4096);
  uint64_t Clean = checksum64(Bytes);
  size_t Unchanged = 0;
  for (size_t Bit = 0; Bit < Bytes.size() * 8; ++Bit) {
    Bytes[Bit / 8] ^= static_cast<char>(1 << (Bit % 8));
    Unchanged += checksum64(Bytes) == Clean;
    Bytes[Bit / 8] ^= static_cast<char>(1 << (Bit % 8));
  }
  EXPECT_EQ(Unchanged, 0u);
}
