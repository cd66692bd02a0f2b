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
