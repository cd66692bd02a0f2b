//===- tests/test_io.cpp - History format round-trip tests ----------------------===//

#include "io/dbcop_format.h"
#include "io/plume_format.h"
#include "io/sharded_ingest.h"
#include "io/text_format.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

using namespace awdit;
using namespace awdit::test;

namespace {

History sampleHistory(uint64_t Seed) {
  GenerateParams P;
  P.Bench = Benchmark::Rubis;
  P.Mode = ConsistencyMode::ReadCommitted;
  P.Sessions = 5;
  P.Txns = 150;
  P.Seed = Seed;
  P.AbortProbability = 0.1;
  return generateHistory(P);
}

} // namespace

TEST(TextFormat, RoundTripsGeneratedHistories) {
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    History H = sampleHistory(Seed);
    std::string Err;
    std::optional<History> Back = parseTextHistory(writeTextHistory(H), &Err);
    ASSERT_TRUE(Back) << Err;
    expectSameHistory(H, *Back);
  }
}

TEST(TextFormat, ParsesHandWrittenInput) {
  const char *Input = "# demo\n"
                      "b 0\n"
                      "w 1 10\n"
                      "c\n"
                      "b 1\n"
                      "r 1 10\n"
                      "a\n";
  std::string Err;
  std::optional<History> H = parseTextHistory(Input, &Err);
  ASSERT_TRUE(H) << Err;
  EXPECT_EQ(H->numTxns(), 2u);
  EXPECT_EQ(H->numSessions(), 2u);
  EXPECT_FALSE(H->txn(1).Committed);
}

TEST(TextFormat, RejectsMalformedInput) {
  std::string Err;
  EXPECT_FALSE(parseTextHistory("w 1 10\n", &Err)); // op before txn
  EXPECT_FALSE(parseTextHistory("b 0\nw 1\nc\n", &Err)); // missing value
  EXPECT_FALSE(parseTextHistory("b 0\nw 1 10\n", &Err)); // unterminated
  EXPECT_FALSE(parseTextHistory("b 0\nb 0\n", &Err));    // nested begin
  EXPECT_FALSE(parseTextHistory("x y z\n", &Err));       // unknown
  EXPECT_NE(Err.find("line"), std::string::npos);
}

TEST(TextFormat, FileRoundTrip) {
  History H = sampleHistory(9);
  std::string Path =
      (std::filesystem::temp_directory_path() / "awdit_io_test.txt")
          .string();
  std::string Err;
  ASSERT_TRUE(saveTextHistoryFile(H, Path, &Err)) << Err;
  std::optional<History> Back = loadTextHistoryFile(Path, &Err);
  ASSERT_TRUE(Back) << Err;
  expectSameHistory(H, *Back);
  std::remove(Path.c_str());
}

TEST(TextFormat, MissingFileFails) {
  std::string Err;
  EXPECT_FALSE(loadTextHistoryFile("/nonexistent/awdit.txt", &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(PlumeFormat, RoundTripsGeneratedHistories) {
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    History H = sampleHistory(Seed);
    std::string Err;
    std::optional<History> Back =
        parseHistory("plume", writePlumeHistory(H), &Err);
    ASSERT_TRUE(Back) << Err;
    expectSameHistory(H, *Back);
  }
}

TEST(PlumeFormat, ParsesHandWrittenInput) {
  const char *Input = "0,0,w,5,50\n"
                      "0,0,w,6,60\n"
                      "1,1,r,5,50\n"
                      "1,2,r,6,60\n"
                      "1,2,abort\n";
  std::string Err;
  std::optional<History> H = parseHistory("plume", Input, &Err);
  ASSERT_TRUE(H) << Err;
  EXPECT_EQ(H->numTxns(), 3u);
  EXPECT_EQ(H->txn(0).Ops.size(), 2u);
  EXPECT_FALSE(H->txn(2).Committed);
}

TEST(PlumeFormat, RejectsMalformedInput) {
  std::string Err;
  EXPECT_FALSE(parseHistory("plume", "0,0,q,1,2\n", &Err));
  EXPECT_FALSE(parseHistory("plume", "0,w,1,2\n", &Err));
  EXPECT_FALSE(parseHistory("plume", "zero,0,w,1,2\n", &Err));
}

TEST(PlumeFormat, HandlesCrLf) {
  std::string Err;
  std::optional<History> H =
      parseHistory("plume", "0,0,w,1,10\r\n", &Err);
  ASSERT_TRUE(H) << Err;
  EXPECT_EQ(H->numTxns(), 1u);
}

TEST(DbcopFormat, RoundTripsGeneratedHistories) {
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    History H = sampleHistory(Seed);
    std::string Err;
    std::optional<History> Back =
        parseHistory("dbcop", writeDbcopHistory(H), &Err);
    ASSERT_TRUE(Back) << Err;
    expectSameHistory(H, *Back);
  }
}

TEST(DbcopFormat, ParsesHandWrittenInput) {
  const char *Input = "sessions 2\n"
                      "txn 0 1 2\n"
                      "W 1 10\n"
                      "W 2 20\n"
                      "txn 1 0 1\n"
                      "R 1 10\n";
  std::string Err;
  std::optional<History> H = parseHistory("dbcop", Input, &Err);
  ASSERT_TRUE(H) << Err;
  EXPECT_EQ(H->numTxns(), 2u);
  EXPECT_FALSE(H->txn(1).Committed);
}

TEST(DbcopFormat, RejectsMalformedInput) {
  std::string Err;
  EXPECT_FALSE(parseHistory("dbcop", "txn 0 1 0\n", &Err)); // no header
  EXPECT_FALSE(parseHistory("dbcop", "sessions 1\ntxn 5 1 0\n", &Err));
  EXPECT_FALSE(
      parseHistory("dbcop", "sessions 1\ntxn 0 1 2\nW 1 10\n", &Err));
  // A block cut short is reported at the last line of the input.
  EXPECT_EQ(Err.rfind("line 3: ", 0), 0u) << Err;
  EXPECT_FALSE(parseHistory("dbcop", "sessions 1\nW 1 10\n", &Err));
}

TEST(Formats, CrossFormatConversionPreservesVerdicts) {
  History H = sampleHistory(12);
  std::optional<History> ViaPlume =
      parseHistory("plume", writePlumeHistory(H));
  std::optional<History> ViaDbcop =
      parseHistory("dbcop", writeDbcopHistory(H));
  ASSERT_TRUE(ViaPlume && ViaDbcop);
  for (IsolationLevel Level : AllIsolationLevels) {
    bool Expected = consistent(H, Level);
    EXPECT_EQ(consistent(*ViaPlume, Level), Expected);
    EXPECT_EQ(consistent(*ViaDbcop, Level), Expected);
  }
}

// Parse errors must point at the offending line — including duplicate
// writes, which used to surface only as a line-less build() failure.
TEST(Formats, DuplicateWriteErrorsCarryLineNumbers) {
  std::string Err;
  EXPECT_FALSE(parseTextHistory("b 0\nw 1 10\nc\nb 0\nw 1 10\nc\n", &Err));
  EXPECT_NE(Err.find("line 5"), std::string::npos) << Err;
  EXPECT_NE(Err.find("duplicate write"), std::string::npos) << Err;

  EXPECT_FALSE(parseHistory("plume", "0,0,w,1,10\n0,1,w,1,10\n", &Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  EXPECT_NE(Err.find("duplicate write"), std::string::npos) << Err;

  EXPECT_FALSE(parseHistory(
      "dbcop", "sessions 1\ntxn 0 1 1\nW 1 10\ntxn 0 1 1\nW 1 10\n", &Err));
  EXPECT_NE(Err.find("line 5"), std::string::npos) << Err;
  EXPECT_NE(Err.find("duplicate write"), std::string::npos) << Err;
}

TEST(Formats, UnknownFormatIsRefused) {
  std::string Err;
  EXPECT_FALSE(parseHistory("csv", "0,0,w,1,10\n", &Err));
  EXPECT_EQ(Err, "unknown format 'csv'");
}

TEST(Formats, SyntaxErrorsCarryLineNumbers) {
  std::string Err;
  EXPECT_FALSE(parseTextHistory("b 0\nw 1\nc\n", &Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  EXPECT_FALSE(parseHistory("plume", "0,0,w,1,10\ngarbage\n", &Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  EXPECT_FALSE(parseHistory("dbcop", "sessions 1\nboom\n", &Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
}
