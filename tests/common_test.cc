// Unit tests for the common utilities: deterministic PRNG, Zipf sampling,
// error codes, formatting, the Result plumbing and the tools' flag parser.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/common/clock.h"
#include "src/common/flags.h"
#include "src/common/hash.h"
#include "src/common/rand.h"
#include "src/common/result.h"
#include "src/common/stats.h"

namespace {

using common::Err;
using common::Result;

TEST(Rng, DeterministicAcrossInstances) {
  common::Rng a(42), b(42);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  common::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange) {
  common::Rng rng(7);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, BetweenIsInclusive) {
  common::Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; i++) {
    uint64_t v = rng.Between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three values reachable
}

TEST(Rng, FillProducesVariedBytes) {
  common::Rng rng(11);
  uint8_t buf[256] = {};
  rng.Fill(buf, sizeof(buf));
  std::set<uint8_t> distinct(buf, buf + sizeof(buf));
  EXPECT_GT(distinct.size(), 50u);
}

TEST(Zipf, StaysInRangeAndSkews) {
  common::Zipf zipf(1000, 0.99, 3);
  uint64_t in_top_decile = 0;
  for (int i = 0; i < 20000; i++) {
    uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    if (v < 100) {
      in_top_decile++;
    }
  }
  // Zipf(0.99): the top 10% of keys draw the majority of accesses.
  EXPECT_GT(in_top_decile, 10000u);
}

TEST(Hash, StableAndSpread) {
  EXPECT_EQ(common::Fnv1a64("coffer"), common::Fnv1a64("coffer"));
  EXPECT_NE(common::Fnv1a64("coffer"), common::Fnv1a64("coffes"));
  // 32-bit projection keeps both halves.
  EXPECT_NE(common::Fnv1a32("a"), common::Fnv1a32("b"));
}

TEST(ResultT, ValueAndErrorPaths) {
  Result<int> ok(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  Result<int> bad(Err::kNoEnt);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Err::kNoEnt);
  EXPECT_EQ(bad.value_or(9), 9);
  EXPECT_EQ(ok.value_or(9), 5);
}

TEST(ResultT, ErrNamesRoundTrip) {
  EXPECT_STREQ(common::ErrName(Err::kNoEnt), "ENOENT");
  EXPECT_STREQ(common::ErrName(Err::kAcces), "EACCES");
  EXPECT_STREQ(common::ErrName(Err::kCorrupt), "EUCLEAN");
  EXPECT_STREQ(common::ErrName(Err::kNoKeys), "ENOKEYS");
}

TEST(Stats, LatencyRecorderPercentiles) {
  common::LatencyRecorder rec;
  for (int i = 1; i <= 100; i++) {
    rec.Record(i);
  }
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_DOUBLE_EQ(rec.MeanNs(), 50.5);
  EXPECT_NEAR(rec.PercentileNs(50), 50, 2);
  EXPECT_NEAR(rec.PercentileNs(99), 99, 2);
}

TEST(Stats, MergeCombines) {
  common::LatencyRecorder a, b;
  a.Record(10);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.MeanNs(), 20.0);
}

TEST(Stats, HumanFormatting) {
  EXPECT_EQ(common::HumanBytes(512), "512B");
  EXPECT_EQ(common::HumanBytes(2048), "2.00KB");
  EXPECT_EQ(common::HumanNs(1500), "1.50us");
  EXPECT_EQ(common::HumanRate(2'500'000), "2.50M");
}

TEST(Stats, TextTableAligns) {
  common::TextTable t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Clock, StopwatchAdvances) {
  common::Stopwatch sw;
  common::SpinNs(1000);
  EXPECT_GE(sw.ElapsedNs(), 1000u);
}

TEST(Clock, SpinZeroReturnsImmediately) {
  common::Stopwatch sw;
  common::SpinNs(0);
  EXPECT_LT(sw.ElapsedNs(), 100'000u);
}

TEST(Flags, ParseUintTakesWholeDecimalsInRangeOnly) {
  uint64_t v = 0;
  EXPECT_TRUE(common::ParseUint("0", UINT64_MAX, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(common::ParseUint("18446744073709551615", UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(common::ParseUint("255", 255, &v));
  EXPECT_EQ(v, 255u);
  for (const char* bad : {"", "4x2", "abc", "-1", "+1", " 1", "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(common::ParseUint(bad, UINT64_MAX, &v)) << "'" << bad << "'";
  }
  EXPECT_FALSE(common::ParseUint("256", 255, &v));
  EXPECT_FALSE(common::ParseUint("5", 3, &v));
  EXPECT_EQ(v, 255u);  // untouched on rejection
}

TEST(Flags, UintFlagMatchesNameAndExitsTwoOnMalformedValue) {
  uint32_t n = 0;
  EXPECT_TRUE(common::UintFlag("--rounds=12", "--rounds", &n));
  EXPECT_EQ(n, 12u);
  EXPECT_FALSE(common::UintFlag("--roundsx=1", "--rounds", &n));
  EXPECT_FALSE(common::UintFlag("--rounds", "--rounds", &n));
  int threads = 0;
  EXPECT_EXIT(common::UintFlag("--threads=abc", "--threads", &threads),
              ::testing::ExitedWithCode(2), "--threads");
  EXPECT_EXIT(common::UintFlag("--rounds=4294967296", "--rounds", &n),
              ::testing::ExitedWithCode(2), "--rounds");
}

}  // namespace
