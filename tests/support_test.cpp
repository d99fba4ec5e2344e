#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "support/bits.h"
#include "support/check.h"
#include "support/durable.h"
#include "support/flat_json.h"
#include "support/prng.h"
#include "support/stats.h"

namespace omx {
namespace {

TEST(Check, RequireThrowsPrecondition) {
  EXPECT_THROW(OMX_REQUIRE(false, "boom"), PreconditionError);
  EXPECT_NO_THROW(OMX_REQUIRE(true, "fine"));
}

TEST(Check, CheckThrowsInvariant) {
  EXPECT_THROW(OMX_CHECK(false, "boom"), InvariantError);
  EXPECT_NO_THROW(OMX_CHECK(true, "fine"));
}

TEST(Check, MessageContainsContext) {
  try {
    OMX_CHECK(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
  }
}

TEST(Bits, FieldBits) {
  EXPECT_EQ(field_bits(0), 1u);
  EXPECT_EQ(field_bits(1), 1u);
  EXPECT_EQ(field_bits(2), 2u);
  EXPECT_EQ(field_bits(3), 2u);
  EXPECT_EQ(field_bits(255), 8u);
  EXPECT_EQ(field_bits(256), 9u);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Bits, Isqrt) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(4), 2u);
  EXPECT_EQ(isqrt(15), 3u);
  EXPECT_EQ(isqrt(16), 4u);
  EXPECT_EQ(isqrt(1023), 31u);
  EXPECT_EQ(isqrt(1024), 32u);
  for (std::uint64_t x = 0; x < 3000; ++x) {
    const std::uint64_t r = isqrt(x);
    EXPECT_LE(r * r, x);
    EXPECT_GT((r + 1) * (r + 1), x);
  }
}

TEST(Bits, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 3), 0u);
  EXPECT_EQ(ceil_div(1, 3), 1u);
  EXPECT_EQ(ceil_div(3, 3), 1u);
  EXPECT_EQ(ceil_div(4, 3), 2u);
}

TEST(Prng, DeterministicStreams) {
  Xoshiro256 a(42), b(42), c(43);
  bool differed = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) differed = true;
  }
  EXPECT_TRUE(differed);
}

TEST(Prng, BelowStaysInRange) {
  Xoshiro256 gen(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(gen.below(bound), bound);
    }
  }
  EXPECT_THROW(gen.below(0), PreconditionError);
}

TEST(Prng, BelowIsRoughlyUniform) {
  Xoshiro256 gen(11);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[gen.below(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 10, trials / 100);  // within 10% relative
  }
}

TEST(Prng, Uniform01InRange) {
  Xoshiro256 gen(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = gen.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Prng, Mix64SeparatesStreams) {
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
  EXPECT_NE(mix64(1, 2), mix64(1, 3));
}

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(acc.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, Quantiles) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(quantile_of(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_of(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_of(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile_of(v, 0.25), 2.0);
  EXPECT_THROW(quantile_of({}, 0.5), PreconditionError);
  EXPECT_THROW(quantile_of({1.0}, 1.5), PreconditionError);
}

TEST(FlatJson, ParsesStringsNumbersAndBooleans) {
  flat_json::Object obj;
  ASSERT_TRUE(flat_json::parse(
      "{ \"s\" : \"a\\u0041\\/b\" , \"n\":42,\"b\":true }", &obj));
  EXPECT_EQ(flat_json::get(obj, "s"), "aA/b");
  EXPECT_EQ(flat_json::get(obj, "n"), "42");
  EXPECT_EQ(flat_json::get(obj, "b"), "true");
  EXPECT_FALSE(flat_json::parse("{\"n\":}", &obj));   // empty literal
  EXPECT_FALSE(flat_json::parse("{\"s\":\"\\q\"}", &obj));  // unknown escape
  EXPECT_FALSE(flat_json::parse("{\"s\":\"\\u00e9\"}", &obj));  // not ASCII
}

TEST(FlatJson, EscapeIsTheCheckpointEscaper) {
  EXPECT_EQ(flat_json::escape("q\"b\\n\nr\rt\t\x01\x1f~"),
            "q\\\"b\\\\n\\nr\\rt\\t\\u0001\\u001f~");
  EXPECT_EQ(flat_json::encode({{"k", "v"}, {"x", ""}}),
            "{\"k\":\"v\",\"x\":\"\"}");
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Durable, AppendAndPublish) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "omx_durable";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path log = dir / "log.jsonl";
  ASSERT_TRUE(append_line_durably(log.string(), "one"));
  ASSERT_TRUE(append_line_durably(log.string(), "two"));
  EXPECT_EQ(slurp(log), "one\ntwo\n");

  const fs::path file = dir / "published";
  ASSERT_TRUE(publish_atomic(file.string(), "first"));
  ASSERT_TRUE(publish_atomic(file.string(), "second"));
  EXPECT_EQ(slurp(file), "second");
  // No temp file is left behind: the directory holds exactly the two files.
  EXPECT_EQ(
      std::distance(fs::directory_iterator(dir), fs::directory_iterator{}), 2);
  EXPECT_FALSE(publish_atomic((dir / "missing" / "x").string(), "y"));
}

}  // namespace
}  // namespace omx
