// Tests for util: RNG engines, stream derivation, statistics, fitting, CLI,
// and CSV output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace ewalk {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(Rng, UniformBoundOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform_real();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(15);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Rng, SplitStreamsAreIndependentish) {
  Rng parent(21);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (child1.next_u64() == child2.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.shuffle(std::span<int>(v));
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(Rng, ShuffleActuallyMoves) {
  Rng rng(25);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  rng.shuffle(std::span<int>(v));
  int fixed = 0;
  for (int i = 0; i < 100; ++i) fixed += (v[i] == i);
  EXPECT_LT(fixed, 20);
}

TEST(Rng, ShuffleMatchesPlainFisherYates) {
  // The look-ahead shuffle draws its swap targets early; the permutation
  // and the stream's state afterwards must be those of the plain loop, on
  // both sides of the look-ahead depth.
  for (const std::size_t n : {0, 1, 2, 31, 32, 33, 34, 100, 5000}) {
    Rng fast(41), plain(41);
    std::vector<std::uint32_t> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] = static_cast<std::uint32_t>(i);
    fast.shuffle(std::span<std::uint32_t>(a));
    for (std::size_t i = n; i > 1; --i)
      std::swap(b[i - 1], b[static_cast<std::size_t>(plain.uniform(i))]);
    EXPECT_EQ(a, b) << "n = " << n;
    EXPECT_EQ(fast.next_u64(), plain.next_u64()) << "n = " << n;
  }
}

TEST(DeriveStreams, DeterministicAndDistinct) {
  auto s1 = derive_streams(99, 4);
  auto s2 = derive_streams(99, 4);
  ASSERT_EQ(s1.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(s1[i].next_u64(), s2[i].next_u64());
  auto s3 = derive_streams(99, 2);
  auto s4 = derive_streams(100, 2);
  EXPECT_NE(s3[0].next_u64(), s4[0].next_u64());
}

TEST(MersenneRng, MatchesStdMt19937_64) {
  MersenneRng ours(12345);
  std::mt19937_64 ref(12345);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(ours.next_u64(), ref());
}

TEST(MersenneRng, UniformRespectsBound) {
  MersenneRng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Stats, SummarizeBasic) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const auto s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.variance, 2.5);
}

TEST(Stats, SummarizeEvenCountMedian) {
  const std::vector<double> xs{1, 2, 3, 10};
  EXPECT_DOUBLE_EQ(summarize(xs).median, 2.5);
}

TEST(Stats, SummarizeEmptyAndSingle) {
  EXPECT_EQ(summarize({}).count, 0u);
  const std::vector<double> one{7.0};
  const auto s = summarize(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
}

TEST(Stats, LinearFitExactLine) {
  const std::vector<double> xs{0, 1, 2, 3};
  const std::vector<double> ys{1, 3, 5, 7};  // y = 2x + 1
  const auto fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, FitCnLogNRecoversConstant) {
  // Generate cover times C(n) = 0.93 n ln n + 2 n and check c ≈ 0.93.
  std::vector<double> ns, cs;
  for (double n : {1e4, 3e4, 1e5, 3e5, 5e5}) {
    ns.push_back(n);
    cs.push_back(0.93 * n * std::log(n) + 2.0 * n);
  }
  const auto fit = fit_c_nlogn(ns, cs);
  EXPECT_NEAR(fit.slope, 0.93, 1e-9);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
}

TEST(Stats, RunningStatsMatchesSummarize) {
  RunningStats r;
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : xs) r.add(x);
  const auto s = summarize(xs);
  EXPECT_EQ(r.count(), s.count);
  EXPECT_NEAR(r.mean(), s.mean, 1e-12);
  EXPECT_NEAR(r.variance(), s.variance, 1e-12);
  EXPECT_DOUBLE_EQ(r.min(), 2.0);
  EXPECT_DOUBLE_EQ(r.max(), 9.0);
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--n=100", "--seed", "7",
                        "--bad=abc", "--big=1e9", "--frac=2.5", "--exact=1.5e3",
                        "--neg=-1", "--lazy=maybe", "--no=0", "--yes=yes",
                        "--tail=12x", "--huge=1e20", "--verbose"};
  Cli cli(15, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 100);
  EXPECT_EQ(cli.get_u64("seed", 0), 7u);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");

  // A flag takes at most one value: a second word is an error naming it,
  // never silently dropped (`--n 100 200`), and so is a leading bare word.
  const char* second_value[] = {"prog", "--n", "100", "200"};
  const char* leading_word[] = {"prog", "positional", "--n=1"};
  for (const auto& [args, argc, stray] :
       {std::tuple{second_value, 4, "200"}, std::tuple{leading_word, 3, "positional"}}) {
    try {
      Cli(argc, const_cast<char**>(args));
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& ex) {
      EXPECT_EQ(std::string(ex.what()),
                std::string("unexpected argument: ") + stray +
                    " (a flag takes one value: --key value or --key=value)");
    }
  }

  // One strict parser behind every getter: the whole token must parse, and
  // the error names the key and the value.
  try {
    cli.get_u64("bad", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& ex) {
    EXPECT_EQ(std::string(ex.what()),
              "bad value for --bad: 'abc' (want an unsigned integer)");
  }
  EXPECT_EQ(cli.get_u64("big", 0), 1000000000u);  // exact exponent forms
  EXPECT_EQ(cli.get_u64("exact", 0), 1500u);
  EXPECT_EQ(cli.get_int("exact", 0), 1500);
  EXPECT_DOUBLE_EQ(cli.get_double("big", 0), 1e9);
  EXPECT_THROW(cli.get_u64("frac", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("frac", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_u64("neg", 0), std::invalid_argument);  // not 2^64 - 1
  EXPECT_EQ(cli.get_int("neg", 0), -1);
  EXPECT_THROW(cli.get_u64("tail", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("tail", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_u64("huge", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_bool("lazy", false), std::invalid_argument);
  EXPECT_TRUE(cli.get_bool("yes", false));
  EXPECT_FALSE(cli.get_bool("no", true));
  EXPECT_EQ(parse_u64_list("ns", "3,4,8"), (std::vector<std::uint64_t>{3, 4, 8}));
  EXPECT_EQ(parse_u64_list("ns", "1e5"), (std::vector<std::uint64_t>{100000}));
  EXPECT_THROW(parse_u64_list("ns", "3,,8"), std::invalid_argument);
  EXPECT_THROW(parse_u64_list("ns", "10k"), std::invalid_argument);
}

TEST(Cli, DoubleAndDefaults) {
  const char* argv[] = {"prog", "--alpha=0.5"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0), 0.5);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 1.25), 1.25);
  EXPECT_FALSE(cli.has("beta"));

  // Canonical text: decimal integers, shortest round-trip reals.
  const ParamSpec u{"n", ParamType::kU32, "", {}, ""};
  const ParamSpec d{"radius", ParamType::kDouble, "", {0.0, true}, ""};
  EXPECT_EQ(canonical_param(u, "1e3"), "1000");
  EXPECT_EQ(canonical_param(u, "1000"), "1000");
  EXPECT_THROW(canonical_param(u, "5e9"), std::invalid_argument);  // >= 2^32
  EXPECT_EQ(canonical_param(d, "0.03"), "0.03");
  EXPECT_EQ(canonical_param(d, "3e-2"), "0.03");
  EXPECT_EQ(canonical_param(d, "1.0"), "1");
  EXPECT_THROW(canonical_param(d, "0"), std::invalid_argument);  // > 0
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = std::filesystem::temp_directory_path() / "ewalk_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.row({1.0, 2.5});
    w.row({3.0, 4.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, 2), "1,");
  std::remove(path.c_str());
}

TEST(Csv, RejectsWidthMismatch) {
  const std::string path = std::filesystem::temp_directory_path() / "ewalk_csv_test2.csv";
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.row({1.0}), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Timer, MeasuresElapsed) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_LT(t.seconds(), 10.0);
}

}  // namespace
}  // namespace ewalk
