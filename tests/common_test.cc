#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/string_util.h"
#include "common/units.h"
#include "gtest/gtest.h"

namespace swim {
namespace {

// --- Status / StatusOr ---------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
  EXPECT_FALSE(InvalidArgumentError("a") == NotFoundError("a"));
}

StatusOr<int> ParsePositive(int value) {
  if (value <= 0) return InvalidArgumentError("not positive");
  return value;
}

Status UsesReturnIfError(int value) {
  SWIM_RETURN_IF_ERROR(ParsePositive(value).status());
  return Status::Ok();
}

StatusOr<int> UsesAssignOrReturn(int value) {
  SWIM_ASSIGN_OR_RETURN(int parsed, ParsePositive(value));
  return parsed * 2;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = ParsePositive(7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 7);
  EXPECT_EQ(*result, 7);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = ParsePositive(-1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(42), 42);
}

TEST(StatusOrTest, MacrosPropagate) {
  EXPECT_TRUE(UsesReturnIfError(3).ok());
  EXPECT_FALSE(UsesReturnIfError(0).ok());
  EXPECT_EQ(UsesAssignOrReturn(5).value(), 10);
  EXPECT_FALSE(UsesAssignOrReturn(-5).ok());
}

TEST(StatusOrDeathTest, ValueOnErrorAborts) {
  StatusOr<int> result = ParsePositive(-1);
  EXPECT_DEATH({ (void)result.value(); }, "errored StatusOr");
}

// --- Pcg32 ---------------------------------------------------------------

TEST(Pcg32Test, DeterministicForSameSeed) {
  Pcg32 a(123, 5);
  Pcg32 b(123, 5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Pcg32Test, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Pcg32Test, DifferentStreamsDiffer) {
  Pcg32 a(1, 1), b(1, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Pcg32Test, NextDoubleInUnitInterval) {
  Pcg32 rng(42);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Pcg32Test, NextBoundedCoversRangeUniformly) {
  Pcg32 rng(7);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.15);
  }
}

TEST(Pcg32Test, NextIntInclusiveBounds) {
  Pcg32 rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Pcg32Test, GaussianMoments) {
  Pcg32 rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double z = rng.NextGaussian();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Pcg32Test, ExponentialMean) {
  Pcg32 rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Pcg32Test, LognormalMedian) {
  Pcg32 rng(15);
  std::vector<double> values;
  for (int i = 0; i < 50001; ++i) values.push_back(rng.NextLognormal(1.0, 0.7));
  std::sort(values.begin(), values.end());
  EXPECT_NEAR(values[25000], std::exp(1.0), 0.1);
}

TEST(Pcg32Test, ParetoRespectsMinimum) {
  Pcg32 rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.NextPareto(3.0, 1.5), 3.0);
  }
}

TEST(Pcg32Test, BernoulliProbability) {
  Pcg32 rng(19);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(Pcg32Test, DiscreteRespectsWeights) {
  Pcg32 rng(21);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextDiscrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Pcg32Test, ForkProducesIndependentStream) {
  Pcg32 parent(33);
  Pcg32 child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 4);
}

// --- Units ---------------------------------------------------------------

TEST(UnitsTest, FormatBytesPicksUnit) {
  EXPECT_EQ(FormatBytes(0), "0 B");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1.5 * kKB), "1.50 KB");
  EXPECT_EQ(FormatBytes(80 * kTB), "80 TB");
  EXPECT_EQ(FormatBytes(1.6 * kEB), "1.60 EB");
}

TEST(UnitsTest, FormatBytesNegative) {
  EXPECT_EQ(FormatBytes(-2 * kMB), "-2 MB");
}

TEST(UnitsTest, FormatDurationPicksUnit) {
  EXPECT_EQ(FormatDuration(32), "32 sec");
  EXPECT_EQ(FormatDuration(4 * kMinute), "4 min");
  EXPECT_EQ(FormatDuration(2.5 * kHour), "2.50 hrs");
  EXPECT_EQ(FormatDuration(3 * kDay), "3 days");
}

TEST(UnitsTest, FormatCountThousandsSeparators) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1129193), "1,129,193");
}

// --- String utilities ----------------------------------------------------

TEST(StringUtilTest, SplitBasic) {
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitEmptyString) {
  std::vector<std::string> parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace("\t \n"), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringUtilTest, ToLowerAndAffixes) {
  EXPECT_EQ(ToLower("InSeRt"), "insert");
  EXPECT_TRUE(StartsWith("oozie:launcher", "oozie"));
  EXPECT_FALSE(StartsWith("oozie", "oozie:launcher"));
  EXPECT_TRUE(EndsWith("report.pig", ".pig"));
}

TEST(StringUtilTest, FirstWordOfJobName) {
  // The paper's tokenization: first alphabetic word, lowercased, ignoring
  // capitalization, numbers, and symbols.
  EXPECT_EQ(FirstWordOfJobName("INSERT OVERWRITE TABLE x"), "insert");
  EXPECT_EQ(FirstWordOfJobName("PigLatin:report.pig"), "piglatin");
  EXPECT_EQ(FirstWordOfJobName("ad_hoc_417"), "ad");
  EXPECT_EQ(FirstWordOfJobName("20110401_etl_run"), "etl");
  EXPECT_EQ(FirstWordOfJobName("12345"), "");
  EXPECT_EQ(FirstWordOfJobName(""), "");
}

// The strtod/strtoll parsers ParseDouble and ParseInt64 used before they
// moved to from_chars, kept as the oracle: the accepted set and every value
// must stay exactly theirs.
bool OracleParseDouble(std::string_view text, double* value) {
  std::string buffer(StripWhitespace(text));
  if (buffer.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return false;
  if (errno != 0 && (errno != ERANGE || !std::isfinite(parsed))) return false;
  *value = parsed;
  return true;
}

bool OracleParseInt64(std::string_view text, int64_t* value) {
  std::string buffer(StripWhitespace(text));
  if (buffer.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long parsed = std::strtoll(buffer.c_str(), &end, 10);
  if (errno != 0 || end != buffer.c_str() + buffer.size()) return false;
  *value = parsed;
  return true;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Same verdict, and on success the same bits (a NaN's payload and the sign
// of zero included); on failure the output is left untouched.
void ExpectDoubleMatchesOracle(const std::string& text) {
  double got = -7.25;
  double want = -7.25;
  const bool got_ok = ParseDouble(text, &got);
  EXPECT_EQ(got_ok, OracleParseDouble(text, &want)) << "'" << text << "'";
  EXPECT_EQ(Bits(got), Bits(want)) << "'" << text << "'";
}

void ExpectInt64MatchesOracle(const std::string& text) {
  int64_t got = -7;
  int64_t want = -7;
  const bool got_ok = ParseInt64(text, &got);
  EXPECT_EQ(got_ok, OracleParseInt64(text, &want)) << "'" << text << "'";
  EXPECT_EQ(got, want) << "'" << text << "'";
}

// Strings from a numeric alphabet: mostly malformed, some valid in one
// syntax and not the other.
std::string RandomNumericString(Pcg32& rng) {
  static constexpr char kAlphabet[] =
      "0123456789012345+-.eExXpPinfaNIF() \t";
  std::string text(1 + rng.NextBounded(16), ' ');
  for (char& c : text) c = kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)];
  return text;
}

const std::vector<std::string>& EdgeNumbers() {
  static const std::vector<std::string> edges = {
      "3.5", " -2e3 ", "abc", "1.5x", "", " ", "\t", "+5", "-5", "+-5",
      "-+5", "++5", "+", "-", ".", "5.", ".5", "-.5", "1e", "1e+", "1e5",
      "1E-5", "0x1p3", "0X1P-3", "0x10", "-0x1.8p1", "0x", "1e400", "-1e400",
      "1e-400", "-1e-400", "5e-324", "2e-324", "3e-324",
      "2.2250738585072011e-308", "4.9406564584124654e-324",
      "1.7976931348623157e308",
      "1.7976931348623159e308", "inf", "-inf", "+inf", "Infinity", "INF",
      "infin", "nan", "-nan", "+nan", "NaN", "nan(123)", "nan()", "nan(",
      "0", "-0", "+0", "00", "007", "0.1", "0.30000000000000004",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "9223372036854775806", "-9223372036854775807",
      "18446744073709551616", " 42", "42 ", "\n42\r", "4 2", "1,5", "1.5.5",
      "123456789012345678901234567890", "0.000000000000000000000000000001",
      "1e-99999999999999999999", "1e99999999999999999999",
      std::string("12\0" "3", 4)};
  return edges;
}

TEST(StringUtilTest, ParseDouble) {
  double value = 0;
  EXPECT_TRUE(ParseDouble("3.5", &value));
  EXPECT_DOUBLE_EQ(value, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &value));
  EXPECT_DOUBLE_EQ(value, -2000.0);
  EXPECT_FALSE(ParseDouble("abc", &value));
  EXPECT_FALSE(ParseDouble("1.5x", &value));
  EXPECT_FALSE(ParseDouble("", &value));

  for (const std::string& text : EdgeNumbers()) {
    ExpectDoubleMatchesOracle(text);
  }
  Pcg32 rng(2012);
  for (int i = 0; i < 100000; ++i) {
    ExpectDoubleMatchesOracle(RandomNumericString(rng));
  }
  // Renderings of random doubles across the whole exponent range, as the
  // CSV writer (shortest round-trip), printf and hex printf spell them.
  char buffer[64];
  for (int i = 0; i < 30000; ++i) {
    uint64_t bits = (static_cast<uint64_t>(rng()) << 32) | rng();
    double d = 0;
    std::memcpy(&d, &bits, sizeof(d));
    auto end = std::to_chars(buffer, buffer + sizeof(buffer), d).ptr;
    ExpectDoubleMatchesOracle(std::string(buffer, end));
    std::snprintf(buffer, sizeof(buffer), "%.17g", d);
    ExpectDoubleMatchesOracle(buffer);
    std::snprintf(buffer, sizeof(buffer), "%a", d);
    ExpectDoubleMatchesOracle(buffer);
  }
}

TEST(StringUtilTest, ParseInt64) {
  int64_t value = 0;
  EXPECT_TRUE(ParseInt64("42", &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseInt64("-7", &value));
  EXPECT_EQ(value, -7);
  EXPECT_FALSE(ParseInt64("4.2", &value));
  EXPECT_FALSE(ParseInt64("", &value));

  for (const std::string& text : EdgeNumbers()) {
    ExpectInt64MatchesOracle(text);
  }
  Pcg32 rng(4242);
  for (int i = 0; i < 100000; ++i) {
    ExpectInt64MatchesOracle(RandomNumericString(rng));
  }
  char buffer[32];
  for (int i = 0; i < 30000; ++i) {
    const int64_t v = static_cast<int64_t>(
        (static_cast<uint64_t>(rng()) << 32) | rng()) >> rng.NextBounded(64);
    std::snprintf(buffer, sizeof(buffer), "%+" PRId64, v);
    ExpectInt64MatchesOracle(buffer);
    ExpectInt64MatchesOracle(buffer + (v >= 0 ? 1 : 0));
  }
}

}  // namespace
}  // namespace swim
