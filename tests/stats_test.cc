#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/empirical_cdf.h"
#include "stats/histogram.h"
#include "stats/regression.h"
#include "stats/sampling.h"
#include "stats/zipf.h"

namespace swim::stats {
namespace {

// --- Descriptive ----------------------------------------------------------

TEST(DescriptiveTest, MeanVarianceStdDev) {
  std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_NEAR(Variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(DescriptiveTest, EmptyInputsAreZero) {
  std::vector<double> empty;
  EXPECT_EQ(Mean(empty), 0.0);
  EXPECT_EQ(Variance(empty), 0.0);
  EXPECT_EQ(Median(empty), 0.0);
  EXPECT_EQ(Quantile(empty, 0.5), 0.0);
  EXPECT_EQ(Min(empty), 0.0);
  EXPECT_EQ(Max(empty), 0.0);
  EXPECT_EQ(GeometricMean(empty), 0.0);
}

TEST(DescriptiveTest, MedianInterpolates) {
  EXPECT_DOUBLE_EQ(Median({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5}), 5.0);
}

TEST(DescriptiveTest, QuantileEdges) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Quantile(v, -3.0), 10.0);  // clamped
  EXPECT_DOUBLE_EQ(Quantile(v, 2.0), 40.0);   // clamped
}

TEST(DescriptiveTest, GeometricMeanSkipsNonPositive) {
  EXPECT_NEAR(GeometricMean({1, 100}), 10.0, 1e-9);
  EXPECT_NEAR(GeometricMean({0, -5, 1, 100}), 10.0, 1e-9);
}

TEST(DescriptiveTest, SummaryFields) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Summary s = Summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p90, 90.1, 0.2);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
}

// --- SortedStats ------------------------------------------------------------

TEST(SortedStatsTest, MatchesFreeFunctions) {
  Pcg32 rng(51);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.NextLognormal(5, 2));
  SortedStats stats(v);
  // Moments accumulate over the sorted order, so allow an ulp-scale
  // difference against the original-order free functions.
  EXPECT_NEAR(stats.Mean(), Mean(v), 1e-12 * std::abs(Mean(v)));
  EXPECT_NEAR(stats.Sum(), Sum(v), 1e-12 * std::abs(Sum(v)));
  EXPECT_NEAR(stats.Variance(), Variance(v), 1e-9 * Variance(v));
  EXPECT_NEAR(stats.StdDev(), StdDev(v), 1e-9 * StdDev(v));
  EXPECT_DOUBLE_EQ(stats.Min(), Min(v));
  EXPECT_DOUBLE_EQ(stats.Max(), Max(v));
  for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(stats.Quantile(p), Quantile(v, p));
  }
  EXPECT_DOUBLE_EQ(stats.Median(), Median(v));
}

TEST(SortedStatsTest, EmptyIsAllZero) {
  SortedStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.Quantile(0.5), 0.0);
  EXPECT_EQ(stats.Mean(), 0.0);
  EXPECT_EQ(stats.Variance(), 0.0);
  EXPECT_EQ(stats.Min(), 0.0);
  EXPECT_EQ(stats.Max(), 0.0);
  EXPECT_EQ(stats.ToSummary().count, 0u);
}

TEST(SortedStatsTest, SummaryMatchesSummarize) {
  std::vector<double> v = {9, 1, 4, 7, 2, 8, 3, 6, 5, 10};
  Summary from_class = SortedStats(v).ToSummary();
  Summary from_free = Summarize(v);
  EXPECT_EQ(from_class.count, from_free.count);
  EXPECT_DOUBLE_EQ(from_class.mean, from_free.mean);
  EXPECT_DOUBLE_EQ(from_class.stddev, from_free.stddev);
  EXPECT_DOUBLE_EQ(from_class.median, from_free.median);
  EXPECT_DOUBLE_EQ(from_class.p90, from_free.p90);
  EXPECT_DOUBLE_EQ(from_class.sum, from_free.sum);
}

// --- EmpiricalCdf ----------------------------------------------------------

TEST(EmpiricalCdfTest, FractionAndQuantile) {
  EmpiricalCdf cdf({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(cdf.Fraction(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Fraction(3), 0.6);
  EXPECT_DOUBLE_EQ(cdf.Fraction(10), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 3.0);
}

TEST(EmpiricalCdfTest, SampleStaysInSupport) {
  EmpiricalCdf cdf({5, 6, 9});
  Pcg32 rng(4);
  for (int i = 0; i < 1000; ++i) {
    double v = cdf.Sample(rng);
    EXPECT_GE(v, 5.0);
    EXPECT_LE(v, 9.0);
  }
}

TEST(EmpiricalCdfTest, KsDistanceIdenticalIsZero) {
  EmpiricalCdf a({1, 2, 3});
  EXPECT_DOUBLE_EQ(EmpiricalCdf::KsDistance(a, a), 0.0);
}

TEST(EmpiricalCdfTest, KsDistanceDisjointIsOne) {
  EmpiricalCdf a({1, 2});
  EmpiricalCdf b({10, 20});
  EXPECT_DOUBLE_EQ(EmpiricalCdf::KsDistance(a, b), 1.0);
}

TEST(EmpiricalCdfTest, KsDistanceEmptyCases) {
  EmpiricalCdf empty;
  EmpiricalCdf a({1.0});
  EXPECT_DOUBLE_EQ(EmpiricalCdf::KsDistance(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(EmpiricalCdf::KsDistance(empty, a), 1.0);
}

TEST(EmpiricalCdfTest, LogCurveMonotone) {
  Pcg32 rng(8);
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(rng.NextLognormal(10, 3));
  EmpiricalCdf cdf(std::move(samples));
  auto curve = cdf.LogCurve(32);
  ASSERT_EQ(curve.x.size(), 32u);
  for (size_t i = 1; i < curve.x.size(); ++i) {
    EXPECT_GT(curve.x[i], curve.x[i - 1]);
    EXPECT_GE(curve.fraction[i], curve.fraction[i - 1]);
  }
  EXPECT_DOUBLE_EQ(curve.fraction.back(), 1.0);
}

// --- Histograms -------------------------------------------------------------

TEST(LogHistogramTest, BinsAndOverflow) {
  LogHistogram h(1.0, 1e6, 1);
  h.Add(0.5);    // underflow
  h.Add(10);     // decade 1
  h.Add(1e7);    // overflow
  EXPECT_DOUBLE_EQ(h.total_weight(), 3.0);
  EXPECT_DOUBLE_EQ(h.BinWeight(0), 1.0);
  EXPECT_DOUBLE_EQ(h.BinWeight(h.bin_count() - 1), 1.0);
  auto cumulative = h.CumulativeFractions();
  EXPECT_DOUBLE_EQ(cumulative.back(), 1.0);
}

TEST(LogHistogramTest, WeightsAccumulate) {
  LogHistogram h(1.0, 1e3, 2);
  h.Add(50, 2.5);
  h.Add(50, 1.5);
  EXPECT_DOUBLE_EQ(h.total_weight(), 4.0);
}

TEST(LinearHistogramTest, Basic) {
  LinearHistogram h(0.0, 10.0, 5);
  h.Add(-1);   // clamped to first bin
  h.Add(3);
  h.Add(9.9);
  h.Add(100);  // clamped to last bin
  EXPECT_DOUBLE_EQ(h.BinWeight(0), 1.0);
  EXPECT_DOUBLE_EQ(h.BinWeight(1), 1.0);
  EXPECT_DOUBLE_EQ(h.BinWeight(4), 2.0);
  EXPECT_DOUBLE_EQ(h.BinLowerEdge(2), 4.0);
}

// --- Regression --------------------------------------------------------------

TEST(RegressionTest, ExactLine) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {3, 5, 7, 9};  // y = 2x + 1
  LinearFit fit = FitLine(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(RegressionTest, DegenerateInputs) {
  EXPECT_EQ(FitLine({}, {}).n, 0u);
  EXPECT_EQ(FitLine({1}, {2}).slope, 0.0);
  // Constant x: no slope is defined.
  LinearFit fit = FitLine({2, 2, 2}, {1, 2, 3});
  EXPECT_EQ(fit.slope, 0.0);
}

// --- Zipf ---------------------------------------------------------------------

TEST(ZipfFitTest, RecoversKnownSlope) {
  // Perfect Zipf frequencies: f(r) = 1e6 * r^{-5/6}.
  std::vector<double> freqs;
  for (int r = 1; r <= 2000; ++r) {
    freqs.push_back(1e6 * std::pow(r, -5.0 / 6.0));
  }
  ZipfFitResult fit = FitZipf(freqs);
  EXPECT_NEAR(fit.slope, 5.0 / 6.0, 0.01);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(ZipfFitTest, IgnoresZeroFrequencies) {
  ZipfFitResult fit = FitZipf({10, 0, 5, 0, 2});
  EXPECT_EQ(fit.ranks, 3u);
}

TEST(ZipfFitTest, TooFewRanks) {
  EXPECT_EQ(FitZipf({}).slope, 0.0);
  EXPECT_EQ(FitZipf({5}).slope, 0.0);
}

TEST(ZipfFitTest, SortedFitEqualsFitOnShuffledCopyBitForBit) {
  // Sampled Zipf counts: heavy ties in the tail, a long head.
  ZipfSampler sampler(20000, 0.83);
  Pcg32 rng(31);
  std::vector<double> counts(20000, 0.0);
  for (int i = 0; i < 200000; ++i) counts[sampler.Sample(rng)] += 1.0;
  std::vector<double> descending;
  for (double c : counts) {
    if (c > 0.0) descending.push_back(c);
  }
  std::sort(descending.begin(), descending.end(), std::greater<double>());

  // The unsorted input: shuffled, with zeros mixed in.
  std::vector<double> shuffled = descending;
  shuffled.insert(shuffled.end(), 5000, 0.0);
  Shuffle(shuffled, rng);

  const ZipfFitResult sorted_fit = FitZipfSorted(descending);
  const ZipfFitResult fit = FitZipf(shuffled);
  EXPECT_EQ(sorted_fit.ranks, descending.size());
  EXPECT_EQ(fit.ranks, sorted_fit.ranks);
  EXPECT_EQ(std::bit_cast<uint64_t>(fit.slope),
            std::bit_cast<uint64_t>(sorted_fit.slope));
  EXPECT_EQ(std::bit_cast<uint64_t>(fit.intercept),
            std::bit_cast<uint64_t>(sorted_fit.intercept));
  EXPECT_EQ(std::bit_cast<uint64_t>(fit.r_squared),
            std::bit_cast<uint64_t>(sorted_fit.r_squared));
  EXPECT_GT(sorted_fit.slope, 0.0);
}

TEST(ZipfSamplerTest, PmfMatchesTheory) {
  ZipfSampler sampler(100, 1.0);
  double h100 = 0.0;
  for (int r = 1; r <= 100; ++r) h100 += 1.0 / r;
  EXPECT_NEAR(sampler.Pmf(0), 1.0 / h100, 1e-12);
  EXPECT_NEAR(sampler.Pmf(99), 0.01 / h100, 1e-12);
}

TEST(ZipfSamplerTest, EmpiricalFrequenciesMatchPmf) {
  ZipfSampler sampler(50, 5.0 / 6.0);
  Pcg32 rng(23);
  std::vector<int> counts(50, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, sampler.Pmf(0), 0.005);
  EXPECT_NEAR(static_cast<double>(counts[10]) / n, sampler.Pmf(10), 0.005);
}

TEST(ZipfSamplerTest, UniformWhenSlopeZero) {
  ZipfSampler sampler(10, 0.0);
  for (size_t i = 0; i < 10; ++i) EXPECT_NEAR(sampler.Pmf(i), 0.1, 1e-12);
}

TEST(ZipfSamplerTest, SampledFrequenciesRefitToSameSlope) {
  // End-to-end: sample from Zipf(0.83), count, fit - the generator/analysis
  // loop behind Figure 2.
  ZipfSampler sampler(500, 0.83);
  Pcg32 rng(29);
  std::vector<double> counts(500, 0.0);
  for (int i = 0; i < 300000; ++i) counts[sampler.Sample(rng)] += 1.0;
  ZipfFitResult fit = FitZipf(counts);
  EXPECT_NEAR(fit.slope, 0.83, 0.12);
}

// --- Correlation ---------------------------------------------------------------

TEST(CorrelationTest, PerfectPositiveAndNegative) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
}

TEST(CorrelationTest, ConstantSeriesIsZero) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> c = {5, 5, 5};
  EXPECT_EQ(PearsonCorrelation(x, c), 0.0);
}

TEST(CorrelationTest, SpearmanHandlesMonotoneNonlinear) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {1, 8, 27, 64, 125};  // monotone, nonlinear
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
  EXPECT_LT(PearsonCorrelation(x, y), 1.0);
}

TEST(CorrelationTest, SpearmanTiesGetAverageRanks) {
  std::vector<double> x = {1, 2, 2, 3};
  std::vector<double> y = {1, 2, 2, 3};
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

std::vector<std::vector<double>> CorrelatedSeries(size_t dims, size_t n) {
  Pcg32 rng(67);
  std::vector<std::vector<double>> series(dims, std::vector<double>(n));
  for (size_t t = 0; t < n; ++t) {
    double shared = rng.NextGaussian();
    for (size_t d = 0; d < dims; ++d) {
      series[d][t] = shared * static_cast<double>(d + 1) + rng.NextGaussian();
    }
  }
  return series;
}

TEST(CorrelationTest, PearsonMatrixMatchesPairwiseCalls) {
  auto series = CorrelatedSeries(4, 200);
  CorrelationMatrix m = PearsonMatrix(series);
  ASSERT_EQ(m.dims, 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(m.at(i, i), 1.0, 1e-12);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(m.at(i, j), m.at(j, i));
      EXPECT_DOUBLE_EQ(m.at(i, j), PearsonCorrelation(series[i], series[j]));
    }
  }
}

TEST(CorrelationTest, SpearmanMatrixMatchesPairwiseCalls) {
  auto series = CorrelatedSeries(5, 150);
  CorrelationMatrix m = SpearmanMatrix(series);
  ASSERT_EQ(m.dims, 5u);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(m.at(i, j), SpearmanCorrelation(series[i], series[j]),
                  1e-12);
    }
  }
}

TEST(CorrelationTest, MatricesAreByteIdenticalAcrossThreadCounts) {
  auto series = CorrelatedSeries(6, 300);
  EXPECT_EQ(PearsonMatrix(series, 1).values, PearsonMatrix(series, 8).values);
  EXPECT_EQ(SpearmanMatrix(series, 1).values,
            SpearmanMatrix(series, 8).values);
}

// --- Sampling --------------------------------------------------------------------

TEST(ReservoirSamplerTest, KeepsAllWhenUnderCapacity) {
  ReservoirSampler<int> sampler(10, Pcg32(31));
  for (int i = 0; i < 5; ++i) sampler.Add(i);
  EXPECT_EQ(sampler.sample().size(), 5u);
  EXPECT_EQ(sampler.seen(), 5u);
}

TEST(ReservoirSamplerTest, CapsAndIsApproximatelyUniform) {
  // Each of 1000 items should land in a 100-slot reservoir w.p. ~0.1.
  int first_half = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    ReservoirSampler<int> sampler(100, Pcg32(seed));
    for (int i = 0; i < 1000; ++i) sampler.Add(i);
    EXPECT_EQ(sampler.sample().size(), 100u);
    for (int v : sampler.sample()) {
      if (v < 500) ++first_half;
    }
  }
  EXPECT_NEAR(first_half / 30.0, 50.0, 6.0);
}

TEST(ShuffleTest, PermutesAllElements) {
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  Pcg32 rng(37);
  Shuffle(v, rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

TEST(ResampleTest, DrawsFromValues) {
  Pcg32 rng(41);
  std::vector<double> result = Resample({1.0, 2.0}, 100, rng);
  ASSERT_EQ(result.size(), 100u);
  for (double v : result) EXPECT_TRUE(v == 1.0 || v == 2.0);
}

TEST(DiscreteSamplerTest, MatchesWeights) {
  DiscreteSampler sampler({1.0, 3.0, 0.0, 6.0});
  Pcg32 rng(43);
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.6, 0.01);
}

// Cumulative-table inverse-CDF sampler: the O(log n)-per-draw reference the
// alias table replaced. Consumes one uniform deviate per draw, like
// AliasTable::Sample.
size_t CumulativeSearchSample(const std::vector<double>& cumulative,
                              Pcg32& rng) {
  double u = rng.NextDouble() * cumulative.back();
  size_t i = static_cast<size_t>(
      std::lower_bound(cumulative.begin(), cumulative.end(), u) -
      cumulative.begin());
  return std::min(i, cumulative.size() - 1);
}

// Chi-squared property test: under a fixed seed, both the alias table and
// the cumulative-search reference must match the target pmf. 400k draws
// over 32 Zipf-shaped bins; the 99.9th percentile of chi2(df=31) is ~61.1,
// so 70 gives comfortable slack while still catching any systematic bias
// (e.g. an off-by-one in the alias construction shifts chi2 into the
// thousands).
TEST(AliasTableTest, ChiSquaredMatchesCumulativeSearchReference) {
  std::vector<double> weights;
  double total = 0.0;
  for (int i = 0; i < 32; ++i) {
    weights.push_back(std::pow(static_cast<double>(i + 1), -0.83));
    total += weights.back();
  }
  std::vector<double> cumulative;
  double running = 0.0;
  for (double w : weights) cumulative.push_back(running += w);

  const int n = 400000;
  AliasTable table(weights);
  std::vector<double> alias_counts(weights.size(), 0.0);
  std::vector<double> search_counts(weights.size(), 0.0);
  Pcg32 alias_rng(61);
  Pcg32 search_rng(61);
  for (int i = 0; i < n; ++i) {
    alias_counts[table.Sample(alias_rng)] += 1.0;
    search_counts[CumulativeSearchSample(cumulative, search_rng)] += 1.0;
  }

  auto chi_squared = [&](const std::vector<double>& counts) {
    double chi2 = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      double expected = n * weights[i] / total;
      chi2 += (counts[i] - expected) * (counts[i] - expected) / expected;
    }
    return chi2;
  };
  EXPECT_LT(chi_squared(alias_counts), 70.0);
  EXPECT_LT(chi_squared(search_counts), 70.0);
}

TEST(AliasTableTest, DeterministicAcrossInstances) {
  // Same weights + same seed => identical sample stream, run to run.
  std::vector<double> weights = {0.2, 5.0, 1.0, 3.7, 0.0, 2.2};
  AliasTable a(weights);
  AliasTable b(weights);
  Pcg32 rng_a(7);
  Pcg32 rng_b(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Sample(rng_a), b.Sample(rng_b));
  }
}

TEST(AliasTableTest, ConsumesExactlyOneDeviatePerDraw) {
  // The determinism contract: each Sample advances the RNG by exactly one
  // NextDouble, so alias-table consumers stay stream-compatible with a
  // single cumulative probe.
  AliasTable table({1.0, 2.0, 3.0, 4.0});
  Pcg32 sampled(11);
  Pcg32 advanced(11);
  for (int i = 0; i < 100; ++i) table.Sample(sampled);
  for (int i = 0; i < 100; ++i) advanced.NextDouble();
  EXPECT_EQ(sampled(), advanced());
}

TEST(AliasTableTest, SingleColumnAlwaysReturnsZero) {
  AliasTable table({42.0});
  Pcg32 rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.Sample(rng), 0u);
}

}  // namespace
}  // namespace swim::stats
