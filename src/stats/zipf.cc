#include "stats/zipf.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "stats/regression.h"

namespace swim::stats {

ZipfFitResult FitZipf(const std::vector<double>& frequencies) {
  std::vector<double> sorted;
  sorted.reserve(frequencies.size());
  for (double f : frequencies) {
    if (f > 0.0) sorted.push_back(f);
  }
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  return FitZipfSorted(sorted);
}

ZipfFitResult FitZipfSorted(const std::vector<double>& descending) {
  ZipfFitResult result;
  result.ranks = descending.size();
  if (descending.size() < 2) return result;

  // Sample ranks log-uniformly (24 per decade). Fitting every rank would
  // let the long plateau of once-accessed files dominate the regression;
  // log spacing matches how a straight line is judged on the paper's
  // log-log axes (Figure 2).
  std::vector<double> log_rank;
  std::vector<double> log_freq;
  const double n = static_cast<double>(descending.size());
  const double step = std::pow(10.0, 1.0 / 24.0);
  size_t last_rank = 0;
  for (double r = 1.0; r <= n; r *= step) {
    size_t rank = static_cast<size_t>(r);
    if (rank == last_rank) continue;
    last_rank = rank;
    log_rank.push_back(std::log10(static_cast<double>(rank)));
    log_freq.push_back(std::log10(descending[rank - 1]));
  }
  LinearFit fit = FitLine(log_rank, log_freq);
  result.slope = -fit.slope;
  result.intercept = fit.intercept;
  result.r_squared = fit.r_squared;
  return result;
}

ZipfSampler::ZipfSampler(size_t n, double s) : s_(s) {
  SWIM_CHECK_GE(n, 1u);
  SWIM_CHECK_GE(s, 0.0);
  pmf_.resize(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    pmf_[i] = std::pow(static_cast<double>(i + 1), -s);
    total += pmf_[i];
  }
  for (double& p : pmf_) p /= total;
  table_ = AliasTable(pmf_);
}

double ZipfSampler::Pmf(size_t i) const {
  SWIM_CHECK_LT(i, pmf_.size());
  return pmf_[i];
}

}  // namespace swim::stats
