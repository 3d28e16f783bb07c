#ifndef SWIM_STATS_ZIPF_H_
#define SWIM_STATS_ZIPF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "stats/sampling.h"

namespace swim::stats {

/// Result of fitting frequency ~ C * rank^{-slope} on log-log axes, the
/// analysis behind the paper's Figure 2 (all seven workloads show file
/// access popularity following a Zipf-like line with slope ~ 5/6).
struct ZipfFitResult {
  double slope = 0.0;      // positive: frequency decays as rank^-slope
  double intercept = 0.0;  // log10 frequency at rank 1
  double r_squared = 0.0;
  size_t ranks = 0;
};

/// Fits a Zipf model to access counts. `frequencies` are per-item access
/// counts in any order; items with zero count are ignored. The fit sorts by
/// descending frequency and hands the result to FitZipfSorted.
ZipfFitResult FitZipf(const std::vector<double>& frequencies);

/// The fit itself, for counts already in descending order with no zeros:
/// regresses log10(freq) on log10(rank) over log-spaced ranks, so it reads
/// ~24 ranks per decade and never the whole vector.
ZipfFitResult FitZipfSorted(const std::vector<double>& descending);

/// Draws ranks in [0, n) with probability proportional to (rank+1)^-s.
/// Uses a precomputed Walker/Vose alias table: O(n) construction once,
/// O(1) per sample, exact. This is the inner loop of the synthetic file
/// population (every generated job draws its input path rank here).
class ZipfSampler {
 public:
  /// `n` >= 1, `s` >= 0 (s = 0 degenerates to uniform).
  ZipfSampler(size_t n, double s);

  size_t Sample(Pcg32& rng) const { return table_.Sample(rng); }

  size_t n() const { return pmf_.size(); }
  double s() const { return s_; }

  /// Probability mass of rank i.
  double Pmf(size_t i) const;

 private:
  double s_;
  std::vector<double> pmf_;  // normalized mass per rank
  AliasTable table_;
};

}  // namespace swim::stats

#endif  // SWIM_STATS_ZIPF_H_
