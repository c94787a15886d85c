#pragma once

#include <cstddef>
#include <vector>

namespace scod {

/// Streaming mean / variance / extrema accumulator (Welford's algorithm).
/// Used by benchmark harnesses to aggregate repeated timing measurements.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance; zero for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Median of a sample set, the mean of the middle two for an even count;
/// zero for an empty input.
double median(std::vector<double> values);

/// Fixed-width 2-D histogram used to reproduce the bivariate density plot
/// of Fig. 9 (semi-major axis vs. eccentricity).
class Histogram2D {
 public:
  Histogram2D(double x_lo, double x_hi, std::size_t x_bins,
              double y_lo, double y_hi, std::size_t y_bins);

  /// Adds a sample; values outside the range are clamped into the border
  /// bins so the total count always equals the number of added samples.
  void add(double x, double y);

  std::size_t x_bins() const { return x_bins_; }
  std::size_t y_bins() const { return y_bins_; }
  std::size_t at(std::size_t xi, std::size_t yi) const;
  std::size_t total() const { return total_; }
  std::size_t max_count() const;

  double x_bin_center(std::size_t xi) const;
  double y_bin_center(std::size_t yi) const;

 private:
  double x_lo_, x_hi_, y_lo_, y_hi_;
  std::size_t x_bins_, y_bins_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace scod
