#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace scod {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 != 0) return values[mid];
  // lo + (hi - lo) / 2 rather than (lo + hi) / 2: the KDE bandwidth
  // (population/kde.cpp), and with it every generated population, depends
  // on these bits.
  return values[mid - 1] + 0.5 * (values[mid] - values[mid - 1]);
}

Histogram2D::Histogram2D(double x_lo, double x_hi, std::size_t x_bins,
                         double y_lo, double y_hi, std::size_t y_bins)
    : x_lo_(x_lo), x_hi_(x_hi), y_lo_(y_lo), y_hi_(y_hi),
      x_bins_(x_bins), y_bins_(y_bins), counts_(x_bins * y_bins, 0) {
  if (x_bins == 0 || y_bins == 0) throw std::invalid_argument("Histogram2D: zero bins");
  if (!(x_lo < x_hi) || !(y_lo < y_hi)) throw std::invalid_argument("Histogram2D: empty range");
}

void Histogram2D::add(double x, double y) {
  auto bin = [](double v, double lo, double hi, std::size_t n) {
    const double t = (v - lo) / (hi - lo);
    const auto i = static_cast<long long>(std::floor(t * static_cast<double>(n)));
    return static_cast<std::size_t>(std::clamp<long long>(i, 0, static_cast<long long>(n) - 1));
  };
  const std::size_t xi = bin(x, x_lo_, x_hi_, x_bins_);
  const std::size_t yi = bin(y, y_lo_, y_hi_, y_bins_);
  ++counts_[xi * y_bins_ + yi];
  ++total_;
}

std::size_t Histogram2D::at(std::size_t xi, std::size_t yi) const {
  return counts_.at(xi * y_bins_ + yi);
}

std::size_t Histogram2D::max_count() const {
  return *std::max_element(counts_.begin(), counts_.end());
}

double Histogram2D::x_bin_center(std::size_t xi) const {
  const double w = (x_hi_ - x_lo_) / static_cast<double>(x_bins_);
  return x_lo_ + (static_cast<double>(xi) + 0.5) * w;
}

double Histogram2D::y_bin_center(std::size_t yi) const {
  const double w = (y_hi_ - y_lo_) / static_cast<double>(y_bins_);
  return y_lo_ + (static_cast<double>(yi) + 0.5) * w;
}

}  // namespace scod
