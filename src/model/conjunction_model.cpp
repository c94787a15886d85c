#include "model/conjunction_model.hpp"

#include <algorithm>
#include <cmath>

namespace scod {

double ConjunctionCountModel::predict(double satellites, double seconds_per_sample,
                                      double span_seconds, double threshold_km) const {
  return coefficient * std::pow(satellites, satellites_exponent) *
         std::pow(seconds_per_sample, sps_exponent) *
         std::pow(span_seconds, span_exponent) *
         std::pow(threshold_km, threshold_exponent);
}

ConjunctionCountModel ConjunctionCountModel::paper_grid() {
  return {2.32e-9, 2.0, 4.0 / 3.0, 1.0, 7.0 / 4.0};
}

ConjunctionCountModel ConjunctionCountModel::paper_hybrid() {
  return {2.14e-9, 2.0, 5.0 / 3.0, 1.0, 1.0};
}

std::size_t candidate_capacity_from_model(const ConjunctionCountModel& model,
                                          double satellites, double seconds_per_sample,
                                          double span_seconds, double threshold_km) {
  const double predicted =
      model.predict(satellites, seconds_per_sample, span_seconds, threshold_km);
  const double base = std::max(predicted, 10000.0);
  return static_cast<std::size_t>(std::ceil(base * 2.0));
}

}  // namespace scod
