#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "filters/dense_scan.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

using scod::Conjunction;

namespace {

constexpr std::size_t kMaxProblems = 8;

void note(CheckResult& result, const std::string& line) {
  if (result.problems.size() < kMaxProblems) result.problems.push_back(line);
}

std::string describe(const Conjunction& c) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "(%u, %u) tca=%.4f pca=%.6f", c.sat_a, c.sat_b, c.tca,
                c.pca);
  return buf;
}

bool pair_less(const Conjunction& x, const Conjunction& y) {
  return x.sat_a != y.sat_a ? x.sat_a < y.sat_a : x.sat_b < y.sat_b;
}

bool exempt(const Conjunction& c, const CheckSettings& settings) {
  return std::abs(c.pca - settings.threshold_km) < settings.exempt_band_km;
}

/// The event of c's pair in `events` (canonical order) nearest to c in TCA,
/// if its TCA is within the window of c's; nullptr otherwise.
const Conjunction* find_event(const std::vector<Conjunction>& events, const Conjunction& c,
                              double window) {
  const Conjunction* nearest = nullptr;
  auto it = std::lower_bound(events.begin(), events.end(), c, pair_less);
  for (; it != events.end() && it->sat_a == c.sat_a && it->sat_b == c.sat_b; ++it) {
    const double gap = std::abs(it->tca - c.tca);
    if (gap <= window && (nearest == nullptr || gap < std::abs(nearest->tca - c.tca))) {
      nearest = &*it;
    }
  }
  return nearest;
}

}  // namespace

CheckSettings check_settings(const scod::ScreeningConfig& config) {
  CheckSettings settings;
  settings.threshold_km = config.threshold_km;
  settings.t_begin = config.t_begin;
  settings.t_end = config.t_end;
  return settings;
}

void validate_events(const std::vector<Conjunction>& report,
                     const scod::Propagator& propagator, const CheckSettings& settings,
                     CheckResult& result) {
  result.reported += report.size();
  const std::size_t n = propagator.size();
  for (std::size_t i = 0; i < report.size(); ++i) {
    const Conjunction& c = report[i];
    std::string why;
    if (c.sat_a >= c.sat_b || c.sat_b >= n) {
      why = "bad pair indices";
    } else if (!(c.pca <= settings.threshold_km)) {
      why = "pca above threshold";
    } else if (!(c.tca >= settings.t_begin && c.tca <= settings.t_end)) {
      why = "tca outside span";
    } else if (!(std::abs(propagator.distance(c.sat_a, c.sat_b, c.tca) - c.pca) <=
                 settings.distance_tolerance_km)) {
      why = "pca differs from distance at tca";
    } else if (i > 0) {
      const Conjunction& p = report[i - 1];
      const bool same_pair = p.sat_a == c.sat_a && p.sat_b == c.sat_b;
      if (pair_less(c, p) || (same_pair && c.tca < p.tca)) {
        why = "not in canonical order";
      } else if (same_pair && c.tca - p.tca < settings.duplicate_window_s) {
        why = "duplicate event";
      }
    }
    if (!why.empty()) {
      ++result.invalid;
      note(result, "invalid " + describe(c) + ": " + why);
    }
  }
}

void match_reference(const std::vector<Conjunction>& report,
                     const std::vector<Conjunction>& reference,
                     const CheckSettings& settings, bool count_extra,
                     CheckResult& result) {
  std::vector<Conjunction> sorted_report = report;
  scod::sort_conjunctions(sorted_report);
  std::vector<Conjunction> sorted_reference = reference;
  scod::sort_conjunctions(sorted_reference);

  for (const Conjunction& r : sorted_reference) {
    if (exempt(r, settings)) continue;
    ++result.reference;
    const Conjunction* found = find_event(sorted_report, r, settings.tca_window_s);
    if (found == nullptr) {
      ++result.missed;
      note(result, "missed " + describe(r));
    } else if (!(std::abs(found->pca - r.pca) <= settings.pca_tolerance_km)) {
      ++result.pca_off;
      note(result, "pca off the reference " + describe(*found) + ", reference " + describe(r));
    } else {
      ++result.matched;
    }
  }
  if (!count_extra) return;
  for (const Conjunction& c : sorted_report) {
    if (exempt(c, settings)) continue;
    if (find_event(sorted_reference, c, settings.tca_window_s) == nullptr) {
      ++result.extra;
      note(result, "not in reference " + describe(c));
    }
  }
}

std::vector<Conjunction> read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference " + path);
  std::vector<Conjunction> events;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    Conjunction c;
    if (!(fields >> c.sat_a >> c.sat_b >> c.tca >> c.pca)) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": malformed reference event");
    }
    events.push_back(c);
  }
  return events;
}

void write_reference(const std::string& path, const std::string& header,
                     const std::vector<Conjunction>& events) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write reference " + path);
  out << "# " << header << '\n';
  char buf[128];
  for (const Conjunction& c : events) {
    std::snprintf(buf, sizeof buf, "%u %u %.3f %.6f\n", c.sat_a, c.sat_b, c.tca, c.pca);
    out << buf;
  }
  if (!out.flush()) throw std::runtime_error("cannot write reference " + path);
}

std::vector<Conjunction> confirm_events(const std::vector<Conjunction>& events,
                                        const scod::Propagator& propagator,
                                        const CheckSettings& settings,
                                        std::size_t& rejected) {
  constexpr double kHalfWindow = 60.0;  // [s] scanned on each side of the TCA
  scod::DenseScanOptions scan;
  scan.step = 1.0;
  std::vector<std::uint8_t> confirmed(events.size(), 0);
  scod::global_thread_pool().parallel_for(events.size(), [&](std::size_t i) {
    const Conjunction& c = events[i];
    const double lo = std::max(settings.t_begin, c.tca - kHalfWindow);
    const double hi = std::min(settings.t_end, c.tca + kHalfWindow);
    for (const scod::Encounter& e :
         scod::scan_encounters(propagator, c.sat_a, c.sat_b, lo, hi, scan)) {
      if (std::abs(e.tca - c.tca) <= 1.0 && std::abs(e.pca - c.pca) <= 1e-3) {
        confirmed[i] = 1;
        break;
      }
    }
  });
  std::vector<Conjunction> kept;
  kept.reserve(events.size());
  rejected = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (confirmed[i]) {
      kept.push_back(events[i]);
    } else {
      ++rejected;
    }
  }
  return kept;
}

}  // namespace perfbench
