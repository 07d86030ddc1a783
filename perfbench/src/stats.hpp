// Percentile estimators for the benchmark's latency metrics.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in 0..100) of an unsorted sample; 0 when
/// empty. Used for the per-layer stage metrics.
template <typename T>
double nearest_rank(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return static_cast<double>(v[idx]);
}

namespace detail {

// Continued fraction of the regularized incomplete beta (modified Lentz).
inline double beta_cf(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-15;
  const double qab = a + b, qap = a + 1, qam = a - 1;
  double c = 1, d = 1 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1 / d;
  double h = d;
  for (int m = 1; m <= 100000; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1) < kEps) break;
  }
  return h;
}

/// Regularized incomplete beta I_x(a, b).
inline double beta_inc(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2)) return front * beta_cf(a, b, x) / a;
  return 1 - front * beta_cf(b, a, 1 - x) / b;
}

}  // namespace detail

/// Harrell–Davis estimate of the p-th percentile (p in 0..100): a
/// beta-weighted mean of all order statistics. Latencies in virtual time
/// are integral and tie heavily, so a single order statistic reads the
/// same integer across seeds and jumps a whole delay when the tie breaks;
/// the weighted estimate moves smoothly with the distribution. Ties are
/// weighted as one block, so the cost is one incomplete-beta evaluation per
/// distinct value.
template <typename T>
double harrell_davis(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double q = p / 100.0;
  const double a = q * (n + 1), b = (1 - q) * (n + 1);
  double est = 0, lo_cdf = 0;
  for (std::size_t i = 0; i < v.size();) {
    std::size_t j = i;
    while (j < v.size() && v[j] == v[i]) ++j;
    const double hi_cdf = detail::beta_inc(a, b, static_cast<double>(j) / n);
    est += (hi_cdf - lo_cdf) * static_cast<double>(v[i]);
    lo_cdf = hi_cdf;
    i = j;
  }
  return est;
}

}  // namespace perfbench
