// Small statistics helpers for the pipeline benchmark: order statistics of
// timing samples, the tail percentile rule, digests of rendered outputs,
// the per-stage scaling exponent and the process memory high-water mark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pipebench {

/// Median, quartiles and sample count of one timing series.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// Linear-interpolated quantile (q in [0, 1]) of `samples`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

[[nodiscard]] Summary summarize(const std::vector<double>& samples);

/// The highest whole percentile p (50..99) that leaves at least ten samples
/// above it, with its value; {0, 0} when there are fewer than 20 samples.
struct Tail {
  int percentile = 0;
  double value = 0.0;
};
[[nodiscard]] Tail tail(const std::vector<double>& samples);

/// 64-bit FNV-1a digest, rendered as 16 lowercase hex digits.
[[nodiscard]] std::string digest(std::string_view text);

/// Exponent k of t ~ n^k fitted through two (size, seconds) points.
[[nodiscard]] double scaling_exponent(double n_small, double t_small, double n_large,
                                      double t_large);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// splitmix64: the benchmark's only source of pseudo-random input.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace pipebench
