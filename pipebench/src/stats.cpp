#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace pipebench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

Summary summarize(const std::vector<double>& samples) {
  return Summary{quantile(samples, 0.5), quantile(samples, 0.25),
                 quantile(samples, 0.75), samples.size()};
}

Tail tail(const std::vector<double>& samples) {
  const auto n = static_cast<double>(samples.size());
  for (int p = 99; p >= 50; --p) {
    if (n * (1.0 - p / 100.0) >= 10.0) return Tail{p, quantile(samples, p / 100.0)};
  }
  return Tail{};
}

std::string digest(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double scaling_exponent(double n_small, double t_small, double n_large,
                        double t_large) {
  if (n_small <= 0 || n_large <= n_small || t_small <= 0 || t_large <= 0) return 0.0;
  return std::log(t_large / t_small) / std::log(n_large / n_small);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image exec replaced (the launching interpreter's).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace pipebench
