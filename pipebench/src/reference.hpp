// The benchmark's correctness gate.
//
// Every pass of a workload renders its simulated statistics into short
// keyed values (sink token counts, the stats_report() digest, the DSE CSV
// digest, the Pareto frontier). A Gate compares each value against the
// reference recorded for that (workload, seed): the committed value in
// pipebench/reference.txt when the seed is listed there, otherwise the
// value the run's first pass produced. Any difference is a failed
// operation. The model has no hardware reference data, so this checks
// that the simulator reproduces its own recorded statistics; it is not an
// accuracy figure.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace pipebench {

/// Committed reference values: one "<workload> <seed> <key> <value>" line
/// each; '#' starts a comment line.
class ReferenceBook {
 public:
  /// Parses reference text; throws std::invalid_argument on a bad line.
  [[nodiscard]] static ReferenceBook parse(const std::string& text);
  /// parse() of the file's contents; an absent file is an empty book.
  [[nodiscard]] static ReferenceBook load(const std::string& path);

  [[nodiscard]] const std::string* find(const std::string& workload, std::uint64_t seed,
                                        const std::string& key) const;

 private:
  std::map<std::tuple<std::string, std::uint64_t, std::string>, std::string> values_;
};

class Gate {
 public:
  Gate(const ReferenceBook& book, std::string workload, std::uint64_t seed)
      : book_(&book), workload_(std::move(workload)), seed_(seed) {}

  /// True when `value` matches the reference for `key`; records a mismatch
  /// otherwise. The first value seen for a key without a committed
  /// reference becomes the run's reference.
  bool check(const std::string& key, const std::string& value);

  [[nodiscard]] const std::vector<std::string>& mismatches() const noexcept {
    return mismatches_;
  }
  /// The reference lines for this (workload, seed), in the book's format.
  [[nodiscard]] std::string render() const;

 private:
  const ReferenceBook* book_;
  std::string workload_;
  std::uint64_t seed_;
  std::map<std::string, std::string> seen_;
  std::vector<std::string> mismatches_;
};

}  // namespace pipebench
