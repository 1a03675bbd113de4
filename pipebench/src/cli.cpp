#include "cli.hpp"

#include <algorithm>
#include <cstdlib>

namespace pipebench {

namespace {

std::uint64_t parse_seed(const std::string& text) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    throw UsageError("--seed: '" + text + "' is not a non-negative integer");
  }
  return std::stoull(text);
}

double parse_seconds(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || !(v > 0.0) || v > 3600.0) {
    throw UsageError("--seconds: '" + text + "' is not a number in (0, 3600]");
  }
  return v;
}

}  // namespace

Options parse_options(const std::vector<std::string>& args) {
  Options o;
  bool have_workload = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--print-reference") {
      o.print_reference = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace") {
      throw UsageError("unknown argument '" + flag + "'");
    }
    if (i + 1 >= args.size()) throw UsageError(flag + " needs a value");
    const std::string& value = args[++i];
    if (flag == "--workload") {
      const auto& names = workload_names();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        std::string known;
        for (const auto& n : names) known += (known.empty() ? "" : ", ") + n;
        throw UsageError("unknown workload '" + value + "' (known: " + known + ")");
      }
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_seed(value);
    } else if (flag == "--seconds") {
      o.seconds = parse_seconds(value);
    } else if (value == "0" || value == "1") {
      o.trace = value == "1";
    } else {
      throw UsageError("--trace: '" + value + "' is not 0 or 1");
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  return o;
}

}  // namespace pipebench
