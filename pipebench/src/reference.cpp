#include "reference.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pipebench {

ReferenceBook ReferenceBook::parse(const std::string& text) {
  ReferenceBook book;
  std::istringstream in(text);
  std::string line;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::string seed;
    std::string key;
    std::string value;
    std::string extra;
    if (!(fields >> workload >> seed >> key >> value) || (fields >> extra) ||
        seed.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument("reference line " + std::to_string(line_no) +
                                  ": expected '<workload> <seed> <key> <value>'");
    }
    book.values_[{workload, std::stoull(seed), key}] = value;
  }
  return book;
}

ReferenceBook ReferenceBook::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

const std::string* ReferenceBook::find(const std::string& workload, std::uint64_t seed,
                                       const std::string& key) const {
  const auto it = values_.find({workload, seed, key});
  return it == values_.end() ? nullptr : &it->second;
}

bool Gate::check(const std::string& key, const std::string& value) {
  const std::string* expected = book_->find(workload_, seed_, key);
  const auto [it, first] = seen_.emplace(key, value);
  if (expected == nullptr) expected = &it->second;
  if (value == *expected) return true;
  if (mismatches_.size() < 16) {
    mismatches_.push_back(key + ": got " + value + ", reference " + *expected);
  }
  return false;
}

std::string Gate::render() const {
  std::string out;
  for (const auto& [key, value] : seen_) {
    out += workload_ + ' ' + std::to_string(seed_) + ' ' + key + ' ' + value + '\n';
  }
  return out;
}

}  // namespace pipebench
