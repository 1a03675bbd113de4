#include "obs/profiler.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "sim/component.hpp"

namespace mte::obs {

PhaseProfiler::Bucket& PhaseProfiler::bucket(
    std::map<std::string, Bucket, std::less<>>& m, std::string_view key) {
  auto it = m.find(key);
  if (it == m.end()) it = m.emplace(std::string(key), Bucket{}).first;
  return it->second;
}

void PhaseProfiler::record_eval(const sim::Component& c, double seconds) {
  const double scaled = seconds * stride_;
  bucket(types_, c.type_name()).settle_seconds += scaled;
  bucket(instances_, c.name()).settle_seconds += scaled;
  ++samples_;
}

void PhaseProfiler::record_tick(const sim::Component& c, double seconds) {
  const double scaled = seconds * stride_;
  bucket(types_, c.type_name()).commit_seconds += scaled;
  bucket(instances_, c.name()).commit_seconds += scaled;
  ++samples_;
}

void PhaseProfiler::start(const std::vector<sim::Component*>& components) {
  types_.clear();
  instances_.clear();
  samples_ = 0;
  countdown_ = 1;
  baseline_.clear();
  for (const sim::Component* c : components) {
    baseline_[c] = Calls{c->kernel_eval_calls(), c->kernel_tick_calls()};
  }
}

PhaseProfiler::Calls PhaseProfiler::window_calls(const sim::Component& c) const {
  Calls calls{c.kernel_eval_calls(), c.kernel_tick_calls()};
  if (const auto it = baseline_.find(&c); it != baseline_.end()) {
    calls.evals -= it->second.evals;
    calls.ticks -= it->second.ticks;
  }
  return calls;
}

ProfileReport PhaseProfiler::report(
    const std::vector<sim::Component*>& components, std::size_t top_n) const {
  ProfileReport rep;

  // Exact call counts and instance populations, grouped by type.
  struct Exact {
    std::uint64_t instances = 0;
    std::uint64_t evals = 0;
    std::uint64_t ticks = 0;
  };
  std::map<std::string, Exact, std::less<>> exact;
  for (const sim::Component* c : components) {
    auto it = exact.find(c->type_name());
    if (it == exact.end()) it = exact.emplace(std::string(c->type_name()), Exact{}).first;
    const Calls calls = window_calls(*c);
    it->second.instances += 1;
    it->second.evals += calls.evals;
    it->second.ticks += calls.ticks;
  }

  for (const auto& [type, ex] : exact) {
    ProfileRow row;
    row.type = type;
    row.instances = ex.instances;
    row.evals = ex.evals;
    row.ticks = ex.ticks;
    if (auto it = types_.find(type); it != types_.end()) {
      row.settle_seconds = it->second.settle_seconds;
      row.commit_seconds = it->second.commit_seconds;
    }
    rep.total_settle_ += row.settle_seconds;
    rep.total_commit_ += row.commit_seconds;
    rep.rows_.push_back(std::move(row));
  }
  // Sampled types with no registered instance (components destroyed since
  // recording) still show up, unattributed counts at zero.
  for (const auto& [type, b] : types_) {
    if (exact.find(type) != exact.end()) continue;
    ProfileRow row;
    row.type = type;
    row.settle_seconds = b.settle_seconds;
    row.commit_seconds = b.commit_seconds;
    rep.total_settle_ += row.settle_seconds;
    rep.total_commit_ += row.commit_seconds;
    rep.rows_.push_back(std::move(row));
  }

  for (ProfileRow& row : rep.rows_) {
    if (rep.total_settle_ > 0.0) row.settle_share = row.settle_seconds / rep.total_settle_;
    if (rep.total_commit_ > 0.0) row.commit_share = row.commit_seconds / rep.total_commit_;
  }

  // Most expensive first; exact eval count, then name, break ties so the
  // ranking is deterministic even with no samples recorded.
  std::sort(rep.rows_.begin(), rep.rows_.end(),
            [](const ProfileRow& a, const ProfileRow& b) {
              const double at = a.settle_seconds + a.commit_seconds;
              const double bt = b.settle_seconds + b.commit_seconds;
              if (at != bt) return at > bt;
              if (a.evals != b.evals) return a.evals > b.evals;
              return a.type < b.type;
            });

  // Top-N instances by sampled cost (same deterministic tie-break).
  std::vector<InstanceRow> inst;
  for (const sim::Component* c : components) {
    InstanceRow row;
    row.name = c->name();
    row.type = std::string(c->type_name());
    const Calls calls = window_calls(*c);
    row.evals = calls.evals;
    row.ticks = calls.ticks;
    if (auto it = instances_.find(c->name()); it != instances_.end()) {
      row.settle_seconds = it->second.settle_seconds;
      row.commit_seconds = it->second.commit_seconds;
    }
    inst.push_back(std::move(row));
  }
  std::sort(inst.begin(), inst.end(),
            [](const InstanceRow& a, const InstanceRow& b) {
              const double at = a.settle_seconds + a.commit_seconds;
              const double bt = b.settle_seconds + b.commit_seconds;
              if (at != bt) return at > bt;
              if (a.evals != b.evals) return a.evals > b.evals;
              return a.name < b.name;
            });
  if (inst.size() > top_n) inst.resize(top_n);
  rep.top_instances_ = std::move(inst);
  return rep;
}

std::string ProfileReport::to_table() const {
  std::size_t type_w = 4;  // "type"
  for (const ProfileRow& r : rows_) type_w = std::max(type_w, r.type.size());
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line),
                "%-*s  %9s  %12s  %12s  %11s  %7s  %11s  %7s\n",
                static_cast<int>(type_w), "type", "instances", "evals", "ticks",
                "settle_ms", "set%", "commit_ms", "com%");
  out += line;
  for (const ProfileRow& r : rows_) {
    std::snprintf(line, sizeof(line),
                  "%-*s  %9" PRIu64 "  %12" PRIu64 "  %12" PRIu64
                  "  %11.3f  %6.1f%%  %11.3f  %6.1f%%\n",
                  static_cast<int>(type_w), r.type.c_str(), r.instances, r.evals,
                  r.ticks, r.settle_seconds * 1e3, r.settle_share * 100.0,
                  r.commit_seconds * 1e3, r.commit_share * 100.0);
    out += line;
  }
  if (!top_instances_.empty()) {
    std::size_t name_w = 8;  // "instance"
    for (const InstanceRow& r : top_instances_) name_w = std::max(name_w, r.name.size());
    std::snprintf(line, sizeof(line), "\n%-*s  %-18s  %12s  %12s  %11s  %11s\n",
                  static_cast<int>(name_w), "instance", "type", "evals", "ticks",
                  "settle_ms", "commit_ms");
    out += line;
    for (const InstanceRow& r : top_instances_) {
      std::snprintf(line, sizeof(line),
                    "%-*s  %-18s  %12" PRIu64 "  %12" PRIu64 "  %11.3f  %11.3f\n",
                    static_cast<int>(name_w), r.name.c_str(), r.type.c_str(),
                    r.evals, r.ticks, r.settle_seconds * 1e3, r.commit_seconds * 1e3);
      out += line;
    }
  }
  return out;
}

void ProfileReport::emit_metrics(MetricsSink& sink) const {
  for (const ProfileRow& r : rows_) {
    const std::string base = "profile." + r.type + ".";
    sink.counter(base + "evals", r.evals, MetricCategory::kKernel);
    sink.counter(base + "ticks", r.ticks, MetricCategory::kKernel);
    sink.gauge(base + "settle_seconds", r.settle_seconds, MetricCategory::kTiming);
    sink.gauge(base + "commit_seconds", r.commit_seconds, MetricCategory::kTiming);
  }
}

}  // namespace mte::obs
