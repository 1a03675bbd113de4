#include "obs/profiler.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "sim/component.hpp"

namespace mte::obs {

namespace {

[[nodiscard]] double seconds(PhaseProfiler::Clock::duration d) noexcept {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

void PhaseProfiler::start(const std::vector<sim::Component*>& components) {
  samples_ = 0;
  clock_reads_ = 0;
  countdown_ = 1;
  baseline_.clear();
  retired_.clear();
  for (const sim::Component* c : components) {
    baseline_[c] = Baseline{window(*c), c->type_name()};
  }
}

void PhaseProfiler::track(const std::vector<sim::Component*>& components) {
  for (const sim::Component* c : components) {
    baseline_.try_emplace(c, Baseline{Usage{}, c->type_name()});
  }
}

void PhaseProfiler::retire(const sim::Component& c) {
  const auto it = baseline_.find(&c);
  // Untracked: registered after the last phase opened, so never dispatched.
  if (it == baseline_.end()) return;
  const Usage w = window(c);
  if (w.settle != Clock::duration::zero() || w.commit != Clock::duration::zero()) {
    Usage& row = retired_[std::string(it->second.type)];
    row.settle += w.settle;
    row.commit += w.commit;
  }
  baseline_.erase(it);
}

PhaseProfiler::Usage PhaseProfiler::window(const sim::Component& c) const {
  const auto it = baseline_.find(&c);
  const Usage b = it == baseline_.end() ? Usage{} : it->second.usage;
  return Usage{c.kernel_eval_calls() - b.evals, c.kernel_tick_calls() - b.ticks,
               c.kernel_settle_time() - b.settle, c.kernel_commit_time() - b.commit};
}

ProfileReport PhaseProfiler::report(
    const std::vector<sim::Component*>& components, std::size_t top_n) const {
  ProfileReport rep;

  // Windows grouped by type, and the instance rows. Retired components
  // add their seconds, not their counts, to their type's row, which
  // outlives its last instance.
  std::map<std::string, ProfileRow, std::less<>> rows;
  for (const auto& [type, usage] : retired_) {
    rows[type].settle_seconds = seconds(usage.settle);
    rows[type].commit_seconds = seconds(usage.commit);
  }
  std::vector<InstanceRow> inst;
  for (const sim::Component* c : components) {
    const Usage w = window(*c);
    InstanceRow& i = inst.emplace_back(InstanceRow{c->name(), std::string(c->type_name()),
                                                   w.evals, w.ticks, seconds(w.settle),
                                                   seconds(w.commit)});
    ProfileRow& row = rows[i.type];
    row.instances += 1;
    row.evals += i.evals;
    row.ticks += i.ticks;
    row.settle_seconds += i.settle_seconds;
    row.commit_seconds += i.commit_seconds;
  }
  for (auto& [type, row] : rows) {
    row.type = type;
    rep.total_settle_ += row.settle_seconds;
    rep.total_commit_ += row.commit_seconds;
    rep.rows_.push_back(std::move(row));
  }

  for (ProfileRow& row : rep.rows_) {
    if (rep.total_settle_ > 0.0) row.settle_share = row.settle_seconds / rep.total_settle_;
    if (rep.total_commit_ > 0.0) row.commit_share = row.commit_seconds / rep.total_commit_;
  }

  // Most expensive first; exact eval count, then name, break ties so the
  // ranking is deterministic even with no time recorded.
  std::sort(rep.rows_.begin(), rep.rows_.end(),
            [](const ProfileRow& a, const ProfileRow& b) {
              const double at = a.settle_seconds + a.commit_seconds;
              const double bt = b.settle_seconds + b.commit_seconds;
              if (at != bt) return at > bt;
              if (a.evals != b.evals) return a.evals > b.evals;
              return a.type < b.type;
            });

  // Top-N instances by cost (same deterministic tie-break).
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
