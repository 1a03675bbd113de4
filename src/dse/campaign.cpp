#include "dse/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "analysis/perf.hpp"
#include "netlist/elaborate.hpp"
#include "sim/protocol_monitor.hpp"
#include "sim/simulator.hpp"

namespace mte::dse {

std::string CheckpointPolicy::snapshot_path(const SweepPoint& point,
                                            std::uint64_t seed) const {
  std::string key = point.label();
  std::replace(key.begin(), key.end(), '/', '_');
  return dir + "/" + key + "_seed" + std::to_string(seed) + "_w" +
         std::to_string(warmup) + ".snap";
}

std::string RobustnessPolicy::point_dir(const SweepPoint& point,
                                        std::uint64_t seed) const {
  std::string key = point.label();
  std::replace(key.begin(), key.end(), '/', '_');
  return artifact_dir + "/" + key + "_seed" + std::to_string(seed);
}

namespace {

/// Session-driven evaluation: optional checkpoint warm-start (cold runs
/// snapshot at the warmup cycle and keep going; warm runs restore that
/// snapshot and simulate only the tail) and optional robustness hardening
/// (protocol monitors on every channel, per-point no-progress watchdog).
/// On a monitor violation the point's record is marked quarantined here;
/// a watchdog expiry surfaces as sim::WatchdogError for the caller.
WorkloadResult run_session_point(const Workload& w, const SweepPoint& point,
                                 sim::Cycle cycles, std::uint64_t seed,
                                 const CheckpointPolicy& ckpt,
                                 const RobustnessPolicy& robust,
                                 PointRecord& rec) {
  // The monitor outlives the session (and its simulator), so the
  // attachment pointer can never dangle.
  sim::ProtocolMonitor monitor;
  auto session = w.make_session(point, cycles, seed);
  sim::Simulator& s = session->simulator();
  netlist::Elaboration* elab =
      robust.enabled() ? session->elaboration() : nullptr;
  const std::string point_dir =
      robust.enabled() && !robust.artifact_dir.empty()
          ? robust.point_dir(point, seed)
          : std::string{};
  if (elab != nullptr) {
    elab->attach_monitor(monitor);
    if (robust.watchdog > 0) s.set_watchdog(robust.watchdog, point_dir);
  }
  if (ckpt.enabled()) {
    const sim::Cycle warmup = std::min(ckpt.warmup, cycles);
    const std::string path = ckpt.snapshot_path(point, seed);
    if (ckpt.restore) {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        throw std::runtime_error("checkpoint restore: cannot read '" + path + "'");
      }
      s.restore(in);
      if (s.now() != warmup) {
        throw std::runtime_error("checkpoint restore: '" + path +
                                 "' is at cycle " + std::to_string(s.now()) +
                                 ", expected " + std::to_string(warmup));
      }
    } else {
      s.run(warmup);
      std::ofstream out(path, std::ios::binary);
      if (!out) {
        throw std::runtime_error("checkpoint save: cannot write '" + path + "'");
      }
      s.save(out);
    }
    s.run(cycles - warmup);
  } else {
    s.run(cycles);
  }
  WorkloadResult result = session->finish(point, cycles);
  if (elab != nullptr && !monitor.violations().empty()) {
    rec.failure_kind = "violation";
    rec.error = "protocol violation: " + monitor.violations().front().format();
    if (monitor.violations().size() > 1) {
      rec.error += " (+" + std::to_string(monitor.violations().size() - 1) +
                   " more violations)";
    }
    if (!point_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(point_dir, ec);
      if (!ec) {
        std::ofstream snap(point_dir + "/violation.snap", std::ios::binary);
        if (snap) s.save(snap);
        std::ofstream report(point_dir + "/violations.txt");
        if (report) report << monitor.report();
      }
    }
  }
  return result;
}

/// Commits the quarantined point's repro artifact: the spec point, seed,
/// failure kind, full violation/diagnosis text, and where the snapshot
/// landed — everything needed to re-run the point in isolation.
void write_repro(const RobustnessPolicy& robust, const SweepPoint& point,
                 sim::Cycle cycles, const PointRecord& rec) {
  const std::string dir = robust.point_dir(point, rec.seed);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return;
  std::ofstream os(dir + "/repro.txt");
  if (!os) return;
  os << "quarantined campaign point\n"
     << "label: " << point.label() << '\n'
     << "index: " << point.index << '\n'
     << "workload: " << point.workload << '\n'
     << "variant: " << to_string(point.variant) << '\n'
     << "threads: " << point.threads << '\n'
     << "shared_slots: " << point.shared_slots << '\n'
     << "arbiter: " << mt::to_string(point.arbiter) << '\n'
     << "kernel: " << sim::to_string(point.kernel) << '\n'
     << "seed: " << rec.seed << '\n'
     << "cycles: " << cycles << '\n'
     << "failure_kind: " << rec.failure_kind << '\n'
     << "snapshot: " << dir << '/'
     << (rec.failure_kind == "watchdog" ? "postmortem_c<cycle>.snap"
                                        : "violation.snap")
     << '\n'
     << "error:\n"
     << rec.error << '\n';
}

/// The point priced without simulating it: its static throughput bound
/// (windowed to the campaign's cycle budget, so finite-horizon fill
/// effects are inside the bound) plus the area-model figures, all read
/// off the workload's StaticModel. Empty when the workload has no
/// make_netlist hook, the model's measured sink is missing, or the
/// analysis did not converge — such points always simulate.
struct StaticPrice {
  double bound = 1.0;
  double les = 0;
  double mhz = 0;
};

std::optional<StaticPrice> static_price(const Workload& w, const SweepPoint& point,
                                        sim::Cycle cycles) {
  if (w.make_netlist == nullptr) return std::nullopt;
  const StaticModel model = w.make_netlist(point);
  analysis::PerfOptions opt;
  opt.arbiter = point.arbiter;
  if (point.variant == MebVariant::kHybrid) opt.meb_shared_slots = point.shared_slots;
  const analysis::PerfReport perf = analysis::analyze_perf(model.net, opt);
  if (!perf.converged || !perf.karp_agrees) return std::nullopt;
  for (const auto& sink : perf.sinks) {
    if (sink.sink != model.sink) continue;
    StaticPrice price;
    price.bound = analysis::windowed_bound(sink, cycles);
    const area::CostModel cost;
    const area::DesignEstimate est = netlist_area(model.net, point, cost);
    price.les = est.total_les();
    price.mhz = cost.frequency_mhz(est);
    return price;
  }
  return std::nullopt;
}

/// Screening compares at the precision the report renders (and the
/// Pareto rule decides) at: %.6f throughput, %.1f LEs. This keeps the
/// skip decision a pure function of data that survives a CSV round-trip.
double round6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return std::strtod(buf, nullptr);
}

double round1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return std::strtod(buf, nullptr);
}

}  // namespace

PointRecord CampaignRunner::run_point(const SweepPoint& point, const SweepSpec& spec,
                                      const CheckpointPolicy& ckpt,
                                      const RobustnessPolicy& robust) const {
  return evaluate_point(point, spec, ckpt, robust, std::nullopt);
}

PointRecord CampaignRunner::evaluate_point(const SweepPoint& point,
                                           const SweepSpec& spec,
                                           const CheckpointPolicy& ckpt,
                                           const RobustnessPolicy& robust,
                                           std::optional<double> static_bound) const {
  PointRecord rec;
  rec.point = point;
  rec.seed = point_seed(spec.seed, point.index);
  try {
    const Workload& w = workloads_.at(point.workload);
    if (static_bound) {
      rec.static_bound = *static_bound;
    } else if (const auto price = static_price(w, point, spec.cycles)) {
      rec.static_bound = price->bound;
    }
    if ((ckpt.enabled() || robust.enabled()) && w.make_session != nullptr) {
      rec.result =
          run_session_point(w, point, spec.cycles, rec.seed, ckpt, robust, rec);
    } else {
      rec.result = w.evaluate(point, spec.cycles, rec.seed);
    }
    rec.les = rec.result.area.total_les();
    rec.mhz = area::CostModel{}.frequency_mhz(rec.result.area);
  } catch (const sim::WatchdogError& ex) {
    // The per-point deadline: the point is quarantined, not campaign-fatal.
    // The simulator already wrote its post-mortem bundle into the point's
    // artifact directory before throwing.
    rec.failure_kind = "watchdog";
    rec.error = ex.what();
  } catch (const std::exception& ex) {
    rec.failure_kind = "exception";
    rec.error = ex.what();
  } catch (...) {
    // A non-std::exception from a user workload must still become a
    // failed record — escaping a pool thread would std::terminate().
    rec.failure_kind = "exception";
    rec.error = "non-standard exception";
  }
  if (!rec.error.empty() && robust.enabled() && !robust.artifact_dir.empty()) {
    write_repro(robust, point, spec.cycles, rec);
  }
  return rec;
}

std::vector<PointRecord> CampaignRunner::run(const SweepSpec& spec,
                                             std::size_t workers, const Shard& shard,
                                             const CheckpointPolicy& ckpt,
                                             const RobustnessPolicy& robust,
                                             bool screen) const {
  if (shard.count == 0 || shard.index >= std::max<std::size_t>(shard.count, 1)) {
    throw std::invalid_argument("CampaignRunner: shard index " +
                                std::to_string(shard.index) + " outside 0.." +
                                std::to_string(shard.count) + "-1");
  }
  if (screen && shard.count > 1) {
    throw std::invalid_argument(
        "CampaignRunner: screening is incompatible with sharding (the skip "
        "decision depends on every earlier point's result)");
  }
  std::vector<SweepPoint> points = spec.enumerate(workloads_);
  if (shard.count > 1) {
    std::erase_if(points, [&shard](const SweepPoint& p) {
      return !shard.covers(p.index);
    });
  }
  std::vector<PointRecord> records(points.size());
  if (points.empty()) return records;

  if (screen) {
    // Serial by construction: point i's skip decision reads the measured
    // throughput of every earlier simulated point.
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Workload& w = workloads_.at(points[i].workload);
      const std::optional<StaticPrice> price =
          static_price(w, points[i], spec.cycles);
      const PointRecord* dominator = nullptr;
      if (price) {
        for (std::size_t j = 0; j < i && dominator == nullptr; ++j) {
          if (records[j].ok() &&
              round6(records[j].result.throughput) >= round6(price->bound) &&
              round1(records[j].les) <= round1(price->les)) {
            dominator = &records[j];
          }
        }
      }
      if (dominator == nullptr) {
        records[i] = evaluate_point(points[i], spec, ckpt, robust,
                                    price ? price->bound : PointRecord{}.static_bound);
        continue;
      }
      PointRecord& rec = records[i];
      rec.point = points[i];
      rec.seed = point_seed(spec.seed, points[i].index);
      rec.static_bound = price->bound;
      rec.les = price->les;
      rec.mhz = price->mhz;
      rec.failure_kind = "screened";
      char text[160];
      std::snprintf(text, sizeof text,
                    "screened: static bound %.6f tokens/cycle dominated by "
                    "point %zu (measured %.6f at %.1f LEs)",
                    price->bound, dominator->point.index,
                    dominator->result.throughput, dominator->les);
      rec.error = text;
    }
    return records;
  }

  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers = std::min(workers, points.size());

  if (workers <= 1) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      records[i] = run_point(points[i], spec, ckpt, robust);
    }
    return records;
  }

  // Each worker claims the next unevaluated point and writes into its
  // pre-assigned slot: result ordering (and content — every point is
  // seeded from (spec.seed, index) and fully self-contained) is identical
  // for any worker count.
  std::atomic<std::size_t> next{0};
  const auto worker = [&]() {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) return;
      records[i] = run_point(points[i], spec, ckpt, robust);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return records;
}

}  // namespace mte::dse
