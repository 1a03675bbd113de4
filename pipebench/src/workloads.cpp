#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/analyze.hpp"
#include "analysis/perf.hpp"
#include "dse/campaign.hpp"
#include "dse/report.hpp"
#include "mesh.hpp"
#include "netlist/builder.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/text_format.hpp"
#include "obs/profiler.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "tracer.hpp"

namespace pipebench {

namespace {

namespace dse = mte::dse;
namespace netlist = mte::netlist;
namespace sim = mte::sim;
using Clock = std::chrono::steady_clock;

// Cycle budgets. A DSE pass runs the default campaign at kDseCampaigns
// campaign seeds derived from the benchmark seed, at a per-point budget
// long enough that simulation, not set-up, dominates. Screening decisions
// follow each campaign's measured throughputs, so one campaign's count of
// simulated points swings with its seed; several campaigns per pass keep
// a pass's work steady across benchmark seeds. The netlist passes simulate
// a fixed window after a warm-up so every pass does equal work.
constexpr std::size_t kDseCampaigns = 8;
constexpr sim::Cycle kDseCycles = 12'500;
// The mesh's per-cycle cost settles once its lanes have filled, after
// about 250 cycles.
constexpr sim::Cycle kMeshWarmup = 300;
constexpr sim::Cycle kMeshWindow = 4'000;
constexpr sim::Cycle kProfWarmup = 2'000;
constexpr sim::Cycle kProfWindow = 40'000;
// A DSE set-up takes microseconds, so each campaign sets up this many
// times and keeps the median.
constexpr int kDseSetupReps = 5;
// Cycles of the short phase-timed window the DSE walk runs per point.
constexpr sim::Cycle kHookWindow = 2'000;
// The timed window runs as this many equal chunks. A pass's window time is
// its median chunk times kChunks, so a burst of host interference in one
// chunk does not move it; the run's rate sums each chunk's best time.
constexpr sim::Cycle kChunks = 40;
constexpr std::size_t kMinPasses = 3;
// Reference slices run before each pass; see reference_slice().
constexpr int kSliceReps = 10;
// The reference slice's fastest time on the reference host, a 4-vCPU Xeon
// host with the benchmark built in Release by GCC 12. End-to-end timings
// are scaled to a host on which the fastest slice takes this long.
constexpr double kReferenceSlice = 1.8e-3;
// Repetitions of each stage in the traced set-up scaling probe.
constexpr int kScalingReps = 5;

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// dse_default's worker count: half the host's threads. With every host
/// thread busy, a pass waits on whichever worker the host slows most, and
/// ten runs spread about twice as far as with half of them.
std::size_t dse_workers() {
  return std::max(1u, std::thread::hardware_concurrency() / 2);
}

/// Operations attempted and failed, plus the reference gate.
struct Ledger {
  Gate gate;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// The fastest time seen for each segment of a pass. Every pass of a run
/// does the same work in the same order, cut into the same segments (a
/// set-up stage, a chunk of the timed window, a report), so segment i of
/// one pass repeats segment i of every other.
class BestSegments {
 public:
  /// Folds in one pass's segment times; a pass cut differently is skipped.
  void add(const std::vector<double>& times) {
    if (best_.empty()) {
      best_ = times;
    } else if (times.size() == best_.size()) {
      for (std::size_t i = 0; i < times.size(); ++i) best_[i] = std::min(best_[i], times[i]);
    }
  }
  [[nodiscard]] double total() const {
    double sum = 0;
    for (const double t : best_) sum += t;
    return sum;
  }

 private:
  std::vector<double> best_;
};

/// Per-pass end-to-end samples of the untraced passes, plus the walls of
/// the traced ones (a traced run alternates the two). `segments` cuts a
/// pass's wall into consecutive segments; `window` holds the segments
/// whose work is the `cycles` simulated cycles that sim_cycles_per_s
/// counts.
struct Series {
  std::vector<double> wall;
  std::vector<double> setup;
  std::vector<double> cycles_per_s;
  std::vector<double> traced_wall;
  BestSegments segments;
  BestSegments window;
  double cycles = 0;
  double slice = 0;  ///< the run's fastest reference slice

  void add(bool traced, double wall_s, double setup_s, double rate) {
    if (traced) {
      traced_wall.push_back(wall_s);
      return;
    }
    wall.push_back(wall_s);
    setup.push_back(setup_s);
    cycles_per_s.push_back(rate);
  }
};

/// Moves the calling thread from CPU to CPU: pin(k) pins it to the k-th
/// CPU it may run on, modulo their count. The destructor gives back the
/// thread's CPU set. A disabled rotation never pins.
///
/// On a shared host each core's speed switches between levels that last
/// seconds, and a serial run left to the scheduler stays on one core for
/// most of its passes. Rotating lets the run's passes see every core.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    if (!enabled || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof saved_, &saved_);
  }

  void pin(std::size_t k) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
};

/// Keeps the reference slice's result alive.
volatile std::uint64_t slice_sink = 0;

/// Seconds of one reference slice: fixed integer work with data-dependent
/// branches and no memory traffic, independent of the library. Its fastest
/// time in a run measures how fast the host ran the process in that run.
double reference_slice() {
  const auto t0 = Clock::now();
  std::uint64_t a = 1;
  std::uint64_t b = 7;
  for (int k = 0; k < 300'000; ++k) {
    a = a * 6364136223846793005ULL + b;
    if ((a & 0x100) != 0) {
      b ^= a >> 7;
    } else {
      b += a >> 13;
    }
  }
  slice_sink = a + b;
  return since(t0);
}

/// Runs passes until `seconds` of passes have elapsed (at least
/// kMinPasses), stopping early when the next pass would overrun, and
/// returns the fastest reference slice, kSliceReps of which run before
/// each pass. A serial workload (`rotate`) runs each two consecutive
/// passes on the next CPU, so a traced run's traced pass shares its CPU
/// with the untraced pass before it.
double measure(double seconds, bool rotate,
               const std::function<double(std::size_t)>& pass) {
  CpuRotation cpus(rotate);
  const auto start = Clock::now();
  std::vector<double> walls;
  double slice = std::numeric_limits<double>::infinity();
  for (std::size_t n = 0;; ++n) {
    const double elapsed = since(start);
    if (n >= kMinPasses && elapsed + median(walls) > seconds) break;
    cpus.pin(n / 2);
    for (int r = 0; r < kSliceReps; ++r) slice = std::min(slice, reference_slice());
    walls.push_back(pass(n));
  }
  return slice;
}

/// A run's metrics in the order of their table (end-to-end or per-layer,
/// as BENCHMARK.json lists them). Every listed metric is present; one the
/// workload does not exercise stays 0.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<Metric>& table) : metrics_(table) {}

  void set(const std::string& name, double v) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == metrics_.end()) throw std::logic_error("unlisted metric " + name);
    it->value = v;
  }
  [[nodiscard]] std::vector<Metric> take() { return std::move(metrics_); }

 private:
  std::vector<Metric> metrics_;
};

std::string summary_line(const std::string& name, const std::string& unit,
                         const std::vector<double>& samples) {
  const Summary s = summarize(samples);
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%-18s median %.6g %s (q1 %.6g, q3 %.6g, min %.6g, max %.6g, n %zu)\n",
                name.c_str(), s.median, unit.c_str(), s.q1, s.q3, *lo, *hi, s.n);
  return buf;
}

/// Summarizes the series into the report. An untraced run reports, as its
/// end-to-end metrics, the median set-up and the wall and rate of its best
/// segments: each segment of a pass at the fastest time any untraced pass
/// of the run took for it. It scales all three to the reference host by
/// the run's fastest reference slice. A traced run reports the tracing
/// overhead, unscaled.
///
/// On a shared host the speed of a core changes from one moment to the
/// next: one mesh_sim pass took 0.44, 0.60 or 0.77 s on a 4-vCPU Xeon host,
/// and the median pass of a run depended on which slowdowns the run met.
/// Host interference only ever adds time, so the fastest time of each
/// short segment is the steadiest estimate of the work's own cost. A
/// change to the program's cost moves every repeat of the segments it
/// touches, and so moves their minimum too. The host's own speed also
/// drifts, by up to 40% over tens of minutes; the reference slice's
/// fastest time drifts with it.
void report_series(const Series& s, bool trace, MetricSet& m, std::string& report) {
  report += summary_line("wall_s", "s", s.wall) + summary_line("setup_s", "s", s.setup) +
            summary_line("sim_cycles_per_s", "1/s", s.cycles_per_s);
  if (trace) {
    m.set("trace.overhead_s", median(s.traced_wall) - median(s.wall));
    return;
  }
  const double wall = s.segments.total();
  const double rate = s.cycles / s.window.total();
  const double scale = kReferenceSlice / s.slice;
  char buf[300];
  std::snprintf(buf, sizeof buf,
                "best segments: wall_s %.6g s, sim_cycles_per_s %.6g 1/s\n"
                "reference slice: fastest %.6g ms (%.6g ms on the reference host), "
                "timings scaled by %.4f\n",
                wall, rate, 1e3 * s.slice, 1e3 * kReferenceSlice, scale);
  report += buf;
  m.set("wall_s", wall * scale);
  m.set("setup_s", median(s.setup) * scale);
  m.set("sim_cycles_per_s", rate / scale);
}

// --- DSE ------------------------------------------------------------------

/// mte_dse --preset default, at the benchmark's cycle budget and seed.
dse::SweepSpec default_spec(std::uint64_t seed) {
  dse::SweepSpec spec;
  spec.workloads = {"fig1", "fig5"};
  spec.variants = {dse::MebVariant::kFull, dse::MebVariant::kHybrid,
                   dse::MebVariant::kReduced};
  spec.threads = {1, 2, 4, 8};
  spec.shared_slots = {0, 1};
  spec.arbiters = {mte::mt::ArbiterKind::kRoundRobin, mte::mt::ArbiterKind::kOblivious};
  spec.cycles = kDseCycles;
  spec.seed = seed;
  return spec;
}

struct Campaign {
  dse::SweepSpec spec;
  std::vector<dse::PointRecord> records;
};

struct DsePass {
  double setup = 0;
  double run = 0;
  double report = 0;
  double wall = 0;
  double cycles = 0;  ///< cycles simulated across every campaign's points
  /// Each campaign's set-up, CampaignRunner::run and report, in order.
  std::vector<double> segments;
  std::vector<double> runs;  ///< each campaign's CampaignRunner::run
  std::vector<Campaign> campaigns;
  std::string csv;     ///< digest of the campaigns' CSV reports, in order
  std::string pareto;  ///< the campaigns' frontiers, '/'-separated
};

std::string join_indices(const std::vector<std::size_t>& v) {
  std::string out;
  for (const std::size_t i : v) {
    if (!out.empty()) out += '-';
    out += std::to_string(i);
  }
  return out.empty() ? "none" : out;
}

/// The campaign seeds of one benchmark seed.
std::uint64_t campaign_seed(std::uint64_t seed, std::size_t c) {
  return seed * kDseCampaigns + c;
}

DsePass dse_pass(std::uint64_t seed, std::size_t workers, bool screen, Tracer& tr) {
  DsePass p;
  std::string csvs;
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < kDseCampaigns; ++c) {
    const auto t_setup = Clock::now();
    Campaign camp;
    std::optional<dse::CampaignRunner> runner;
    std::vector<double> setups;
    for (int rep = 0; rep < kDseSetupReps; ++rep) {
      const auto ts = Clock::now();
      Tracer::Scope s(tr, "SweepSpec::enumerate", "dse");
      camp.spec = default_spec(campaign_seed(seed, c));
      if (camp.spec.enumerate().empty()) throw std::runtime_error("default spec is empty");
      runner.emplace();
      setups.push_back(since(ts));
    }
    p.setup += median(setups);
    const auto t1 = Clock::now();
    p.segments.push_back(std::chrono::duration<double>(t1 - t_setup).count());
    {
      Tracer::Scope s(tr, "CampaignRunner::run", "dse");
      camp.records = runner->run(camp.spec, workers, {}, {}, {}, screen);
    }
    const auto t2 = Clock::now();
    const double run = std::chrono::duration<double>(t2 - t1).count();
    p.run += run;
    p.runs.push_back(run);
    p.segments.push_back(run);
    {
      Tracer::Scope s(tr, "Report", "dse");
      const dse::Report report(camp.spec, camp.records);
      csvs += report.to_csv();
      if (report.to_json().empty()) throw std::runtime_error("empty JSON report");
      if (c > 0) p.pareto += '/';
      p.pareto += join_indices(report.pareto());
    }
    p.report += since(t2);
    for (const auto& r : camp.records) {
      if (r.ok()) p.cycles += static_cast<double>(r.result.cycles);
    }
    p.campaigns.push_back(std::move(camp));
    p.segments.push_back(since(t2));
  }
  p.wall = since(t0);
  p.csv = digest(csvs);
  return p;
}

/// One op per point (failed unless ok or screened) plus one for the
/// rendered reports, which must match the reference CSVs and frontiers.
void check_dse(const DsePass& p, const std::string& csv_key, Ledger& l) {
  for (const auto& camp : p.campaigns) {
    for (const auto& r : camp.records) {
      l.op(r.failure_kind.empty() || r.failure_kind == "screened");
    }
  }
  const bool csv_ok = l.gate.check(csv_key, p.csv);
  const bool pareto_ok = l.gate.check("pareto", p.pareto);
  l.op(csv_ok && pareto_ok);
}

/// The per-layer samples of the traced walk.
struct Walk {
  std::vector<double> price_s, perf_s, point_s, first_step_s;
  double howard = 0, component_cycles = 0, settle_s = 0, commit_s = 0;
};

/// Walks one campaign's points serially, in index order, through the
/// Workload hooks and CampaignRunner::run_point; returns its CSV.
std::string walk_campaign(const Campaign& camp, Tracer& tr, Walk& w) {
  const dse::CampaignRunner runner;
  const auto& set = dse::WorkloadSet::builtin();
  std::vector<dse::PointRecord> walked = camp.records;
  for (auto& rec : walked) {
    const dse::SweepPoint point = rec.point;
    const dse::Workload& wl = set.at(point.workload);
    const auto t0 = Clock::now();
    mte::analysis::PerfReport perf;
    {
      Tracer::Scope s(tr, "Workload::make_netlist", "dse");
      const dse::StaticModel model = wl.make_netlist(point);
      mte::analysis::PerfOptions opt;
      opt.arbiter = point.arbiter;
      if (point.variant == dse::MebVariant::kHybrid) {
        opt.meb_shared_slots = point.shared_slots;
      }
      const auto t1 = Clock::now();
      Tracer::Scope a(tr, "analyze_perf", "analysis");
      perf = mte::analysis::analyze_perf(model.net, opt);
      w.perf_s.push_back(since(t1));
    }
    w.price_s.push_back(since(t0));
    w.howard += static_cast<double>(perf.iterations);
    if (rec.failure_kind == "screened") continue;
    const auto t2 = Clock::now();
    {
      Tracer::Scope s(tr, "CampaignRunner::run_point", "dse");
      rec = runner.run_point(point, camp.spec);
    }
    w.point_s.push_back(since(t2));
    Tracer::Scope s(tr, "Workload::make_session", "dse");
    const auto session = wl.make_session(point, camp.spec.cycles, rec.seed);
    sim::Simulator& sim = session->simulator();
    w.component_cycles += static_cast<double>(sim.component_count()) *
                          static_cast<double>(camp.spec.cycles);
    const auto t3 = Clock::now();
    {
      Tracer::Scope f(tr, "Simulator::step", "sim");
      sim.step();
    }
    w.first_step_s.push_back(since(t3));
    sim.set_phase_timing(true);
    {
      Tracer::Scope r(tr, "Simulator::run", "sim");
      sim.run(kHookWindow);
    }
    w.settle_s += sim.settle_seconds();
    w.commit_s += sim.commit_seconds();
  }
  return dse::Report(camp.spec, walked).to_csv();
}

/// The traced walk over every campaign of `pass`, and the per-layer values
/// it yields.
void dse_walk(const DsePass& pass, std::size_t workers, double campaign_run_s,
              const std::string& csv_key, Tracer& tr, Ledger& l, MetricSet& layers,
              std::string& report) {
  Walk w;
  std::string csvs;
  for (const auto& camp : pass.campaigns) csvs += walk_campaign(camp, tr, w);
  // The walk is serial; the campaigns ran on `workers` threads. Their
  // reports must be byte-identical.
  l.op(l.gate.check(csv_key, digest(csvs)));

  double sum_point = 0;
  for (const double s : w.point_s) sum_point += s;
  std::size_t screened = 0;
  dse::KernelMetrics k;
  double cycles = 0;
  for (const auto& camp : pass.campaigns) {
    for (const auto& r : camp.records) {
      if (r.failure_kind == "screened") ++screened;
      if (!r.ok()) continue;
      k.settle_work += r.result.kernel.settle_work;
      k.sched_evals += r.result.kernel.sched_evals;
      k.ticks += r.result.kernel.ticks;
      k.elided_ticks += r.result.kernel.elided_ticks;
      cycles += static_cast<double>(r.result.cycles);
    }
  }
  const Tail t = tail(w.point_s);
  layers.set("dse.static_price_s", median(w.price_s));
  layers.set("analysis.perf_s", median(w.perf_s));
  layers.set("analysis.howard_iterations", w.howard);
  layers.set("dse.point_s_p50", median(w.point_s));
  layers.set("dse.point_s_tail", t.value);
  layers.set("dse.pool_efficiency",
             sum_point / (static_cast<double>(workers) * campaign_run_s));
  layers.set("dse.points_simulated", static_cast<double>(w.point_s.size()));
  layers.set("dse.points_screened", static_cast<double>(screened));
  layers.set("sim.first_step_s", median(w.first_step_s));
  layers.set("sim.ns_per_component_cycle", 1e9 * sum_point / w.component_cycles);
  layers.set("sim.settle_work_per_cycle", k.settle_work / cycles);
  layers.set("sim.sched_evals_per_cycle", static_cast<double>(k.sched_evals) / cycles);
  layers.set("sim.ticks_per_cycle", static_cast<double>(k.ticks) / cycles);
  layers.set("sim.elided_ticks_per_cycle", static_cast<double>(k.elided_ticks) / cycles);
  layers.set("sim.commit_share", w.commit_s / (w.settle_s + w.commit_s));
  char buf[160];
  std::snprintf(buf, sizeof buf, "dse.point_s_tail is p%d of n %zu points\n",
                t.percentile, w.point_s.size());
  report += buf;
}

void run_dse(const Options& o, bool screen, Ledger& l, Tracer& tr_on, MetricSet& m,
             std::string& report) {
  Tracer tr_off(false);
  const std::size_t workers = screen ? 1 : dse_workers();
  const std::string csv_key = screen ? "screened_csv" : "csv";
  // Reference pass, also the warm-up: the unscreened campaigns, serially.
  // dse_default's measured passes run them on `workers` threads, so its
  // reports must be byte-identical across worker counts; dse_screened's
  // must reproduce the unscreened frontiers.
  check_dse(dse_pass(o.seed, 1, false, tr_off), "csv", l);

  Series s;
  std::vector<double> run_s, report_s;
  DsePass last;
  // dse_default's workers inherit the CPU set of this thread, so only the
  // serial dse_screened rotates.
  s.slice = measure(o.seconds, screen, [&](std::size_t n) {
    const bool traced = o.trace && n % 2 == 1;
    DsePass p = dse_pass(o.seed, workers, screen, traced ? tr_on : tr_off);
    check_dse(p, csv_key, l);
    s.add(traced, p.wall, p.setup, p.cycles / p.run);
    if (!traced) {
      s.segments.add(p.segments);
      s.window.add(p.runs);
      s.cycles = p.cycles;
    }
    run_s.push_back(p.run);
    report_s.push_back(p.report);
    const double wall = p.wall;
    last = std::move(p);
    return wall;
  });
  report_series(s, o.trace, m, report);
  if (!o.trace) return;
  m.set("dse.report_s", median(report_s));
  dse_walk(last, workers, median(run_s), csv_key, tr_on, l, m, report);
}

// --- netlist workloads ------------------------------------------------------

/// Drives every source with an endless sequential token stream and pins
/// every source and sink rate gate to the seed, the way mte_prof does.
void drive_sources(const netlist::Netlist& nl, netlist::Elaboration& elab,
                   std::uint64_t seed) {
  using netlist::NodeType;
  using netlist::Word;
  for (const auto& node : nl.nodes()) {
    if (node.type == NodeType::kSource && elab.is_multithreaded()) {
      auto& src = elab.mt_source(node.name);
      for (std::size_t t = 0; t < src.threads(); ++t) {
        src.set_generator(t, [t](std::uint64_t i) {
          return (static_cast<Word>(t) << 56) | i;
        });
        src.set_rate(t, node.rate, seed + 17 * (node.id + 1));
      }
    } else if (node.type == NodeType::kSource) {
      auto& src = elab.source(node.name);
      src.set_generator([](std::uint64_t i) { return i; });
      src.set_rate(node.rate, seed + 17 * (node.id + 1));
    } else if (node.type == NodeType::kSink && elab.is_multithreaded()) {
      auto& snk = elab.mt_sink(node.name);
      for (std::size_t t = 0; t < snk.threads(); ++t) {
        snk.set_rate(t, node.rate, seed + 23 * (node.id + 1));
      }
    } else if (node.type == NodeType::kSink) {
      elab.sink(node.name).set_rate(node.rate, seed + 23 * (node.id + 1));
    }
  }
}

/// "<total tokens>:<digest of every sink's per-thread token counts>".
std::string sink_counts(const netlist::Netlist& nl, netlist::Elaboration& elab) {
  std::string text;
  std::uint64_t total = 0;
  for (const auto& node : nl.nodes()) {
    if (node.type != netlist::NodeType::kSink) continue;
    text += node.name + ':';
    if (elab.is_multithreaded()) {
      const auto& snk = elab.mt_sink(node.name);
      for (std::size_t t = 0; t < snk.threads(); ++t) {
        total += snk.count(t);
        text += std::to_string(snk.count(t)) + ',';
      }
    } else {
      total += elab.sink(node.name).count();
      text += std::to_string(elab.sink(node.name).count());
    }
    text += ';';
  }
  return std::to_string(total) + ':' + digest(text);
}

struct NetlistRun {
  sim::Cycle warmup = 0;
  sim::Cycle window = 0;
  bool profile = false;       ///< attach a PhaseProfiler (mte_prof does)
  bool phase_timing = false;  ///< settle/commit wall split (mte_prof does)
};

struct NetlistPass {
  double parse = 0, build = 0, perf = 0, elaborate = 0, first_step = 0;
  double window_s = 0;  ///< median chunk time x chunks
  double stats_report = 0, snapshot = 0, wall = 0;
  std::vector<double> segments;  ///< the wall cut at every stage and chunk
  std::vector<double> chunks;    ///< the timed window's chunks
  double settle_s = 0, commit_s = 0;  ///< window phase split, when timed
  double probe_ticks = 0, all_ticks = 0, probe_s = 0, all_s = 0;  ///< profiled
  std::size_t components = 0;
  std::uint64_t howard = 0;
  dse::KernelMetrics kernel;  ///< counter deltas over the window
  std::string sinks, stats;

  [[nodiscard]] double setup() const {
    return parse + build + perf + elaborate + first_step;
  }
};

/// One pass over one netlist: text -> parse -> build() -> analyze_perf ->
/// elaborate -> first step (the set-up), then warm-up, the timed window,
/// stats_report() and a stable-category metrics snapshot.
NetlistPass netlist_pass(const std::string& text, std::uint64_t seed,
                         const NetlistRun& cfg, Tracer& tr) {
  NetlistPass p;
  const auto t0 = Clock::now();
  auto lap = [&p, last = t0]() mutable {
    const auto now = Clock::now();
    const double s = std::chrono::duration<double>(now - last).count();
    last = now;
    p.segments.push_back(s);
    return s;
  };
  netlist::Netlist parsed;
  {
    Tracer::Scope s(tr, "parse_netlist", "netlist");
    parsed = netlist::parse_netlist(text);
  }
  p.parse = lap();
  netlist::Netlist built;
  {
    Tracer::Scope s(tr, "CircuitBuilder::build", "netlist");
    built = build_parsed(parsed);
  }
  p.build = lap();
  {
    Tracer::Scope s(tr, "analyze_perf", "analysis");
    const auto perf = mte::analysis::analyze_perf(built);
    if (!perf.converged || !perf.karp_agrees) {
      throw std::runtime_error("analyze_perf did not converge");
    }
    p.howard = perf.iterations;
  }
  p.perf = lap();
  mte::obs::PhaseProfiler profiler;  // outlives the simulator that points at it
  std::optional<netlist::Elaboration> elab;
  {
    Tracer::Scope s(tr, "Elaboration", "netlist");
    elab.emplace(built, netlist::FunctionRegistry::with_defaults(),
                 netlist::ComponentFactory::defaults(), netlist::ElaborationOptions{});
  }
  sim::Simulator& sim = elab->simulator();
  drive_sources(built, *elab, seed);
  if (cfg.profile) sim.set_profiler(&profiler);
  sim.set_phase_timing(cfg.phase_timing);
  p.elaborate = lap();
  {
    Tracer::Scope s(tr, "Simulator::step", "sim");
    sim.step();
  }
  p.first_step = lap();
  p.components = sim.component_count();
  {
    Tracer::Scope s(tr, "Simulator::run", "sim");
    sim.run(cfg.warmup);
  }
  const dse::KernelMetrics k0 = dse::KernelMetrics::capture(sim);
  const double settle0 = sim.settle_seconds();
  const double commit0 = sim.commit_seconds();
  (void)lap();  // the warm-up
  for (sim::Cycle c = 0; c < kChunks; ++c) {
    Tracer::Scope s(tr, "Simulator::run", "sim");
    sim.run(cfg.window / kChunks);
    p.chunks.push_back(lap());
  }
  p.window_s = median(p.chunks) * static_cast<double>(kChunks);
  const dse::KernelMetrics k1 = dse::KernelMetrics::capture(sim);
  p.kernel.settle_work = k1.settle_work - k0.settle_work;
  p.kernel.sched_evals = k1.sched_evals - k0.sched_evals;
  p.kernel.ticks = k1.ticks - k0.ticks;
  p.kernel.elided_ticks = k1.elided_ticks - k0.elided_ticks;
  p.settle_s = sim.settle_seconds() - settle0;
  p.commit_s = sim.commit_seconds() - commit0;
  std::string stats;
  {
    Tracer::Scope s(tr, "stats_report", "netlist");
    stats = elab->stats_report();
  }
  p.stats_report = lap();
  {
    Tracer::Scope s(tr, "MetricsRegistry::snapshot", "obs");
    if (sim.metrics().snapshot().to_table().empty()) {
      throw std::runtime_error("empty metrics snapshot");
    }
  }
  p.snapshot = lap();
  if (cfg.profile) {
    Tracer::Scope s(tr, "PhaseProfiler::report", "obs");
    const auto ranking = profiler.report(sim.components());
    for (const auto& row : ranking.rows()) {
      const double secs = row.settle_seconds + row.commit_seconds;
      p.all_ticks += static_cast<double>(row.ticks);
      p.all_s += secs;
      if (row.type == "ChannelProbe") {
        p.probe_ticks += static_cast<double>(row.ticks);
        p.probe_s += secs;
      }
    }
    if (ranking.to_table().empty()) throw std::runtime_error("empty profile");
  }
  (void)lap();  // the profiler ranking
  p.wall = since(t0);
  p.sinks = sink_counts(built, *elab);
  p.stats = digest(stats);
  sim.set_profiler(nullptr);
  return p;
}

/// Runs netlist_pass and books it as one operation: failed when the
/// netlist does not parse, build or elaborate, or when a simulated
/// statistic differs from the reference.
std::optional<NetlistPass> checked_pass(const std::string& name, const std::string& text,
                                        std::uint64_t seed, const NetlistRun& cfg,
                                        Tracer& tr, Ledger& l, std::string& report) {
  try {
    NetlistPass p = netlist_pass(text, seed, cfg, tr);
    const bool sinks_ok = l.gate.check(name + ".sinks", p.sinks);
    const bool stats_ok = l.gate.check(name + ".stats", p.stats);
    l.op(sinks_ok && stats_ok);
    return p;
  } catch (const std::exception& ex) {
    l.op(false);
    if (l.failed <= 16) report += name + ": " + ex.what() + '\n';
    return std::nullopt;
  }
}

struct Input {
  std::string name;
  std::string text;
};

/// Median of one stage over passes.
double stage(const std::vector<NetlistPass>& passes, double NetlistPass::*field) {
  std::vector<double> v;
  for (const auto& p : passes) v.push_back(p.*field);
  return median(v);
}

/// The per-layer values every netlist workload reports, from its passes
/// (each pass is the sum over the workload's netlists).
void netlist_layers(const std::vector<NetlistPass>& passes, sim::Cycle window,
                    MetricSet& layers) {
  const NetlistPass& last = passes.back();
  const double cycles = static_cast<double>(window);
  layers.set("netlist.parse_s", stage(passes, &NetlistPass::parse));
  layers.set("netlist.build_s", stage(passes, &NetlistPass::build));
  layers.set("netlist.elaborate_s", stage(passes, &NetlistPass::elaborate));
  layers.set("netlist.stats_report_s", stage(passes, &NetlistPass::stats_report));
  layers.set("analysis.perf_s", stage(passes, &NetlistPass::perf));
  layers.set("analysis.howard_iterations", static_cast<double>(last.howard));
  layers.set("sim.first_step_s", stage(passes, &NetlistPass::first_step));
  layers.set("sim.components", static_cast<double>(last.components));
  std::vector<double> ns;
  for (const auto& p : passes) {
    ns.push_back(1e9 * p.window_s / (cycles * static_cast<double>(p.components)));
  }
  layers.set("sim.ns_per_component_cycle", median(ns));
  layers.set("sim.settle_work_per_cycle", last.kernel.settle_work / cycles);
  layers.set("sim.sched_evals_per_cycle",
             static_cast<double>(last.kernel.sched_evals) / cycles);
  layers.set("sim.ticks_per_cycle", static_cast<double>(last.kernel.ticks) / cycles);
  layers.set("sim.elided_ticks_per_cycle",
             static_cast<double>(last.kernel.elided_ticks) / cycles);
  std::vector<double> share;
  for (const auto& p : passes) {
    if (p.settle_s + p.commit_s > 0) share.push_back(p.commit_s / (p.settle_s + p.commit_s));
  }
  layers.set("sim.commit_share", median(share));
  layers.set("obs.snapshot_s", stage(passes, &NetlistPass::snapshot));
  if (last.all_ticks > 0) {
    layers.set("obs.probe_tick_share", last.probe_ticks / last.all_ticks);
    layers.set("obs.probe_time_share", last.probe_s / last.all_s);
  }
}

void add(NetlistPass& sum, const NetlistPass& p) {
  sum.parse += p.parse;
  sum.build += p.build;
  sum.perf += p.perf;
  sum.elaborate += p.elaborate;
  sum.first_step += p.first_step;
  sum.window_s += p.window_s;
  sum.stats_report += p.stats_report;
  sum.snapshot += p.snapshot;
  sum.wall += p.wall;
  sum.segments.insert(sum.segments.end(), p.segments.begin(), p.segments.end());
  sum.chunks.insert(sum.chunks.end(), p.chunks.begin(), p.chunks.end());
  sum.settle_s += p.settle_s;
  sum.commit_s += p.commit_s;
  sum.probe_ticks += p.probe_ticks;
  sum.all_ticks += p.all_ticks;
  sum.probe_s += p.probe_s;
  sum.all_s += p.all_s;
  sum.components += p.components;
  sum.howard += p.howard;
  sum.kernel.settle_work += p.kernel.settle_work;
  sum.kernel.sched_evals += p.kernel.sched_evals;
  sum.kernel.ticks += p.kernel.ticks;
  sum.kernel.elided_ticks += p.kernel.elided_ticks;
}

/// Times fn kScalingReps times and returns the median seconds.
double timed(const std::function<void()>& fn) {
  std::vector<double> v;
  for (int i = 0; i < kScalingReps; ++i) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(since(t0));
  }
  return median(v);
}

/// Set-up stage times of a mesh of `lanes` lanes (medians of repeats).
struct StageTimes {
  double nodes = 0, parse = 0, analyze = 0, perf = 0, elaborate = 0;
};

StageTimes mesh_stage_times(std::size_t lanes, std::uint64_t seed) {
  const std::string text = mesh_enl(lanes, seed);
  StageTimes t;
  const netlist::Netlist parsed = netlist::parse_netlist(text);
  const netlist::Netlist built = build_parsed(parsed);
  t.nodes = static_cast<double>(built.nodes().size());
  t.parse = timed([&] { (void)netlist::parse_netlist(text); });
  t.analyze = timed([&] { (void)mte::analysis::analyze(built); });
  t.perf = timed([&] { (void)mte::analysis::analyze_perf(built); });
  t.elaborate = timed([&] {
    const netlist::Elaboration e(built, netlist::FunctionRegistry::with_defaults(),
                                 netlist::ComponentFactory::defaults(),
                                 netlist::ElaborationOptions{});
  });
  return t;
}

void run_netlists(const Options& o, const std::vector<Input>& inputs,
                  const NetlistRun& base, Ledger& l, Tracer& tr_on, MetricSet& m,
                  std::string& report) {
  Tracer tr_off(false);
  // Warm-up pass; it also records the run's reference for unlisted seeds.
  for (const auto& in : inputs) {
    (void)checked_pass(in.name, in.text, o.seed, base, tr_off, l, report);
  }
  Series s;
  std::vector<NetlistPass> traced_passes;
  s.slice = measure(o.seconds, true, [&](std::size_t n) {
    const bool traced = o.trace && n % 2 == 1;
    NetlistRun cfg = base;
    cfg.phase_timing = cfg.phase_timing || traced;
    NetlistPass sum;
    bool whole = true;
    for (const auto& in : inputs) {
      if (const auto p = checked_pass(in.name, in.text, o.seed, cfg,
                                      traced ? tr_on : tr_off, l, report)) {
        add(sum, *p);
      } else {
        whole = false;
      }
    }
    const double cycles = static_cast<double>(inputs.size() * cfg.window);
    s.add(traced, sum.wall, sum.setup(), cycles / sum.window_s);
    if (!traced && whole) {
      s.segments.add(sum.segments);
      s.window.add(sum.chunks);
      s.cycles = cycles;
    }
    if (traced) traced_passes.push_back(sum);
    return sum.wall;
  });
  report_series(s, o.trace, m, report);
  if (!o.trace) return;
  netlist_layers(traced_passes, base.window, m);
  double analyze_s = 0;
  for (const auto& in : inputs) {
    const netlist::Netlist built = build_parsed(netlist::parse_netlist(in.text));
    Tracer::Scope sc(tr_on, "analysis::analyze", "analysis");
    analyze_s += timed([&] { (void)mte::analysis::analyze(built); });
  }
  m.set("analysis.analyze_s", analyze_s);
}

/// The mesh-only traced extras: the set-up scaling probe at kProbeLanes
/// and half of it, and one profiled window for the probe shares.
void mesh_extras(const Options& o, const std::string& text, MetricSet& layers,
                 std::string& report) {
  const StageTimes half = mesh_stage_times(kProbeLanes / 2, o.seed);
  const StageTimes full = mesh_stage_times(kProbeLanes, o.seed);
  const auto exp = [&](double StageTimes::*f) {
    return scaling_exponent(half.nodes, half.*f, full.nodes, full.*f);
  };
  layers.set("netlist.parse_scaling_exp", exp(&StageTimes::parse));
  layers.set("analysis.analyze_scaling_exp", exp(&StageTimes::analyze));
  layers.set("analysis.perf_scaling_exp", exp(&StageTimes::perf));
  layers.set("netlist.elaborate_scaling_exp", exp(&StageTimes::elaborate));
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "scaling probe: %.0f -> %.0f nodes, analyze_perf %.4f -> %.4f s\n",
                half.nodes, full.nodes, half.perf, full.perf);
  report += buf;

  Tracer off(false);
  const ReferenceBook none;
  Ledger scratch{Gate(none, "", 0)};  // a shorter window: its own statistics
  NetlistRun profiled{kMeshWarmup, kMeshWindow / 3, true, true};
  if (const auto p = checked_pass("mesh", text, o.seed, profiled, off, scratch, report)) {
    layers.set("obs.probe_tick_share", p->probe_ticks / p->all_ticks);
    layers.set("obs.probe_time_share", p->probe_s / p->all_s);
  }
}

std::vector<Input> example_inputs() {
  std::vector<std::filesystem::path> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("examples", ec)) {
    if (entry.path().extension() == ".enl") paths.push_back(entry.path());
  }
  if (ec || paths.empty()) {
    throw std::runtime_error("no examples/*.enl under the working directory");
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Input> inputs;
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    inputs.push_back({path.stem().string(), text.str()});
  }
  return inputs;
}

}  // namespace

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics{{"wall_s", 0, "s"},
                                           {"setup_s", 0, "s"},
                                           {"sim_cycles_per_s", 0, "1/s"},
                                           {"peak_rss_mb", 0, "MB"},
                                           {"success_ratio", 0, "ratio"}};
  return metrics;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics{
      {"netlist.parse_s", 0, "s"},
      {"netlist.build_s", 0, "s"},
      {"netlist.elaborate_s", 0, "s"},
      {"netlist.stats_report_s", 0, "s"},
      {"netlist.parse_scaling_exp", 0, "exponent"},
      {"netlist.elaborate_scaling_exp", 0, "exponent"},
      {"analysis.analyze_s", 0, "s"},
      {"analysis.perf_s", 0, "s"},
      {"analysis.howard_iterations", 0, "count"},
      {"analysis.analyze_scaling_exp", 0, "exponent"},
      {"analysis.perf_scaling_exp", 0, "exponent"},
      {"sim.components", 0, "count"},
      {"sim.first_step_s", 0, "s"},
      {"sim.ns_per_component_cycle", 0, "ns"},
      {"sim.settle_work_per_cycle", 0, "1/cycle"},
      {"sim.sched_evals_per_cycle", 0, "1/cycle"},
      {"sim.ticks_per_cycle", 0, "1/cycle"},
      {"sim.elided_ticks_per_cycle", 0, "1/cycle"},
      {"sim.commit_share", 0, "ratio"},
      {"obs.probe_tick_share", 0, "ratio"},
      {"obs.probe_time_share", 0, "ratio"},
      {"obs.snapshot_s", 0, "s"},
      {"dse.static_price_s", 0, "s"},
      {"dse.point_s_p50", 0, "s"},
      {"dse.point_s_tail", 0, "s"},
      {"dse.pool_efficiency", 0, "ratio"},
      {"dse.points_simulated", 0, "count"},
      {"dse.points_screened", 0, "count"},
      {"dse.report_s", 0, "s"},
      {"trace.overhead_s", 0, "s"},
      {"trace.self_s.netlist", 0, "s"},
      {"trace.self_s.analysis", 0, "s"},
      {"trace.self_s.sim", 0, "s"},
      {"trace.self_s.obs", 0, "s"},
      {"trace.self_s.dse", 0, "s"},
      {"fail_ratio", 0, "ratio"}};
  return metrics;
}

netlist::Netlist build_parsed(const netlist::Netlist& parsed) {
  netlist::Netlist single;
  for (const auto& n : parsed.nodes()) single.add(n);
  for (const auto& e : parsed.edges()) single.connect(e.from, e.from_port, e.to, e.to_port);
  netlist::CircuitBuilder b = netlist::CircuitBuilder::from(single);
  if (parsed.is_multithreaded()) b.then_multithreaded(parsed.threads(), parsed.meb_kind());
  return b.build();
}

RunResult run_workload(const Options& o) {
  const ReferenceBook book = ReferenceBook::load("pipebench/reference.txt");
  Ledger l{Gate(book, o.workload, o.seed)};
  Tracer tr(o.trace);
  MetricSet m(o.trace ? per_layer_metrics() : end_to_end_metrics());
  std::string report;
  if (o.workload == "dse_default" || o.workload == "dse_screened") {
    run_dse(o, o.workload == "dse_screened", l, tr, m, report);
  } else if (o.workload == "mesh_sim") {
    const std::vector<Input> inputs{{"mesh", mesh_enl(kMeshLanes, o.seed)}};
    run_netlists(o, inputs, NetlistRun{kMeshWarmup, kMeshWindow, false, false}, l, tr, m,
                 report);
    if (o.trace) mesh_extras(o, inputs[0].text, m, report);
  } else if (o.workload == "prof_examples") {
    run_netlists(o, example_inputs(), NetlistRun{kProfWarmup, kProfWindow, true, true}, l,
                 tr, m, report);
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  RunResult res;
  res.attempted = l.attempted;
  res.failed = l.failed;
  res.correct = l.failed == 0;
  const double fail_ratio =
      static_cast<double>(l.failed) / static_cast<double>(std::max<std::uint64_t>(1, l.attempted));
  for (const auto& m : l.gate.mismatches()) report += "gate mismatch: " + m + '\n';
  if (o.trace) {
    m.set("fail_ratio", fail_ratio);
    for (const auto& [layer, secs] : tr.self_seconds()) m.set("trace.self_s." + layer, secs);
    const std::filesystem::path dir = ".bench_build/trace";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const auto path = dir / (o.workload + "_seed" + std::to_string(o.seed) + ".json");
    std::ofstream(path) << tr.to_chrome_json();
    report += "spans: " + std::to_string(tr.spans().size()) + " -> " + path.string() + '\n';
  } else {
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("success_ratio", 1.0 - fail_ratio);
  }
  res.metrics = m.take();
  res.report = report;
  res.reference = l.gate.render();
  return res;
}

}  // namespace pipebench
