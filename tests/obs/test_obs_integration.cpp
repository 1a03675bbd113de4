// Observability contracts against a live simulator: snapshot determinism
// across kernels and runs, zero observer effect, probe metrics under
// save/restore, profiler attachment, reset, charging and clock-read cost,
// trace attachment.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "netlist/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_session.hpp"

namespace mte::obs {
namespace {

netlist::Netlist fig1_pipeline() {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.function("sq", "square") >>
      b.buffer("b1") >> b.sink("out");
  return b.build();
}

std::unique_ptr<netlist::Elaboration> elaborate(const netlist::Netlist& net,
                                                sim::KernelKind kernel) {
  netlist::ElaborationOptions opt;
  opt.kernel = kernel;
  auto e = std::make_unique<netlist::Elaboration>(
      net, netlist::FunctionRegistry::with_defaults(),
      netlist::ComponentFactory::defaults(), opt);
  e->source("src").set_generator([](std::uint64_t i) { return i; });
  e->source("src").set_rate(0.8, 7);
  e->sink("out").set_rate(0.6, 11);
  e->simulator().reset();
  return e;
}

/// A wireless component with a tunable amount of eval/tick work: lets a
/// test build same-named instances and destroy one mid-window. `type`
/// must be a literal (type_name's static-lifetime contract).
class Spinner final : public sim::Component {
 public:
  Spinner(sim::Simulator& s, std::string name, std::string_view type, int spins = 0)
      : Component(s, std::move(name)), type_(type), spins_(spins) {}
  void eval() override { spin(); }
  void tick() override { spin(); }
  [[nodiscard]] std::string_view type_name() const noexcept override { return type_; }

 private:
  void spin() {
    for (int i = 0; i < spins_; ++i) sink_ = sink_ + static_cast<unsigned>(i);
  }
  std::string_view type_;
  int spins_;
  volatile unsigned sink_ = 0;
};

std::uint64_t dispatches(const ProfileReport& report) {
  std::uint64_t n = 0;
  for (const auto& row : report.rows()) n += row.evals + row.ticks;
  return n;
}

const ProfileRow* row_of(const ProfileReport& report, std::string_view type) {
  for (const auto& row : report.rows()) {
    if (row.type == type) return &row;
  }
  return nullptr;
}

TEST(ObsIntegration, SemanticSnapshotIsByteIdenticalAcrossKernels) {
  // The kSemantic category is the cross-kernel contract: lockstep
  // circuits agree on cycles and probe statistics no matter which settle
  // kernel ran. Kernel-category rows (evals, ticks) legitimately differ.
  const netlist::Netlist net = fig1_pipeline();
  auto naive = elaborate(net, sim::KernelKind::kNaive);
  auto event = elaborate(net, sim::KernelKind::kEventDriven);
  naive->simulator().run(500);
  event->simulator().run(500);
  EXPECT_EQ(naive->simulator().metrics().snapshot(kSemanticOnly).to_csv(),
            event->simulator().metrics().snapshot(kSemanticOnly).to_csv());
}

TEST(ObsIntegration, StableSnapshotIsByteIdenticalAcrossRuns) {
  // The default mask (semantic + kernel) must render byte-identically for
  // two runs of the same circuit at the same seed — wall-clock rows are
  // excluded by construction.
  const netlist::Netlist net = fig1_pipeline();
  auto a = elaborate(net, sim::KernelKind::kEventDriven);
  auto b = elaborate(net, sim::KernelKind::kEventDriven);
  a->simulator().run(500);
  b->simulator().run(500);
  const std::string csv = a->simulator().metrics().snapshot().to_csv();
  EXPECT_EQ(csv, b->simulator().metrics().snapshot().to_csv());
  EXPECT_NE(csv.find("sim.settle_work"), std::string::npos);
  EXPECT_EQ(csv.find("sim.settle_seconds"), std::string::npos);  // timing row
}

TEST(ObsIntegration, RegistryHasNoObserverEffect) {
  // Pull model: a run that takes snapshots and a run with the registry
  // disabled must do bit-identical simulation work.
  const netlist::Netlist net = fig1_pipeline();
  auto observed = elaborate(net, sim::KernelKind::kEventDriven);
  auto dark = elaborate(net, sim::KernelKind::kEventDriven);
  dark->simulator().metrics().set_enabled(false);
  for (int burst = 0; burst < 5; ++burst) {
    observed->simulator().run(100);
    dark->simulator().run(100);
    (void)observed->simulator().metrics().snapshot();  // mid-run pulls
  }
  EXPECT_EQ(observed->simulator().settle_work(), dark->simulator().settle_work());
  EXPECT_EQ(observed->simulator().eval_count(), dark->simulator().eval_count());
  EXPECT_EQ(observed->simulator().tick_count(), dark->simulator().tick_count());
  EXPECT_TRUE(dark->simulator().metrics().snapshot().rows().empty());
}

TEST(ObsIntegration, ChannelMetricsMatchProbeAccessors) {
  const netlist::Netlist net = fig1_pipeline();
  auto e = elaborate(net, sim::KernelKind::kEventDriven);
  e->simulator().run(300);
  const MetricsSnapshot snap = e->simulator().metrics().snapshot();
  const auto names = e->channel_names();
  ASSERT_FALSE(names.empty());
  for (const auto& name : names) {
    const auto& probe = e->probe(name);
    EXPECT_EQ(snap.count("channel." + name + ".transfers"), probe.count());
    EXPECT_EQ(snap.value("channel." + name + ".throughput"), probe.throughput());
    EXPECT_EQ(snap.value("channel." + name + ".mean_wait"), probe.mean_wait());
  }
}

TEST(ObsIntegration, SemanticMetricsSurviveSaveRestore) {
  // Probe statistics are registered component state: a restored run's
  // semantic snapshot must equal the original's at the same cycle.
  // Kernel-category counters deliberately do NOT survive (diagnostics
  // restart at zero, covering only the replayed region).
  const netlist::Netlist net = fig1_pipeline();
  auto cold = elaborate(net, sim::KernelKind::kEventDriven);
  cold->simulator().run(100);
  std::ostringstream saved;
  cold->simulator().save(saved);
  cold->simulator().run(200);
  const std::string cold_csv =
      cold->simulator().metrics().snapshot(kSemanticOnly).to_csv();

  auto warm = elaborate(net, sim::KernelKind::kEventDriven);
  std::istringstream is(saved.str());
  warm->simulator().restore(is);
  warm->simulator().run(200);
  EXPECT_EQ(warm->simulator().now(), cold->simulator().now());
  EXPECT_EQ(warm->simulator().metrics().snapshot(kSemanticOnly).to_csv(),
            cold_csv);
}

TEST(ObsIntegration, RestoreResetsAttachedProfiler) {
  const netlist::Netlist net = fig1_pipeline();
  auto e = elaborate(net, sim::KernelKind::kEventDriven);
  PhaseProfiler prof;
  e->simulator().set_profiler(&prof);
  e->simulator().run(50);
  std::ostringstream saved;
  e->simulator().save(saved);
  e->simulator().run(50);
  EXPECT_GT(prof.sample_count(), 0u);

  // Profiler state is scratch: restore() resets it so post-restore
  // reports cover only the replayed region.
  std::istringstream is(saved.str());
  e->simulator().restore(is);
  EXPECT_EQ(prof.sample_count(), 0u);
  e->simulator().set_profiler(nullptr);
}

TEST(ObsIntegration, ProfilerCountsCoverOnlyTheAttachWindow) {
  // Attached after a warm-up, the profiler reports the evals and ticks
  // dispatched while attached — the same window its seconds cover — not
  // the components' lifetime counts.
  const netlist::Netlist net = fig1_pipeline();
  auto e = elaborate(net, sim::KernelKind::kEventDriven);
  sim::Simulator& s = e->simulator();
  s.run(300);
  PhaseProfiler prof;
  s.set_profiler(&prof);
  const std::uint64_t evals0 = s.eval_count();
  const std::uint64_t ticks0 = s.tick_count();
  s.run(100);
  const ProfileReport report = prof.report(s.components());
  s.set_profiler(nullptr);

  std::uint64_t evals = 0;
  std::uint64_t ticks = 0;
  for (const auto& row : report.rows()) {
    evals += row.evals;
    ticks += row.ticks;
  }
  ASSERT_GT(ticks0, 0u);
  EXPECT_EQ(ticks, s.tick_count() - ticks0);
  EXPECT_EQ(evals, s.eval_count() - evals0);
}

TEST(ObsIntegration, ProfilerCountsAreExactAndRanked) {
  const netlist::Netlist net = fig1_pipeline();
  auto e = elaborate(net, sim::KernelKind::kEventDriven);
  PhaseProfiler prof;
  e->simulator().set_profiler(&prof);
  e->simulator().run(200);
  const ProfileReport report = prof.report(e->simulator().components());
  e->simulator().set_profiler(nullptr);

  ASSERT_FALSE(report.rows().empty());
  std::uint64_t instances = 0;
  std::uint64_t evals = 0;
  for (const auto& row : report.rows()) {
    instances += row.instances;
    evals += row.evals;
  }
  EXPECT_EQ(instances, e->simulator().component_count());
  // Call counts are exact (read off the components), not sampled.
  std::uint64_t expected_evals = 0;
  for (const auto* c : e->simulator().components()) {
    expected_evals += c->kernel_eval_calls();
  }
  EXPECT_EQ(evals, expected_evals);
  // Ranked most-expensive-first: sampled seconds desc, then exact evals,
  // then name — the deterministic order the report contract promises.
  for (std::size_t i = 1; i < report.rows().size(); ++i) {
    const auto& a = report.rows()[i - 1];
    const auto& b = report.rows()[i];
    const bool ordered =
        a.settle_seconds + a.commit_seconds > b.settle_seconds + b.commit_seconds ||
        (a.settle_seconds + a.commit_seconds == b.settle_seconds + b.commit_seconds &&
         (a.evals > b.evals || (a.evals == b.evals && a.type <= b.type)));
    EXPECT_TRUE(ordered) << a.type << " before " << b.type;
  }
  // The attached profiler also publishes through the simulator's registry.
  const MetricsSnapshot snap = e->simulator().metrics().snapshot();
  e->simulator().set_profiler(&prof);
  const MetricsSnapshot with_prof = e->simulator().metrics().snapshot();
  e->simulator().set_profiler(nullptr);
  const auto has_profile_rows = [](const MetricsSnapshot& s) {
    for (const auto& row : s.rows()) {
      if (row.name.rfind("profile.", 0) == 0) return true;
    }
    return false;
  };
  EXPECT_FALSE(has_profile_rows(snap));
  EXPECT_TRUE(has_profile_rows(with_prof));
}

TEST(ObsIntegration, StrideOneProfilerReadsTheClockOncePerDispatch) {
  // The profiler's whole cost is its clock reads: at stride 1 one per
  // timed dispatch, plus the read that opens each settle and commit
  // phase. Phase timing shares the opening reads instead of adding its
  // own to the chain. A machine-independent guard for the cost claim.
  for (const auto kernel : {sim::KernelKind::kNaive, sim::KernelKind::kEventDriven}) {
    for (const bool phase_timing : {false, true}) {
      const netlist::Netlist net = fig1_pipeline();
      auto e = elaborate(net, kernel);
      sim::Simulator& s = e->simulator();
      s.run(100);
      PhaseProfiler prof;
      s.set_profiler(&prof);
      s.set_phase_timing(phase_timing);
      constexpr sim::Cycle kCycles = 200;
      s.run(kCycles);
      const std::uint64_t n = dispatches(prof.report(s.components()));
      s.set_profiler(nullptr);
      SCOPED_TRACE(std::string(sim::to_string(kernel)) +
                   (phase_timing ? " phase-timed" : ""));
      ASSERT_GT(n, kCycles);
      EXPECT_EQ(prof.sample_count(), n);
      EXPECT_EQ(prof.clock_reads(), n + 2 * kCycles);
    }
  }
}

TEST(ObsIntegration, SampledProfilerTimesEveryStrideThDispatch) {
  // At stride 8 every eighth dispatch (the first included) is timed with
  // two reads of its own; call counts stay exact.
  const netlist::Netlist net = fig1_pipeline();
  auto e = elaborate(net, sim::KernelKind::kEventDriven);
  sim::Simulator& s = e->simulator();
  s.run(100);
  PhaseProfiler prof(8);
  s.set_profiler(&prof);
  const std::uint64_t evals0 = s.eval_count();
  const std::uint64_t ticks0 = s.tick_count();
  s.run(400);
  const ProfileReport report = prof.report(s.components());
  s.set_profiler(nullptr);

  const std::uint64_t n = dispatches(report);
  EXPECT_EQ(n, (s.eval_count() - evals0) + (s.tick_count() - ticks0));
  EXPECT_EQ(prof.sample_count(), (n + 7) / 8);
  EXPECT_EQ(prof.clock_reads(), 2 * prof.sample_count());
  EXPECT_GT(report.total_settle_seconds(), 0.0);
}

TEST(ObsIntegration, ProfileRowsPartitionThePhaseTimes) {
  // Phase timing and the profiler attached at the same cycle share their
  // opening reads, so under either kernel the rows' seconds add up to at
  // most the phase totals (the rest is phase time after the last
  // dispatch: observers, channel counters, the closing read).
  for (const auto kernel : {sim::KernelKind::kNaive, sim::KernelKind::kEventDriven}) {
    SCOPED_TRACE(sim::to_string(kernel));
    const netlist::Netlist net = fig1_pipeline();
    auto e = elaborate(net, kernel);
    sim::Simulator& s = e->simulator();
    PhaseProfiler prof;
    s.set_profiler(&prof);
    s.set_phase_timing(true);
    s.run(300);
    const ProfileReport report = prof.report(s.components());
    s.set_profiler(nullptr);

    double settle = 0.0;
    double commit = 0.0;
    for (const auto& row : report.rows()) {
      settle += row.settle_seconds;
      commit += row.commit_seconds;
    }
    EXPECT_GT(settle, 0.0);
    EXPECT_GT(commit, 0.0);
    // 1 ns of slack: rows and phases round integer clock ticks separately.
    EXPECT_LE(settle, s.settle_seconds() + 1e-9);
    EXPECT_LE(commit, s.commit_seconds() + 1e-9);
  }
}

TEST(ObsIntegration, SameNamedComponentsGetSeparateInstanceSeconds) {
  sim::Simulator s;
  Spinner heavy(s, "twin", "Twin", 200);
  Spinner light(s, "twin", "Twin");
  PhaseProfiler prof;
  s.set_profiler(&prof);
  s.run(100);
  const ProfileReport report = prof.report(s.components());
  s.set_profiler(nullptr);

  ASSERT_EQ(report.top_instances().size(), 2u);
  const InstanceRow& a = report.top_instances()[0];
  const InstanceRow& b = report.top_instances()[1];
  EXPECT_EQ(a.name, "twin");
  EXPECT_EQ(b.name, "twin");
  const ProfileRow* twin = row_of(report, "Twin");
  ASSERT_NE(twin, nullptr);
  // Each instance carries its own seconds, not the merged total.
  const double total = twin->settle_seconds + twin->commit_seconds;
  const double sum = a.settle_seconds + a.commit_seconds + b.settle_seconds +
                     b.commit_seconds;
  EXPECT_GT(b.settle_seconds, 0.0);
  EXPECT_NEAR(sum, total, 1e-9);
  EXPECT_LT(a.settle_seconds + a.commit_seconds, total);
}

TEST(ObsIntegration, ReportIsZeroRightAfterAttachAndRestore) {
  const netlist::Netlist net = fig1_pipeline();
  auto e = elaborate(net, sim::KernelKind::kEventDriven);
  sim::Simulator& s = e->simulator();
  PhaseProfiler earlier;
  s.set_profiler(&earlier);
  s.run(100);  // the components now carry seconds from this window
  const auto expect_zero = [&s](const PhaseProfiler& prof) {
    const ProfileReport report = prof.report(s.components());
    ASSERT_FALSE(report.rows().empty());
    for (const auto& row : report.rows()) {
      EXPECT_EQ(row.settle_seconds, 0.0) << row.type;
      EXPECT_EQ(row.commit_seconds, 0.0) << row.type;
      EXPECT_EQ(row.evals + row.ticks, 0u) << row.type;
    }
    for (const auto& inst : report.top_instances()) {
      EXPECT_EQ(inst.settle_seconds + inst.commit_seconds, 0.0) << inst.name;
    }
  };
  PhaseProfiler prof;
  s.set_profiler(&prof);
  expect_zero(prof);

  s.run(50);
  std::ostringstream saved;
  s.save(saved);
  s.run(50);
  std::istringstream is(saved.str());
  s.restore(is);
  expect_zero(prof);
  s.set_profiler(nullptr);
}

TEST(ObsIntegration, DestroyedComponentKeepsItsTypeRow) {
  // A component destroyed mid-window keeps its seconds in its type's row:
  // alone (the row outlives its last instance, counts at zero) and next to
  // a surviving instance of the same type. The late Doomed is registered
  // after the profiler attached.
  sim::Simulator s;
  Spinner kept(s, "kept", "Twin", 50);
  auto gone_twin = std::make_unique<Spinner>(s, "gone_twin", "Twin", 50);
  PhaseProfiler prof;
  s.set_profiler(&prof);
  auto doomed = std::make_unique<Spinner>(s, "doomed", "Doomed", 50);
  s.run(100);
  doomed.reset();
  gone_twin.reset();
  s.run(10);
  const ProfileReport report = prof.report(s.components());
  s.set_profiler(nullptr);

  const ProfileRow* d = row_of(report, "Doomed");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->instances, 0u);
  EXPECT_EQ(d->evals + d->ticks, 0u);
  EXPECT_GT(d->settle_seconds, 0.0);
  EXPECT_GT(d->commit_seconds, 0.0);

  const ProfileRow* t = row_of(report, "Twin");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->instances, 1u);
  EXPECT_EQ(t->evals, 110u);  // the survivor's window: one eval per cycle
  ASSERT_EQ(report.top_instances().size(), 1u);
  EXPECT_GT(t->settle_seconds, report.top_instances()[0].settle_seconds);
}

TEST(ObsIntegration, TraceSessionRecordsEveryCycleWhenAttached) {
  const netlist::Netlist net = fig1_pipeline();
  auto e = elaborate(net, sim::KernelKind::kEventDriven);
  TraceSession trace;
  e->simulator().set_trace(&trace);
  e->simulator().run(50);
  const MetricsSnapshot snap = e->simulator().metrics().snapshot();
  e->simulator().set_trace(nullptr);
  EXPECT_GE(trace.event_count(), 3u * 50u);  // >= 3 events per cycle
  EXPECT_EQ(trace.dropped_events(), 0u);
  EXPECT_EQ(snap.count("trace.events"), trace.event_count());
}

}  // namespace
}  // namespace mte::obs
