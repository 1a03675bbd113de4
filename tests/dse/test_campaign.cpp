#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "dse/campaign.hpp"
#include "dse/report.hpp"
#include "dse/sweep_spec.hpp"
#include "dse/workloads.hpp"

namespace mte::dse {
namespace {

SweepSpec small_netlist_spec() {
  SweepSpec spec;
  spec.workloads = {"fig1", "fig5"};
  spec.variants = {MebVariant::kFull, MebVariant::kHybrid, MebVariant::kReduced};
  spec.threads = {2, 4};
  spec.shared_slots = {0, 2};
  spec.cycles = 400;
  spec.seed = 11;
  return spec;
}

TEST(CampaignRunner, EvaluatesEveryPointInIndexOrder) {
  const SweepSpec spec = small_netlist_spec();
  const auto points = spec.enumerate();
  const auto records = CampaignRunner{}.run(spec, 1);
  ASSERT_EQ(records.size(), points.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].point.index, i);
    EXPECT_TRUE(records[i].ok()) << records[i].error;
    EXPECT_GT(records[i].result.tokens, 0u) << records[i].point.label();
    EXPECT_GT(records[i].les, 0.0);
    EXPECT_GT(records[i].mhz, 0.0);
    EXPECT_EQ(records[i].seed, point_seed(spec.seed, i));
  }
}

TEST(CampaignRunner, ReportIsByteIdenticalAcrossWorkerCounts) {
  // The determinism contract: per-point seeds come from (campaign seed,
  // point index), never from scheduling, so 1 worker and N workers must
  // produce bit-equal campaigns — CSV and JSON compare as strings.
  const SweepSpec spec = small_netlist_spec();
  const CampaignRunner runner;
  const Report serial(spec, runner.run(spec, 1));
  for (const std::size_t workers : {2u, 4u, 7u}) {
    const Report parallel(spec, runner.run(spec, workers));
    EXPECT_EQ(serial.to_csv(), parallel.to_csv()) << workers << " workers";
    EXPECT_EQ(serial.to_json(), parallel.to_json()) << workers << " workers";
    EXPECT_EQ(serial.metrics_csv(), parallel.metrics_csv()) << workers << " workers";
  }
}

TEST(CampaignRunner, MetricsCsvCarriesKernelCountersPerPoint) {
  // The --metrics-out artifact: one row per point with the kernel-side
  // counters, under its own header (the schema-gated main report is a
  // separate file and stays untouched).
  const SweepSpec spec = small_netlist_spec();
  const Report report(spec, CampaignRunner{}.run(spec, 1));
  const std::string csv = report.metrics_csv();
  EXPECT_EQ(csv.rfind(Report::metrics_csv_header() + "\n", 0), 0u);
  std::size_t lines = 0;
  for (const char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, report.records().size() + 1);
  for (const auto& r : report.records()) {
    EXPECT_GT(r.result.kernel.sched_evals, 0u) << r.point.label();
    EXPECT_GT(r.result.kernel.ticks, 0u) << r.point.label();
    EXPECT_FALSE(r.result.kernel.demoted_to_naive) << r.point.label();
  }
}

TEST(CampaignRunner, SameSeedSameReportAcrossRuns) {
  const SweepSpec spec = small_netlist_spec();
  const CampaignRunner runner;
  const Report a(spec, runner.run(spec, 2));
  const Report b(spec, runner.run(spec, 2));
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(CampaignRunner, DifferentCampaignSeedChangesInjectionOutcomes) {
  // fig1/fig5 drive fractional injection from the per-point RNG, so a
  // different campaign seed must actually reach the simulations.
  SweepSpec spec = small_netlist_spec();
  const CampaignRunner runner;
  const Report a(spec, runner.run(spec, 1));
  spec.seed = 12;
  const Report b(spec, runner.run(spec, 1));
  EXPECT_NE(a.to_csv(), b.to_csv());
}

TEST(CampaignRunner, ThrowingPointBecomesFailedRecordNotAbort) {
  WorkloadSet set;
  Workload w;
  w.name = "boom";
  w.description = "throws for S=4";
  w.evaluate = [](const SweepPoint& p, sim::Cycle cycles,
                  std::uint64_t) -> WorkloadResult {
    if (p.threads == 4) throw std::runtime_error("injected failure");
    WorkloadResult r;
    r.tokens = 1;
    r.cycles = cycles;
    r.throughput = 1.0 / static_cast<double>(cycles);
    return r;
  };
  set.add(std::move(w));

  SweepSpec spec;
  spec.workloads = {"boom"};
  spec.variants = {MebVariant::kFull};
  spec.threads = {2, 4, 8};
  const auto records = CampaignRunner{set}.run(spec, 2);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_TRUE(records[0].ok());
  EXPECT_TRUE(records[0].failure_kind.empty());
  EXPECT_FALSE(records[1].ok());
  EXPECT_EQ(records[1].failure_kind, "exception");
  EXPECT_EQ(records[1].error, "injected failure");
  EXPECT_TRUE(records[2].ok());

  // Failed points render (with the error column set) and never reach the
  // Pareto frontier.
  const Report report(spec, records);
  EXPECT_FALSE(report.is_pareto(1));
  EXPECT_NE(report.to_csv().find("injected failure"), std::string::npos);
  EXPECT_NE(report.to_json().find("injected failure"), std::string::npos);
}

TEST(CampaignRunner, DeadlockPointIsQuarantinedWithReproArtifact) {
  // An intentionally deadlocking point under the robustness policy is
  // QUARANTINED: the campaign completes, the point becomes a failed
  // record classified "watchdog" with the MTE110 diagnosis in its error,
  // and the artifact directory holds a committed repro plus the watchdog's
  // post-mortem bundle. Healthy points in the same campaign are untouched.
  SweepSpec spec;
  spec.workloads = {"fig1", "deadlock"};
  spec.variants = {MebVariant::kFull};
  spec.threads = {2};
  spec.cycles = 400;
  spec.seed = 11;

  RobustnessPolicy robust;
  robust.monitors = true;
  robust.watchdog = 100;
  robust.artifact_dir = ::testing::TempDir() + "mte_quarantine";
  std::filesystem::remove_all(robust.artifact_dir);

  const auto records = CampaignRunner{}.run(spec, 1, {}, {}, robust);
  ASSERT_EQ(records.size(), 2u);
  const PointRecord* healthy = nullptr;
  const PointRecord* quarantined = nullptr;
  for (const auto& r : records) {
    (r.point.workload == "deadlock" ? quarantined : healthy) = &r;
  }
  ASSERT_NE(healthy, nullptr);
  ASSERT_NE(quarantined, nullptr);

  EXPECT_TRUE(healthy->ok()) << healthy->error;
  EXPECT_TRUE(healthy->failure_kind.empty());
  EXPECT_GT(healthy->result.tokens, 0u);

  EXPECT_FALSE(quarantined->ok());
  EXPECT_EQ(quarantined->failure_kind, "watchdog");
  EXPECT_NE(quarantined->error.find("MTE110"), std::string::npos)
      << quarantined->error;

  const std::string dir =
      robust.point_dir(quarantined->point, quarantined->seed);
  EXPECT_TRUE(std::filesystem::exists(dir + "/repro.txt")) << dir;
  bool has_snapshot = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    has_snapshot = has_snapshot || (file.rfind("postmortem_c", 0) == 0 &&
                                    file.find(".snap") != std::string::npos);
  }
  EXPECT_TRUE(has_snapshot) << "no post-mortem snapshot in " << dir;
}

TEST(CampaignRunner, MonitorsDoNotPerturbSurvivingPoints) {
  // The quarantine contract's other half: on a campaign with no failures,
  // running under monitors + watchdog produces BYTE-identical reports —
  // monitors never write wires or consume workload randomness, across all
  // MEB variants (full, hybrid, reduced).
  const SweepSpec spec = small_netlist_spec();
  const CampaignRunner runner;
  const Report plain(spec, runner.run(spec, 1));
  RobustnessPolicy robust;
  robust.monitors = true;
  robust.watchdog = 200;
  const Report hardened(spec, runner.run(spec, 1, {}, {}, robust));
  for (const auto& r : hardened.records()) {
    EXPECT_TRUE(r.ok()) << r.point.label() << ": " << r.error;
  }
  EXPECT_EQ(plain.to_csv(), hardened.to_csv());
  EXPECT_EQ(plain.to_json(), hardened.to_json());
  EXPECT_EQ(plain.metrics_csv(), hardened.metrics_csv());
}

TEST(CampaignRunner, OwnsItsWorkloadSet) {
  // Constructing from a temporary set must be safe: the runner copies it
  // (a reference member would dangle by the time run() executes).
  WorkloadSet set;
  Workload w;
  w.name = "unit";
  w.evaluate = [](const SweepPoint&, sim::Cycle cycles, std::uint64_t) {
    WorkloadResult r;
    r.tokens = 1;
    r.cycles = cycles;
    r.throughput = 1.0;
    return r;
  };
  set.add(std::move(w));

  SweepSpec spec;
  spec.workloads = {"unit"};
  spec.variants = {MebVariant::kFull};
  spec.threads = {1};
  const CampaignRunner runner{WorkloadSet{set}};  // temporary argument
  const auto records = runner.run(spec, 1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].ok()) << records[0].error;
}

TEST(CampaignRunner, PricesEachPointOnce) {
  // Building a point's netlist and analyzing it is the cost of static
  // pricing; screening decides with that price and must not pay it again
  // when the point goes on to simulate.
  std::map<std::size_t, int> priced;
  WorkloadSet set;
  for (const char* name : {"fig1", "fig5"}) {
    Workload w = WorkloadSet::builtin().at(name);
    w.name += "_counted";
    w.make_netlist = [inner = w.make_netlist, &priced](const SweepPoint& p) {
      ++priced[p.index];
      return inner(p);
    };
    set.add(std::move(w));
  }

  // The mte_dse default preset's axes, at a reduced cycle budget.
  SweepSpec spec;
  spec.workloads = {"fig1_counted", "fig5_counted"};
  spec.variants = {MebVariant::kFull, MebVariant::kHybrid, MebVariant::kReduced};
  spec.threads = {1, 2, 4, 8};
  spec.shared_slots = {0, 1};
  spec.arbiters = {mt::ArbiterKind::kRoundRobin, mt::ArbiterKind::kOblivious};
  spec.cycles = 300;
  const CampaignRunner runner{set};
  for (const bool screen : {true, false}) {
    SCOPED_TRACE(screen ? "screened" : "plain");
    priced.clear();
    const auto records = runner.run(spec, 1, {}, {}, {}, screen);
    ASSERT_FALSE(records.empty());
    std::size_t skipped = 0;
    for (const auto& r : records) {
      EXPECT_EQ(priced[r.point.index], 1) << r.point.label();
      EXPECT_GE(r.static_bound, 0.0) << r.point.label();
      if (r.failure_kind == "screened") ++skipped;
    }
    EXPECT_EQ(priced.size(), records.size());
    if (screen) {
      EXPECT_GT(skipped, 0u);
      EXPECT_LT(skipped, records.size());
    }
  }
}

TEST(CampaignRunner, HandBuiltEnginesRunUnderBothKernels) {
  // md5 and processor are the paper's Sec. V engines; a tiny sweep checks
  // they evaluate cleanly under both settle kernels. Two campaigns that
  // differ only in the kernel axis assign the same indices — hence the
  // same per-point seeds — so kernel choice must not change the results,
  // only the wall-clock to get them.
  SweepSpec spec;
  spec.workloads = {"md5", "processor"};
  spec.variants = {MebVariant::kFull, MebVariant::kReduced};
  spec.threads = {4};
  spec.kernels = {sim::KernelKind::kEventDriven};
  const auto event_records = CampaignRunner{}.run(spec, 2);
  spec.kernels = {sim::KernelKind::kNaive};
  const auto naive_records = CampaignRunner{}.run(spec, 2);
  ASSERT_EQ(event_records.size(), 4u);
  ASSERT_EQ(naive_records.size(), 4u);
  for (std::size_t i = 0; i < event_records.size(); ++i) {
    const PointRecord& e = event_records[i];
    const PointRecord& n = naive_records[i];
    ASSERT_TRUE(e.ok()) << e.point.label() << ": " << e.error;
    ASSERT_TRUE(n.ok()) << n.point.label() << ": " << n.error;
    EXPECT_GT(e.result.throughput, 0.0) << e.point.label();
    EXPECT_EQ(e.result.tokens, n.result.tokens) << e.point.label();
    EXPECT_EQ(e.result.cycles, n.result.cycles) << e.point.label();
    EXPECT_EQ(e.les, n.les) << e.point.label();
  }
}

}  // namespace
}  // namespace mte::dse
