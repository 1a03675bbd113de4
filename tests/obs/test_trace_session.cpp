// TraceSession unit tests: event accounting against the hard cap, the
// drop counter, and the Chrome trace_event JSON shape (the CI
// observability job re-validates the schema on a real mte_prof run).
#include <gtest/gtest.h>

#include <string>

#include "elastic/elastic_buffer.hpp"
#include "elastic/sink.hpp"
#include "elastic/source.hpp"
#include "obs/trace_session.hpp"
#include "sim/simulator.hpp"

namespace mte::obs {
namespace {

TEST(TraceSession, RecordsCycleSpansAndCounters) {
  TraceSession trace;
  trace.record_cycle(0, 10, 5, 0);
  trace.record_cycle(1, 8, 5, 2);  // elided > 0 adds the instant event
  EXPECT_EQ(trace.event_count(), 3u + 4u);
  EXPECT_EQ(trace.dropped_events(), 0u);

  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"settle\""), std::string::npos);
  EXPECT_NE(json.find("\"commit\""), std::string::npos);
  EXPECT_NE(json.find("\"settle_work\""), std::string::npos);
  EXPECT_NE(json.find("\"tick_elision\""), std::string::npos);
  EXPECT_NE(json.find("\"us_per_cycle\":1000"), std::string::npos);
}

TEST(TraceSession, CapCountsDropsInsteadOfGrowing) {
  TraceSession::Options opt;
  opt.max_events = 7;  // room for two plain cycles (3 events each), not three
  TraceSession trace(opt);
  trace.record_cycle(0, 1, 1, 0);
  trace.record_cycle(1, 1, 1, 0);
  EXPECT_EQ(trace.event_count(), 6u);
  EXPECT_EQ(trace.dropped_events(), 0u);
  trace.record_cycle(2, 1, 1, 0);  // needs 3 slots, 1 left -> dropped whole
  EXPECT_EQ(trace.event_count(), 6u);
  EXPECT_EQ(trace.dropped_events(), 3u);
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"dropped_events\":3"), std::string::npos);
}

TEST(TraceSession, TransfersOverlayFromChannelCounters) {
  // An attached session receives one transfer event per transfer the
  // kernel counts on a registered channel, named after the channel and
  // tagged with the payload.
  sim::Simulator s;
  elastic::Channel<std::uint64_t> in{s, "ch0"};
  elastic::Channel<std::uint64_t> out{s, "ch1"};
  elastic::Source<std::uint64_t> src{s, "src", in};
  elastic::ElasticBuffer<std::uint64_t> eb{s, "eb", in, out};
  elastic::Sink<std::uint64_t> sink{s, "sink", out};
  src.set_generator([](std::uint64_t i) { return 100 * i; });
  const sim::ChannelCounters& c0 = count_transfers(s, in);
  const sim::ChannelCounters& c1 = count_transfers(s, out);
  TraceSession trace;
  s.set_trace(&trace);
  s.reset();
  s.run(10);
  s.set_trace(nullptr);
  ASSERT_GT(c1.count(), 2u);

  const std::string json = trace.to_json();
  std::size_t transfers = 0;
  for (std::size_t at = json.find("\"tid\":3,\"name\":\"ch");
       at != std::string::npos; at = json.find("\"tid\":3,\"name\":\"ch", at + 1)) {
    ++transfers;
  }
  EXPECT_EQ(transfers, c0.count() + c1.count());
  EXPECT_GE(trace.event_count(), 3u * 10u + transfers);
  EXPECT_NE(json.find("\"name\":\"ch0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ch1\""), std::string::npos);
  EXPECT_NE(json.find("\"tag\":200}"), std::string::npos);
}

TEST(TraceSession, DemotionMarksFirstCycleOnly) {
  TraceSession trace;
  trace.record_demotion(17);
  trace.record_demotion(25);  // later demotion reports are ignored
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"demoted_to_naive\""), std::string::npos);
  const std::size_t first = json.find("demoted_to_naive");
  EXPECT_EQ(json.find("demoted_to_naive", first + 1), std::string::npos);
}

TEST(TraceSession, JsonIsDeterministicAcrossIdenticalSessions) {
  const auto build = [] {
    TraceSession t;
    t.record_cycle(0, 4, 2, 1);
    t.add_transfer(0, "out", 0, 9);
    return t.to_json();
  };
  EXPECT_EQ(build(), build());
}

TEST(TraceSession, EmitMetricsPublishesOccupancy) {
  TraceSession::Options opt;
  opt.max_events = 3;
  TraceSession trace(opt);
  trace.record_cycle(0, 1, 1, 0);
  trace.record_cycle(1, 1, 1, 0);  // dropped: only 0 slots left
  MetricsRegistry reg;
  reg.add_source([&trace](MetricsSink& sink) { trace.emit_metrics(sink); });
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.count("trace.events"), 3u);
  EXPECT_EQ(snap.count("trace.dropped"), 3u);
}

}  // namespace
}  // namespace mte::obs
