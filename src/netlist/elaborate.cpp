#include "netlist/elaborate.hpp"

#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/analyze.hpp"
#include "elastic/channel.hpp"
#include "sim/fault_injector.hpp"
#include "sim/protocol_monitor.hpp"

namespace mte::netlist {

std::function<Word(Word)> FunctionRegistry::fn(const std::string& name) const {
  const auto it = fns_.find(name);
  if (it == fns_.end()) throw ElaborationError("unknown function '" + name + "'");
  return it->second;
}

std::function<bool(Word)> FunctionRegistry::pred(const std::string& name) const {
  const auto it = preds_.find(name);
  if (it == preds_.end()) throw ElaborationError("unknown predicate '" + name + "'");
  return it->second;
}

FunctionRegistry FunctionRegistry::with_defaults() {
  FunctionRegistry r;
  r.add_fn("id", [](Word x) { return x; });
  r.add_fn("inc", [](Word x) { return x + 1; });
  r.add_fn("dec", [](Word x) { return x - 1; });
  r.add_fn("double", [](Word x) { return 2 * x; });
  r.add_fn("square", [](Word x) { return x * x; });
  r.add_pred("even", [](Word x) { return x % 2 == 0; });
  r.add_pred("odd", [](Word x) { return x % 2 == 1; });
  r.add_pred("nonzero", [](Word x) { return x != 0; });
  return r;
}

namespace {

/// Channel name: the driving endpoint of the edge, "node:port".
std::string channel_name(const Netlist& netlist, const Edge& e) {
  return netlist.node(e.from).name + ':' + std::to_string(e.from_port);
}

}  // namespace

Elaboration::Elaboration(const Netlist& netlist, const FunctionRegistry& registry)
    : Elaboration(netlist, registry, ComponentFactory::defaults()) {}

Elaboration::Elaboration(const Netlist& netlist, const FunctionRegistry& registry,
                         const ComponentFactory& factory, ElaborationOptions options) {
  // The analyzer's elaboration subset is the only gate: it runs before any
  // component exists, so bad node or port references never reach the
  // factory. Reconvergence (MTE021) is a cycle through *speculative*
  // arbitration, so it only counts under a ready-aware arbiter.
  const analysis::AnalysisReport errors =
      analysis::elaboration_errors(netlist, options.arbiter);
  if (!errors.empty()) {
    throw ElaborationError("netlist cannot elaborate:\n" + errors.render_text());
  }
  options_ = options;
  sim_.set_kernel(options.kernel);
  threads_ = netlist.threads();
  multithreaded_ = netlist.is_multithreaded();
  if (netlist.is_multithreaded()) {
    elaborate_multi(netlist, registry, factory);
  } else {
    elaborate_single(netlist, registry, factory);
  }
  // Bare-name aliases for channels whose driver has a single output, plus
  // the endpoint records the robustness layer needs (violation loci,
  // wait-for-graph nodes, MEB conservation watches).
  for (const auto& e : netlist.edges()) {
    const Node& from = netlist.node(e.from);
    const Node& to = netlist.node(e.to);
    const std::string name = channel_name(netlist, e);
    if (from.outputs == 1) channel_aliases_[from.name] = name;
    ChannelEnds ends;
    ends.producer = from.name;
    ends.producer_port = "out" + std::to_string(e.from_port);
    ends.consumer = to.name;
    ends.producer_is_buffer = from.type == NodeType::kBuffer;
    ends.consumer_is_buffer = to.type == NodeType::kBuffer;
    channel_ends_[name] = std::move(ends);
    if (to.type == NodeType::kBuffer) buffer_io_[to.name].in_channel = name;
    if (from.type == NodeType::kBuffer) buffer_io_[from.name].out_channel = name;
  }
}

void Elaboration::elaborate_single(const Netlist& netlist,
                                   const FunctionRegistry& registry,
                                   const ComponentFactory& factory) {
  PortMap<elastic::Channel<Word>> ports;
  for (const auto& e : netlist.edges()) {
    const std::string name = channel_name(netlist, e);
    auto& ch = sim_.make<elastic::Channel<Word>>(sim_, name);
    ports.out[{e.from, e.from_port}] = &ch;
    ports.in[{e.to, e.to_port}] = &ch;
    channels_[name] = &ch;
    channel_order_.push_back(name);
    counters_[name] = &elastic::count_transfers(sim_, ch);
  }
  for (const auto& n : netlist.nodes()) {
    const StContext ctx{sim_, netlist, n, registry, ports, *this};
    factory.st(n)(ctx);
  }
}

void Elaboration::elaborate_multi(const Netlist& netlist,
                                  const FunctionRegistry& registry,
                                  const ComponentFactory& factory) {
  PortMap<mt::MtChannel<Word>> ports;
  for (const auto& e : netlist.edges()) {
    const std::string name = channel_name(netlist, e);
    auto& ch = sim_.make<mt::MtChannel<Word>>(sim_, name, threads_);
    ports.out[{e.from, e.from_port}] = &ch;
    ports.in[{e.to, e.to_port}] = &ch;
    mt_channels_[name] = &ch;
    channel_order_.push_back(name);
    counters_[name] = &mt::count_transfers(sim_, ch);
  }
  for (const auto& n : netlist.nodes()) {
    const MtContext ctx{sim_, netlist, n, registry, ports, *this};
    factory.mt(n)(ctx);
  }
}

elastic::Source<Word>& Elaboration::source(const std::string& name) {
  const auto it = sources_.find(name);
  if (it == sources_.end()) throw ElaborationError("no source '" + name + "'");
  return *it->second;
}

elastic::Sink<Word>& Elaboration::sink(const std::string& name) {
  const auto it = sinks_.find(name);
  if (it == sinks_.end()) throw ElaborationError("no sink '" + name + "'");
  return *it->second;
}

mt::MtSource<Word>& Elaboration::mt_source(const std::string& name) {
  const auto it = mt_sources_.find(name);
  if (it == mt_sources_.end()) throw ElaborationError("no mt source '" + name + "'");
  return *it->second;
}

mt::MtSink<Word>& Elaboration::mt_sink(const std::string& name) {
  const auto it = mt_sinks_.find(name);
  if (it == mt_sinks_.end()) throw ElaborationError("no mt sink '" + name + "'");
  return *it->second;
}

const std::string& Elaboration::resolve_channel(const std::string& name) const {
  if (channels_.count(name) != 0 || mt_channels_.count(name) != 0) return name;
  const auto alias = channel_aliases_.find(name);
  if (alias != channel_aliases_.end()) return alias->second;
  throw ElaborationError("no channel '" + name + "'");
}

const sim::ChannelCounters& Elaboration::probe(const std::string& channel) const {
  return *counters_.at(resolve_channel(channel));
}

std::vector<std::string> Elaboration::channel_names() const {
  return channel_order_;
}

double Elaboration::throughput(const std::string& channel) const {
  return probe(channel).throughput();
}

double Elaboration::mean_wait(const std::string& channel) const {
  return probe(channel).mean_wait();
}

std::string Elaboration::stats_report() const {
  std::ostringstream os;
  os << "channel            tokens  tput    mean_wait  max_wait\n";
  for (const auto& name : channel_order_) {
    const sim::ChannelCounters& p = *counters_.at(name);
    char line[128];
    std::snprintf(line, sizeof(line), "%-18s %6llu  %6.3f  %9.2f  %8llu\n",
                  name.c_str(), static_cast<unsigned long long>(p.count()),
                  p.throughput(), p.mean_wait(),
                  static_cast<unsigned long long>(p.wait_histogram().max()));
    os << line;
  }
  return os.str();
}

elastic::Channel<Word>& Elaboration::channel(const std::string& name) {
  const auto it = channels_.find(resolve_channel(name));
  if (it == channels_.end()) throw ElaborationError("no single-thread channel '" + name + "'");
  return *it->second;
}

mt::MtChannel<Word>& Elaboration::mt_channel(const std::string& name) {
  const auto it = mt_channels_.find(resolve_channel(name));
  if (it == mt_channels_.end()) {
    throw ElaborationError("no multithreaded channel '" + name + "'");
  }
  return *it->second;
}

const mt::AnyMeb<Word>& Elaboration::meb(const std::string& node_name) const {
  const auto it = mebs_.find(node_name);
  if (it == mebs_.end()) throw ElaborationError("no MEB '" + node_name + "'");
  return it->second;
}

void Elaboration::attach_monitor(sim::ProtocolMonitor& monitor) {
  for (const auto& name : channel_order_) {
    const ChannelEnds& ends = channel_ends_.at(name);
    if (multithreaded_) {
      auto& ch = *mt_channels_.at(name);
      std::vector<const sim::Wire<bool>*> valid;
      std::vector<const sim::Wire<bool>*> ready;
      for (std::size_t t = 0; t < threads_; ++t) {
        valid.push_back(&ch.valid(t));
        ready.push_back(&ch.ready(t));
      }
      // MT valid is never persistent: every MEB/MtSource drives it
      // through a rotating arbiter, so a stalled thread's valid legally
      // drops when the grant moves on. Per-thread ready persists only at
      // full-MEB inputs (private slots per thread); reduced/hybrid MEBs
      // share slots, so a peer thread's accept retracts this thread's
      // ready without a transfer.
      bool persistent_ready = false;
      if (ends.consumer_is_buffer) {
        const auto meb_it = mebs_.find(ends.consumer);
        persistent_ready = meb_it != mebs_.end() &&
                           !meb_it->second.is_hybrid() &&
                           meb_it->second.kind() == mt::MebKind::kFull;
      }
      monitor.watch_mt_channel(
          name, ends.producer, ends.producer_port, ends.consumer,
          std::move(valid), std::move(ready),
          [&data = ch.data] { return data.get(); },
          /*persistent_valid=*/false, persistent_ready);
    } else {
      auto& ch = *channels_.at(name);
      // ST elastic-buffer outputs hold valid until the pop (occupancy
      // semantics); rate-gated sources and derived valids (forks, joins,
      // function units) may legally withdraw an offer.
      monitor.watch_channel(name, ends.producer, ends.producer_port,
                            ends.consumer, ch.valid, ch.ready,
                            [&data = ch.data] { return data.get(); },
                            ends.producer_is_buffer, ends.consumer_is_buffer);
    }
  }
  // Token conservation across every buffer whose input and output are
  // both internal channels (boundary buffers lack one side): MEBs via
  // AnyMeb::total_occupancy, ST elastic buffers via the occupancy
  // accessor their builder exposed.
  const auto watch_buffer = [&](const std::string& node,
                                std::function<int()> occupancy) {
    const auto it = buffer_io_.find(node);
    if (it == buffer_io_.end() || it->second.in_channel.empty() ||
        it->second.out_channel.empty()) {
      return;
    }
    monitor.watch_conservation(node, it->second.in_channel,
                               it->second.out_channel, std::move(occupancy));
  };
  for (const auto& [node, meb] : mebs_) {
    watch_buffer(node, [m = meb] { return m.total_occupancy(); });
  }
  for (const auto& [node, occupancy] : buffer_occupancy_) {
    watch_buffer(node, occupancy);
  }
  sim_.set_monitor(&monitor);
}

void Elaboration::bind_faults(sim::FaultInjector& injector) {
  for (const auto& name : channel_order_) {
    if (multithreaded_) {
      auto& ch = *mt_channels_.at(name);
      std::vector<sim::Wire<bool>*> valid;
      std::vector<sim::Wire<bool>*> ready;
      for (std::size_t t = 0; t < threads_; ++t) {
        valid.push_back(&ch.valid(t));
        ready.push_back(&ch.ready(t));
      }
      injector.bind_mt_channel(name, std::move(valid), std::move(ready),
                               ch.data);
    } else {
      auto& ch = *channels_.at(name);
      injector.bind_channel(name, ch.valid, ch.ready, ch.data);
    }
  }
  sim_.set_fault_injector(&injector);
}

void Elaboration::expose_source(const std::string& name, elastic::Source<Word>& src) {
  sources_[name] = &src;
}
void Elaboration::expose_sink(const std::string& name, elastic::Sink<Word>& snk) {
  sinks_[name] = &snk;
}
void Elaboration::expose_mt_source(const std::string& name, mt::MtSource<Word>& src) {
  mt_sources_[name] = &src;
}
void Elaboration::expose_buffer(const std::string& name,
                                std::function<int()> occupancy) {
  buffer_occupancy_[name] = std::move(occupancy);
}
void Elaboration::expose_mt_sink(const std::string& name, mt::MtSink<Word>& snk) {
  mt_sinks_[name] = &snk;
}
void Elaboration::expose_meb(const std::string& name, mt::AnyMeb<Word> meb) {
  mebs_.emplace(name, meb);
}

}  // namespace mte::netlist
