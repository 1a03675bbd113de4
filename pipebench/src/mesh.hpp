// The generated netlist of the mesh_sim workload.
//
// A mesh is `lanes` independent tiled lanes, built with CircuitBuilder and
// transformed to a 4-thread full-MEB design. Each lane joins two
// independent source arms (one through a function unit, one through a
// variable-latency unit), runs the joined stream through alternating MEB,
// function-unit and variable-latency stages, and forks it to two sinks.
// No fork's arms meet again, so there is no multithreaded reconvergence,
// and both join arms carry the same number of buffers, so the join is
// slack-balanced. The seed picks only attributes (functions, latency
// ranges, source and sink rates), never the topology, so every seed
// yields the same component count and comparable work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "netlist/builder.hpp"

namespace pipebench {

inline constexpr std::size_t kMeshThreads = 4;

/// The workload's lane count: about 1.1k components in the elaborated
/// simulator (nodes plus one channel probe per channel). At 200 lanes
/// (10.6k components, ~35 MB) most of a cycle's cost is memory stalls, and
/// on a shared host that made the run-to-run spread of every timing exceed
/// the benchmark's bounds; at this size the simulator stays mostly
/// cache-resident.
inline constexpr std::size_t kMeshLanes = 20;

/// The set-up scaling probe measures at this many lanes and half of it,
/// where analyze_perf's superlinear growth dominates set-up.
inline constexpr std::size_t kProbeLanes = 200;

/// The builder holding the mesh, with the multithreaded transform applied.
[[nodiscard]] mte::netlist::CircuitBuilder mesh_builder(std::size_t lanes,
                                                       std::uint64_t seed);

/// build() of mesh_builder(), serialized to .enl text.
[[nodiscard]] std::string mesh_enl(std::size_t lanes, std::uint64_t seed);

}  // namespace pipebench
