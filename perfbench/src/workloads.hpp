// The two workloads and the traced per-layer sweep.
//
// Each workload returns the gated end-to-end metrics of BENCHMARK.json
// (setup_s, throughput_per_s, peak_rss_mib) plus notes
// that print every named metric of the workload with its unit. A
// non-null tracer records a span around every library call.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Epochs of the traced sweep's cold stream.
inline constexpr std::size_t kEpochs = 8;
/// Requests in the serve script (cycled).
inline constexpr std::size_t kScriptLength = 4096;
/// One-connection serve capacity measured when the benchmark was
/// defined (replies/s at paper scale on a 4-CPU host; context.json).
inline constexpr double kDefinedCapacity = 62000.0;
/// The serve ladder rate at which query latency is reported: a quarter
/// of one worker's capacity, spread over the server's two, so the server
/// is mostly idle and the figure is its response time, not queueing.
inline constexpr double kReferenceRate = kDefinedCapacity / 4.0;
/// A request sent later than this after its due time counts as late; a
/// ladder step whose generator lag p99 exceeds it does not count.
inline constexpr double kLateBoundMs = 1.0;

/// scenario::build_paper_dataset on one thread; oracle: export digest
/// and deterministic counters equal those of width-4 builds of the same
/// seeds made in set-up.
[[nodiscard]] Result run_batch(const Options& options, Tracer* tracer);

/// Each input's dataset in turn served by serve::Server over loopback
/// while a writer republishes the view: an open loop at a fixed ladder
/// of rates, with a closed-loop capacity probe after each step; oracle:
/// every reply byte-equal to the in-process answer.
[[nodiscard]] Result run_serve(const Options& options, Tracer* tracer);

/// Times each layer's public entry points alone on the workload's seed
/// and returns the per_layer metrics of BENCHMARK.json.
[[nodiscard]] Result run_layers(const Options& options, Tracer& tracer);

// Helpers shared by the workloads and the layer sweep.

/// Event-rate scale of every build: paper scale (1.0) unless --scale
/// overrides it.
[[nodiscard]] double workload_scale(const Options& options);

/// A run draws its inputs from several dataset seeds derived from
/// --seed, so one run's figures average over inputs instead of
/// following one draw's event count: input i of seed s is s + 1000 * i
/// (input 0 is the seed itself; the layer sweep uses it).
[[nodiscard]] std::uint64_t input_seed(const Options& options,
                                       std::size_t input);

[[nodiscard]] repro::scenario::ScenarioOptions scenario_options(
    const Options& options, std::uint64_t seed, std::size_t width);

/// Empty `path` (removed first), its contents synced to disk.
void fresh_directory(const std::string& path);

}  // namespace perfbench
