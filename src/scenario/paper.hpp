// The paper-scale scenario: a landscape tuned so the observed dataset
// reproduces the statistics reported in the paper (Section 4.1 counts,
// Table 1 invariants, Figure 3/4/5 shapes, Table 2 topology).
//
// All substitution decisions are documented in DESIGN.md; the knobs
// below are calibrated against the paper's numbers and EXPERIMENTS.md
// records paper-vs-measured for every artifact.
#pragma once

#include <cstdint>

#include "analysis/bview.hpp"
#include "cluster/behavioral.hpp"
#include "cluster/epm.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "honeypot/database.hpp"
#include "honeypot/deployment.hpp"
#include "honeypot/enrichment.hpp"
#include "ingest/report.hpp"
#include "malware/landscape.hpp"
#include "sandbox/environment.hpp"
#include "snapshot/checkpoint.hpp"

namespace repro {
class ThreadPool;
struct ThreadPoolMetrics;
}  // namespace repro

namespace repro::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace repro::obs

namespace repro::scenario {

struct ScenarioOptions {
  std::uint64_t seed = 2008;
  /// Scales event rates (not structure); tests use small values for
  /// speed, benches use 1.0 for paper-scale output.
  double scale = 1.0;
  /// Jaccard threshold of the behavioral clustering.
  double b_threshold = 0.70;
  /// B-clustering backend (cluster/backend.hpp registry). Deliberately
  /// NOT part of the scenario fingerprint: the database and EPM results
  /// are backend-independent, so WAL segments are sound to share across
  /// backends. Epoch cuts carry their own backend tag instead — on a
  /// mismatch the full-recompute path declines the cut and recomputes,
  /// and the incremental path refuses the switch with a typed
  /// ConfigError (see DESIGN.md §15).
  cluster::BackendKind b_backend = cluster::BackendKind::kLsh;
  /// Worker-pool width for the processing pipeline (enrichment and the
  /// four clusterings). 0 = hardware_concurrency, 1 = the bit-exact
  /// legacy serial path. Output is byte-identical at every width, so —
  /// like the checkpoint knobs — this never enters the scenario
  /// fingerprint.
  std::size_t threads = 0;
  /// Fault-injection plan. The default (empty) plan is guaranteed to
  /// produce a dataset bit-identical to a run without any injector.
  fault::FaultPlan faults;
  /// Crash-safe checkpointing (opt-in). When `checkpoint.directory` is
  /// set, the epoch loop saves an epoch cut after every epoch and
  /// resumes from the newest valid one on the next run. Resumed output
  /// is byte-identical to an uninterrupted run; cuts written under
  /// different options (seed, scale, threshold, fault plan) are
  /// rejected by fingerprint and recomputed.
  snapshot::CheckpointOptions checkpoint;
  /// Optional observability sinks (non-owning). Purely observational:
  /// attaching them never changes a single dataset byte, and — like
  /// `threads` and the checkpoint knobs — they are excluded from the
  /// scenario fingerprint. Deterministic-channel metrics come out
  /// byte-identical at every pool width; the trace (and the runtime
  /// channel it carries) is wall-clock data and is not.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
};

/// Stable 64-bit digest of every dataset-shaping option (seed, scale,
/// threshold and the full fault plan — not the checkpoint knobs, and
/// not `threads`, which never changes the dataset). Embedded in
/// snapshots so stale checkpoints never leak across configurations.
/// `b_backend` is also excluded: WAL segments are shared across
/// backends, while epoch cuts are guarded by their own backend tag
/// (see ScenarioOptions).
[[nodiscard]] std::uint64_t scenario_fingerprint(
    const ScenarioOptions& options);

/// Ground truth: families, variants, exploits, payload specs, window.
[[nodiscard]] malware::Landscape make_paper_landscape(
    const ScenarioOptions& options = {});

/// Execution environment consistent with the landscape: IRC C&C
/// servers up for the first ~70% of their botnet's activity window, and
/// the downloader's distribution domain resolving for the first ~60% of
/// the observation period.
[[nodiscard]] sandbox::Environment make_paper_environment(
    const malware::Landscape& landscape);

/// Everything the analyses need, produced by one pipeline run:
/// generate -> observe -> enrich -> cluster (E, P, M, B).
struct Dataset {
  malware::Landscape landscape;
  sandbox::Environment environment;
  honeypot::EventDatabase db;
  honeypot::EnrichmentStats enrichment;
  cluster::EpmResult e;
  cluster::EpmResult p;
  cluster::EpmResult m;
  analysis::BehavioralView b;
  /// Fault counters accumulated while building the dataset; all-zero
  /// when `ScenarioOptions::faults` is empty. The post-generation share
  /// is restored from the epoch cut on resume (the injector is not
  /// re-exercised for records the cut covers).
  fault::FaultReport fault_report;
  /// What checkpointing did during this build (all-zero when disabled).
  snapshot::CheckpointStore::Activity checkpoint_activity;
  /// Streaming-ingest accounting; all-zero for a run without a WAL
  /// (build_paper_dataset included).
  ingest::IngestReport ingest;
};

/// The one-shot build: the epoch loop's one-epoch run without a WAL,
/// with the full-recompute clustering (scenario/stream.hpp). With
/// `options.checkpoint` set it writes one epoch cut and resumes from a
/// cut that covers the whole stream.
[[nodiscard]] Dataset build_paper_dataset(const ScenarioOptions& options = {});

/// The deployment configuration the paper scenario runs under: the
/// generator of the epoch loop's event stream.
[[nodiscard]] honeypot::DeploymentConfig make_paper_deployment_config(
    const ScenarioOptions& options, fault::FaultInjector* faults);

/// Publishes the dataset's outcome counters ("pipeline.*", "enrich.*",
/// "cluster.*", "fault.*", "snapshot.*") on the deterministic channel.
/// Values come from the final Dataset, so fresh, resumed and streamed
/// builds of the same configuration export identical metrics.
void publish_dataset_metrics(obs::MetricsRegistry& metrics,
                             const Dataset& dataset);

/// Copies the pool's scheduling telemetry into the registry. Strictly
/// runtime-channel: at width 1 the serial fast paths bypass the pool
/// entirely, so none of these counts can be width-stable.
void publish_pool_metrics(obs::MetricsRegistry& metrics,
                          const ThreadPool& pool,
                          const ThreadPoolMetrics& counters);

}  // namespace repro::scenario
