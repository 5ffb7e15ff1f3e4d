// The traced per-layer sweep: each layer's public entry points timed
// alone, serially, on the workload's seed. In the pipeline E, P, M and
// B run concurrently and B is the critical path; here each is timed on
// its own so a change to one shows in its own figure.
#include <filesystem>
#include <memory>

#include "cluster/epm.hpp"
#include "cluster/feature.hpp"
#include "ingest/wal.hpp"
#include "loadgen.hpp"
#include "obs/metrics.hpp"
#include "scenario/stream.hpp"
#include "serve/protocol.hpp"
#include "server_process.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/codec.hpp"
#include "util/byteio.hpp"
#include "util/md5.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using repro::scenario::Dataset;

constexpr int kReps = 3;
constexpr int kLandscapeReps = 5;
constexpr int kAnswerReps = 5;
constexpr double kProbeSeconds = 2.0;
/// Scale of the durable layers' inputs relative to the workload's.
constexpr double kDurableScale = 0.25;

/// Median wall milliseconds of `reps` calls of `body`, each under its
/// own span.
template <typename Body>
double median_ms(Tracer& tracer, const std::string& name, int reps,
                 Body&& body) {
  std::vector<double> ms;
  for (int rep = 0; rep < reps; ++rep) {
    const Tracer::Scoped span{&tracer, name};
    const std::int64_t start = now_ns();
    body();
    ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
  }
  return median(ms);
}

std::uint64_t counter(const std::vector<std::pair<std::string, std::uint64_t>>&
                          counters,
                      const std::string& name) {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0;
}

double megabytes(std::uint64_t bytes) {
  return static_cast<double>(bytes) / 1e6;
}

}  // namespace

Result run_layers(const Options& options, Tracer& tracer) {
  Result result;
  const Tracer::Scoped sweep{&tracer, "layers"};
  const std::uint64_t seed = input_seed(options, 0);
  const repro::scenario::ScenarioOptions scenario =
      scenario_options(options, seed, kWidth);
  // Joined before the serve probe forks its server (see ServerProcess).
  auto pool = std::make_unique<repro::ThreadPool>(kWidth);

  // malware: ground truth.
  repro::malware::Landscape landscape;
  result.add("malware.landscape_ms",
             median_ms(tracer, "malware.landscape", kLandscapeReps,
                       [&] {
                         landscape =
                             repro::scenario::make_paper_landscape(scenario);
                       }),
             "ms");
  const repro::sandbox::Environment environment =
      repro::scenario::make_paper_environment(landscape);

  // honeypot: the generator, MD5 dedup and enrichment.
  repro::honeypot::EventDatabase db;
  const double deploy_ms = median_ms(tracer, "honeypot.deploy", kReps, [&] {
    repro::honeypot::Deployment deployment{
        landscape,
        repro::scenario::make_paper_deployment_config(scenario, nullptr)};
    db = deployment.run();
  });
  const std::size_t events = db.events().size();
  result.add("honeypot.deploy_ms", deploy_ms, "ms");
  result.add("honeypot.deploy_events_per_s",
             static_cast<double>(events) / (deploy_ms / 1e3), "1/s");
  {
    const Tracer::Scoped span{&tracer, "honeypot.add_sample"};
    repro::honeypot::EventDatabase replay;
    std::int64_t busy_ns = 0;
    std::uint64_t calls = 0;
    for (const auto& event : db.events()) {
      if (!event.sample) continue;
      const auto& sample = db.sample(*event.sample);
      std::vector<std::uint8_t> content = sample.content;
      const std::int64_t start = now_ns();
      (void)replay.add_sample(std::move(content), event.time, sample.truncated,
                              sample.truth_variant);
      busy_ns += now_ns() - start;
      ++calls;
    }
    result.check(replay.samples().size() == db.samples().size(),
                 "add_sample replay deduplicated to a different sample count");
    result.add("honeypot.add_sample_us",
               calls == 0 ? 0.0 : static_cast<double>(busy_ns) / 1e3 /
                                      static_cast<double>(calls),
               "us");
  }
  {
    const Tracer::Scoped span{&tracer, "util.md5"};
    std::uint64_t bytes = 0;
    bool match = true;
    const std::int64_t start = now_ns();
    for (const auto& sample : db.samples()) {
      match = match && repro::Md5::hex_digest(sample.content) == sample.md5;
      bytes += sample.content.size();
    }
    const double seconds = seconds_since(start);
    result.check(match, "Md5::hex_digest disagrees with the stored md5");
    result.add("util.md5_mb_per_s", megabytes(bytes) / seconds, "MB/s");
  }
  result.add("honeypot.enrich_ms",
             median_ms(tracer, "honeypot.enrich", 1,
                       [&] {
                         (void)repro::honeypot::enrich_database(
                             db, landscape, environment, nullptr, pool.get());
                       }),
             "ms");

  // cluster: each dimension alone.
  result.add("cluster.e_ms", median_ms(tracer, "cluster.e", kReps, [&] {
               (void)repro::cluster::epm_cluster(
                   repro::cluster::build_epsilon_data(db));
             }),
             "ms");
  result.add("cluster.p_ms", median_ms(tracer, "cluster.p", kReps, [&] {
               (void)repro::cluster::epm_cluster(
                   repro::cluster::build_pi_data(db));
             }),
             "ms");
  result.add("cluster.m_ms", median_ms(tracer, "cluster.m", kReps, [&] {
               (void)repro::cluster::epm_cluster(
                   repro::cluster::build_mu_data(db));
             }),
             "ms");
  repro::obs::MetricsRegistry b_metrics;
  bool first_b = true;
  result.add("cluster.b_ms", median_ms(tracer, "cluster.b", kReps, [&] {
               repro::cluster::BehavioralOptions behavioral;
               behavioral.threshold = scenario.b_threshold;
               behavioral.backend = scenario.b_backend;
               behavioral.pool = pool.get();
               // Counters of the first run only: they are totals.
               behavioral.metrics = first_b ? &b_metrics : nullptr;
               first_b = false;
               (void)repro::analysis::BehavioralView::build(db, behavioral);
             }),
             "ms");
  const auto b_counters =
      b_metrics.counter_values(repro::obs::Channel::kDeterministic);
  const std::uint64_t bucket_pairs =
      counter(b_counters, "cluster.b.bucket_pairs");
  const std::uint64_t union_ops = counter(b_counters, "cluster.b.union_ops");
  result.add("cluster.b.bucket_pairs", static_cast<double>(bucket_pairs),
             "count");
  result.add("cluster.b.union_ops", static_cast<double>(union_ops), "count");
  result.add("cluster.b.merge_yield",
             bucket_pairs == 0 ? 0.0
                               : static_cast<double>(union_ops) /
                                     static_cast<double>(bucket_pairs),
             "ratio");
  db = {};
  pool.reset();

  // util: pool speed-up, and the cost of tracing the batch build.
  Dataset dataset;
  {
    std::vector<double> width1_ms;
    std::vector<double> plain_ms;
    std::vector<double> traced_ms;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto time_build = [&](std::size_t width, bool traced,
                                  const char* name) {
        repro::obs::TraceRecorder recorder;
        repro::scenario::ScenarioOptions build_options =
            scenario_options(options, seed, width);
        if (traced) build_options.trace = &recorder;
        const Tracer::Scoped span{&tracer, name};
        const std::int64_t start = now_ns();
        dataset = repro::scenario::build_paper_dataset(build_options);
        const double ms = static_cast<double>(now_ns() - start) / 1e6;
        if (traced) tracer.adopt(recorder, span.id());
        return ms;
      };
      width1_ms.push_back(time_build(1, false, "build.width1"));
      plain_ms.push_back(time_build(kWidth, false, "build.untraced"));
      traced_ms.push_back(time_build(kWidth, true, "build.traced"));
    }
    result.add("util.pool_speedup", median(width1_ms) / median(plain_ms),
               "ratio");
    result.add("trace_overhead_pct",
               (median(traced_ms) / median(plain_ms) - 1.0) * 100.0, "%");
  }

  // The durable layers (scenario stream, snapshot, ingest) run at a
  // quarter of the scale: a cold paper-scale stream spends 20-30 s in
  // fsync, which on a slow disk would take the traced run past its time
  // limit.
  repro::scenario::ScenarioOptions durable = scenario;
  durable.scale = scenario.scale * kDurableScale;
  const Dataset reference = repro::scenario::build_paper_dataset(durable);
  const std::string batch_digest = export_digest(reference);

  // scenario stream: one cold traced run; its spans and final-state
  // counters, then the snapshot layer on its final cut.
  const std::string root = options.work_dir + "/layers";
  {
    fresh_directory(root + "/wal");
    fresh_directory(root + "/ckpt");
    repro::obs::MetricsRegistry metrics;
    repro::obs::TraceRecorder recorder;
    repro::scenario::ScenarioOptions stream_options = durable;
    stream_options.checkpoint.directory = root + "/ckpt";
    stream_options.metrics = &metrics;
    stream_options.trace = &recorder;
    repro::scenario::StreamOptions stream;
    stream.wal_dir = root + "/wal";
    stream.epochs = kEpochs;
    Dataset streamed;
    {
      const Tracer::Scoped span{&tracer, "stream.build"};
      streamed = repro::scenario::build_streaming_dataset(stream_options,
                                                          stream);
      tracer.adopt(recorder, span.id());
    }
    result.check(export_digest(streamed) == batch_digest,
                 "traced stream export differs from the batch export");
    const auto counters =
        metrics.counter_values(repro::obs::Channel::kDeterministic);
    result.add("cluster.signatures_reused",
               static_cast<double>(counter(counters,
                                           "cluster.signatures_reused")),
               "count");
    result.add("epm.instances_reclassified",
               static_cast<double>(counter(counters,
                                           "epm.instances_reclassified")),
               "count");
    const auto span_total = [&](const char* name) {
      double total = 0.0;
      for (const auto& span : recorder.spans()) {
        if (span.name == name) {
          total += static_cast<double>(span.duration_ns()) / 1e6;
        }
      }
      return total;
    };
    result.add("stream.generate_ms", span_total("stream.generate"), "ms");
    result.add("stream.replay_ms", span_total("epoch.replay"), "ms");
    result.add("stream.epoch_cluster_ms", span_total("epoch.cluster"), "ms");
    result.add("stream.checkpoint_ms", span_total("epoch.checkpoint"), "ms");
  }
  {
    const std::uint64_t fingerprint =
        repro::scenario::scenario_fingerprint(durable);
    repro::snapshot::CheckpointStore source{
        repro::snapshot::CheckpointOptions{root + "/ckpt"}, fingerprint};
    std::optional<repro::snapshot::EpochStage> cut;
    const double load_ms = median_ms(tracer, "snapshot.load_epoch", 1, [&] {
      cut = source.load_latest_epoch();
    });
    result.check(cut.has_value() &&
                     cut->wal_records == reference.db.events().size(),
                 "the final epoch cut did not load");
    if (!cut) return result;

    std::uint64_t encoded = 0;
    const double encode_ms = median_ms(tracer, "snapshot.encode", kReps, [&] {
      repro::ByteWriter writer;
      repro::snapshot::write_database(writer, cut->database.db);
      repro::snapshot::write_epm_result(writer, cut->epm.e);
      repro::snapshot::write_epm_result(writer, cut->epm.p);
      repro::snapshot::write_epm_result(writer, cut->epm.m);
      repro::snapshot::write_behavioral_view(writer, cut->behavioral);
      encoded = writer.size();
    });
    fresh_directory(root + "/save");
    repro::snapshot::CheckpointStore target{
        repro::snapshot::CheckpointOptions{root + "/save"}, fingerprint};
    const double save_ms = median_ms(tracer, "snapshot.save_epoch", 1,
                                     [&] { target.save_epoch(*cut); });
    result.add("snapshot.encode_mb_per_s",
               megabytes(encoded) / (encode_ms / 1e3), "MB/s");
    result.add("snapshot.save_epoch_ms", save_ms, "ms");
    result.add("snapshot.load_epoch_ms", load_ms, "ms");
    result.add("snapshot.cut_bytes",
               static_cast<double>(target.activity().bytes_written), "bytes");
  }
  std::filesystem::remove_all(root + "/ckpt");
  std::filesystem::remove_all(root + "/save");

  // ingest: every event (with its download) as one synced WAL append.
  {
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const auto& event : reference.db.events()) {
      repro::ByteWriter writer;
      repro::snapshot::write_attack_event(writer, event);
      if (event.sample) {
        writer.bytes(reference.db.sample(*event.sample).content);
      }
      payloads.push_back(writer.take());
    }
    repro::ingest::WalOptions wal;
    wal.directory = root + "/wal-probe";
    wal.sync_every_append = true;
    fresh_directory(wal.directory);
    const std::uint64_t fingerprint = seed;
    repro::ingest::IngestReport report;
    std::int64_t busy_ns = 0;
    std::uint64_t bytes = 0;
    {
      const Tracer::Scoped span{&tracer, "ingest.wal_append"};
      repro::ingest::WalWriter writer{
          wal, fingerprint, repro::ingest::recover_wal(wal, fingerprint, report),
          nullptr};
      for (const auto& payload : payloads) {
        const std::int64_t start = now_ns();
        writer.append(payload);
        busy_ns += now_ns() - start;
        bytes += payload.size() + repro::ingest::kWalFrameHeaderBytes;
      }
      writer.seal();
    }
    repro::ingest::RecoveredWal recovered;
    const double recover_ms =
        median_ms(tracer, "ingest.wal_recover", 1, [&] {
          repro::ingest::IngestReport scan;
          recovered = repro::ingest::recover_wal(wal, fingerprint, scan);
        });
    result.check(recovered.records == payloads,
                 "recovered WAL records differ from the appended ones");
    result.add("ingest.wal_append_us",
               payloads.empty() ? 0.0
                                : static_cast<double>(busy_ns) / 1e3 /
                                      static_cast<double>(payloads.size()),
               "us");
    result.add("ingest.wal_mb_per_s",
               megabytes(bytes) / (static_cast<double>(busy_ns) / 1e9),
               "MB/s");
    result.add("ingest.wal_recover_ms", recover_ms, "ms");
  }
  std::filesystem::remove_all(root);

  // serve: view build, in-process answers, and a short open-loop probe.
  std::unique_ptr<repro::serve::ServeView> view;
  result.add("serve.view_build_ms",
             median_ms(tracer, "serve.view_build", kReps,
                       [&] {
                         view = std::make_unique<repro::serve::ServeView>(
                             repro::serve::ServeView::build(
                                 dataset.db, dataset.e, dataset.p, dataset.m,
                                 dataset.b, 1));
                       }),
             "ms");
  const Script script =
      make_script(dataset, *view, options.seed, kScriptLength);
  {
    bool match = true;
    const double ms =
        median_ms(tracer, "serve.answer", kAnswerReps, [&] {
          for (std::size_t i = 0; i < script.lines.size(); ++i) {
            match = match && repro::serve::render(view->answer(
                                 repro::serve::parse_request(
                                     script.lines[i]))) == script.expected[i];
          }
        });
    result.check(match, "in-process answers are not deterministic");
    result.add("serve.answer_us",
               ms * 1e3 / static_cast<double>(script.lines.size()), "us");
  }
  {
    ServerProcess server{dataset, *view, /*republish_ms=*/0};
    StepStats probe;
    {
      const Tracer::Scoped span{&tracer, "serve.probe"};
      probe = run_open_loop(server.port(), script, kReferenceRate, kProbeSeconds,
                            kLateBoundMs);
    }
    const ServerProcess::Outcome outcome = server.finish();
    result.check(outcome.exited_cleanly,
                 "the server process did not drain and exit cleanly");
    const repro::serve::ServeReport& report = outcome.report;
    result.attempted += probe.sent;
    result.failed += probe.failed();
    result.add("serve.busy_sheds", static_cast<double>(report.busy_sheds),
               "count");
    result.add("serve.timeouts", static_cast<double>(report.timeouts),
               "count");
    result.add("serve.replies_err", static_cast<double>(report.replies_err),
               "count");
    result.add("loadgen.lag_p99_ms", quantile(probe.lag_ms, 0.99), "ms");
  }
  return result;
}

}  // namespace perfbench
