#include "scenario/stream.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cluster/backend.hpp"
#include "cluster/behavioral.hpp"
#include "cluster/incremental.hpp"
#include "cluster/minhash.hpp"
#include "ingest/queue.hpp"
#include "ingest/wal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "snapshot/codec.hpp"
#include "util/byteio.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace repro::scenario {

namespace {

/// WAL record payload layout (version 1):
///
///   [u8 version][attack event, snapshot codec, id=0, no sample ref]
///   [u8 has_sample][u64 content size][content bytes]
///   [u8 truncated][u8 corrupted]            (sample block only)
///
/// One record per attack event, in event order. The sample block
/// carries the event's *own* download (content + flags) rather than a
/// database sample id, so a record is replayable into any database
/// state; replaying the full sequence re-runs the md5 dedup in the
/// original order and therefore reproduces the batch database
/// byte-for-byte (same sample ids, same first_seen, same event counts).
constexpr std::uint8_t kRecordVersion = 1;

[[nodiscard]] std::vector<std::uint8_t> encode_record(
    const honeypot::AttackEvent& event,
    const honeypot::EventDatabase& gen_db) {
  ByteWriter writer;
  writer.u8(kRecordVersion);
  honeypot::AttackEvent copy = event;
  copy.id = 0;          // replay reassigns ids in order
  copy.sample.reset();  // the sample travels by content, not by id
  snapshot::write_attack_event(writer, copy);
  writer.u8(event.sample.has_value() ? 1 : 0);
  if (event.sample.has_value()) {
    // Distinct download contents always hash to distinct MD5s, so the
    // deduplicated sample's content and flags are exactly what this
    // event's own download carried.
    const honeypot::MalwareSample& sample = gen_db.sample(*event.sample);
    writer.u64(sample.content.size());
    writer.bytes(sample.content);
    writer.u8(sample.truncated ? 1 : 0);
    writer.u8(sample.corrupted ? 1 : 0);
  }
  return writer.take();
}

void replay_record(std::span<const std::uint8_t> payload,
                   honeypot::EventDatabase& db) {
  ByteReader reader{payload};
  if (reader.u8() != kRecordVersion) {
    throw ParseError("WAL record: unsupported version");
  }
  honeypot::AttackEvent event = snapshot::read_attack_event(reader);
  if (reader.u8() != 0) {
    const std::uint64_t content_size = reader.u64();
    std::vector<std::uint8_t> content =
        reader.bytes(static_cast<std::size_t>(content_size));
    const bool truncated = reader.u8() != 0;
    const bool corrupted = reader.u8() != 0;
    const honeypot::SampleId id = db.add_sample(
        std::move(content), event.time, truncated, event.truth_variant);
    if (corrupted) db.sample_mutable(id).corrupted = true;
    event.sample = id;
  }
  if (reader.remaining() != 0) {
    throw ParseError("WAL record: trailing bytes");
  }
  (void)db.add_event(std::move(event));
}

void accumulate(honeypot::EnrichmentStats& total,
                const honeypot::EnrichmentStats& delta) {
  total.submitted += delta.submitted;
  total.executed += delta.executed;
  total.failed += delta.failed;
  total.parse_failures += delta.parse_failures;
  total.sandbox_faults += delta.sandbox_faults;
  total.label_gaps += delta.label_gaps;
}

// Serialized forms for the --verify-incremental byte diff: the snapshot
// codec is a pure function of the result, so equal bytes here mean
// every downstream artifact (exports, checkpoints) is equal too.
[[nodiscard]] std::vector<std::uint8_t> epm_bytes(
    const cluster::EpmResult& result) {
  ByteWriter writer;
  snapshot::write_epm_result(writer, result);
  return writer.take();
}

[[nodiscard]] std::vector<std::uint8_t> bview_bytes(
    const analysis::BehavioralView& view) {
  ByteWriter writer;
  snapshot::write_behavioral_view(writer, view);
  return writer.take();
}


ingest::WalOptions wal_options(const StreamOptions& stream) {
  ingest::WalOptions wal;
  wal.directory = stream.wal_dir;
  wal.segment_bytes = stream.segment_bytes;
  wal.fail_after_seal = stream.fail_after_seal;
  return wal;
}

/// The durable record source of the epoch loop: WAL recovery, the
/// appender, the bounded queue and per-record delivery simulation. A
/// run without a WAL has none of this — its single epoch adopts the
/// generated database instead — so the loop holds it as an optional
/// and tests for it once per step.
class WalIngest {
 public:
  /// Recovers the WAL (salvage counters land in `report`) and positions
  /// the appender after the recovered prefix.
  WalIngest(const StreamOptions& stream, std::uint64_t fingerprint,
            ingest::IngestReport& report)
      : WalIngest(stream, fingerprint, report,
                  ingest::recover_wal(wal_options(stream), fingerprint,
                                      report)) {}

  /// Heals a WAL that fell behind its checkpoint (crash after the cut
  /// was durable but before the damaged tail segment was, or a
  /// quarantined segment). The cut already covers these records' state
  /// and fault counters, so they are re-appended verbatim — no delivery
  /// simulation, no replay. Recovered payloads the cut covers are
  /// released: nothing replays them again.
  void heal(std::uint64_t done, const honeypot::EventDatabase& gen_db) {
    const std::uint64_t covered = std::min<std::uint64_t>(done, recovered_.size());
    for (std::uint64_t i = 0; i < covered; ++i) {
      recovered_[static_cast<std::size_t>(i)] = std::vector<std::uint8_t>{};
    }
    while (writer_.next_record_index() < done) {
      append(take_record(writer_.next_record_index(), gen_db));
    }
  }

  /// One epoch's records [from, to): delivered, durably appended through
  /// the bounded queue, and replayed into `db`. Each record's bytes are
  /// released once it is replayed and appended.
  void ingest_epoch(std::uint64_t from, std::uint64_t to,
                    const honeypot::EventDatabase& gen_db,
                    honeypot::EventDatabase& db,
                    fault::FaultInjector& injector) {
    for (std::uint64_t i = from; i < to; ++i) {
      const std::vector<std::uint8_t> rec = take_record(i, gen_db);
      // Delivery simulation runs for every record past the last cut,
      // including records already durable in the WAL: the run that
      // appended those died before checkpointing its counters, and the
      // decisions are pure in (plan, key), so re-rolling them here
      // restores exactly the counts it lost.
      (void)ingest::deliver_record(stream_.retry, i, gen_db.events()[i].time,
                                   injector);
      bytes_delta_ += rec.size() + ingest::kWalFrameHeaderBytes;
      if (i >= writer_.next_record_index()) {
        // Fresh record: through the bounded queue into the WAL. The
        // queue is drained only when full, so backpressure genuinely
        // engages (and is counted) instead of the queue idling at
        // depth one.
        if (!queue_.offer(rec)) {
          drain();
          if (!queue_.offer(rec)) {
            throw IoError("ingest queue rejected a record after drain");
          }
        }
      }
      replay_record(rec, db);
    }
    drain();
    writer_.sync();
    writer_.seal();
  }

  /// Stream totals as of a cut at `target` records. They are computed
  /// from the record sequence (not from what this process happened to
  /// append), so they are identical however many times the run was
  /// killed on the way here.
  void cut(std::uint64_t target) {
    report_.records_appended = target;
    report_.bytes_appended += bytes_delta_;
    bytes_delta_ = 0;
    report_.segments_sealed = writer_.segment_index() - 1;
  }

  /// Copies this run's queue accounting into the report.
  void finish() {
    const ingest::BoundedRecordQueue::Stats stats = queue_.stats();
    report_.queue_pushed = stats.pushed;
    report_.queue_shed = stats.shed;
    report_.queue_stalls = stats.stalls;
    report_.queue_high_water = stats.high_water;
  }

 private:
  WalIngest(const StreamOptions& stream, std::uint64_t fingerprint,
            ingest::IngestReport& report, ingest::RecoveredWal recovered)
      : stream_(stream),
        report_(report),
        writer_(wal_options(stream), fingerprint, recovered,
                /*report=*/nullptr),
        recovered_(std::move(recovered.records)),
        queue_(stream.queue_capacity, ingest::OverflowPolicy::kBlock) {}

  /// Record `index`: the recovered payload, moved out of the cache (it
  /// is replayed once), or past the recovered prefix encoded fresh from
  /// the regenerated stream. Recovered payloads are CRC-framed and
  /// fingerprint-checked, so both sources yield the same bytes.
  std::vector<std::uint8_t> take_record(std::uint64_t index,
                                        const honeypot::EventDatabase& gen_db) {
    if (index < recovered_.size()) {
      return std::move(recovered_[static_cast<std::size_t>(index)]);
    }
    return encode_record(gen_db.events()[index], gen_db);
  }

  void append(std::span<const std::uint8_t> payload) {
    writer_.append(payload);
    ++appended_this_run_;
    if (stream_.after_append) stream_.after_append(appended_this_run_);
  }

  void drain() {
    while (auto rec = queue_.try_pop()) append(*rec);
  }

  const StreamOptions& stream_;
  ingest::IngestReport& report_;
  // Declared before recovered_: the writer sizes itself from the
  // recovery result before its records are moved out — a moved-from
  // list would reset its next-record index to zero and every resume
  // would re-append the whole stream as duplicate frames.
  ingest::WalWriter writer_;
  std::vector<std::vector<std::uint8_t>> recovered_;
  ingest::BoundedRecordQueue queue_;
  std::uint64_t appended_this_run_ = 0;
  std::uint64_t bytes_delta_ = 0;
};

}  // namespace

void StreamOptions::validate() const {
  if (epochs == 0) {
    throw ConfigError("StreamOptions: epochs must be at least 1");
  }
  if (queue_capacity == 0) {
    throw ConfigError("StreamOptions: queue_capacity must be at least 1");
  }
  retry.validate();
  if (wal_dir.empty()) {
    // Without a WAL the records exist only in the generated database,
    // which the single epoch adopts whole.
    if (epochs != 1) {
      throw ConfigError(
          "StreamOptions: more than one epoch requires a wal_dir");
    }
    return;
  }
  wal_options(*this).validate();  // rejects a zero segment size
}

Dataset build_streaming_dataset(const ScenarioOptions& options,
                                const StreamOptions& stream) {
  options.faults.validate();
  stream.validate();
  const bool incremental = stream.incremental || stream.verify_incremental;
  if (incremental &&
      !cluster::cluster_backend(options.b_backend).single_linkage()) {
    // Prefix seeding from the prior epoch's partition is only sound
    // under connected-component semantics; re-centering backends must
    // recompute every epoch.
    throw ConfigError(
        "incremental epoch clustering requires a single-linkage backend; "
        "run backend '" +
        std::string{cluster::backend_name(options.b_backend)} +
        "' with --full-recluster");
  }
  const std::uint64_t fingerprint = scenario_fingerprint(options);
  snapshot::CheckpointStore store{options.checkpoint, fingerprint};

  Dataset dataset;
  // One pool for the whole run; every consumer produces output
  // byte-identical to the serial path, so the width is a pure
  // throughput knob (and deliberately absent from the fingerprint).
  ThreadPool pool{options.threads};
  ThreadPoolMetrics pool_metrics;
  if (options.metrics != nullptr) pool.attach_metrics(&pool_metrics);

  const obs::TraceRecorder::Scoped pipeline_span{options.trace, "pipeline"};

  // Ground truth. Regenerated on every run (milliseconds), never
  // checkpointed; the environment is a pure function of it.
  {
    const obs::TraceRecorder::Scoped span{options.trace, "stage.landscape",
                                          pipeline_span.id()};
    dataset.landscape = make_paper_landscape(options);
    dataset.environment = make_paper_environment(dataset.landscape);
  }

  // Incremental clustering engines: durable counting state per EPM
  // dimension plus the cross-epoch MinHash signature cache. Primed from
  // the restored cut; verify mode also runs them (its published results
  // are the incremental ones).
  cluster::IncrementalEpm inc_e{cluster::Dimension::kEpsilon};
  cluster::IncrementalEpm inc_p{cluster::Dimension::kPi};
  cluster::IncrementalEpm inc_m{cluster::Dimension::kMu};
  cluster::SignatureStore signatures;

  // The newest epoch cut, loaded before the event stream is
  // regenerated: decoding a cut is the memory peak of a warm start, and
  // this way it never overlaps the generated database. Its opaque blobs
  // are decoded inside the loader, so a cut whose CRCs hold but whose
  // blobs do not decode is quarantined and an older cut (or a cold
  // start) is used instead of failing the run.
  std::optional<snapshot::EpochStage> restored =
      store.load_latest_epoch([&](const snapshot::EpochStage& cut) {
        ingest::IngestReport totals;
        ingest::decode_stream_totals(cut.ingest_blob, totals);
        if (!incremental) return;
        // Empty blobs (a cut written by the full-recompute path) make
        // the engines recount from the restored rows — same state,
        // recomputed.
        inc_e.restore(cut.database.db, cut.epm.e, cut.e_counts);
        inc_p.restore(cut.database.db, cut.epm.p, cut.p_counts);
        inc_m.restore(cut.database.db, cut.epm.m, cut.m_counts);
        signatures = cut.signature_blob.empty()
                         ? cluster::SignatureStore{}
                         : cluster::decode_signature_store(cut.signature_blob);
      });

  // Sensor side: regenerate the full event sequence. Generation is
  // deterministic and cheap relative to enrichment + clustering, so a
  // resumed run recomputes it instead of persisting it; `baseline`
  // captures the injector right afterwards so the per-epoch slices
  // below contain only post-generation activity (which is what the
  // epoch cuts carry — generation's share is reproduced identically by
  // every run). Only hand the deployment an injector when a pipeline
  // site can actually fire: serve-only plans gate on pipeline_empty()
  // so a live daemon's client-fault knobs never perturb
  // fault.*.checked.
  fault::FaultInjector injector{options.faults};
  fault::FaultInjector* faults =
      options.faults.pipeline_empty() ? nullptr : &injector;
  honeypot::EventDatabase gen_db;
  {
    const obs::TraceRecorder::Scoped span{options.trace, "stream.generate",
                                          pipeline_span.id()};
    honeypot::DeploymentConfig config =
        make_paper_deployment_config(options, faults);
    config.pool = &pool;
    honeypot::Deployment deployment{dataset.landscape, config};
    gen_db = deployment.run();
  }
  const fault::FaultReport baseline = injector.report();
  const std::uint64_t total = gen_db.events().size();

  // Collector side: recover the WAL (when there is one) and resume from
  // the cut. The two are independent durability layers — either may be
  // ahead of the other after a crash, and both gaps heal below.
  ingest::IngestReport report;
  std::optional<WalIngest> wal;
  if (!stream.wal_dir.empty()) {
    const obs::TraceRecorder::Scoped span{options.trace, "stream.recover",
                                          pipeline_span.id()};
    wal.emplace(stream, fingerprint, report);
  }

  // A matching fingerprint can never produce more records than the
  // regenerated stream; never trust disk anyway. Without a WAL there is
  // no record source to continue a partial cut from, so only a cut of
  // the whole stream is usable there.
  if (restored && (wal ? restored->wal_records > total
                       : restored->wal_records != total)) {
    restored.reset();
  }
  if (restored && restored->b_backend != options.b_backend) {
    // The cut's behavioral partition came from another backend. The
    // incremental path would seed this backend's union-find from it —
    // a silent stale partition — so it refuses the switch outright;
    // the full-recompute path just declines the cut and recomputes
    // from the start (everything it recomputes is backend-pure).
    if (incremental) {
      throw ConfigError(
          "epoch checkpoint was cut by cluster backend '" +
          std::string{cluster::backend_name(restored->b_backend)} +
          "' but this run selects '" +
          std::string{cluster::backend_name(options.b_backend)} +
          "'; incremental seeding across backends is unsound — use a "
          "fresh checkpoint directory or --full-recluster");
    }
    restored.reset();
  }
  if (!restored) {
    // Drop whatever a declined or quarantined cut primed the engines
    // with: the run starts cold.
    inc_e = cluster::IncrementalEpm{cluster::Dimension::kEpsilon};
    inc_p = cluster::IncrementalEpm{cluster::Dimension::kPi};
    inc_m = cluster::IncrementalEpm{cluster::Dimension::kMu};
    signatures = cluster::SignatureStore{};
  }

  // The loop's live pipeline state. It doubles as the epoch cut: saving
  // stamps a few scalars on it and writes it out, so checkpointing
  // never copies the database or the clustering results.
  snapshot::EpochStage state;
  honeypot::EventDatabase& db = state.database.db;
  std::uint64_t done = 0;  // records already ingested into `db`
  fault::FaultReport restored_slice;
  bool have_results = false;
  if (restored) {
    state = std::move(*restored);
    done = state.wal_records;
    restored_slice = state.database.fault_report;
    // Already validated by the loader; the engines are primed.
    if (wal) ingest::decode_stream_totals(state.ingest_blob, report);
    have_results = true;
    report.epochs_restored = 1;
  }
  if (wal) wal->heal(done, gen_db);

  fault::FaultReport final_slice = restored_slice;
  for (std::size_t k = 0; k < stream.epochs; ++k) {
    // Epoch boundaries are record counts, independent of the split a
    // previous (killed) run used.
    const std::uint64_t target =
        (static_cast<std::uint64_t>(k) + 1) * total /
        static_cast<std::uint64_t>(stream.epochs);
    const bool last = k + 1 == stream.epochs;
    // A cut at `target` records already exists (or the range is empty):
    // nothing to do — unless nothing at all has produced clustering
    // results yet (empty stream, no checkpoint), in which case the
    // final epoch still runs to compute them.
    if (target <= done && !(last && !have_results)) continue;

    const obs::TraceRecorder::Scoped epoch_span{options.trace, "stream.epoch",
                                                pipeline_span.id()};
    const std::size_t first_sample = db.samples().size();
    {
      const obs::TraceRecorder::Scoped span{options.trace, "epoch.replay",
                                            epoch_span.id()};
      if (wal) {
        wal->ingest_epoch(done, target, gen_db, db, injector);
      } else {
        // The one epoch of a run without a WAL covers the whole stream
        // (validate() enforces it), so the generated database *is* its
        // state. Adopting it skips re-encoding every record and
        // re-hashing every download.
        db = std::move(gen_db);
      }
    }

    // The delta past the previous cut is all that needs enriching;
    // per-sample purity makes the result identical to re-enriching
    // everything from scratch.
    {
      const obs::TraceRecorder::Scoped span{options.trace, "epoch.enrich",
                                            epoch_span.id()};
      accumulate(state.database.enrichment,
                 honeypot::enrich_database(db, dataset.landscape,
                                           dataset.environment, faults, &pool,
                                           first_sample));
    }

    // Epoch clustering. Incremental (the default): the EPM engines
    // absorb the epoch's event delta into their durable counting state
    // and re-generalize only flip-affected rows, and B reuses cached
    // MinHash signatures for the unchanged profile prefix — both
    // byte-identical to the full recompute, which `incremental = false`
    // still runs (this is the cost pair the ABL-10 streaming ablation
    // measures). The four clusterings are mutually independent views of
    // the same database, so they run as concurrent pool tasks.
    {
      const obs::TraceRecorder::Scoped cluster_span{
          options.trace, "epoch.cluster", epoch_span.id()};
      // Task spans attach to the clustering span by id: the Scoped
      // handles below are created on whichever pool thread runs the
      // task, while the parent was opened on this one.
      const auto parent = cluster_span.id();
      cluster::BehavioralOptions behavioral;
      behavioral.threshold = options.b_threshold;
      behavioral.backend = options.b_backend;
      // B additionally parallelizes internally (nested submission):
      // idle workers from the cheaper EPM tasks drain its signature and
      // bucket chunks.
      behavioral.pool = &pool;
      // Previous epoch's B partition (restored from the cut on warm
      // resume). Its rows are a prefix of this epoch's — profiles are
      // immutable and appended in sample order — so it seeds the
      // union-find and confines Jaccard work to pairs touching the
      // appended suffix. Copied out because the B task overwrites the
      // view in place.
      std::vector<int> prior_b;
      std::vector<std::function<void()>> tasks;
      if (incremental) {
        prior_b = state.behavioral.clusters().assignment;
        behavioral.signature_cache = &signatures;
        behavioral.prior_assignment = &prior_b;
        // Deliberately no metrics sink: B's work counters would
        // accumulate once per epoch run by *this process*, which a
        // kill-resume run does fewer of — the deterministic channel
        // only carries final-state values (published below).
        tasks.emplace_back([&, parent] {
          const obs::TraceRecorder::Scoped span{options.trace, "cluster.e",
                                                parent};
          state.epm.e = inc_e.update(db);
        });
        tasks.emplace_back([&, parent] {
          const obs::TraceRecorder::Scoped span{options.trace, "cluster.p",
                                                parent};
          state.epm.p = inc_p.update(db);
        });
        tasks.emplace_back([&, parent] {
          const obs::TraceRecorder::Scoped span{options.trace, "cluster.m",
                                                parent};
          state.epm.m = inc_m.update(db);
        });
      } else {
        // The final epoch's B is a pure function of the final database,
        // so its work counters are width-stable and equal to a one-shot
        // clustering of the whole stream; earlier epochs stay silent.
        if (last) behavioral.metrics = options.metrics;
        tasks.emplace_back([&, parent] {
          const obs::TraceRecorder::Scoped span{options.trace, "cluster.e",
                                                parent};
          state.epm.e = cluster::epm_cluster(cluster::build_epsilon_data(db));
        });
        tasks.emplace_back([&, parent] {
          const obs::TraceRecorder::Scoped span{options.trace, "cluster.p",
                                                parent};
          state.epm.p = cluster::epm_cluster(cluster::build_pi_data(db));
        });
        tasks.emplace_back([&, parent] {
          const obs::TraceRecorder::Scoped span{options.trace, "cluster.m",
                                                parent};
          state.epm.m = cluster::epm_cluster(cluster::build_mu_data(db));
        });
      }
      tasks.emplace_back([&, parent] {
        const obs::TraceRecorder::Scoped span{options.trace, "cluster.b",
                                              parent};
        state.behavioral = analysis::BehavioralView::build(db, behavioral);
      });
      pool.run_tasks(tasks);
    }

    if (stream.verify_incremental) {
      // Cross-check: run the full recompute as a second batch (so the
      // two B passes never nest parallel_for concurrently) and diff the
      // serialized bytes of every result.
      snapshot::EpmStage full_epm;
      analysis::BehavioralView full_b;
      {
        const obs::TraceRecorder::Scoped verify_span{
            options.trace, "epoch.verify", epoch_span.id()};
        const auto parent = verify_span.id();
        std::vector<std::function<void()>> tasks;
        tasks.emplace_back([&, parent] {
          const obs::TraceRecorder::Scoped span{options.trace, "verify.e",
                                                parent};
          full_epm.e = cluster::epm_cluster(cluster::build_epsilon_data(db));
        });
        tasks.emplace_back([&, parent] {
          const obs::TraceRecorder::Scoped span{options.trace, "verify.p",
                                                parent};
          full_epm.p = cluster::epm_cluster(cluster::build_pi_data(db));
        });
        tasks.emplace_back([&, parent] {
          const obs::TraceRecorder::Scoped span{options.trace, "verify.m",
                                                parent};
          full_epm.m = cluster::epm_cluster(cluster::build_mu_data(db));
        });
        tasks.emplace_back([&, parent] {
          const obs::TraceRecorder::Scoped span{options.trace, "verify.b",
                                                parent};
          cluster::BehavioralOptions behavioral;
          behavioral.threshold = options.b_threshold;
          behavioral.backend = options.b_backend;
          behavioral.pool = &pool;
          full_b = analysis::BehavioralView::build(db, behavioral);
        });
        pool.run_tasks(tasks);
      }
      const auto mismatch = [&](const char* dimension) {
        throw ConfigError(
            "verify-incremental: " + std::string{dimension} +
            " bytes diverge from the full recompute at epoch " +
            std::to_string(k));
      };
      if (epm_bytes(state.epm.e) != epm_bytes(full_epm.e)) mismatch("epsilon");
      if (epm_bytes(state.epm.p) != epm_bytes(full_epm.p)) mismatch("pi");
      if (epm_bytes(state.epm.m) != epm_bytes(full_epm.m)) mismatch("mu");
      if (bview_bytes(state.behavioral) != bview_bytes(full_b)) {
        mismatch("behavioral");
      }
      ++report.epochs_verified;
    }
    have_results = true;

    // Cut the epoch: state + the post-generation fault slice + stream
    // totals, all in one durable snapshot.
    final_slice =
        fault::add(restored_slice, fault::subtract(injector.report(),
                                                   baseline));
    ++report.epochs_run;
    if (wal) wal->cut(target);
    if (store.enabled()) {
      state.epoch = k;
      state.wal_records = target;
      state.b_backend = options.b_backend;
      state.database.fault_report = final_slice;
      state.ingest_blob = ingest::encode_stream_totals(report);
      if (incremental) {
        // The engines' durable state travels with the cut so resume is
        // delta-only.
        state.e_counts = inc_e.encode_counts();
        state.p_counts = inc_p.encode_counts();
        state.m_counts = inc_m.encode_counts();
        state.signature_blob = cluster::encode_signature_store(signatures);
      } else {
        // The full-recompute path keeps no counting state (a restored
        // cut's blobs are stale by now); a later incremental resume
        // recounts from the restored rows.
        state.e_counts.clear();
        state.p_counts.clear();
        state.m_counts.clear();
        state.signature_blob.clear();
      }
      const obs::TraceRecorder::Scoped span{options.trace, "epoch.checkpoint",
                                            epoch_span.id()};
      store.save_epoch(state);
    }
    // The hook sees the 1-based count of durable epochs so a view built
    // here for the final epoch carries the same epoch number as one built
    // from the finished dataset (the fully-restored-resume fallback).
    if (stream.on_epoch) {
      stream.on_epoch(db, state.epm, state.behavioral, k + 1);
    }
    done = target;
  }

  dataset.db = std::move(db);
  dataset.enrichment = state.database.enrichment;
  dataset.fault_report = fault::add(baseline, final_slice);
  dataset.e = std::move(state.epm.e);
  dataset.p = std::move(state.epm.p);
  dataset.m = std::move(state.epm.m);
  dataset.b = std::move(state.behavioral);
  dataset.checkpoint_activity = store.activity();
  // Ingest accounting describes the WAL; a run without one reports
  // none.
  if (wal) {
    wal->finish();
    dataset.ingest = report;
  }

  if (options.metrics != nullptr) {
    publish_dataset_metrics(*options.metrics, dataset);
    if (wal) ingest::publish_ingest_metrics(*options.metrics, report);
    if (incremental) {
      // Final-state values of the engines' durable totals: pure
      // functions of the record sequence and the epoch split, so they
      // are width-stable and kill-invariant (a resumed run restores
      // them from the cut instead of re-earning them).
      obs::add_counter(options.metrics, "epm.instances_reclassified",
                       inc_e.instances_reclassified() +
                           inc_p.instances_reclassified() +
                           inc_m.instances_reclassified());
      obs::add_counter(options.metrics, "cluster.signatures_reused",
                       signatures.reused);
    }
    publish_pool_metrics(*options.metrics, pool, pool_metrics);
  }
  return dataset;
}

}  // namespace repro::scenario
