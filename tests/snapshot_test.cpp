// Tests for the snapshot subsystem: codec round-trips, container
// integrity (CRC, truncation, bit flips), epoch-cut durability and the
// kill-resume guarantee of the one-shot build (a run interrupted
// anywhere resumes to output byte-identical to an uninterrupted run).
// The multi-epoch WAL-backed side of the same protocol is pinned by
// tests/stream_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "io/csv_export.hpp"
#include "scenario/paper.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/crc32.hpp"
#include "util/byteio.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace repro::snapshot {
namespace {

namespace fs = std::filesystem;

scenario::ScenarioOptions small_options() {
  scenario::ScenarioOptions options;
  options.scale = 0.03;
  options.seed = 7;
  return options;
}

/// One tiny shared dataset (no checkpointing) for codec tests and as
/// the byte-identical baseline of the resume tests.
const scenario::Dataset& dataset() {
  static const scenario::Dataset ds =
      scenario::build_paper_dataset(small_options());
  return ds;
}

/// Every CSV artifact of a dataset concatenated — the observable output
/// the kill-resume guarantee is stated over.
std::string all_csv(const scenario::Dataset& ds) {
  std::ostringstream out;
  io::write_events_csv(out, ds.db, ds.e, ds.p, ds.m, ds.b);
  io::write_samples_csv(out, ds.db, ds.b);
  io::write_clusters_csv(out, ds.e);
  io::write_clusters_csv(out, ds.p);
  io::write_clusters_csv(out, ds.m);
  io::write_profiles_jsonl(out, ds.db);
  return out.str();
}

/// Fresh unique checkpoint directory under the test temp dir.
fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::path{testing::TempDir()} / ("snap-" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- CRC-32 -----------------------------------------------------------------

TEST(Crc32, KnownVector) {
  const std::string check = "123456789";
  const auto* data = reinterpret_cast<const std::uint8_t*>(check.data());
  EXPECT_EQ(crc32({data, check.size()}), 0xcbf43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> bytes(301);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const std::uint32_t one_shot = crc32(bytes);
  const std::uint32_t split =
      crc32(std::span{bytes}.subspan(100), crc32(std::span{bytes}.first(100)));
  EXPECT_EQ(one_shot, split);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5};
  const std::uint32_t clean = crc32(bytes);
  bytes[2] ^= 0x10;
  EXPECT_NE(crc32(bytes), clean);
}

// --- Codec round-trips ------------------------------------------------------

template <typename T, typename WriteFn, typename ReadFn>
void expect_roundtrip(const T& value, WriteFn write, ReadFn read) {
  ByteWriter writer;
  write(writer, value);
  const std::vector<std::uint8_t> first = writer.data();
  ByteReader reader{first};
  const T decoded = read(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  ByteWriter again;
  write(again, decoded);
  EXPECT_EQ(again.data(), first);
}

TEST(Codec, DatabaseRoundTripsByteExactly) {
  expect_roundtrip(dataset().db, write_database, read_database);
}

TEST(Codec, DatabaseRestoreIsConsistent) {
  ByteWriter writer;
  write_database(writer, dataset().db);
  ByteReader reader{writer.data()};
  const honeypot::EventDatabase restored = read_database(reader);
  EXPECT_NO_THROW(restored.check_consistency());
  EXPECT_EQ(restored.events().size(), dataset().db.events().size());
  EXPECT_EQ(restored.samples().size(), dataset().db.samples().size());
  // The MD5 index must be rebuilt, not lost.
  const std::string& md5 = dataset().db.samples().front().md5;
  EXPECT_EQ(restored.find_by_md5(md5), dataset().db.find_by_md5(md5));
}

TEST(Codec, EnrichmentAndFaultReportRoundTrip) {
  honeypot::EnrichmentStats stats;
  stats.submitted = 11;
  stats.executed = 7;
  stats.failed = 3;
  stats.parse_failures = 2;
  stats.sandbox_faults = 1;
  stats.label_gaps = 5;
  expect_roundtrip(stats, write_enrichment_stats,
                   [](ByteReader& r) { return read_enrichment_stats(r); });

  fault::FaultReport report;
  report.attacks_lost_to_outage = 4;
  report.proxy_attempts = 9;
  report.proxy_failures = 2;
  report.proxy_retries = 1;
  report.refinements_abandoned = 1;
  report.proxy_backoff_seconds = -3;
  report.downloads_refused = 6;
  report.downloads_corrupted = 2;
  report.sandbox_failures = 3;
  report.av_label_gaps = 8;
  ByteWriter writer;
  write_fault_report(writer, report);
  ByteReader reader{writer.data()};
  const fault::FaultReport decoded = read_fault_report(reader);
  EXPECT_EQ(decoded.proxy_backoff_seconds, -3);
  EXPECT_EQ(decoded.av_label_gaps, 8u);
  ByteWriter again;
  write_fault_report(again, decoded);
  EXPECT_EQ(again.data(), writer.data());
}

TEST(Codec, EpmResultsRoundTripByteExactly) {
  for (const cluster::EpmResult* result :
       {&dataset().e, &dataset().p, &dataset().m}) {
    expect_roundtrip(*result, write_epm_result, read_epm_result);
  }
}

TEST(Codec, EpmRestoreRebuildsDerivedState) {
  ByteWriter writer;
  write_epm_result(writer, dataset().e);
  ByteReader reader{writer.data()};
  const cluster::EpmResult restored = read_epm_result(reader);
  EXPECT_EQ(restored.cluster_count(), dataset().e.cluster_count());
  EXPECT_EQ(restored.members, dataset().e.members);
  for (const honeypot::EventId id : dataset().e.event_ids) {
    EXPECT_EQ(restored.cluster_of_event(id), dataset().e.cluster_of_event(id));
  }
}

TEST(Codec, BehavioralViewRoundTripsByteExactly) {
  expect_roundtrip(dataset().b, write_behavioral_view, read_behavioral_view);
}

TEST(Codec, BehavioralRestoreAnswersSameQueries) {
  ByteWriter writer;
  write_behavioral_view(writer, dataset().b);
  ByteReader reader{writer.data()};
  const analysis::BehavioralView restored = read_behavioral_view(reader);
  EXPECT_EQ(restored.cluster_count(), dataset().b.cluster_count());
  EXPECT_EQ(restored.singleton_count(), dataset().b.singleton_count());
  for (honeypot::SampleId sample = 0;
       sample < dataset().db.samples().size(); ++sample) {
    EXPECT_EQ(restored.cluster_of_sample(sample),
              dataset().b.cluster_of_sample(sample));
  }
}

TEST(Codec, TruncatedPayloadThrowsParseError) {
  ByteWriter writer;
  write_enrichment_stats(writer, dataset().enrichment);
  const std::vector<std::uint8_t>& full = writer.data();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader reader{std::span{full}.first(cut)};
    EXPECT_THROW((void)read_enrichment_stats(reader), ParseError);
  }
}

TEST(Codec, CorruptedPayloadFailsSafely) {
  // Direct codec fuzz *below* the CRC layer: a flipped byte may decode
  // to different content, but it must never crash and may only ever
  // throw ParseError.
  // Decoding the multi-MB database dominates, so the trials share a
  // pool; each chunk mutates its own copy in place and restores the
  // byte afterwards. Any other exception fails the test through
  // parallel_for's rethrow.
  ByteWriter writer;
  write_database(writer, dataset().db);
  const std::vector<std::uint8_t> bytes = writer.take();
  constexpr std::size_t kStep = 211;
  const std::size_t trials = (bytes.size() + kStep - 1) / kStep;
  ThreadPool pool;
  pool.parallel_for(
      trials, (trials + pool.width() - 1) / pool.width(),
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint8_t> mutated = bytes;
        for (std::size_t trial = begin; trial < end; ++trial) {
          const std::size_t i = trial * kStep;
          mutated[i] ^= 0x40;
          ByteReader reader{mutated};
          try {
            (void)read_database(reader);
          } catch (const ParseError&) {
            // Acceptable: the corruption was detected.
          }
          mutated[i] ^= 0x40;
        }
      });
}

// --- Container format -------------------------------------------------------

const std::vector<std::uint8_t> kAlpha{1, 2, 3, 4, 5};
const std::vector<std::uint8_t> kGamma{0xff, 0x00, 0x7f};

std::vector<SectionView> sample_sections() {
  return {SectionView{"alpha", kAlpha}, SectionView{"beta", {}},
          SectionView{"gamma", kGamma}};
}

TEST(Container, RoundTripPreservesSections) {
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(0xfeedbeefULL, sample_sections());
  const DecodedSnapshot decoded = decode_snapshot(bytes);
  EXPECT_EQ(decoded.fingerprint, 0xfeedbeefULL);
  ASSERT_EQ(decoded.sections.size(), 3u);
  const auto payload = [&](std::size_t i) {
    return std::vector<std::uint8_t>(decoded.sections[i].payload.begin(),
                                     decoded.sections[i].payload.end());
  };
  EXPECT_EQ(decoded.sections[0].name, "alpha");
  EXPECT_EQ(payload(0), kAlpha);
  EXPECT_EQ(decoded.sections[1].name, "beta");
  EXPECT_TRUE(decoded.sections[1].payload.empty());
  EXPECT_EQ(payload(2), kGamma);
}

TEST(Container, PiecesEncodeLikeTheContiguousPayload) {
  // A payload given as ranges (one of them empty) writes the same file,
  // section CRC included, as the same bytes given in one span.
  const std::span<const std::uint8_t> alpha{kAlpha};
  const std::span<const std::uint8_t> parts[] = {
      alpha.first(2), alpha.subspan(2, 0), alpha.subspan(2)};
  std::vector<SectionView> sections = sample_sections();
  sections[0] = SectionView{"alpha", {}, parts};
  EXPECT_EQ(encode_snapshot(9, sections), encode_snapshot(9, sample_sections()));
}

TEST(Container, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(42, sample_sections());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)decode_snapshot(std::span{bytes}.first(cut)),
                 ParseError)
        << "prefix length " << cut << " decoded";
  }
}

TEST(Container, EverySingleBitFlipIsRejected) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(7, sample_sections());
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW((void)decode_snapshot(mutated), ParseError)
          << "flip of bit " << bit << " in byte " << byte << " decoded";
    }
  }
}

/// Rewrites the trailer CRC so only the structural checks can object.
void fix_trailer(std::vector<std::uint8_t>& bytes) {
  const std::uint32_t fixed = crc32(std::span{bytes}.first(bytes.size() - 8));
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(fixed >> (8 * i));
  }
}

TEST(Container, RejectsWrongVersion) {
  std::vector<std::uint8_t> bytes = encode_snapshot(7, sample_sections());
  bytes[4] = 9;  // the version field
  fix_trailer(bytes);
  EXPECT_THROW((void)decode_snapshot(bytes), ParseError);
}

TEST(Container, RejectsRetiredStageKinds) {
  // Kinds 1-4 were the per-stage snapshots of the retired batch
  // protocol; only epoch cuts (kind 5) decode.
  for (const int kind : {1, 2, 3, 4, 6}) {
    std::vector<std::uint8_t> bytes = encode_snapshot(7, sample_sections());
    bytes[8] = static_cast<std::uint8_t>(kind);
    fix_trailer(bytes);
    EXPECT_THROW((void)decode_snapshot(bytes), ParseError) << kind;
  }
}

// --- CheckpointStore --------------------------------------------------------

/// An epoch cut holding the shared dataset's state.
EpochStage sample_cut(std::uint64_t epoch = 0) {
  EpochStage stage;
  stage.epoch = epoch;
  stage.wal_records = dataset().db.events().size();
  stage.database.db = dataset().db;
  stage.database.enrichment = dataset().enrichment;
  stage.database.fault_report = dataset().fault_report;
  stage.epm.e = dataset().e;
  stage.epm.p = dataset().p;
  stage.epm.m = dataset().m;
  stage.behavioral = dataset().b;
  stage.ingest_blob = {1, 0, 0, 0};
  stage.signature_blob = {9, 8, 7};
  return stage;
}

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void flip_byte_at(const fs::path& path, std::uintmax_t offset, char value) {
  std::fstream file{path, std::ios::in | std::ios::out | std::ios::binary};
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(value);
}

TEST(Store, DisabledStoreIsInert) {
  CheckpointStore store{CheckpointOptions{}, 1};
  EXPECT_FALSE(store.enabled());
  store.save_epoch(sample_cut());
  EXPECT_FALSE(store.load_latest_epoch().has_value());
  EXPECT_EQ(store.activity().saved, 0u);
}

TEST(Store, SaveThenLoadRestores) {
  const fs::path dir = fresh_dir("save-load");
  CheckpointStore writer{CheckpointOptions{dir.string()}, 99};
  writer.save_epoch(sample_cut());
  EXPECT_TRUE(fs::exists(dir / epoch_filename(0)));
  EXPECT_EQ(writer.activity().bytes_written, fs::file_size(dir / epoch_filename(0)));

  CheckpointStore reader{CheckpointOptions{dir.string()}, 99};
  const auto loaded = reader.load_latest_epoch();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->wal_records, dataset().db.events().size());
  EXPECT_EQ(loaded->database.db.samples().size(),
            dataset().db.samples().size());
  EXPECT_EQ(loaded->epm.m.cluster_count(), dataset().m.cluster_count());
  EXPECT_EQ(loaded->ingest_blob, (std::vector<std::uint8_t>{1, 0, 0, 0}));
  EXPECT_EQ(loaded->signature_blob, (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_TRUE(loaded->e_counts.empty());
  EXPECT_EQ(reader.activity().restored, 1u);
}

TEST(Store, StreamedCutEqualsEncodedSnapshot) {
  // save_epoch streams the container section by section with an
  // incremental file CRC; the bytes on disk must be exactly what
  // encode_snapshot produces for the same sections.
  const fs::path dir = fresh_dir("streamed");
  CheckpointStore writer{CheckpointOptions{dir.string()}, 1234};
  writer.save_epoch(sample_cut());
  const std::vector<std::uint8_t> on_disk = read_bytes(dir / epoch_filename(0));
  EXPECT_EQ(encode_snapshot(1234, decode_snapshot(on_disk).sections), on_disk);
  EXPECT_FALSE(fs::exists(dir / (epoch_filename(0) + ".tmp")));
}

TEST(Store, NewestValidCutWinsAndDamagedOnesAreSkipped) {
  const fs::path dir = fresh_dir("newest");
  CheckpointStore writer{CheckpointOptions{dir.string()}, 5};
  writer.save_epoch(sample_cut(0));
  writer.save_epoch(sample_cut(1));
  {
    CheckpointStore reader{CheckpointOptions{dir.string()}, 5};
    const auto loaded = reader.load_latest_epoch();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->epoch, 1u);
  }
  const fs::path newest = dir / epoch_filename(1);
  flip_byte_at(newest, fs::file_size(newest) / 2, '\x33');
  CheckpointStore reader{CheckpointOptions{dir.string()}, 5};
  const auto loaded = reader.load_latest_epoch();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 0u);
  EXPECT_EQ(reader.activity().quarantined, 1u);
  EXPECT_FALSE(fs::exists(newest));
}

TEST(Store, StaleFingerprintIsQuarantinedNotLoaded) {
  const fs::path dir = fresh_dir("stale");
  CheckpointStore writer{CheckpointOptions{dir.string()}, 1000};
  writer.save_epoch(sample_cut());

  CheckpointStore reader{CheckpointOptions{dir.string()}, 2000};
  EXPECT_FALSE(reader.load_latest_epoch().has_value());
  EXPECT_EQ(reader.activity().stale, 1u);
  EXPECT_EQ(reader.activity().quarantined, 1u);
  EXPECT_FALSE(fs::exists(dir / epoch_filename(0)));
  EXPECT_TRUE(fs::exists(dir / (epoch_filename(0) + ".quarantined")));
}

TEST(Store, RepeatedQuarantinesKeepEveryPieceOfEvidence) {
  // Regression: quarantining used a fixed ".quarantined" name, so a
  // second stale/corrupt file silently overwrote the evidence of the
  // first. unique_quarantine_path must probe "-2", "-3", ... instead.
  const fs::path dir = fresh_dir("quarantine-unique");
  const fs::path path = dir / epoch_filename(0);
  EXPECT_EQ(unique_quarantine_path(path.string()),
            path.string() + ".quarantined");
  { std::ofstream out{path.string() + ".quarantined"}; }
  EXPECT_EQ(unique_quarantine_path(path.string()),
            path.string() + ".quarantined-2");
  { std::ofstream out{path.string() + ".quarantined-2"}; }
  EXPECT_EQ(unique_quarantine_path(path.string()),
            path.string() + ".quarantined-3");

  // End to end: two stale cuts quarantined back to back land in
  // distinct files.
  for (int round = 0; round < 2; ++round) {
    CheckpointStore writer{CheckpointOptions{dir.string()}, 1000};
    writer.save_epoch(sample_cut());
    CheckpointStore reader{CheckpointOptions{dir.string()}, 2000};
    EXPECT_FALSE(reader.load_latest_epoch().has_value());
  }
  EXPECT_TRUE(fs::exists(path.string() + ".quarantined-3"));
  EXPECT_TRUE(fs::exists(path.string() + ".quarantined-4"));
}

TEST(Store, CorruptFileIsQuarantinedNotLoaded) {
  const fs::path dir = fresh_dir("corrupt");
  CheckpointStore writer{CheckpointOptions{dir.string()}, 5};
  writer.save_epoch(sample_cut());

  const fs::path path = dir / epoch_filename(0);
  flip_byte_at(path, fs::file_size(path) / 2, '\x7e');

  CheckpointStore reader{CheckpointOptions{dir.string()}, 5};
  EXPECT_FALSE(reader.load_latest_epoch().has_value());
  EXPECT_EQ(reader.activity().quarantined, 1u);
  EXPECT_EQ(reader.activity().stale, 0u);
  EXPECT_FALSE(fs::exists(path));
}

TEST(Store, GarbageFileIsQuarantinedNotLoaded) {
  const fs::path dir = fresh_dir("garbage");
  {
    std::ofstream out{dir / epoch_filename(0), std::ios::binary};
    out << "not a snapshot at all";
  }
  CheckpointStore store{CheckpointOptions{dir.string()}, 5};
  EXPECT_FALSE(store.load_latest_epoch().has_value());
  EXPECT_EQ(store.activity().quarantined, 1u);
}

// --- Kill-resume torture ----------------------------------------------------

scenario::ScenarioOptions checkpointed(const fs::path& dir) {
  scenario::ScenarioOptions options = small_options();
  options.checkpoint.directory = dir.string();
  return options;
}

TEST(Resume, KilledAfterTheCutResumesByteIdentical) {
  const fs::path dir = fresh_dir("kill-after-cut");
  scenario::ScenarioOptions killed = checkpointed(dir);
  killed.checkpoint.stop_after_epoch = 1;
  EXPECT_THROW((void)scenario::build_paper_dataset(killed),
               CheckpointInterrupted);

  const scenario::Dataset resumed =
      scenario::build_paper_dataset(checkpointed(dir));
  EXPECT_EQ(all_csv(resumed), all_csv(dataset()));
  // The durable cut covers the whole stream, so it was restored, not
  // rebuilt.
  EXPECT_EQ(resumed.checkpoint_activity.restored, 1u);
  EXPECT_EQ(resumed.checkpoint_activity.saved, 0u);
  EXPECT_EQ(resumed.fault_report.proxy_attempts,
            dataset().fault_report.proxy_attempts);
  EXPECT_EQ(resumed.enrichment.executed, dataset().enrichment.executed);
}

TEST(Resume, KilledMidWriteResumesByteIdentical) {
  const fs::path dir = fresh_dir("kill-mid-write");
  scenario::ScenarioOptions killed = checkpointed(dir);
  killed.checkpoint.short_write_epoch = 1;
  EXPECT_THROW((void)scenario::build_paper_dataset(killed),
               CheckpointInterrupted);
  EXPECT_TRUE(fs::exists(dir / (epoch_filename(0) + ".tmp")));
  EXPECT_FALSE(fs::exists(dir / epoch_filename(0)));

  // The interrupted cut only left a ".tmp" file, so the resume
  // recomputes and writes the cut properly.
  const scenario::Dataset resumed =
      scenario::build_paper_dataset(checkpointed(dir));
  EXPECT_EQ(all_csv(resumed), all_csv(dataset()));
  EXPECT_EQ(resumed.checkpoint_activity.restored, 0u);
  EXPECT_EQ(resumed.checkpoint_activity.saved, 1u);
  EXPECT_EQ(resumed.checkpoint_activity.quarantined, 0u);
}

TEST(Resume, RepeatedKillsStillConverge) {
  const fs::path dir = fresh_dir("kill-repeat");
  // Die mid-write twice, then right after the cut is durable, then
  // finish from the cut.
  for (const auto& [stop, short_write] :
       {std::pair{0, 1}, std::pair{0, 1}, std::pair{1, 0}}) {
    scenario::ScenarioOptions options = checkpointed(dir);
    options.checkpoint.stop_after_epoch = stop;
    options.checkpoint.short_write_epoch = short_write;
    EXPECT_THROW((void)scenario::build_paper_dataset(options),
                 CheckpointInterrupted);
  }
  const scenario::Dataset resumed =
      scenario::build_paper_dataset(checkpointed(dir));
  EXPECT_EQ(all_csv(resumed), all_csv(dataset()));
  EXPECT_EQ(resumed.checkpoint_activity.restored, 1u);
}

TEST(Resume, CompletedRunRestoresEverythingOnRerun) {
  const fs::path dir = fresh_dir("full-restore");
  const scenario::Dataset first =
      scenario::build_paper_dataset(checkpointed(dir));
  EXPECT_EQ(first.checkpoint_activity.saved, 1u);
  EXPECT_EQ(first.checkpoint_activity.restored, 0u);

  const scenario::Dataset second =
      scenario::build_paper_dataset(checkpointed(dir));
  EXPECT_EQ(second.checkpoint_activity.restored, 1u);
  EXPECT_EQ(second.checkpoint_activity.saved, 0u);
  EXPECT_EQ(all_csv(second), all_csv(dataset()));
  // Nothing is ever written under the retired per-stage names.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_TRUE(entry.path().filename().string().starts_with("epoch-"))
        << entry.path();
  }
}

TEST(Resume, DifferentOptionsRejectExistingCheckpoints) {
  const fs::path dir = fresh_dir("option-change");
  (void)scenario::build_paper_dataset(checkpointed(dir));

  // Same directory, different seed: nothing may be reused.
  scenario::ScenarioOptions other = checkpointed(dir);
  other.seed = 8;
  const scenario::Dataset rebuilt = scenario::build_paper_dataset(other);
  EXPECT_EQ(rebuilt.checkpoint_activity.restored, 0u);
  EXPECT_EQ(rebuilt.checkpoint_activity.stale, 1u);
  EXPECT_EQ(rebuilt.checkpoint_activity.saved, 1u);

  scenario::ScenarioOptions baseline_other = small_options();
  baseline_other.seed = 8;
  EXPECT_EQ(all_csv(rebuilt),
            all_csv(scenario::build_paper_dataset(baseline_other)));
}

TEST(Resume, QuarantinedStageFallsBackToRecompute) {
  const fs::path dir = fresh_dir("quarantine-fallback");
  (void)scenario::build_paper_dataset(checkpointed(dir));

  const fs::path path = dir / epoch_filename(0);
  flip_byte_at(path, fs::file_size(path) / 3, '\x55');

  const scenario::Dataset resumed =
      scenario::build_paper_dataset(checkpointed(dir));
  EXPECT_EQ(resumed.checkpoint_activity.quarantined, 1u);
  EXPECT_EQ(resumed.checkpoint_activity.restored, 0u);
  EXPECT_EQ(resumed.checkpoint_activity.saved, 1u);  // the cut rewritten
  EXPECT_EQ(all_csv(resumed), all_csv(dataset()));
}

TEST(Resume, CutFromAnotherBackendIsDeclinedAndRecomputed) {
  // A partition produced by one backend must never silently stand in
  // for another's. The one-shot build runs the full-recompute path,
  // which declines the foreign cut (no quarantine: the file is sound)
  // and recomputes.
  const fs::path dir = fresh_dir("backend-mismatch");
  (void)scenario::build_paper_dataset(checkpointed(dir));

  scenario::ScenarioOptions exact = checkpointed(dir);
  exact.b_backend = cluster::BackendKind::kExact;
  const scenario::Dataset rebuilt = scenario::build_paper_dataset(exact);
  EXPECT_EQ(rebuilt.checkpoint_activity.quarantined, 0u);
  EXPECT_EQ(rebuilt.checkpoint_activity.saved, 1u);
  scenario::ScenarioOptions plain_exact = small_options();
  plain_exact.b_backend = cluster::BackendKind::kExact;
  EXPECT_EQ(all_csv(rebuilt),
            all_csv(scenario::build_paper_dataset(plain_exact)));

  // The rewritten cut now carries the exact tag and resumes under it.
  const scenario::Dataset again = scenario::build_paper_dataset(exact);
  EXPECT_EQ(again.checkpoint_activity.saved, 0u);
  EXPECT_EQ(all_csv(again), all_csv(rebuilt));
}
// --- Behavioral cluster-id validation (satellite bugfix) --------------------

/// Hand-crafts the behavioral-view wire payload: rows 0..n-1 mapped to
/// the given assignment, with a consistent sample map — so the dense
/// first-member-order check is the only thing that can reject it.
std::vector<std::uint8_t> behavioral_payload(
    const std::vector<int>& assignment) {
  ByteWriter writer;
  writer.u64(assignment.size());
  for (std::uint32_t row = 0; row < assignment.size(); ++row) {
    writer.u32(row);  // row i is sample i
  }
  writer.u64(assignment.size());
  for (const int cluster : assignment) {
    writer.u32(static_cast<std::uint32_t>(cluster));
  }
  writer.u64(assignment.size());  // sample map == assignment here
  for (const int cluster : assignment) {
    writer.u32(static_cast<std::uint32_t>(cluster));
  }
  return writer.data();
}

TEST(Codec, BehavioralDenseIdsRoundTrip) {
  const std::vector<std::uint8_t> bytes = behavioral_payload({0, 0, 1, 2, 1});
  ByteReader reader{bytes};
  const analysis::BehavioralView view = read_behavioral_view(reader);
  EXPECT_EQ(view.cluster_count(), 3u);
  EXPECT_EQ(view.cluster_of_sample(4), 1);
}

TEST(Codec, BehavioralGapIdsAreRejected) {
  // Regression: a CRC-valid snapshot with a gap in the cluster ids
  // (no cluster 1) used to restore a view with an empty member list —
  // which every consumer then indexed as if populated. It must be a
  // typed ParseError instead.
  const std::vector<std::uint8_t> bytes = behavioral_payload({0, 2, 0});
  ByteReader reader{bytes};
  EXPECT_THROW((void)read_behavioral_view(reader), ParseError);
}

TEST(Codec, BehavioralOutOfOrderIdsAreRejected) {
  // First-member ordering: cluster 1 may not appear before cluster 0.
  const std::vector<std::uint8_t> bytes = behavioral_payload({1, 0});
  ByteReader reader{bytes};
  EXPECT_THROW((void)read_behavioral_view(reader), ParseError);
}

TEST(Codec, BehavioralHugeIdIsRejectedNotAllocated) {
  // Regression: the member table was sized from max(assignment), so a
  // corrupt-but-CRC-valid snapshot carrying one huge id demanded an
  // unbounded allocation before any validation ran. The dense-order
  // check must fire first.
  const std::vector<std::uint8_t> bytes =
      behavioral_payload({0, 0x7fff'fff0});
  ByteReader reader{bytes};
  EXPECT_THROW((void)read_behavioral_view(reader), ParseError);
}

// --- Backend tags on epoch cuts ---------------------------------------------

TEST(Store, BehavioralBackendTagRoundTrips) {
  const fs::path dir = fresh_dir("backend-tag");
  CheckpointStore writer{CheckpointOptions{dir.string()}, 42};
  writer.save_epoch(sample_cut());

  CheckpointStore reader{CheckpointOptions{dir.string()}, 42};
  const auto loaded = reader.load_latest_epoch();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->b_backend, cluster::BackendKind::kLsh);
  EXPECT_EQ(loaded->behavioral.cluster_count(), dataset().b.cluster_count());
  EXPECT_EQ(reader.activity().restored, 1u);
}

TEST(Store, EpochBackendTagRoundTrips) {
  const fs::path dir = fresh_dir("epoch-backend-tag");
  CheckpointStore writer{CheckpointOptions{dir.string()}, 42};
  EpochStage stage = sample_cut(2);
  stage.wal_records = 123;
  stage.b_backend = cluster::BackendKind::kKmeans;
  writer.save_epoch(stage);

  CheckpointStore reader{CheckpointOptions{dir.string()}, 42};
  const auto loaded = reader.load_latest_epoch();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 2u);
  EXPECT_EQ(loaded->wal_records, 123u);
  EXPECT_EQ(loaded->b_backend, cluster::BackendKind::kKmeans);
}

}  // namespace
}  // namespace repro::snapshot
