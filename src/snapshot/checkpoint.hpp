// Crash-safe epoch checkpoints.
//
// A CheckpointStore persists the complete pipeline state at an epoch
// boundary of the epoch loop (scenario/stream) as one snapshot file per
// cut. The container format is versioned and checksummed end to end
// (per-section CRC-32 plus a whole-file CRC trailer), writes are atomic
// (temp file, fsync, rename, directory fsync), and every snapshot
// embeds a fingerprint of the producing ScenarioOptions so cuts of a
// *different* configuration are rejected as stale instead of silently
// reused. A load never fails the caller: corrupt, truncated or stale
// files are quarantined (renamed aside) and the loop recomputes from
// an older cut or from scratch, so a run killed at any point —
// including mid-write — resumes to output byte-identical to an
// uninterrupted run.
//
// File layout (all little-endian, via util/byteio):
//   [magic u32][format version u32][kind u8 = 5][fingerprint u64]
//   [section count u32]
//   per section: [name len u32][name][payload len u64][payload]
//                [payload crc32 u32]
//   [file crc32 u32]  — over everything before it
//   [end magic u32]
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/bview.hpp"
#include "cluster/behavioral.hpp"
#include "cluster/epm.hpp"
#include "fault/injector.hpp"
#include "honeypot/database.hpp"
#include "honeypot/enrichment.hpp"

namespace repro::snapshot {

inline constexpr std::uint32_t kSnapshotMagic = 0x53'47'4e'53;  // "SNGS"
inline constexpr std::uint32_t kSnapshotEndMagic = 0x44'4e'45'53;  // "SEND"
// Version 2: FaultReport gained the four checked-decision counters.
// Version 3: FaultReport gained the five ingest-delivery counters and
// the epoch cut was added for the streaming ingest loop.
// Version 4: the epoch cut gained the incremental-clustering state
// sections (per-dimension EPM counting blobs + the MinHash signature
// store).
// Version 5: the epoch meta stamps the producing cluster backend, so a
// partition computed by one backend can never silently seed another.
// Older files are quarantined as unreadable and their epochs
// recomputed — the normal graceful-degradation path, not an error.
inline constexpr std::uint32_t kSnapshotVersion = 5;

/// Snapshot file name for an epoch cut, e.g. "epoch-0003.snap".
[[nodiscard]] std::string epoch_filename(std::uint64_t epoch);

/// One named payload inside a snapshot file. Borrows its name and
/// payload: a cut is written without copying its state into the
/// container first, and decoded without copying sections out of the
/// file buffer.
struct SectionView {
  std::string_view name;
  std::span<const std::uint8_t> payload;
  /// When non-empty, the payload is these ranges in order and `payload`
  /// is ignored: a section gathered from many owners is written without
  /// first being copied into one buffer. Decoding never sets it.
  std::span<const std::span<const std::uint8_t>> pieces = {};
};

/// Serializes sections into the container format described above —
/// byte for byte what CheckpointStore::save_epoch streams to disk.
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    std::uint64_t fingerprint, std::span<const SectionView> sections);

/// Parsed container header + sections; the sections point into the
/// decoded bytes, which must outlive them.
struct DecodedSnapshot {
  std::uint64_t fingerprint = 0;
  std::vector<SectionView> sections;
};

/// Validates magic, version, kind, section structure and every CRC.
/// Throws ParseError on any deviation — a truncated file or a single
/// flipped bit never decodes. The result borrows from `bytes`.
[[nodiscard]] DecodedSnapshot decode_snapshot(
    std::span<const std::uint8_t> bytes);

/// First unused quarantine name for `path`: "<path>.quarantined", then
/// "<path>.quarantined-2", "-3", ... — so repeated corruptions of the
/// same file keep every piece of quarantined evidence instead of
/// overwriting the previous one. Shared with the ingest WAL.
[[nodiscard]] std::string unique_quarantine_path(const std::string& path);

/// Thrown by the test seams below to simulate the process dying.
class CheckpointInterrupted : public std::runtime_error {
 public:
  explicit CheckpointInterrupted(const std::string& what)
      : std::runtime_error(what) {}
};

struct CheckpointOptions {
  /// Directory the snapshots live in; empty disables checkpointing.
  /// Created on first use.
  std::string directory;
  /// Test seam: throw CheckpointInterrupted right after the cut of this
  /// 1-based epoch ordinal (epoch index + 1) is durable (0 = never).
  /// Simulates a crash between epochs.
  int stop_after_epoch = 0;
  /// Test seam: abandon the temp file halfway through writing the cut
  /// of this epoch ordinal and throw CheckpointInterrupted (0 = never).
  /// Simulates a crash mid-write; the partial ".tmp" must never be
  /// mistaken for a snapshot on resume.
  int short_write_epoch = 0;
};

/// Post-enrichment state carried by an epoch cut. The fault report must
/// travel with the database: on resume the injector is never
/// re-exercised for the covered records, so the counters can only come
/// from the cut.
struct DatabaseStage {
  honeypot::EventDatabase db;
  honeypot::EnrichmentStats enrichment;
  fault::FaultReport fault_report;
};

/// The three EPM clustering results of an epoch cut.
struct EpmStage {
  cluster::EpmResult e;
  cluster::EpmResult p;
  cluster::EpmResult m;
};

/// One epoch cut: the complete pipeline state after the first
/// `wal_records` records of the event stream were ingested and
/// clustered. `wal_records` — not the epoch index — is what resume keys
/// on, so a cut stays usable even if the run is restarted with a
/// different `--epochs` split.
struct EpochStage {
  std::uint64_t epoch = 0;        // 0-based epoch index that was cut
  std::uint64_t wal_records = 0;  // records covered by this state
  /// Backend that produced `behavioral`. The scenario fingerprint
  /// deliberately excludes the backend (everything else in a cut is
  /// backend-independent), so this tag is what stops a resume from
  /// seeding one backend with another's partition.
  cluster::BackendKind b_backend = cluster::BackendKind::kLsh;
  DatabaseStage database;
  EpmStage epm;
  analysis::BehavioralView behavioral;
  /// Opaque ingest stream totals (ingest::encode_stream_totals).
  std::vector<std::uint8_t> ingest_blob;
  /// Opaque incremental-clustering state: per-dimension EPM counting
  /// blobs (cluster::IncrementalEpm::encode_counts) and the MinHash
  /// signature store (cluster::encode_signature_store). Empty when the
  /// cut was written by the full-recompute path — the engines then
  /// re-derive the state from the restored rows.
  std::vector<std::uint8_t> e_counts;
  std::vector<std::uint8_t> p_counts;
  std::vector<std::uint8_t> m_counts;
  std::vector<std::uint8_t> signature_blob;
};

class CheckpointStore {
 public:
  /// `fingerprint` identifies the producing configuration; snapshots
  /// carrying a different fingerprint are quarantined as stale.
  CheckpointStore(CheckpointOptions options, std::uint64_t fingerprint);

  [[nodiscard]] bool enabled() const noexcept {
    return !options_.directory.empty();
  }

  /// Durably writes one epoch cut to its own "epoch-NNNN.snap" file,
  /// streaming the container straight from the encoded sections (no
  /// file-sized staging buffer). No-op when disabled.
  void save_epoch(const EpochStage& stage);
  /// Newest valid epoch cut, scanning epoch files in descending index
  /// order; corrupt/stale files are quarantined and skipped. `accept`,
  /// when set, decodes a candidate cut's opaque blobs (the loader cannot
  /// read them itself) inside the same guard as the container checks:
  /// a cut it throws ParseError or ConfigError on is quarantined like a
  /// CRC failure and the next older cut is tried.
  [[nodiscard]] std::optional<EpochStage> load_latest_epoch(
      const std::function<void(const EpochStage&)>& accept = {});

  /// What the store did this run — lets callers (and tests) see whether
  /// a cut was restored, and whether files were thrown out.
  struct Activity {
    std::size_t saved = 0;          // snapshots durably written
    std::size_t restored = 0;       // cuts loaded from disk
    std::size_t quarantined = 0;    // corrupt/truncated files set aside
    std::size_t stale = 0;          // of quarantined: fingerprint mismatch
    std::size_t bytes_written = 0;  // encoded snapshot bytes persisted
  };
  [[nodiscard]] const Activity& activity() const noexcept {
    return activity_;
  }

 private:
  void quarantine(const std::string& path, bool stale);

  CheckpointOptions options_;
  std::uint64_t fingerprint_ = 0;
  Activity activity_;
};

}  // namespace repro::snapshot
