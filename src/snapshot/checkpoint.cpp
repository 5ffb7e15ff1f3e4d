#include "snapshot/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "cluster/backend.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/crc32.hpp"
#include "util/byteio.hpp"
#include "util/error.hpp"

namespace repro::snapshot {

namespace {

namespace fs = std::filesystem;

/// Header byte naming the snapshot's content. Epoch cuts are the only
/// kind; the byte keeps the format of files written while per-stage
/// snapshots (kinds 1-4) still existed.
constexpr std::uint8_t kEpochCutKind = 5;

[[noreturn]] void throw_io(const std::string& action, const std::string& path) {
  throw IoError("checkpoint: cannot " + action + " " + path + ": " +
                std::strerror(errno));
}

/// A section's payload as consecutive ranges.
std::span<const std::span<const std::uint8_t>> payload_pieces(
    const SectionView& section) {
  if (!section.pieces.empty()) return section.pieces;
  return {&section.payload, 1};
}

std::uint64_t payload_size(const SectionView& section) {
  std::uint64_t size = 0;
  for (const auto piece : payload_pieces(section)) size += piece.size();
  return size;
}

/// Emits the container for `sections` through `put` in file order; the
/// section and trailer CRCs are computed incrementally, so no
/// contiguous copy of the file ever exists.
template <typename Put>
void emit_snapshot(std::uint64_t fingerprint,
                   std::span<const SectionView> sections, Put&& put) {
  std::uint32_t file_crc = 0;
  const auto emit = [&](std::span<const std::uint8_t> bytes) {
    file_crc = crc32(bytes, file_crc);
    put(bytes);
  };
  ByteWriter header;
  header.u32(kSnapshotMagic);
  header.u32(kSnapshotVersion);
  header.u8(kEpochCutKind);
  header.u64(fingerprint);
  header.u32(static_cast<std::uint32_t>(sections.size()));
  emit(header.data());
  for (const SectionView& section : sections) {
    ByteWriter head;
    head.u32(static_cast<std::uint32_t>(section.name.size()));
    head.text(section.name);
    head.u64(payload_size(section));
    emit(head.data());
    std::uint32_t payload_crc = 0;
    for (const auto piece : payload_pieces(section)) {
      payload_crc = crc32(piece, payload_crc);
      emit(piece);
    }
    ByteWriter tail;
    tail.u32(payload_crc);
    emit(tail.data());
  }
  ByteWriter trailer;
  trailer.u32(file_crc);
  trailer.u32(kSnapshotEndMagic);
  put(trailer.data());
}

/// Encoded size of the container for `sections`.
std::uint64_t snapshot_size(std::span<const SectionView> sections) {
  std::uint64_t size = 4 + 4 + 1 + 8 + 4 + 4 + 4;  // header + trailer
  for (const SectionView& section : sections) {
    size += 4 + section.name.size() + 8 + payload_size(section) + 4;
  }
  return size;
}

/// Writes the container for `sections` to `path` atomically and
/// durably: the bytes stream into "<path>.tmp", which is fsynced,
/// renamed over `path`, and the parent directory is fsynced so the
/// rename itself survives a crash. A partial write therefore only ever
/// leaves a ".tmp" file behind — never a half-written snapshot under
/// the final name. `short_write` stops after half the bytes and reports
/// false without renaming (the mid-write crash seam).
bool atomic_write(const std::string& path, std::uint64_t fingerprint,
                  std::span<const SectionView> sections, bool short_write) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io("open", tmp);
  const std::uint64_t size = snapshot_size(sections);
  std::uint64_t budget = short_write ? size / 2 : size;
  emit_snapshot(fingerprint, sections,
                [&](std::span<const std::uint8_t> bytes) {
                  const std::size_t count = static_cast<std::size_t>(
                      std::min<std::uint64_t>(bytes.size(), budget));
                  budget -= count;
                  std::size_t written = 0;
                  while (written < count) {
                    const ::ssize_t n = ::write(fd, bytes.data() + written,
                                                count - written);
                    if (n < 0) {
                      if (errno == EINTR) continue;
                      ::close(fd);
                      throw_io("write", tmp);
                    }
                    written += static_cast<std::size_t>(n);
                  }
                });
  if (short_write) {
    ::close(fd);  // deliberately no fsync, no rename: simulated crash
    return false;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_io("fsync", tmp);
  }
  if (::close(fd) != 0) throw_io("close", tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) throw_io("rename", tmp);
  const fs::path dir = fs::path{path}.parent_path();
  const int dir_fd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) throw_io("open directory", dir.string());
  if (::fsync(dir_fd) != 0) {
    ::close(dir_fd);
    throw_io("fsync directory", dir.string());
  }
  ::close(dir_fd);
  return true;
}

/// Reads a whole file into one exactly-sized buffer (growing a buffer
/// byte by byte would transiently hold up to twice the file).
std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in) throw ParseError("checkpoint: cannot read " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) throw ParseError("checkpoint: cannot size " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  if (!in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(size))) {
    throw ParseError("checkpoint: cannot read " + path);
  }
  return bytes;
}

std::span<const std::uint8_t> find_section(
    const std::vector<SectionView>& sections, std::string_view name) {
  for (const SectionView& section : sections) {
    if (section.name == name) return section.payload;
  }
  throw ParseError("checkpoint: missing section '" + std::string{name} + "'");
}

/// An opaque section's payload as an owned blob.
std::vector<std::uint8_t> section_blob(const std::vector<SectionView>& sections,
                                       std::string_view name) {
  const std::span<const std::uint8_t> payload = find_section(sections, name);
  return {payload.begin(), payload.end()};
}

/// Runs one codec decoder over a section and requires it to consume the
/// payload exactly.
template <typename Fn>
auto decode_section(const std::vector<SectionView>& sections,
                    std::string_view name, Fn&& decode) {
  ByteReader reader{find_section(sections, name)};
  auto value = decode(reader);
  if (reader.remaining() != 0) {
    throw ParseError("checkpoint: section '" + std::string{name} + "' has " +
                     std::to_string(reader.remaining()) + " trailing bytes");
  }
  return value;
}

}  // namespace

std::string epoch_filename(std::uint64_t epoch) {
  std::string digits = std::to_string(epoch);
  if (digits.size() < 4) digits.insert(0, 4 - digits.size(), '0');
  return "epoch-" + digits + ".snap";
}

std::vector<std::uint8_t> encode_snapshot(
    std::uint64_t fingerprint, std::span<const SectionView> sections) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(static_cast<std::size_t>(snapshot_size(sections)));
  emit_snapshot(fingerprint, sections,
                [&](std::span<const std::uint8_t> chunk) {
                  bytes.insert(bytes.end(), chunk.begin(), chunk.end());
                });
  return bytes;
}

DecodedSnapshot decode_snapshot(std::span<const std::uint8_t> bytes) {
  // The trailer protects everything before it; verify it first so any
  // single flipped bit anywhere in the file is caught regardless of
  // whether it would also break structural parsing.
  if (bytes.size() < 8) {
    throw ParseError("snapshot: file too short for trailer");
  }
  {
    ByteReader trailer{bytes.subspan(bytes.size() - 8)};
    const std::uint32_t stored_crc = trailer.u32();
    const std::uint32_t end_magic = trailer.u32();
    if (end_magic != kSnapshotEndMagic) {
      throw ParseError("snapshot: missing end marker (truncated file?)");
    }
    if (crc32(bytes.first(bytes.size() - 8)) != stored_crc) {
      throw ParseError("snapshot: file checksum mismatch");
    }
  }

  ByteReader reader{bytes.first(bytes.size() - 8)};
  if (reader.u32() != kSnapshotMagic) {
    throw ParseError("snapshot: bad magic");
  }
  const std::uint32_t version = reader.u32();
  if (version != kSnapshotVersion) {
    throw ParseError("snapshot: unsupported format version " +
                     std::to_string(version));
  }
  const std::uint8_t kind = reader.u8();
  if (kind != kEpochCutKind) {
    throw ParseError("snapshot: unknown snapshot kind " +
                     std::to_string(kind));
  }
  DecodedSnapshot decoded;
  decoded.fingerprint = reader.u64();
  const std::uint32_t section_count = reader.u32();
  if (section_count > reader.remaining() / 16) {
    throw ParseError("snapshot: implausible section count " +
                     std::to_string(section_count));
  }
  decoded.sections.reserve(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    SectionView section;
    const std::uint32_t name_length = reader.u32();
    const std::size_t name_offset = reader.offset();
    reader.skip(name_length);
    section.name = std::string_view{
        reinterpret_cast<const char*>(bytes.data() + name_offset),
        name_length};
    const std::uint64_t payload_length = reader.u64();
    if (payload_length > reader.remaining()) {
      throw ParseError("snapshot: section '" + std::string{section.name} +
                       "' length exceeds file size");
    }
    section.payload = bytes.subspan(reader.offset(),
                                    static_cast<std::size_t>(payload_length));
    reader.skip(section.payload.size());
    const std::uint32_t stored_crc = reader.u32();
    if (crc32(section.payload) != stored_crc) {
      throw ParseError("snapshot: section '" + std::string{section.name} +
                       "' checksum mismatch");
    }
    decoded.sections.push_back(section);
  }
  if (reader.remaining() != 0) {
    throw ParseError("snapshot: " + std::to_string(reader.remaining()) +
                     " trailing bytes after last section");
  }
  return decoded;
}

CheckpointStore::CheckpointStore(CheckpointOptions options,
                                 std::uint64_t fingerprint)
    : options_(std::move(options)), fingerprint_(fingerprint) {
  if (enabled()) fs::create_directories(options_.directory);
}

std::string unique_quarantine_path(const std::string& path) {
  std::string candidate = path + ".quarantined";
  std::error_code ec;
  for (std::uint64_t n = 2; fs::exists(candidate, ec); ++n) {
    candidate = path + ".quarantined-" + std::to_string(n);
  }
  return candidate;
}

void CheckpointStore::quarantine(const std::string& path, bool stale) {
  std::error_code ec;
  // Best-effort evidence move, not a durability publish: resume
  // correctness only requires that the bad checkpoint stop matching the
  // live naming scheme, which the rename achieves even if it is lost in
  // a crash (the next scan simply re-quarantines).
  // repro-lint: allow(RL010) quarantine rename is not a durability publish
  fs::rename(path, unique_quarantine_path(path), ec);
  if (ec) fs::remove(path, ec);  // last resort: never resume from it
  ++activity_.quarantined;
  if (stale) ++activity_.stale;
}

void CheckpointStore::save_epoch(const EpochStage& stage) {
  if (!enabled()) return;
  ByteWriter meta_writer;
  meta_writer.u64(stage.epoch);
  meta_writer.u64(stage.wal_records);
  meta_writer.u8(static_cast<std::uint8_t>(stage.b_backend));
  // The database is nearly the whole cut, and nearly all of it is
  // sample contents: those stream from the samples themselves, so the
  // cut never holds a second copy of them.
  ByteWriter db_fields;
  const std::vector<std::span<const std::uint8_t>> db_pieces =
      database_pieces(db_fields, stage.database.db);
  ByteWriter stats_writer;
  write_enrichment_stats(stats_writer, stage.database.enrichment);
  ByteWriter fault_writer;
  write_fault_report(fault_writer, stage.database.fault_report);
  ByteWriter e_writer;
  write_epm_result(e_writer, stage.epm.e);
  ByteWriter p_writer;
  write_epm_result(p_writer, stage.epm.p);
  ByteWriter m_writer;
  write_epm_result(m_writer, stage.epm.m);
  ByteWriter b_writer;
  write_behavioral_view(b_writer, stage.behavioral);
  const SectionView sections[] = {
      {"epoch-meta", meta_writer.data()},
      {"database", {}, db_pieces},
      {"enrichment", stats_writer.data()},
      {"fault-report", fault_writer.data()},
      {"epsilon", e_writer.data()},
      {"pi", p_writer.data()},
      {"mu", m_writer.data()},
      {"behavioral", b_writer.data()},
      {"ingest", stage.ingest_blob},
      {"epsilon-counts", stage.e_counts},
      {"pi-counts", stage.p_counts},
      {"mu-counts", stage.m_counts},
      {"signatures", stage.signature_blob}};
  const int ordinal = static_cast<int>(stage.epoch) + 1;
  const std::string path =
      (fs::path{options_.directory} / epoch_filename(stage.epoch)).string();
  if (!atomic_write(path, fingerprint_, sections,
                    options_.short_write_epoch == ordinal)) {
    throw CheckpointInterrupted("simulated crash mid-write of epoch " +
                                std::to_string(stage.epoch));
  }
  ++activity_.saved;
  activity_.bytes_written += static_cast<std::size_t>(snapshot_size(sections));
  if (options_.stop_after_epoch == ordinal) {
    throw CheckpointInterrupted("simulated crash after epoch " +
                                std::to_string(stage.epoch));
  }
}

std::optional<EpochStage> CheckpointStore::load_latest_epoch(
    const std::function<void(const EpochStage&)>& accept) {
  if (!enabled()) return std::nullopt;
  // Collect every "epoch-NNNN.snap" present, newest first.
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(options_.directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("epoch-") || !name.ends_with(".snap")) continue;
    const std::string digits =
        name.substr(6, name.size() - 6 - std::string_view{".snap"}.size());
    if (digits.empty() || digits.size() > 19) continue;
    std::uint64_t index = 0;
    bool numeric = true;
    for (const char c : digits) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      index = index * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (!numeric) continue;
    candidates.emplace_back(index, entry.path().string());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  for (const auto& [index, path] : candidates) {
    try {
      const std::vector<std::uint8_t> bytes = read_file(path);
      const DecodedSnapshot decoded = decode_snapshot(bytes);
      if (decoded.fingerprint != fingerprint_) {
        quarantine(path, /*stale=*/true);
        continue;
      }
      EpochStage stage;
      decode_section(decoded.sections, "epoch-meta", [&](ByteReader& reader) {
        stage.epoch = reader.u64();
        stage.wal_records = reader.u64();
        stage.b_backend = cluster::backend_kind_from_tag(reader.u8());
        return 0;
      });
      if (stage.epoch != index) {
        throw ParseError("snapshot: epoch file " + path +
                         " holds epoch " + std::to_string(stage.epoch));
      }
      stage.database.db =
          decode_section(decoded.sections, "database", read_database);
      stage.database.enrichment = decode_section(decoded.sections, "enrichment",
                                                 read_enrichment_stats);
      stage.database.fault_report = decode_section(
          decoded.sections, "fault-report", read_fault_report);
      stage.epm.e = decode_section(decoded.sections, "epsilon", read_epm_result);
      stage.epm.p = decode_section(decoded.sections, "pi", read_epm_result);
      stage.epm.m = decode_section(decoded.sections, "mu", read_epm_result);
      stage.behavioral =
          decode_section(decoded.sections, "behavioral", read_behavioral_view);
      stage.ingest_blob = section_blob(decoded.sections, "ingest");
      stage.e_counts = section_blob(decoded.sections, "epsilon-counts");
      stage.p_counts = section_blob(decoded.sections, "pi-counts");
      stage.m_counts = section_blob(decoded.sections, "mu-counts");
      stage.signature_blob = section_blob(decoded.sections, "signatures");
      stage.database.db.check_consistency();
      if (accept) accept(stage);
      ++activity_.restored;
      return stage;
    } catch (const ParseError&) {
    } catch (const ConfigError&) {
    }
    quarantine(path, /*stale=*/false);
  }
  return std::nullopt;
}

}  // namespace repro::snapshot
