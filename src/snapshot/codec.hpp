// Binary codecs for the state an epoch cut carries.
//
// Every structure a checkpoint persists (event database with
// enrichment, EPM results, behavioral view, fault accounting) — and
// the single attack events of the ingest WAL — serializes to the
// little-endian ByteWriter format and restores from a bounds-checked
// ByteReader.
// Decoders validate enum ranges, optional flags and cross-references
// and throw ParseError on anything malformed — never UB, never a
// logic_error — so a corrupted snapshot that slipped past the container
// CRCs still fails safely. Round-trip is exact: encode(decode(bytes))
// reproduces `bytes`, which is what makes checkpoint resume
// byte-deterministic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/bview.hpp"
#include "cluster/epm.hpp"
#include "fault/injector.hpp"
#include "honeypot/database.hpp"
#include "honeypot/enrichment.hpp"
#include "util/byteio.hpp"

namespace repro::snapshot {

// --- Observed dataset -------------------------------------------------------

void write_database(ByteWriter& writer, const honeypot::EventDatabase& db);
[[nodiscard]] honeypot::EventDatabase read_database(ByteReader& reader);
/// The database's encoding as consecutive ranges, so it can be written
/// out without assembling a copy of it (write_database appends them):
/// every field is encoded into `fields`, and each sample's content is
/// referenced where it lies. The ranges borrow `fields` and `db`;
/// neither may change while they are in use.
[[nodiscard]] std::vector<std::span<const std::uint8_t>> database_pieces(
    ByteWriter& fields, const honeypot::EventDatabase& db);

void write_enrichment_stats(ByteWriter& writer,
                            const honeypot::EnrichmentStats& stats);
[[nodiscard]] honeypot::EnrichmentStats read_enrichment_stats(
    ByteReader& reader);

void write_fault_report(ByteWriter& writer, const fault::FaultReport& report);
[[nodiscard]] fault::FaultReport read_fault_report(ByteReader& reader);

/// Single-event codec, used by the ingest WAL's record format (the
/// database codec above serializes whole databases).
void write_attack_event(ByteWriter& writer, const honeypot::AttackEvent& event);
[[nodiscard]] honeypot::AttackEvent read_attack_event(ByteReader& reader);

// --- Clustering results -----------------------------------------------------

void write_epm_result(ByteWriter& writer, const cluster::EpmResult& result);
[[nodiscard]] cluster::EpmResult read_epm_result(ByteReader& reader);

void write_behavioral_view(ByteWriter& writer,
                           const analysis::BehavioralView& view);
[[nodiscard]] analysis::BehavioralView read_behavioral_view(
    ByteReader& reader);

}  // namespace repro::snapshot
