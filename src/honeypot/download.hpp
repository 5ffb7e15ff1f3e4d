// Download emulation and the Nepenthes failure model.
//
// Once the shellcode's intent is known, SGNET's Nepenthes modules
// emulate the network action and fetch the binary. The paper notes that
// "due to failures in Nepenthes download modules, some of the collected
// samples are truncated or corrupted" and consequently cannot be
// analyzed dynamically (6353 collected vs 5165 executable). The
// truncation model reproduces that: with a configurable probability the
// transfer stops early and only a prefix of the binary is stored.
#pragma once

#include <cstddef>
#include <optional>

#include "util/rng.hpp"

namespace repro::honeypot {

struct DownloadOptions {
  /// Probability that a transfer fails mid-way.
  double truncation_probability = 0.18;
  /// A truncated transfer keeps at least this many bytes; binaries no
  /// larger than this are never truncated (a cut below the minimum is
  /// impossible, a cut at full size is not a truncation).
  std::size_t min_kept_bytes = 256;
};

/// Draws whether fetching a binary of `size` bytes is cut short, per the
/// failure model: the length of the prefix kept, or nullopt when the
/// transfer completes. Needs only the size, so the draw can be made
/// before (and apart from) building the bytes.
[[nodiscard]] std::optional<std::size_t> draw_truncation(
    std::size_t size, const DownloadOptions& options, Rng& rng);

}  // namespace repro::honeypot
