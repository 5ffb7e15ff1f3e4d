#include "honeypot/download.hpp"

namespace repro::honeypot {

std::optional<std::size_t> draw_truncation(std::size_t size,
                                           const DownloadOptions& options,
                                           Rng& rng) {
  // A binary no larger than the minimum kept prefix cannot be cut
  // short: truncation would either keep every byte (a full transfer
  // mislabeled `truncated`) or keep more bytes than exist.
  if (size > options.min_kept_bytes &&
      rng.chance(options.truncation_probability)) {
    return options.min_kept_bytes + rng.index(size - options.min_kept_bytes);
  }
  return std::nullopt;
}

}  // namespace repro::honeypot
