// PE32 image builder.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pe/image.hpp"

namespace repro::pe {

/// Serializes a PeTemplate into a well-formed PE32 byte image: DOS
/// header + stub, COFF header, optional header with data directories,
/// section table, file-aligned section data and import tables.
///
/// Throws ConfigError on inconsistent templates (no sections, more than
/// one import-holding section, unreachable target_file_size, ...).
[[nodiscard]] std::vector<std::uint8_t> build_pe(const PeTemplate& tmpl);

/// Size in bytes that build_pe would produce for the template with
/// target_file_size cleared — useful for choosing reachable targets.
/// Computed from the layout alone; no image is built.
[[nodiscard]] std::uint32_t natural_size(const PeTemplate& tmpl);

}  // namespace repro::pe
