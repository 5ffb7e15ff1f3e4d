#include "pe/builder.hpp"

#include <algorithm>

#include "util/byteio.hpp"
#include "util/error.hpp"

namespace repro::pe {

namespace {

constexpr std::uint32_t kDosHeaderSize = 64;
constexpr std::uint32_t kDosStubSize = 64;
constexpr std::uint32_t kPeHeaderOffset = kDosHeaderSize + kDosStubSize;  // 128
constexpr std::uint32_t kCoffHeaderSize = 20;
constexpr std::uint32_t kOptionalHeaderSize = 224;  // PE32 with 16 directories
constexpr std::uint32_t kSectionHeaderSize = 40;

constexpr std::uint32_t align_up(std::uint32_t value,
                                 std::uint32_t alignment) noexcept {
  return (value + alignment - 1) / alignment * alignment;
}

/// Serialized import tables for one section, positioned at `base_rva`.
struct ImportBlob {
  std::vector<std::uint8_t> bytes;
  std::uint32_t directory_rva = 0;
  std::uint32_t directory_size = 0;
};

ImportBlob build_imports(const std::vector<ImportSpec>& imports,
                         std::uint32_t base_rva) {
  ImportBlob blob;
  if (imports.empty()) return blob;

  // Layout: descriptor array (n + 1 terminator), then per-DLL
  // ILT + IAT (u32 thunks, NUL-terminated), then hint/name entries and
  // DLL name strings.
  const std::uint32_t descriptor_bytes =
      static_cast<std::uint32_t>((imports.size() + 1) * 20);

  std::uint32_t thunk_cursor = descriptor_bytes;
  std::vector<std::uint32_t> ilt_rva(imports.size());
  std::vector<std::uint32_t> iat_rva(imports.size());
  for (std::size_t i = 0; i < imports.size(); ++i) {
    const auto thunks =
        static_cast<std::uint32_t>((imports[i].symbols.size() + 1) * 4);
    ilt_rva[i] = base_rva + thunk_cursor;
    thunk_cursor += thunks;
    iat_rva[i] = base_rva + thunk_cursor;
    thunk_cursor += thunks;
  }

  // Hint/name table and DLL name strings.
  std::uint32_t string_cursor = thunk_cursor;
  std::vector<std::vector<std::uint32_t>> name_rva(imports.size());
  std::vector<std::uint32_t> dll_name_rva(imports.size());
  for (std::size_t i = 0; i < imports.size(); ++i) {
    for (const auto& symbol : imports[i].symbols) {
      name_rva[i].push_back(base_rva + string_cursor);
      // 2-byte hint + name + NUL, 2-aligned.
      std::uint32_t entry = 2 + static_cast<std::uint32_t>(symbol.size()) + 1;
      entry = align_up(entry, 2);
      string_cursor += entry;
    }
    dll_name_rva[i] = base_rva + string_cursor;
    string_cursor +=
        align_up(static_cast<std::uint32_t>(imports[i].dll.size()) + 1, 2);
  }

  ByteWriter w;
  // Descriptor array.
  for (std::size_t i = 0; i < imports.size(); ++i) {
    w.u32(ilt_rva[i]);      // OriginalFirstThunk
    w.u32(0);               // TimeDateStamp
    w.u32(0);               // ForwarderChain
    w.u32(dll_name_rva[i]); // Name
    w.u32(iat_rva[i]);      // FirstThunk
  }
  w.zeros(20);  // terminator descriptor

  // ILT + IAT per DLL.
  for (std::size_t i = 0; i < imports.size(); ++i) {
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::uint32_t rva : name_rva[i]) w.u32(rva);
      w.u32(0);
    }
  }

  // Hint/name entries and DLL names.
  for (std::size_t i = 0; i < imports.size(); ++i) {
    for (const auto& symbol : imports[i].symbols) {
      const std::size_t before = w.size();
      w.u16(0);  // hint
      w.text(symbol);
      w.u8(0);
      if ((w.size() - before) % 2 != 0) w.u8(0);
    }
    const std::size_t before = w.size();
    w.text(imports[i].dll);
    w.u8(0);
    if ((w.size() - before) % 2 != 0) w.u8(0);
  }

  blob.bytes = w.take();
  blob.directory_rva = base_rva;
  blob.directory_size = descriptor_bytes;
  return blob;
}

/// Size of the tables build_imports serializes, without building them.
std::uint32_t import_tables_size(const std::vector<ImportSpec>& imports) {
  if (imports.empty()) return 0;
  auto size = static_cast<std::uint32_t>((imports.size() + 1) * 20);
  for (const ImportSpec& spec : imports) {
    size += static_cast<std::uint32_t>((spec.symbols.size() + 1) * 4 * 2);
    for (const auto& symbol : spec.symbols) {
      size += align_up(2 + static_cast<std::uint32_t>(symbol.size()) + 1, 2);
    }
    size += align_up(static_cast<std::uint32_t>(spec.dll.size()) + 1, 2);
  }
  return size;
}

void validate(const PeTemplate& tmpl) {
  if (tmpl.sections.empty()) {
    throw ConfigError("build_pe: template needs at least one section");
  }
  std::size_t import_holders = 0;
  for (const auto& section : tmpl.sections) {
    import_holders += section.holds_imports ? 1 : 0;
  }
  if (!tmpl.imports.empty() && import_holders != 1) {
    throw ConfigError(
        "build_pe: exactly one section must hold imports when imports are "
        "declared");
  }
}

/// File offset of the first section's raw data.
std::uint32_t headers_size_for(std::uint32_t nsections) {
  return align_up(kPeHeaderOffset + 4 + kCoffHeaderSize + kOptionalHeaderSize +
                      nsections * kSectionHeaderSize,
                  kFileAlignment);
}

}  // namespace

std::vector<std::uint8_t> build_pe(const PeTemplate& tmpl) {
  validate(tmpl);
  const auto nsections = static_cast<std::uint32_t>(tmpl.sections.size());
  const std::uint32_t headers_size = headers_size_for(nsections);

  // Lay out sections: virtual addresses are section-aligned and raw data
  // is file-aligned, both assigned consecutively.
  struct Layout {
    std::uint32_t virtual_address = 0;
    std::uint32_t virtual_size = 0;
    std::uint32_t raw_offset = 0;
    std::uint32_t raw_size = 0;
    std::vector<std::uint8_t> raw;
  };
  std::vector<Layout> layouts(tmpl.sections.size());

  std::uint32_t rva_cursor = kSectionAlignment;
  std::uint32_t raw_cursor = headers_size;
  std::uint32_t import_dir_rva = 0;
  std::uint32_t import_dir_size = 0;
  std::uint32_t iat_rva = 0;
  std::uint32_t iat_size = 0;

  for (std::size_t i = 0; i < tmpl.sections.size(); ++i) {
    const SectionSpec& spec = tmpl.sections[i];
    Layout& layout = layouts[i];
    layout.raw = spec.content;
    if (spec.holds_imports && !tmpl.imports.empty()) {
      const std::uint32_t imports_rva =
          rva_cursor + static_cast<std::uint32_t>(layout.raw.size());
      ImportBlob blob = build_imports(tmpl.imports, imports_rva);
      import_dir_rva = blob.directory_rva;
      import_dir_size = blob.directory_size;
      // The IAT directory is not strictly needed by our parser; expose
      // the combined thunk area for realism.
      iat_rva = imports_rva;
      iat_size = static_cast<std::uint32_t>(blob.bytes.size());
      layout.raw.insert(layout.raw.end(), blob.bytes.begin(), blob.bytes.end());
    }
    if (i + 1 == tmpl.sections.size() && tmpl.target_file_size.has_value()) {
      // Pad the image to the requested total size through the last
      // section's raw data.
      const std::uint32_t unpadded =
          raw_cursor +
          align_up(static_cast<std::uint32_t>(layout.raw.size()),
                   kFileAlignment);
      const std::uint32_t target = *tmpl.target_file_size;
      if (target < unpadded || target % kFileAlignment != 0) {
        throw ConfigError(
            "build_pe: target_file_size " + std::to_string(target) +
            " unreachable (unpadded size " + std::to_string(unpadded) +
            ", alignment " + std::to_string(kFileAlignment) + ")");
      }
      layout.raw.resize(layout.raw.size() + (target - unpadded), 0);
    }
    layout.virtual_address = rva_cursor;
    layout.virtual_size = static_cast<std::uint32_t>(layout.raw.size());
    layout.raw_offset = raw_cursor;
    layout.raw_size = align_up(layout.virtual_size, kFileAlignment);
    rva_cursor += align_up(std::max(layout.virtual_size, 1u), kSectionAlignment);
    raw_cursor += layout.raw_size;
  }
  const std::uint32_t size_of_image = rva_cursor;

  std::uint32_t size_of_code = 0;
  std::uint32_t size_of_data = 0;
  for (std::size_t i = 0; i < tmpl.sections.size(); ++i) {
    if (tmpl.sections[i].characteristics & kSectionCode) {
      size_of_code += layouts[i].raw_size;
    } else {
      size_of_data += layouts[i].raw_size;
    }
  }

  // Entry point: start of the first executable section, else first section.
  std::uint32_t entry_point = layouts[0].virtual_address;
  std::uint32_t base_of_code = layouts[0].virtual_address;
  for (std::size_t i = 0; i < tmpl.sections.size(); ++i) {
    if (tmpl.sections[i].characteristics & kSectionExecute) {
      entry_point = layouts[i].virtual_address;
      base_of_code = layouts[i].virtual_address;
      break;
    }
  }

  ByteWriter w;
  // --- DOS header ---
  w.text("MZ");
  w.u16(0x0090);  // bytes on last page
  w.u16(0x0003);  // pages
  w.zeros(54);    // remaining legacy fields up to e_lfanew at 0x3c
  w.u32(kPeHeaderOffset);  // e_lfanew at offset 0x3c
  // --- DOS stub ---
  w.fixed_text("This program cannot be run in DOS mode.\r\n$", kDosStubSize);

  // --- PE signature + COFF header ---
  w.text("PE");
  w.u8(0);
  w.u8(0);
  w.u16(tmpl.machine);
  w.u16(static_cast<std::uint16_t>(nsections));
  w.u32(tmpl.timestamp);
  w.u32(0);  // PointerToSymbolTable
  w.u32(0);  // NumberOfSymbols
  w.u16(static_cast<std::uint16_t>(kOptionalHeaderSize));
  w.u16(0x0102);  // Characteristics: EXECUTABLE_IMAGE | 32BIT_MACHINE

  // --- Optional header (PE32) ---
  w.u16(0x010b);  // magic
  w.u8(tmpl.linker_major);
  w.u8(tmpl.linker_minor);
  w.u32(size_of_code);
  w.u32(size_of_data);
  w.u32(0);  // SizeOfUninitializedData
  w.u32(entry_point);
  w.u32(base_of_code);
  w.u32(0);  // BaseOfData (informational)
  w.u32(kImageBase);
  w.u32(kSectionAlignment);
  w.u32(kFileAlignment);
  w.u16(tmpl.os_major);
  w.u16(tmpl.os_minor);
  w.u16(1);  // image version major
  w.u16(0);  // image version minor
  w.u16(tmpl.os_major);  // subsystem version tracks OS version
  w.u16(tmpl.os_minor);
  w.u32(0);  // Win32VersionValue
  w.u32(size_of_image);
  w.u32(headers_size);
  w.u32(0);  // CheckSum
  w.u16(tmpl.subsystem);
  w.u16(0);  // DllCharacteristics
  w.u32(0x0010'0000);  // SizeOfStackReserve
  w.u32(0x0000'1000);  // SizeOfStackCommit
  w.u32(0x0010'0000);  // SizeOfHeapReserve
  w.u32(0x0000'1000);  // SizeOfHeapCommit
  w.u32(0);  // LoaderFlags
  w.u32(16); // NumberOfRvaAndSizes
  for (int dir = 0; dir < 16; ++dir) {
    if (dir == 1) {  // import directory
      w.u32(import_dir_rva);
      w.u32(import_dir_size);
    } else if (dir == 12) {  // IAT directory
      w.u32(iat_rva);
      w.u32(iat_size);
    } else {
      w.u32(0);
      w.u32(0);
    }
  }

  // --- Section table ---
  for (std::size_t i = 0; i < tmpl.sections.size(); ++i) {
    w.fixed_text(tmpl.sections[i].name, 8);
    w.u32(layouts[i].virtual_size);
    w.u32(layouts[i].virtual_address);
    w.u32(layouts[i].raw_size);
    w.u32(layouts[i].raw_offset);
    w.u32(0);  // PointerToRelocations
    w.u32(0);  // PointerToLinenumbers
    w.u16(0);  // NumberOfRelocations
    w.u16(0);  // NumberOfLinenumbers
    w.u32(tmpl.sections[i].characteristics);
  }

  // --- Section raw data ---
  for (const Layout& layout : layouts) {
    w.align(kFileAlignment);
    if (w.size() != layout.raw_offset) {
      // Defensive: layout math and serialization must agree.
      throw ConfigError("build_pe: layout mismatch at section raw data");
    }
    w.bytes(layout.raw);
    w.align(kFileAlignment);
  }

  return w.take();
}

std::uint32_t natural_size(const PeTemplate& tmpl) {
  validate(tmpl);
  std::uint32_t size =
      headers_size_for(static_cast<std::uint32_t>(tmpl.sections.size()));
  for (const SectionSpec& section : tmpl.sections) {
    std::uint32_t raw = static_cast<std::uint32_t>(section.content.size());
    if (section.holds_imports) raw += import_tables_size(tmpl.imports);
    size += align_up(raw, kFileAlignment);
  }
  return size;
}

}  // namespace repro::pe
