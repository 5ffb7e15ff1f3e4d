// Deterministic robustness sweeps ("fuzz-lite"): every parser that
// consumes externally-controlled bytes must survive arbitrary
// mutations — returning an error value or throwing ParseError, never
// crashing or reading out of bounds. Honeypot data is attacker
// controlled by definition, so these paths are the library's security
// boundary.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>

#include "io/csv_import.hpp"
#include "pe/builder.hpp"
#include "pe/filetype.hpp"
#include "pe/parser.hpp"
#include "proto/gamma.hpp"
#include "proto/region.hpp"
#include "scenario/paper.hpp"
#include "shellcode/analyzer.hpp"
#include "shellcode/builder.hpp"
#include "snapshot/checkpoint.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"
#include "util/simtime.hpp"

namespace repro {
namespace {

/// Applies `count` random byte mutations (overwrite, truncate, extend).
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> data, Rng& rng,
                                 int count) {
  for (int i = 0; i < count && !data.empty(); ++i) {
    switch (rng.index(4)) {
      case 0:  // overwrite
        data[rng.index(data.size())] =
            static_cast<std::uint8_t>(rng.uniform(0, 255));
        break;
      case 1:  // truncate
        data.resize(1 + rng.index(data.size()));
        break;
      case 2: {  // extend with junk
        std::vector<std::uint8_t> junk(rng.index(64));
        rng.fill(junk);
        data.insert(data.end(), junk.begin(), junk.end());
        break;
      }
      case 3: {  // byte swap
        const std::size_t a = rng.index(data.size());
        const std::size_t b = rng.index(data.size());
        std::swap(data[a], data[b]);
        break;
      }
    }
  }
  return data;
}

class FuzzSeed : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeed, PeParserSurvivesMutations) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 977 + 1};
  pe::PeTemplate tmpl;
  tmpl.sections.push_back(pe::SectionSpec{
      ".text", pe::kSectionCode, std::vector<std::uint8_t>(1500, 0x90),
      false});
  tmpl.sections.push_back(
      pe::SectionSpec{"rdata", pe::kSectionInitializedData, {}, true});
  tmpl.imports.push_back(pe::ImportSpec{"KERNEL32.dll", {"Sleep"}});
  const auto valid = pe::build_pe(tmpl);
  for (int trial = 0; trial < 50; ++trial) {
    const auto mutated = mutate(valid, rng, 1 + static_cast<int>(rng.index(8)));
    try {
      const pe::PeInfo info = pe::parse_pe(mutated);
      // If it still parses, basic invariants must hold.
      EXPECT_LE(info.sections.size(), 64u);
    } catch (const ParseError&) {
      // Expected for most mutations.
    }
    // The type detector must always return something.
    EXPECT_FALSE(pe::detect_file_type(mutated).empty());
    (void)pe::looks_like_pe(mutated);
  }
}

TEST_P(FuzzSeed, ShellcodeAnalyzerSurvivesMutations) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 1013 + 7};
  shellcode::DownloadIntent intent;
  intent.protocol = shellcode::Protocol::kHttp;
  intent.port = 80;
  intent.host = net::Ipv4{1, 2, 3, 4};
  intent.filename = "x.exe";
  for (const auto kind :
       {shellcode::EncoderKind::kXor, shellcode::EncoderKind::kAlphanumeric,
        shellcode::EncoderKind::kClear}) {
    shellcode::EncoderOptions options;
    options.kind = kind;
    const auto valid = shellcode::build_shellcode(intent, options, rng);
    for (int trial = 0; trial < 30; ++trial) {
      const auto mutated =
          mutate(valid, rng, 1 + static_cast<int>(rng.index(6)));
      // Must return nullopt or a structurally valid intent — never crash.
      const auto analyzed = shellcode::analyze_shellcode(mutated);
      if (analyzed.has_value()) {
        EXPECT_LE(analyzed->filename.size(), 4096u);
      }
    }
  }
}

TEST_P(FuzzSeed, GammaObserverSurvivesMutations) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 31 + 3};
  const auto spec = proto::make_gamma_spec(static_cast<std::uint64_t>(
      GetParam()));
  const auto valid = proto::build_gamma(spec, rng);
  for (int trial = 0; trial < 30; ++trial) {
    const auto mutated = mutate(valid, rng, 1 + static_cast<int>(rng.index(6)));
    (void)proto::observe_gamma(mutated);  // must not crash
  }
}

TEST_P(FuzzSeed, RegionAnalysisSurvivesRandomMessages) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 131 + 5};
  std::vector<proto::Bytes> messages(2 + rng.index(4));
  for (auto& message : messages) {
    message.resize(rng.index(120));
    rng.fill(message);
  }
  std::vector<const proto::Bytes*> views;
  for (const auto& message : messages) views.push_back(&message);
  const auto regions = proto::region_analysis(views);
  // Whatever was extracted must match every input.
  for (const auto& message : messages) {
    EXPECT_TRUE(proto::regions_match(regions, message));
  }
}

TEST_P(FuzzSeed, CsvParserSurvivesRandomLines) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 613 + 11};
  for (int trial = 0; trial < 50; ++trial) {
    std::string line;
    const std::size_t length = rng.index(200);
    for (std::size_t i = 0; i < length; ++i) {
      // Printable chars with elevated quote/comma frequency.
      const int draw = static_cast<int>(rng.index(10));
      line.push_back(draw < 2   ? '"'
                     : draw < 4 ? ','
                                : static_cast<char>(rng.uniform(0x20, 0x7e)));
    }
    try {
      const auto fields = io::parse_csv_row(line);
      EXPECT_GE(fields.size(), 1u);
    } catch (const ParseError&) {
      // Unterminated quotes are expected.
    }
  }
}

TEST_P(FuzzSeed, HexAndDateParsersSurviveJunk) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 503 + 13};
  for (int trial = 0; trial < 50; ++trial) {
    std::string text = rng.alnum(rng.index(24));
    try {
      (void)hex_decode(text);
    } catch (const ParseError&) {
    }
    try {
      (void)parse_date(text);
    } catch (const ParseError&) {
    }
  }
}

/// A real epoch cut (scale 0.05, the one-shot build's only cut), read
/// back once per process, plus the fingerprint it was written under.
struct RealCut {
  std::uint64_t fingerprint = 0;
  std::vector<std::uint8_t> bytes;
};

const RealCut& real_cut() {
  static const RealCut cut = [] {
    namespace fs = std::filesystem;
    // Per process: ctest runs the seeds as concurrent processes.
    const fs::path dir = fs::path{testing::TempDir()} /
                         ("fuzz-real-cut-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    scenario::ScenarioOptions options;
    options.scale = 0.05;
    options.checkpoint.directory = dir.string();
    (void)scenario::build_paper_dataset(options);
    std::ifstream in{dir / snapshot::epoch_filename(0), std::ios::binary};
    RealCut real;
    real.fingerprint = scenario::scenario_fingerprint(options);
    real.bytes.assign(std::istreambuf_iterator<char>{in},
                      std::istreambuf_iterator<char>{});
    fs::remove_all(dir);
    return real;
  }();
  return cut;
}

/// Damages one of `payloads` — a truncation, a bit flip, or a huge
/// little-endian u64 count — near its start half of the time (where the
/// structural fields live) and anywhere otherwise.
void damage_section(std::vector<std::vector<std::uint8_t>>& payloads,
                    Rng& rng) {
  std::vector<std::uint8_t>& payload = payloads[rng.index(payloads.size())];
  if (payload.empty()) {
    payload.push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
    return;
  }
  const std::size_t span =
      rng.chance(0.5) ? std::min<std::size_t>(payload.size(), 512)
                      : payload.size();
  const std::size_t at = rng.index(span);
  switch (rng.index(3)) {
    case 0:  // truncation
      payload.resize(at);
      break;
    case 1:  // bit flip
      payload[at] ^= static_cast<std::uint8_t>(1u << rng.index(8));
      break;
    case 2: {  // huge count
      const std::uint64_t huge =
          rng.chance(0.5) ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << (32 + rng.index(31)));
      for (std::size_t b = 0; b < 8 && at + b < payload.size(); ++b) {
        payload[at + b] = static_cast<std::uint8_t>(huge >> (8 * b));
      }
      break;
    }
  }
}

TEST_P(FuzzSeed, EpochCutLoaderSurvivesMutations) {
  // The epoch-cut loader is the only decoder of checkpoint bytes. For
  // any damage it must return a cut or quarantine the file — never
  // crash, never let an error escape. Raw mutations exercise the CRC
  // layer; payload mutations are re-wrapped with valid CRCs so the
  // section decoders below it see them too.
  namespace fs = std::filesystem;
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 7919 + 17};
  const RealCut& real = real_cut();
  ASSERT_FALSE(real.bytes.empty());
  const fs::path dir = fs::path{testing::TempDir()} /
                       ("fuzz-cut-" + std::to_string(GetParam()));
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<std::uint8_t> bytes;
    if (trial % 3 == 0) {
      bytes = mutate(real.bytes, rng, 1 + static_cast<int>(rng.index(4)));
    } else {
      std::vector<snapshot::SectionView> sections =
          snapshot::decode_snapshot(real.bytes).sections;
      std::vector<std::vector<std::uint8_t>> payloads;
      for (const snapshot::SectionView& section : sections) {
        payloads.emplace_back(section.payload.begin(), section.payload.end());
      }
      damage_section(payloads, rng);
      for (std::size_t i = 0; i < sections.size(); ++i) {
        sections[i].payload = payloads[i];
      }
      bytes = snapshot::encode_snapshot(real.fingerprint, sections);
    }
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path path = dir / snapshot::epoch_filename(0);
    {
      std::ofstream out{path, std::ios::binary};
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    snapshot::CheckpointStore store{
        snapshot::CheckpointOptions{dir.string()}, real.fingerprint};
    std::optional<snapshot::EpochStage> cut;
    EXPECT_NO_THROW(cut = store.load_latest_epoch()) << "trial " << trial;
    if (cut.has_value()) {
      EXPECT_TRUE(fs::exists(path));
      EXPECT_NO_THROW(cut->database.db.check_consistency());
    } else {
      EXPECT_EQ(store.activity().quarantined, 1u) << "trial " << trial;
      EXPECT_FALSE(fs::exists(path));
    }
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed, ::testing::Range(0, 8));

}  // namespace
}  // namespace repro
