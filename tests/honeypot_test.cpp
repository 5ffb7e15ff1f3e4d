// Unit tests for the honeypot module: event database, gateway
// life-cycle, AV labels, download failure model, deployment driver and
// enrichment pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "fault/injector.hpp"
#include "honeypot/avlabels.hpp"
#include "honeypot/database.hpp"
#include "honeypot/deployment.hpp"
#include "honeypot/download.hpp"
#include "honeypot/enrichment.hpp"
#include "honeypot/gateway.hpp"
#include "malware/binary.hpp"
#include "shellcode/builder.hpp"
#include "util/error.hpp"
#include "util/md5.hpp"
#include "util/thread_pool.hpp"

namespace repro::honeypot {
namespace {

// ---------------------------------------------------------------- database

TEST(Database, DeduplicatesByMd5) {
  EventDatabase db;
  const std::vector<std::uint8_t> content{1, 2, 3};
  const SampleId a = db.add_sample(content, SimTime{100}, false, 0);
  const SampleId b = db.add_sample(content, SimTime{50}, false, 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(db.samples().size(), 1u);
  EXPECT_EQ(db.sample(a).event_count, 2u);
  EXPECT_EQ(db.sample(a).first_seen, SimTime{50});  // earliest wins
}

TEST(Database, DistinctContentDistinctSamples) {
  EventDatabase db;
  const SampleId a = db.add_sample({1, 2, 3}, SimTime{1}, false, 0);
  const SampleId b = db.add_sample({1, 2, 4}, SimTime{1}, false, 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(db.samples().size(), 2u);
}

TEST(Database, Md5IndexFindsSamples) {
  EventDatabase db;
  const std::vector<std::uint8_t> content{9, 9};
  const SampleId id = db.add_sample(content, SimTime{1}, false, 0);
  EXPECT_EQ(db.find_by_md5(Md5::hex_digest(content)), id);
  EXPECT_FALSE(db.find_by_md5("not-a-hash").has_value());
}

TEST(Database, EventIdsAreSequential) {
  EventDatabase db;
  AttackEvent e1;
  AttackEvent e2;
  EXPECT_EQ(db.add_event(std::move(e1)), 0u);
  EXPECT_EQ(db.add_event(std::move(e2)), 1u);
}

TEST(Database, EventsOfSample) {
  EventDatabase db;
  const SampleId sample = db.add_sample({1}, SimTime{1}, false, 0);
  AttackEvent with;
  with.sample = sample;
  AttackEvent without;
  db.add_event(std::move(with));
  db.add_event(std::move(without));
  EXPECT_EQ(db.events_of_sample(sample), (std::vector<EventId>{0}));
}

TEST(Database, UnknownSampleThrows) {
  EventDatabase db;
  EXPECT_THROW((void)db.sample(5), ConfigError);
  EXPECT_THROW((void)db.sample_mutable(5), ConfigError);
}

// ----------------------------------------------------------------- gateway

TEST(Gateway, ProxyThenMatureLifecycle) {
  Rng rng{1};
  const auto tmpl = proto::make_exploit_template(proto::ServiceKind::kSmb445,
                                                 0);
  const auto loc = proto::payload_location(tmpl);
  proto::IncrementalFsm::Options options;
  options.maturity = 3;
  Gateway gateway{options};

  const auto attack = [&] {
    return proto::synthesize_attack(
        tmpl, proto::to_bytes("PAYLOAD" + rng.alnum(10)),
        net::Ipv4{static_cast<std::uint32_t>(rng.next())},
        net::Ipv4{10, 0, 0, 1}, rng);
  };

  // First three conversations are proxied (unknown-path markers).
  std::set<std::string> unknown_paths;
  for (int i = 0; i < 3; ++i) {
    const auto outcome = gateway.handle(attack(), loc);
    EXPECT_TRUE(outcome.proxied);
    EXPECT_EQ(outcome.fsm_path.rfind("unknown/", 0), 0u);
    unknown_paths.insert(outcome.fsm_path);
  }
  // Unknown markers are event-unique (never become invariants).
  EXPECT_EQ(unknown_paths.size(), 3u);
  EXPECT_EQ(gateway.proxied_count(), 3u);

  // After maturity the same activity is handled autonomously with one
  // stable path id.
  const auto first = gateway.handle(attack(), loc);
  EXPECT_FALSE(first.proxied);
  for (int i = 0; i < 5; ++i) {
    const auto outcome = gateway.handle(attack(), loc);
    EXPECT_FALSE(outcome.proxied);
    EXPECT_EQ(outcome.fsm_path, first.fsm_path);
  }
  EXPECT_EQ(gateway.matched_count(), 6u);
  EXPECT_GT(gateway.mature_transitions(), 0u);
}

TEST(Gateway, SeparateModelsPerPort) {
  Rng rng{2};
  Gateway gateway;
  const auto smb = proto::make_exploit_template(proto::ServiceKind::kSmb445, 0);
  const auto rpc =
      proto::make_exploit_template(proto::ServiceKind::kDceRpc135, 0);
  for (int i = 0; i < 4; ++i) {
    gateway.handle(
        proto::synthesize_attack(smb, proto::to_bytes("X"),
                                 net::Ipv4{1, 2, 3, static_cast<std::uint8_t>(i)},
                                 net::Ipv4{10, 0, 0, 1}, rng),
        proto::payload_location(smb));
  }
  // The 135 model knows nothing yet: proxied.
  const auto outcome = gateway.handle(
      proto::synthesize_attack(rpc, proto::to_bytes("X"),
                               net::Ipv4{9, 9, 9, 9}, net::Ipv4{10, 0, 0, 1},
                               rng),
      proto::payload_location(rpc));
  EXPECT_TRUE(outcome.proxied);
}

// --------------------------------------------------------------- AV labels

TEST(AvLabels, DeterministicPerMd5) {
  malware::MalwareVariant variant;
  variant.av_name = "W32.Rahack.A";
  EXPECT_EQ(assign_av_label(variant, "abc", false),
            assign_av_label(variant, "abc", false));
}

TEST(AvLabels, MostlyGroundTruthWithNoise) {
  malware::MalwareVariant variant;
  variant.av_name = "W32.Rahack.A";
  int truth = 0;
  int other = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string label =
        assign_av_label(variant, "md5-" + std::to_string(i), false);
    if (label == "W32.Rahack.A") {
      ++truth;
    } else {
      ++other;
    }
  }
  EXPECT_GT(truth, 1500);
  EXPECT_GT(other, 50);  // realistic AV-label inconsistency exists
}

TEST(AvLabels, TruncatedSamplesMarkedCorrupted) {
  malware::MalwareVariant variant;
  variant.av_name = "X";
  EXPECT_EQ(assign_av_label(variant, "m", true), "(corrupted)");
}

// ---------------------------------------------------------------- download

TEST(Download, NeverTruncatesAtZeroProbability) {
  Rng rng{3};
  DownloadOptions options;
  options.truncation_probability = 0.0;
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(draw_truncation(5000, options, rng).has_value());
  }
}

TEST(Download, AlwaysTruncatesAtOne) {
  Rng rng{4};
  DownloadOptions options;
  options.truncation_probability = 1.0;
  options.min_kept_bytes = 256;
  for (int i = 0; i < 50; ++i) {
    const std::optional<std::size_t> kept = draw_truncation(5000, options, rng);
    ASSERT_TRUE(kept.has_value());
    EXPECT_LT(*kept, 5000u);
    EXPECT_GE(*kept, 256u);
  }
}

TEST(Download, RateApproximatesProbability) {
  Rng rng{5};
  DownloadOptions options;
  options.truncation_probability = 0.25;
  int truncated = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    truncated += draw_truncation(2000, options, rng).has_value() ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(truncated) / trials, 0.25, 0.03);
}

// The kept lengths and the stream position after twelve draws, pinned
// from the download emulation that built and cut the bytes itself: the
// size-only draw must consume the shared stream exactly as it did,
// including the guard that never draws for a binary at or below the
// kept-prefix floor. -1 marks a complete transfer.
TEST(Download, DrawMatchesPinnedEmulation) {
  DownloadOptions options;
  options.truncation_probability = 0.5;
  options.min_kept_bytes = 256;
  struct Case {
    std::size_t size;
    std::vector<long> kept;
    std::uint64_t next;
  };
  const Case cases[] = {
      {255, {-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1},
       12276367685406418331ULL},
      {256, {-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1},
       12276367685406418331ULL},
      {257, {-1, -1, 256, 256, -1, -1, 256, -1, 256, 256, 256, -1},
       5936625270274917766ULL},
      {22528,
       {-1, -1, 17972, 1206, -1, -1, 17471, -1, 14035, 18089, 10380, -1},
       5936625270274917766ULL},
  };
  for (const Case& c : cases) {
    Rng rng{2008};
    std::vector<long> kept;
    for (int i = 0; i < 12; ++i) {
      const std::optional<std::size_t> cut =
          draw_truncation(c.size, options, rng);
      kept.push_back(cut.has_value() ? static_cast<long>(*cut) : -1);
    }
    EXPECT_EQ(kept, c.kept) << "size " << c.size;
    EXPECT_EQ(rng.next(), c.next) << "size " << c.size;
  }
}

// -------------------------------------------------------------- deployment

malware::Landscape tiny_landscape() {
  malware::Landscape landscape;
  landscape.start_time = parse_date("2008-01-01");
  landscape.weeks = 8;
  landscape.exploits.push_back(
      proto::make_exploit_template(proto::ServiceKind::kSmb445, 0));
  landscape.exploits.push_back(
      proto::make_exploit_template(proto::ServiceKind::kDceRpc135, 0));
  malware::PayloadSpec bind;
  landscape.payloads.push_back(bind);
  malware::PayloadSpec http;
  http.protocol = shellcode::Protocol::kHttp;
  http.port = 80;
  http.filename = "update.exe";
  landscape.payloads.push_back(http);

  malware::MalwareFamily family;
  family.id = 0;
  family.name = "fam";
  landscape.families.push_back(family);

  for (int v = 0; v < 2; ++v) {
    malware::MalwareVariant variant;
    variant.id = static_cast<malware::VariantId>(v);
    variant.family = 0;
    variant.name = "v" + std::to_string(v);
    variant.av_name = "Test.AV." + std::to_string(v);
    variant.seed = 100 + static_cast<std::uint64_t>(v);
    variant.polymorphism = v == 0 ? malware::PolymorphismMode::kPerInstance
                                  : malware::PolymorphismMode::kNone;
    malware::PeShape shape;
    shape.target_file_size = 8192;
    variant.pe_template = malware::make_pe_template(shape, variant.seed);
    variant.mutable_sections =
        malware::mutable_section_indices(variant.pe_template);
    variant.behavior.base_features = {"f" + std::to_string(v)};
    variant.exploit_index = static_cast<std::size_t>(v);
    variant.payload_index = static_cast<std::size_t>(v);
    variant.population.host_count = 30;
    variant.schedule.kind = malware::ActivitySchedule::Kind::kContinuous;
    variant.schedule.start_week = 0;
    variant.schedule.end_week = 8;
    variant.schedule.weekly_event_rate = 12.0;
    variant.schedule.seed = variant.seed;
    landscape.families[0].variants.push_back(variant.id);
    landscape.variants.push_back(std::move(variant));
  }
  return landscape;
}

TEST(Deployment, GeneratesEventsThroughFullPipeline) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config;
  config.seed = 9;
  Deployment deployment{landscape, config};
  EXPECT_EQ(deployment.honeypots().size(), 150u);

  const EventDatabase db = Deployment{landscape, config}.run();
  EXPECT_GT(db.events().size(), 100u);
  EXPECT_GT(db.samples().size(), 20u);

  std::set<std::string> protocols;
  for (const AttackEvent& event : db.events()) {
    EXPECT_GE(event.location, 0);
    EXPECT_LT(event.location, 30);
    ASSERT_TRUE(event.pi.has_value());  // analyzer succeeded everywhere
    protocols.insert(event.pi->protocol);
    ASSERT_TRUE(event.sample.has_value());
    EXPECT_LT(*event.sample, db.samples().size());
    EXPECT_TRUE(event.epsilon.dst_port == 445 ||
                event.epsilon.dst_port == 135);
  }
  // Both payload specs show up as analyzed protocols.
  EXPECT_TRUE(protocols.count("creceive"));
  EXPECT_TRUE(protocols.count("http"));
}

TEST(Deployment, EventsAreChronologicalPerWeekAndGatewayMatures) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config;
  config.seed = 10;
  Deployment deployment{landscape, config};
  const EventDatabase db = deployment.run();
  // After the run most events were matched by mature FSM models: only
  // a few early ones carry unknown-path markers.
  std::size_t unknown = 0;
  for (const AttackEvent& event : db.events()) {
    unknown += event.epsilon.fsm_path.rfind("unknown/", 0) == 0 ? 1 : 0;
  }
  EXPECT_LT(unknown, db.events().size() / 4);
  EXPECT_GT(deployment.gateway().matched_count(), 0u);
}

TEST(Deployment, DeterministicForSeed) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config;
  config.seed = 11;
  const EventDatabase a = Deployment{landscape, config}.run();
  const EventDatabase b = Deployment{landscape, config}.run();
  ASSERT_EQ(a.events().size(), b.events().size());
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i].md5, b.samples()[i].md5);
  }
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].attacker, b.events()[i].attacker);
    EXPECT_EQ(a.events()[i].time, b.events()[i].time);
  }
}

TEST(Deployment, DifferentSeedsDifferentData) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config_a;
  config_a.seed = 12;
  DeploymentConfig config_b;
  config_b.seed = 13;
  const EventDatabase a = Deployment{landscape, config_a}.run();
  const EventDatabase b = Deployment{landscape, config_b}.run();
  EXPECT_NE(a.events().size(), b.events().size());
}

TEST(Deployment, PolymorphicVariantYieldsUniqueSamples) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config;
  config.seed = 14;
  config.download.truncation_probability = 0.0;
  const EventDatabase db = Deployment{landscape, config}.run();
  // Count samples per variant: the per-instance variant produces ~one
  // sample per event, the stable variant exactly one.
  std::size_t poly_samples = 0;
  std::size_t stable_samples = 0;
  for (const MalwareSample& sample : db.samples()) {
    if (sample.truth_variant == 0) {
      ++poly_samples;
    } else {
      ++stable_samples;
    }
  }
  EXPECT_EQ(stable_samples, 1u);
  EXPECT_GT(poly_samples, 50u);
}

TEST(Deployment, RejectsBadConfig) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config;
  config.location_count = 0;
  EXPECT_THROW((Deployment{landscape, config}), ConfigError);
}

// The pool pass builds, cuts, corrupts and hashes each week's downloads
// on whatever thread claims them; the database must not notice. The
// plan refuses and corrupts downloads so every collection outcome runs
// through the pool.
TEST(Deployment, PoolWidthLeavesDatabaseIdentical) {
  const auto landscape = tiny_landscape();
  fault::FaultPlan plan;
  plan.seed = 77;
  plan.download_refused_probability = 0.1;
  plan.download_corruption_probability = 0.15;
  const auto run = [&](ThreadPool* pool) {
    fault::FaultInjector faults{plan};
    DeploymentConfig config;
    config.seed = 16;
    config.download.truncation_probability = 0.3;
    config.faults = &faults;
    config.pool = pool;
    return Deployment{landscape, config}.run();
  };
  const EventDatabase reference = run(nullptr);
  const EventDatabase::PresenceSummary summary = reference.presence_summary();
  ASSERT_GT(summary.refused_downloads, 0u);
  ASSERT_GT(summary.truncated_samples, 0u);
  ASSERT_GT(summary.corrupted_samples, 0u);
  // Variant 1 is not polymorphic: each truncated, uncorrupted copy of it
  // is a strict prefix of its one binary.
  const std::vector<std::uint8_t> stable =
      malware::realize_binary(landscape.variants[1], net::Ipv4{}, 0);
  std::size_t prefixes = 0;
  for (const MalwareSample& sample : reference.samples()) {
    if (sample.truth_variant != 1 || !sample.truncated || sample.corrupted) {
      continue;
    }
    EXPECT_LT(sample.content.size(), stable.size());
    EXPECT_TRUE(std::equal(sample.content.begin(), sample.content.end(),
                           stable.begin()));
    ++prefixes;
  }
  EXPECT_GT(prefixes, 0u);

  for (const std::size_t width : {1u, 2u, 8u}) {
    ThreadPool pool{width};
    const EventDatabase db = run(&pool);
    ASSERT_EQ(db.events().size(), reference.events().size()) << width;
    for (std::size_t i = 0; i < db.events().size(); ++i) {
      const AttackEvent& a = db.events()[i];
      const AttackEvent& b = reference.events()[i];
      EXPECT_EQ(a.time, b.time) << width << " event " << i;
      EXPECT_EQ(a.attacker, b.attacker) << width << " event " << i;
      EXPECT_EQ(a.honeypot, b.honeypot) << width << " event " << i;
      EXPECT_EQ(a.epsilon.fsm_path, b.epsilon.fsm_path) << width;
      EXPECT_EQ(a.pi.has_value(), b.pi.has_value()) << width;
      EXPECT_EQ(a.gamma.has_value(), b.gamma.has_value()) << width;
      EXPECT_EQ(a.sample, b.sample) << width << " event " << i;
      EXPECT_EQ(a.download_refused, b.download_refused) << width;
      EXPECT_EQ(a.refinement_failed, b.refinement_failed) << width;
      EXPECT_EQ(a.truth_variant, b.truth_variant) << width;
    }
    ASSERT_EQ(db.samples().size(), reference.samples().size()) << width;
    for (std::size_t i = 0; i < db.samples().size(); ++i) {
      const MalwareSample& a = db.samples()[i];
      const MalwareSample& b = reference.samples()[i];
      EXPECT_EQ(a.md5, b.md5) << width << " sample " << i;
      EXPECT_EQ(a.md5, Md5::hex_digest(a.content)) << width << " sample " << i;
      EXPECT_EQ(a.content, b.content) << width << " sample " << i;
      EXPECT_EQ(a.truncated, b.truncated) << width << " sample " << i;
      EXPECT_EQ(a.corrupted, b.corrupted) << width << " sample " << i;
      EXPECT_EQ(a.first_seen, b.first_seen) << width << " sample " << i;
      EXPECT_EQ(a.event_count, b.event_count) << width << " sample " << i;
      EXPECT_EQ(a.truth_variant, b.truth_variant) << width;
    }
    db.check_consistency();
  }
}

// -------------------------------------------------------------- enrichment

TEST(Enrichment, ProfilesForExecutableSamplesOnly) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config;
  config.seed = 15;
  config.download.truncation_probability = 0.3;
  EventDatabase db = Deployment{landscape, config}.run();
  const sandbox::Environment environment;
  const EnrichmentStats stats = enrich_database(db, landscape, environment);
  EXPECT_EQ(stats.submitted, db.samples().size());
  EXPECT_EQ(stats.executed + stats.failed, stats.submitted);
  EXPECT_GT(stats.failed, 0u);
  for (const MalwareSample& sample : db.samples()) {
    EXPECT_EQ(sample.profile.has_value(), !sample.truncated);
    EXPECT_FALSE(sample.av_label.empty());
    if (sample.truncated) {
      EXPECT_EQ(sample.av_label, "(corrupted)");
    }
  }
  EXPECT_EQ(db.analyzable_sample_count(), stats.executed);
}

}  // namespace
}  // namespace repro::honeypot
