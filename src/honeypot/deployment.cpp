#include "honeypot/deployment.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "malware/binary.hpp"
#include "malware/population.hpp"
#include "malware/schedule.hpp"
#include "shellcode/analyzer.hpp"
#include "shellcode/builder.hpp"
#include "util/error.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace repro::honeypot {

namespace {

/// One attack scheduled for a given instant, before pipeline processing.
struct PendingAttack {
  SimTime time{};
  malware::VariantId variant = 0;
  net::Ipv4 attacker;
  std::size_t honeypot_index = 0;

  friend bool operator<(const PendingAttack& a, const PendingAttack& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.variant != b.variant) return a.variant < b.variant;
    return a.attacker < b.attacker;
  }
};

/// One transfer the serial pass decided to collect. The record fixes
/// everything about the stored bytes, so building them is a pure
/// function of it and can run on any thread.
struct PendingDownload {
  const malware::MalwareVariant* variant = nullptr;
  net::Ipv4 attacker;
  std::uint64_t nonce = 0;
  std::size_t size = 0;  // malware::binary_size(*variant)
  std::optional<std::size_t> truncated_to;  // kept prefix of a cut transfer
  bool corrupted = false;
  std::size_t event = 0;  // index of the attack's event in its week
  // Filled by collect().
  std::vector<std::uint8_t> content;
  std::string md5;
};

/// The pool pass for one download: realize the binary, keep the
/// transferred prefix, apply the injected corruption, hash the result.
void collect(PendingDownload& download, const fault::FaultInjector* faults) {
  download.content = malware::realize_binary(*download.variant,
                                             download.attacker, download.nonce);
  if (download.content.size() != download.size) {
    throw ConfigError("Deployment: variant " + download.variant->name +
                      " realized " + std::to_string(download.content.size()) +
                      " bytes, binary_size says " +
                      std::to_string(download.size));
  }
  if (download.truncated_to.has_value()) {
    download.content.resize(*download.truncated_to);
  }
  if (download.corrupted) faults->corrupt(download.content, download.nonce);
  download.md5 = Md5::hex_digest(download.content);
}

}  // namespace

Deployment::Deployment(const malware::Landscape& landscape,
                       DeploymentConfig config)
    : landscape_(&landscape), config_(config), gateway_(config.fsm) {
  landscape.validate();
  gateway_.set_fault_injector(config_.faults);
  if (config_.location_count <= 0 || config_.honeypots_per_location <= 0) {
    throw ConfigError("Deployment: location/honeypot counts must be positive");
  }
  // Place each network location in a distinct /24 and assign consecutive
  // addresses to its honeypots.
  Rng rng{mix64(config_.seed ^ 0x5e45'0000'0000'0001ULL)};
  const net::WidespreadSampler sampler;
  for (int location = 0; location < config_.location_count; ++location) {
    const net::Ipv4 base = sampler.sample(rng);
    const net::Subnet block{base, 24};
    for (int h = 0; h < config_.honeypots_per_location; ++h) {
      honeypots_.push_back(
          net::Ipv4{block.network().value() + 10 +
                    static_cast<std::uint32_t>(h)});
    }
  }
}

EventDatabase Deployment::run() {
  EventDatabase db;
  Rng driver_rng{mix64(config_.seed ^ 0xdeb1'0000'0000'0000ULL)};
  ThreadPool inline_pool{1};
  ThreadPool& pool = config_.pool != nullptr ? *config_.pool : inline_pool;

  // Realize every variant's infected population once, deterministically.
  std::vector<std::vector<net::Ipv4>> populations;
  populations.reserve(landscape_->variants.size());
  for (const malware::MalwareVariant& variant : landscape_->variants) {
    Rng population_rng{mix64(variant.seed ^ 0x9090'9090'9090'9090ULL)};
    populations.push_back(
        malware::realize_population(variant.population, population_rng));
  }

  std::uint64_t nonce = 0;
  std::vector<AttackEvent> week_events;
  std::vector<PendingDownload> downloads;
  for (int week = 0; week < landscape_->weeks; ++week) {
    // Schedule this week's attacks across all variants, then process
    // them in chronological order (the gateway's model maturity depends
    // on it).
    std::vector<PendingAttack> pending;
    const SimTime week_start = add_weeks(landscape_->start_time, week);
    for (const malware::MalwareVariant& variant : landscape_->variants) {
      const auto& population = populations[variant.id];
      if (population.empty()) continue;
      const malware::WeeklyActivity activity = malware::weekly_activity(
          variant.schedule, week, config_.location_count);
      if (activity.expected_events <= 0.0) continue;
      Rng week_rng{mix64(variant.seed ^ mix64(config_.seed) ^
                         mix64(0x3eed'0000ULL + static_cast<std::uint64_t>(
                                                    week + 7'000'000)))};
      const std::uint64_t count =
          week_rng.poisson(activity.expected_events);
      for (std::uint64_t i = 0; i < count; ++i) {
        PendingAttack attack;
        attack.time = add_seconds(
            week_start,
            static_cast<std::int64_t>(week_rng.uniform(0, kSecondsPerWeek - 1)));
        attack.variant = variant.id;
        attack.attacker = week_rng.pick(population);
        const int location =
            activity.target_locations.empty()
                ? static_cast<int>(week_rng.index(
                      static_cast<std::size_t>(config_.location_count)))
                : week_rng.pick(activity.target_locations);
        attack.honeypot_index =
            static_cast<std::size_t>(location) *
                static_cast<std::size_t>(config_.honeypots_per_location) +
            week_rng.index(
                static_cast<std::size_t>(config_.honeypots_per_location));
        pending.push_back(attack);
      }
    }
    std::sort(pending.begin(), pending.end());

    // Phase 1, serial: every draw of the shared stream, in attack order.
    week_events.clear();
    downloads.clear();
    for (const PendingAttack& attack : pending) {
      // Sensor outage: the honeypot records nothing — no event, no FSM
      // learning, no sample. Skipped before any shared RNG draw so an
      // empty fault plan leaves the stream untouched.
      if (config_.faults != nullptr &&
          config_.faults->sensor_down(location_of(attack.honeypot_index),
                                      week)) {
        continue;
      }
      const malware::MalwareVariant& variant =
          landscape_->variants[attack.variant];
      const malware::PayloadSpec& payload_spec =
          landscape_->payloads[variant.payload_index];
      const proto::ExploitTemplate& exploit =
          landscape_->exploits[variant.exploit_index];
      const net::Ipv4 honeypot = honeypots_[attack.honeypot_index];

      // 1. The attacker builds and sends the exploit + payload.
      const shellcode::DownloadIntent intent =
          malware::realize_intent(payload_spec, attack.attacker, driver_rng);
      const std::vector<std::uint8_t> payload = shellcode::build_shellcode(
          intent, payload_spec.encoder, driver_rng);
      const proto::Conversation conversation = proto::synthesize_attack(
          exploit, payload, attack.attacker, honeypot, driver_rng);

      // 2. Sensor/gateway: FSM match or proxy + refine.
      const Gateway::Outcome outcome =
          gateway_.handle(conversation, proto::payload_location(exploit));

      AttackEvent event;
      event.time = attack.time;
      event.attacker = attack.attacker;
      event.honeypot = honeypot;
      event.location = location_of(attack.honeypot_index);
      event.epsilon =
          EpsilonObservation{outcome.fsm_path, conversation.dst_port};
      event.refinement_failed = outcome.proxied && !outcome.refined;
      event.truth_variant = variant.id;

      // Gamma extension: when the conversation went through the sample
      // factory, the taint oracle sees the hijack — parse the control
      // data out of the tainted region (bytes, not ground truth).
      if (outcome.proxied) {
        const proto::PayloadLocation location =
            proto::payload_location(exploit);
        const proto::Bytes& carrier =
            conversation.messages[location.message_index].bytes;
        if (location.byte_offset < carrier.size()) {
          const proto::Bytes tainted{
              carrier.begin() + static_cast<long>(location.byte_offset),
              carrier.end()};
          event.gamma = proto::observe_gamma(tainted);
        }
      }

      // 3. Shellcode extraction and analysis (Nepenthes substitute):
      // scan the client byte stream for a known decoder structure.
      std::vector<std::uint8_t> client_stream;
      for (const proto::Bytes* message : conversation.client_messages()) {
        client_stream.insert(client_stream.end(), message->begin(),
                             message->end());
      }
      const auto analyzed = shellcode::analyze_shellcode(client_stream);
      if (analyzed.has_value()) {
        PiObservation pi;
        pi.protocol = shellcode::protocol_name(analyzed->protocol);
        pi.filename = analyzed->filename;
        pi.port = analyzed->port;
        pi.interaction = shellcode::interaction_name(
            shellcode::classify_interaction(*analyzed, attack.attacker));
        event.pi = pi;

        // 4. Download emulation: decide how the binary's transfer goes
        // (its bytes are built in phase 2). Injected faults extend the
        // truncation model: a refused connection collects nothing, bit
        // corruption damages the stored image.
        const fault::DownloadFault download_fault =
            config_.faults != nullptr ? config_.faults->download_fault(nonce)
                                      : fault::DownloadFault::kNone;
        if (download_fault == fault::DownloadFault::kRefused) {
          event.download_refused = true;
        } else {
          PendingDownload& download = downloads.emplace_back();
          download.variant = &variant;
          download.attacker = attack.attacker;
          download.nonce = nonce;
          download.size = malware::binary_size(variant);
          download.truncated_to =
              draw_truncation(download.size, config_.download, driver_rng);
          download.corrupted =
              download_fault == fault::DownloadFault::kCorrupted;
          download.event = week_events.size();
        }
      }
      ++nonce;
      week_events.push_back(std::move(event));
    }

    // Phase 2, on the pool: build, cut, corrupt and hash the binaries.
    pool.parallel_for(downloads.size(), 1,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          collect(downloads[i], config_.faults);
                        }
                      });

    // Phase 3, serial: store samples and events in attack order, so ids,
    // first_seen and event counts are those of a fully serial run.
    auto download = downloads.begin();
    for (std::size_t i = 0; i < week_events.size(); ++i) {
      AttackEvent& event = week_events[i];
      if (download != downloads.end() && download->event == i) {
        event.sample = db.add_sample(
            std::move(download->content), std::move(download->md5),
            event.time, download->truncated_to.has_value(),
            event.truth_variant);
        if (download->corrupted) {
          db.sample_mutable(*event.sample).corrupted = true;
        }
        ++download;
      }
      db.add_event(std::move(event));
    }
  }
  return db;
}

}  // namespace repro::honeypot
