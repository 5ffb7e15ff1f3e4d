// The distributed deployment driver.
//
// Simulates the SGNET deployment of the paper: 150 honeypot IPs spread
// over 30 network locations, observing the landscape's infected
// populations from January 2008 to May 2009. Every attack runs through
// the full pipeline — exploit dialog synthesis, FSM matching or
// sample-factory proxying, shellcode extraction and analysis, download
// emulation — and lands in the event database exactly as the sensors
// would record it.
//
// Each simulated week runs in three phases: a serial pass makes every
// draw of the shared RNG stream in attack order (a download's
// truncation draw needs only the binary's size, which polymorphism
// never changes); a pool pass builds, cuts, corrupts and hashes the
// week's downloaded binaries, each a pure function of its own record;
// a serial commit stores samples and events in attack order. The
// dataset is therefore the same at every pool width.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/injector.hpp"
#include "honeypot/database.hpp"
#include "honeypot/download.hpp"
#include "honeypot/gateway.hpp"
#include "malware/landscape.hpp"
#include "net/ipv4.hpp"

namespace repro {
class ThreadPool;
}  // namespace repro

namespace repro::honeypot {

struct DeploymentConfig {
  /// 30 network locations x 5 addresses = the paper's 150 monitored IPs.
  int location_count = 30;
  int honeypots_per_location = 5;
  std::uint64_t seed = 1;
  DownloadOptions download;
  proto::IncrementalFsm::Options fsm;
  /// Optional fault injection: sensor outages, proxy-channel failures
  /// and extended download faults fire per its plan. The injector's
  /// decisions never consume the deployment's own RNG streams, so a
  /// nullptr injector and an injector with an empty plan produce
  /// bit-identical datasets. Not owned; must outlive the deployment.
  fault::FaultInjector* faults = nullptr;
  /// Optional pool that realizes, cuts and hashes each simulated week's
  /// downloaded binaries; the dataset is identical at every width, and
  /// nullptr runs that work inline. Not owned; must outlive run().
  ThreadPool* pool = nullptr;
};

class Deployment {
 public:
  Deployment(const malware::Landscape& landscape, DeploymentConfig config);

  /// Runs the whole observation window and returns the dataset.
  [[nodiscard]] EventDatabase run();

  [[nodiscard]] const std::vector<net::Ipv4>& honeypots() const noexcept {
    return honeypots_;
  }
  [[nodiscard]] int location_of(std::size_t honeypot_index) const noexcept {
    return static_cast<int>(honeypot_index) /
           config_.honeypots_per_location;
  }
  [[nodiscard]] const Gateway& gateway() const noexcept { return gateway_; }
  [[nodiscard]] const malware::Landscape& landscape() const noexcept {
    return *landscape_;
  }

 private:
  const malware::Landscape* landscape_;
  DeploymentConfig config_;
  Gateway gateway_;
  std::vector<net::Ipv4> honeypots_;
};

}  // namespace repro::honeypot
