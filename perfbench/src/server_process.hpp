// The serve workload's system under test, in a child process.
//
// The child runs serve::Server (2 workers) on the given view plus a
// writer thread that rebuilds a byte-identical ServeView from the
// dataset and publish()es it at a fixed interval — the RCU swap the
// streaming daemon does each epoch, beside the reads. Keeping the load
// generator out of the server's address space keeps the writer's
// allocation bursts from stalling the generator's schedule.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <cstdint>

#include "scenario/paper.hpp"
#include "serve/server.hpp"
#include "serve/view.hpp"

namespace perfbench {

class ServerProcess {
 public:
  struct Outcome {
    repro::serve::ServeReport report;
    std::uint64_t republished = 0;
    bool republish_failed = false;
    bool exited_cleanly = false;
  };

  /// Forks and waits until the child listens. The calling process must
  /// be single-threaded. With 4 or more CPUs the child is pinned to one
  /// half and the caller to the other until finish(). `republish_ms` =
  /// 0 disables the writer.
  ServerProcess(const repro::scenario::Dataset& dataset,
                const repro::serve::ServeView& view, int republish_ms);
  /// finish()es if still running.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// CPU seconds (user + system, all threads) the server process has
  /// used so far, in clock ticks' resolution; 0 once finished.
  [[nodiscard]] double cpu_seconds() const;
  /// Peak resident set of the server process so far, MiB; 0 once
  /// finished.
  [[nodiscard]] double peak_rss_mib() const;

  /// Drains the server, collects its report and reaps the child
  /// (killing it if it does not exit in time). Idempotent.
  Outcome finish();

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::uint16_t port_ = 0;
  cpu_set_t cpus_;  // the caller's CPUs, restored by finish()
};

}  // namespace perfbench
