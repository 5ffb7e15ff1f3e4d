// Load generator of the serve workload.
//
// Talks to serve::Server over loopback from this process through
// persistent, pipelined connections: two for the open loop, one for the
// capacity probe. Every reply is byte-compared with the reply computed
// in-process for the same request line, so a wrong byte, an unexpected
// ERR (BUSY, TIMEOUT, ...) or a lost connection counts as a failed
// request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/paper.hpp"
#include "serve/view.hpp"

namespace perfbench {

/// A fixed request mix and the exact reply bytes each line must get.
struct Script {
  std::vector<std::string> lines;     // without the trailing newline
  std::vector<std::string> expected;  // render(view.answer(parse(line)))
};

/// `count` requests: bench_serve's seven (health, stats, ccmap, lookup
/// hit and miss, a B cluster and a cluster id past the end) in turn,
/// with arguments drawn from `seed`; one cluster request in eight asks
/// for the largest B cluster.
[[nodiscard]] Script make_script(const repro::scenario::Dataset& dataset,
                                 const repro::serve::ServeView& view,
                                 std::uint64_t seed, std::size_t count);

/// One open-loop step at a fixed offered rate.
struct StepStats {
  double rate = 0.0;
  std::vector<double> latency_ms;  // due time -> complete reply
  std::vector<double> lag_ms;      // due time -> actual send
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t mismatched = 0;  // wrong bytes, unexpected ERR
  std::uint64_t lost = 0;        // never answered (disconnect, timeout)
  std::uint64_t late = 0;        // sent later than the lag bound
  /// Requests sent but unanswered when the schedule ended.
  std::uint64_t backlog_at_end = 0;
  [[nodiscard]] std::uint64_t failed() const { return mismatched + lost; }
};

/// Sends requests on a fixed schedule (request i is due at
/// start + i / rate) regardless of how fast replies come back, so a
/// stall delays every later request and shows in their latency.
[[nodiscard]] StepStats run_open_loop(std::uint16_t port, const Script& script,
                                      double rate, double seconds,
                                      double late_bound_ms);

/// Closed-loop capacity probe: one connection, so one server worker,
/// keeps up to `window` requests in flight until `seconds` pass, then
/// drains. Throws IoError when it cannot connect.
struct CapacityStats {
  std::uint64_t replies = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;
};
[[nodiscard]] CapacityStats run_capacity(std::uint16_t port,
                                         const Script& script,
                                         double seconds, std::size_t window);

}  // namespace perfbench
