#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kSocketTimeoutSeconds = 10;
constexpr std::int64_t kDrainTimeoutNs = 5'000'000'000;
constexpr std::int64_t kSpinNs = 100'000;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw repro::IoError("perfbench: socket() failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval timeout{kSocketTimeoutSeconds, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw repro::IoError("perfbench: connect to the server failed");
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Splits the byte stream of one connection into whole replies:
/// "OK <n>" plus n payload lines, or a single "ERR ..." line. Every
/// received segment is acknowledged at once: serve::Server leaves
/// Nagle's algorithm on, so with the kernel's delayed ACKs each small
/// reply after the first would wait on the client's ACK timer (about
/// 40 ms) and the figures would measure that timer, not the server.
class ReplyReader {
 public:
  explicit ReplyReader(int fd) : fd_(fd) {}

  /// False on EOF, error or receive timeout.
  bool next(std::string& reply) {
    while (!extract(reply)) {
      if (!fill()) return false;
    }
    return true;
  }

  /// One receive into the buffer; false on EOF, error or timeout.
  bool fill() {
    char chunk[65536];
    ssize_t n;
    do {
      n = ::recv(fd_, chunk, sizeof chunk, 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    // Linux leaves quick-ack mode on its own; re-arm it per read.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  /// Moves the first whole reply out of the buffer, if there is one.
  bool extract(std::string& reply) {
    const std::size_t eol = buffer_.find('\n');
    if (eol == std::string::npos) return false;
    std::size_t end = eol + 1;
    if (buffer_.compare(0, 3, "OK ") == 0) {
      std::size_t lines = 0;
      for (std::size_t i = 3; i < eol; ++i) {
        const char c = buffer_[i];
        if (c < '0' || c > '9') break;
        lines = lines * 10 + static_cast<std::size_t>(c - '0');
      }
      for (std::size_t k = 0; k < lines; ++k) {
        const std::size_t nl = buffer_.find('\n', end);
        if (nl == std::string::npos) return false;
        end = nl + 1;
      }
    }
    reply.assign(buffer_, 0, end);
    buffer_.erase(0, end);
    return true;
  }

 private:
  int fd_;
  std::string buffer_;
};

/// One pipelined connection of the open loop.
struct Lane {
  struct Pending {
    std::size_t index = 0;
    std::int64_t due_ns = 0;
  };
  int fd = -1;
  std::mutex mutex;
  std::deque<Pending> pending;  // guarded by mutex
  std::vector<double> latency_ms;  // receiver thread only
  std::atomic<std::uint64_t> received{0};
  std::uint64_t mismatched = 0;  // receiver thread only
};

/// Receives both lanes' replies on one thread, so the load generator
/// runs two threads (sender, receiver) and each can keep a CPU.
void receive_loop(Lane (&lanes)[2], const Script& script) {
  ReplyReader readers[2] = {ReplyReader{lanes[0].fd}, ReplyReader{lanes[1].fd}};
  bool open[2] = {true, true};
  std::string reply;
  while (open[0] || open[1]) {
    pollfd fds[2];
    for (int i = 0; i < 2; ++i) {
      fds[i] = pollfd{open[i] ? lanes[i].fd : -1, POLLIN, 0};
    }
    const int ready = ::poll(fds, 2, kSocketTimeoutSeconds * 1000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return;  // the unanswered requests count as lost
    for (int i = 0; i < 2; ++i) {
      if (!open[i] || fds[i].revents == 0) continue;
      open[i] = readers[i].fill();
      Lane& lane = lanes[i];
      while (readers[i].extract(reply)) {
        const std::int64_t now = now_ns();
        Lane::Pending request;
        {
          const std::lock_guard lock{lane.mutex};
          if (lane.pending.empty()) {
            ++lane.mismatched;  // a reply nobody asked for
            continue;
          }
          request = lane.pending.front();
          lane.pending.pop_front();
        }
        if (reply !=
            script.expected[request.index % script.expected.size()]) {
          ++lane.mismatched;
        }
        lane.latency_ms.push_back(
            static_cast<double>(now - request.due_ns) / 1e6);
        lane.received.fetch_add(1, std::memory_order_release);
      }
    }
  }
}

}  // namespace

Script make_script(const repro::scenario::Dataset& dataset,
                   const repro::serve::ServeView& view, std::uint64_t seed,
                   std::size_t count) {
  const auto& samples = dataset.db.samples();
  const auto& members = dataset.b.clusters().members;
  if (samples.empty() || members.empty()) {
    throw repro::ConfigError("perfbench: the served dataset has no samples "
                             "or no B clusters");
  }
  std::size_t largest = 0;
  for (std::size_t id = 0; id < members.size(); ++id) {
    if (members[id].size() > members[largest].size()) largest = id;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  repro::Rng rng{seed ^ 0x7065'7266'6265'6e63ULL};
  Script script;
  for (std::size_t i = 0; i < count; ++i) {
    // bench_serve's seven requests in turn, with their arguments drawn
    // from the seed; every eighth cluster request asks for the largest
    // B cluster, so its reply (the costliest) shows in the p99.
    std::string line;
    switch (i % 7) {
      case 0:
        line = "health";
        break;
      case 1:
        line = "stats";
        break;
      case 2:
        line = "ccmap";
        break;
      case 3:
        line = "lookup " + samples[rng.index(samples.size())].md5;
        break;
      case 4:
        // 32 random hex digits; a collision with a real md5 would only
        // change the expected reply, never the check.
        line = "lookup ";
        for (int d = 0; d < 32; ++d) line += kHex[rng.index(16)];
        break;
      case 5:
        line = "cluster " + std::to_string(i % 56 == 5
                                               ? largest
                                               : rng.index(members.size()));
        break;
      default:
        // Past the last id: the typed NOT_FOUND path.
        line = "cluster " +
               std::to_string(members.size() + rng.index(1'000'000));
        break;
    }
    script.expected.push_back(
        repro::serve::render(view.answer(repro::serve::parse_request(line))));
    script.lines.push_back(std::move(line));
  }
  return script;
}

StepStats run_open_loop(std::uint16_t port, const Script& script, double rate,
                        double seconds, double late_bound_ms) {
  StepStats stats;
  stats.rate = rate;
  Lane lanes[2];
  for (Lane& lane : lanes) lane.fd = connect_loopback(port);
  std::thread receiver{[&] { receive_loop(lanes, script); }};

  const auto period_ns = static_cast<std::int64_t>(1e9 / rate);
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t i = 0;; ++i) {
    const std::int64_t due = start + static_cast<std::int64_t>(i) * period_ns;
    if (due >= stop) break;
    // Sleep to just short of the due time, then yield the rest: a plain
    // sleep overshoots by the timer slack on every request.
    const std::int64_t ahead = due - now_ns() - kSpinNs;
    if (ahead > 0) std::this_thread::sleep_for(std::chrono::nanoseconds{ahead});
    while (now_ns() < due) std::this_thread::yield();
    const double lag = static_cast<double>(now_ns() - due) / 1e6;
    stats.lag_ms.push_back(lag);
    if (lag > late_bound_ms) ++stats.late;
    Lane& lane = lanes[i % 2];
    {
      const std::lock_guard lock{lane.mutex};
      lane.pending.push_back(Lane::Pending{static_cast<std::size_t>(i), due});
    }
    ++stats.sent;
    if (!send_all(lane.fd, script.lines[i % script.lines.size()] + "\n")) {
      break;  // the unanswered requests count as lost below
    }
  }

  const auto received = [&] {
    return lanes[0].received.load(std::memory_order_acquire) +
           lanes[1].received.load(std::memory_order_acquire);
  };
  stats.backlog_at_end = stats.sent - received();
  const std::int64_t drain_deadline = now_ns() + kDrainTimeoutNs;
  while (received() < stats.sent && now_ns() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  // Half-close: the server answers what it already has, sees EOF and
  // closes, which ends each receiver.
  for (Lane& lane : lanes) ::shutdown(lane.fd, SHUT_WR);
  receiver.join();
  for (Lane& lane : lanes) {
    ::close(lane.fd);
    stats.received += lane.received.load();
    stats.mismatched += lane.mismatched;
    stats.latency_ms.insert(stats.latency_ms.end(), lane.latency_ms.begin(),
                            lane.latency_ms.end());
  }
  stats.lost = stats.sent - std::min(stats.sent, stats.received);
  return stats;
}

CapacityStats run_capacity(std::uint16_t port, const Script& script,
                           double seconds, std::size_t window) {
  CapacityStats stats;
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  const int fd = connect_loopback(port);
  ReplyReader reader{fd};
  std::size_t next = 0;
  std::deque<std::size_t> in_flight;
  std::string batch;
  const auto send_more = [&](std::size_t count) {
    batch.clear();
    for (std::size_t k = 0; k < count; ++k, ++next) {
      in_flight.push_back(next % script.lines.size());
      batch += script.lines[in_flight.back()];
      batch += '\n';
    }
    return send_all(fd, batch);
  };
  // Refilled by half a window at a time, so the server always has
  // requests queued while the client reads.
  bool sent = send_more(window);
  std::string reply;
  while (sent && !in_flight.empty()) {
    if (!reader.next(reply)) break;
    ++stats.replies;
    if (reply != script.expected[in_flight.front()]) ++stats.failed;
    in_flight.pop_front();
    if (in_flight.size() <= window / 2 && now_ns() < stop) {
      sent = send_more(window - in_flight.size());
    }
  }
  stats.failed += in_flight.size();  // never answered
  ::shutdown(fd, SHUT_WR);
  ::close(fd);
  stats.seconds = seconds_since(start);
  return stats;
}

}  // namespace perfbench
