#include "server_process.hpp"

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/error.hpp"

namespace perfbench {
namespace {

using repro::scenario::Dataset;

constexpr std::int64_t kReapTimeoutNs = 10'000'000'000;

bool read_all(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, bytes, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, bytes, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Rebuilds the view from the dataset every `interval_ms` and publishes
/// it; the epoch is unchanged, so every reply stays byte-identical.
class Republisher {
 public:
  Republisher(repro::serve::Server& server, const Dataset& dataset,
              std::uint64_t epoch, int interval_ms)
      : server_(server),
        dataset_(dataset),
        epoch_(epoch),
        interval_ms_(interval_ms) {
    if (interval_ms_ > 0) thread_ = std::thread{[this] { loop(); }};
  }
  ~Republisher() { stop(); }
  Republisher(const Republisher&) = delete;
  Republisher& operator=(const Republisher&) = delete;

  void stop() {
    {
      const std::lock_guard lock{mutex_};
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after stop().
  [[nodiscard]] std::uint64_t published() const { return published_; }
  [[nodiscard]] bool failed() const { return failed_; }

 private:
  void loop() {
    std::unique_lock lock{mutex_};
    while (!cv_.wait_for(lock, std::chrono::milliseconds{interval_ms_},
                         [this] { return stop_; })) {
      lock.unlock();
      try {
        server_.publish(std::make_shared<const repro::serve::ServeView>(
            repro::serve::ServeView::build(dataset_.db, dataset_.e,
                                           dataset_.p, dataset_.m,
                                           dataset_.b, epoch_)));
        ++published_;
      } catch (const std::exception&) {
        failed_ = true;
      }
      lock.lock();
    }
  }

  repro::serve::Server& server_;
  const Dataset& dataset_;
  std::uint64_t epoch_;
  int interval_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;            // guarded by mutex_
  std::uint64_t published_ = 0;  // writer thread until joined
  bool failed_ = false;          // writer thread until joined
  std::thread thread_;
};

/// Child side: serve until the parent closes its end of `stop_fd`, then
/// send the outcome up `report_fd`. Returns the exit status.
int serve_child(const Dataset& dataset, const repro::serve::ServeView& view,
                int republish_ms, int stop_fd, int report_fd) {
  try {
    repro::serve::ServerOptions options;
    options.workers = 2;
    repro::serve::Server server{options};
    server.start();
    server.publish(std::make_shared<const repro::serve::ServeView>(view));
    Republisher republisher{server, dataset, view.epoch(), republish_ms};
    const std::uint16_t port = server.port();
    if (!write_all(report_fd, &port, sizeof port)) return 3;
    char byte = 0;
    while (::read(stop_fd, &byte, 1) > 0) {
    }
    republisher.stop();
    server.stop();
    ServerProcess::Outcome outcome;
    outcome.report = server.report();
    outcome.republished = republisher.published();
    outcome.republish_failed = republisher.failed();
    return write_all(report_fd, &outcome, sizeof outcome) ? 0 : 3;
  } catch (...) {
    return 4;
  }
}

/// Restricts the calling thread (and the threads it starts later) to
/// one half of `cpus`: the lower half for the server, the upper half for
/// the load generator, so neither side's threads land on the other's
/// CPUs by chance. No-op with fewer than 4 CPUs.
void pin_to_half(const cpu_set_t& cpus, bool lower) {
  const int count = CPU_COUNT(&cpus);
  if (count < 4) return;
  cpu_set_t half;
  CPU_ZERO(&half);
  int seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && seen < count; ++cpu) {
    if (!CPU_ISSET(cpu, &cpus)) continue;
    if ((seen < count / 2) == lower) CPU_SET(cpu, &half);
    ++seen;
  }
  ::sched_setaffinity(0, sizeof half, &half);
}

}  // namespace

ServerProcess::ServerProcess(const Dataset& dataset,
                             const repro::serve::ServeView& view,
                             int republish_ms) {
  int down[2];
  int up[2];
  if (::pipe(down) != 0) throw repro::IoError("perfbench: pipe() failed");
  if (::pipe(up) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    throw repro::IoError("perfbench: pipe() failed");
  }
  CPU_ZERO(&cpus_);
  ::sched_getaffinity(0, sizeof cpus_, &cpus_);
  std::cout.flush();
  pid_ = ::fork();
  if (pid_ == 0) {
    ::close(down[1]);
    ::close(up[0]);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    pin_to_half(cpus_, /*lower=*/true);
    // _exit: the child must not flush or destroy the parent's state.
    ::_exit(serve_child(dataset, view, republish_ms, down[0], up[1]));
  }
  ::close(down[0]);
  ::close(up[1]);
  if (pid_ > 0) pin_to_half(cpus_, /*lower=*/false);
  to_child_ = down[1];
  from_child_ = up[0];
  if (pid_ < 0 || !read_all(from_child_, &port_, sizeof port_)) {
    finish();
    throw repro::IoError("perfbench: the server process did not start");
  }
}

ServerProcess::~ServerProcess() { finish(); }

double ServerProcess::peak_rss_mib() const {
  return pid_ > 0 ? perfbench::peak_rss_mib(std::to_string(pid_)) : 0.0;
}

double ServerProcess::cpu_seconds() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in{"/proc/" + std::to_string(pid_) + "/stat"};
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime are fields 14 and 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields{stat.substr(close + 2)};
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

ServerProcess::Outcome ServerProcess::finish() {
  Outcome outcome;
  if (to_child_ < 0) return outcome;
  ::close(to_child_);  // the stop signal
  to_child_ = -1;
  ::sched_setaffinity(0, sizeof cpus_, &cpus_);
  const bool reported =
      pid_ > 0 && read_all(from_child_, &outcome, sizeof outcome);
  ::close(from_child_);
  from_child_ = -1;
  if (pid_ <= 0) return outcome;
  int status = 0;
  const std::int64_t deadline = now_ns() + kReapTimeoutNs;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  pid_ = -1;
  outcome.exited_cleanly =
      reported && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return outcome;
}

}  // namespace perfbench
