// Shared plumbing of the whole-system benchmark: command-line options,
// order statistics, the result report, the export digest the oracles
// compare, and the span recorder behind the traced run.
//
// Everything here sits outside the library: the benchmark reaches the
// pipeline only through the public headers under src/ and times each
// call from its own files.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "scenario/paper.hpp"

namespace perfbench {

/// Pool width of the builds made in set-up and of the traced sweep (the
/// machine the benchmark was defined on has 4 CPUs; output is
/// byte-identical at any width).
inline constexpr std::size_t kWidth = 4;
/// Pool width of the timed batch builds: one thread, so that the figure
/// follows the program and not how the scheduler of a shared 4-CPU host
/// places four busy threads.
inline constexpr std::size_t kTimedWidth = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 2008;
  double seconds = 10.0;
  bool trace = false;
  /// 0 = the workload's own scale (see workloads.hpp).
  double scale = 0.0;
  /// Scratch directory for WAL segments and checkpoint cuts; created
  /// and removed by the workload.
  std::string work_dir = ".bench_build/perfbench-work";
  /// Chrome trace-event JSON written at the end of a traced run (empty:
  /// not written).
  std::string trace_out;
  /// Self-test seam: hand every oracle a deliberately wrong reference
  /// (one flipped digest byte, one altered expected reply) so the run
  /// must fail.
  bool corrupt_reference = false;
};

/// Monotonic nanoseconds on the same clock as the library's spans.
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double seconds_since(std::int64_t start_ns);
/// CPU time of the calling thread / of the whole process, nanoseconds.
/// Time the host kept the thread waiting (steal, other runnable
/// threads) is not in it.
[[nodiscard]] std::int64_t thread_cpu_ns();
[[nodiscard]] std::int64_t process_cpu_ns();

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Speed of the host, taken from a fixed single-threaded kernel that
/// belongs to the benchmark (no library code), timed in thread CPU time
/// between the measured operations of a run.
///
/// The shared virtual machine the benchmark was defined on switches
/// between speeds for minutes at a time: the same width-1 build took
/// 1.1 s in one stretch and 2.0 s in the next, with under 1% steal time,
/// so the CPU time of a fixed piece of work moves with the host by up
/// to 1.8x. The gated throughputs, which are counted in CPU time, are
/// therefore reported at the nominal host speed: as measured x the
/// run's median kernel CPU time / kNominalKernelSeconds. The figures as
/// measured are printed beside them.
class HostSpeed {
 public:
  /// Median kernel CPU time over the runs made when the benchmark was
  /// defined (context.json).
  static constexpr double kNominalKernelSeconds = 0.0405;

  /// Times one pass of the kernel.
  void sample();
  /// Median kernel time of the run / nominal: above 1 on a slow host.
  [[nodiscard]] double slowdown() const;
  [[nodiscard]] std::size_t samples() const noexcept {
    return seconds_.size();
  }

 private:
  std::vector<double> seconds_;
};

/// A latency sample reduced to its median and the highest percentile
/// that still has at least ten samples beyond it.
struct Distribution {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_percentile = 50.0;  // e.g. 99.0 for p99
  double tail = 0.0;
};
[[nodiscard]] Distribution summarize(const std::vector<double>& values);
[[nodiscard]] std::string describe(const Distribution& d,
                                   const std::string& unit);

/// Peak resident set of a process (VmHWM in /proc/<pid>/status), MiB;
/// 0 when it cannot be read.
[[nodiscard]] double peak_rss_mib(const std::string& pid = "self");
/// Returns the allocator's free memory to the system and restarts this
/// process's peak resident set from what is left, so that
/// peak_rss_mib() covers only what follows.
void reset_peak_rss();

/// MD5 over the events, samples and E/P/M clusters CSV exports.
[[nodiscard]] std::string export_digest(const repro::scenario::Dataset& ds);
/// Flips one hex digit of a digest (the self-test's wrong reference).
[[nodiscard]] std::string flip_digest(std::string digest);

/// One metric, printed by name with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload (or the layer sweep) hands back to main.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The gated metrics of BENCHMARK.json, in its order.
  std::vector<Metric> metrics;
  /// Everything else worth printing: the named metrics of each
  /// workload, sample counts, validity checks.
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit);
};

/// Spans recorded from the benchmark's own files, kept in memory and
/// written as Chrome trace-event JSON when the run ends. Program spans
/// emitted through ScenarioOptions::trace are folded in under the
/// benchmark span that caused them.
class Tracer {
 public:
  using SpanId = std::size_t;
  static constexpr SpanId kNoParent = ~SpanId{0};

  explicit Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

  SpanId begin(std::string name, SpanId parent = kNoParent);
  void end(SpanId id);
  /// Copies every span of `recorder` (same clock), re-parenting its
  /// roots under `parent`.
  void adopt(const repro::obs::TraceRecorder& recorder, SpanId parent);
  /// Writes {"traceEvents": [...]} — one complete ("X") event per span
  /// with its id, parent and run id in args.
  void write_chrome_json(const std::string& path) const;

  class Scoped {
   public:
    Scoped(Tracer* tracer, std::string name, SpanId parent = kNoParent)
        : tracer_(tracer) {
      if (tracer_ != nullptr) id_ = tracer_->begin(std::move(name), parent);
    }
    ~Scoped() {
      if (tracer_ != nullptr) tracer_->end(id_);
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    [[nodiscard]] SpanId id() const noexcept { return id_; }

   private:
    Tracer* tracer_;
    SpanId id_ = kNoParent;
  };

 private:
  struct Span {
    std::string name;
    SpanId parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t thread = 0;
  };
  std::string run_id_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
