#include "workloads.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>

#include "loadgen.hpp"
#include "obs/metrics.hpp"
#include "server_process.hpp"
#include "util/error.hpp"

namespace perfbench {
namespace {

using repro::scenario::Dataset;
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/// Dataset seeds per run (see input_seed); each is set up once, and
/// setup_s is the median over them.
constexpr std::size_t kInputs = 8;

// The serve workload's load shape; context.json records where each
// figure comes from.
/// Republish interval at paper scale: the epoch cadence of a cold
/// paper-scale stream; it shrinks with the scale, as the epochs do.
constexpr double kRepublishIntervalMs = 2000.0;
/// The ladder each input is served through, with the reference rate
/// run between the other rungs so that its latency samples span the
/// whole run.
constexpr double kSchedule[] = {kReferenceRate, 0.5 * kReferenceRate,
                                kReferenceRate, 2.0 * kReferenceRate,
                                kReferenceRate, 3.0 * kReferenceRate,
                                kReferenceRate, 4.0 * kReferenceRate};
/// p99 limit a ladder step must meet to count towards query_max_rate.
constexpr double kLatencyLimitMs = 5.0;
/// Requests the capacity connection keeps in flight: deep enough that
/// the server, not the client's turn-around, sets the pace.
constexpr std::size_t kCapacityWindow = 128;
/// Share of the run spent on the ladder; the rest on capacity probes,
/// one after each ladder step.
constexpr double kLadderShare = 0.5;

std::string fixed(double value, int decimals = 3) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(decimals);
  out << value;
  return out.str();
}

struct Build {
  Dataset dataset;
  double seconds = 0.0;
  double cpu_seconds = 0.0;  // of the whole process
  Counters counters;
};

/// One build_paper_dataset call, timed alone; with a tracer, the
/// program's own spans are adopted under the benchmark span.
Build timed_build(const Options& options, std::uint64_t seed,
                  std::size_t width, Tracer* tracer, const char* span_name) {
  repro::obs::MetricsRegistry metrics;
  repro::obs::TraceRecorder recorder;
  repro::scenario::ScenarioOptions scenario =
      scenario_options(options, seed, width);
  scenario.metrics = &metrics;
  if (tracer != nullptr) scenario.trace = &recorder;
  const Tracer::Scoped span{tracer, span_name};
  Build build;
  const std::int64_t start = now_ns();
  const std::int64_t cpu_start = process_cpu_ns();
  build.dataset = repro::scenario::build_paper_dataset(scenario);
  build.cpu_seconds = static_cast<double>(process_cpu_ns() - cpu_start) / 1e9;
  build.seconds = seconds_since(start);
  build.counters = metrics.counter_values(repro::obs::Channel::kDeterministic);
  if (tracer != nullptr) tracer->adopt(recorder, span.id());
  return build;
}

/// Memory is averaged, not a median: the peak follows the input's
/// size, and a mean over the inputs follows the seed less.
double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

/// Writes the gated metrics shared by all workloads, the throughput at
/// the nominal host speed (see HostSpeed), and notes it as measured.
void add_gated(Result& result, const HostSpeed& host, double setup_s,
               double throughput, double peak_mib) {
  const double slowdown = host.slowdown();
  result.add("setup_s", setup_s, "s");
  result.add("throughput_per_s", throughput * slowdown, "1/s");
  result.add("peak_rss_mib", peak_mib, "MiB");
  result.notes.push_back(
      "host speed: reference kernel median " +
      fixed(slowdown * HostSpeed::kNominalKernelSeconds * 1e3) +
      " ms of CPU over " + std::to_string(host.samples()) +
      " passes (nominal " + fixed(HostSpeed::kNominalKernelSeconds * 1e3, 1) +
      " ms), slowdown " + fixed(slowdown) +
      "; throughput_per_s as measured " + fixed(throughput, 1) + " 1/s");
}

}  // namespace

double workload_scale(const Options& options) {
  return options.scale > 0.0 ? options.scale : 1.0;
}

std::uint64_t input_seed(const Options& options, std::size_t input) {
  return options.seed + 1000 * input;
}

repro::scenario::ScenarioOptions scenario_options(const Options& options,
                                                  std::uint64_t seed,
                                                  std::size_t width) {
  repro::scenario::ScenarioOptions scenario;
  scenario.seed = seed;
  scenario.scale = workload_scale(options);
  scenario.threads = width;
  return scenario;
}

void fresh_directory(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw repro::IoError("perfbench: cannot open " + path);
  ::syncfs(fd);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// batch
// ---------------------------------------------------------------------------

Result run_batch(const Options& options, Tracer* tracer) {
  Result result;
  HostSpeed host;
  struct Input {
    std::uint64_t seed = 0;
    std::string digest;
    Counters counters;
    std::size_t events = 0;
  };
  std::vector<Input> inputs;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kInputs; ++i) {
    host.sample();
    const std::int64_t start = now_ns();
    Input input;
    input.seed = input_seed(options, i);
    Build build =
        timed_build(options, input.seed, kWidth, tracer, "setup.reference");
    input.digest = export_digest(build.dataset);
    input.counters = std::move(build.counters);
    input.events = build.dataset.db.events().size();
    if (options.corrupt_reference) input.digest = flip_digest(input.digest);
    inputs.push_back(std::move(input));
    setup_s.push_back(seconds_since(start));
  }

  std::vector<double> events_per_cpu_s;
  std::vector<double> events_per_s;
  std::vector<double> build_ms;
  std::vector<double> peak_mib;  // of each build, the result held
  std::size_t events = 0;
  const std::int64_t start = now_ns();
  for (std::size_t round = 0;
       round < kInputs || seconds_since(start) < options.seconds; ++round) {
    const Input& input = inputs[round % kInputs];
    host.sample();
    reset_peak_rss();
    Build build = timed_build(options, input.seed, kTimedWidth, tracer,
                              "batch.build");
    peak_mib.push_back(peak_rss_mib());
    events_per_cpu_s.push_back(static_cast<double>(input.events) /
                               build.cpu_seconds);
    events_per_s.push_back(static_cast<double>(input.events) / build.seconds);
    build_ms.push_back(build.seconds * 1e3);
    events += input.events;
    result.check(export_digest(build.dataset) == input.digest,
                 "batch export digest differs from the width-4 reference");
    result.check(build.counters == input.counters,
                 "batch deterministic counters differ from the width-4 "
                 "reference");
  }

  // Events per second of the build's CPU time: on one thread that is
  // its wall time less the time the host kept it waiting.
  const double throughput = median(events_per_cpu_s);
  add_gated(result, host, median(setup_s), throughput, mean(peak_mib));
  result.notes.push_back(
      "batch_events_per_s = " + fixed(throughput * host.slowdown(), 1) +
      " 1/s of build CPU time at nominal host speed (median of " +
      std::to_string(events_per_cpu_s.size()) + " width-" +
      std::to_string(kTimedWidth) + " builds over " +
      std::to_string(kInputs) + " inputs, " +
      std::to_string(events / events_per_cpu_s.size()) +
      " events per build); " + fixed(median(events_per_s), 1) +
      " 1/s of wall time as measured");
  result.notes.push_back("batch build wall as measured: " +
                         describe(summarize(build_ms), "ms") +
                         "; peak resident set per build " +
                         describe(summarize(peak_mib), "MiB"));
  return result;
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

Result run_serve(const Options& options, Tracer* tracer) {
  Result result;
  HostSpeed host;
  // Each input is set up, then served for an equal share of the run,
  // so that the figures average over inputs.
  const double share_seconds = options.seconds / kInputs;
  const double step_seconds =
      share_seconds * kLadderShare / static_cast<double>(std::size(kSchedule));
  const double probe_seconds = share_seconds * (1.0 - kLadderShare) /
                               static_cast<double>(std::size(kSchedule));
  // At least two republishes per input, however short the run.
  const int republish_ms = std::max(
      1, static_cast<int>(std::min(kRepublishIntervalMs * workload_scale(options),
                                   share_seconds * 1e3 / 2.0)));
  std::vector<double> setup_s;
  std::vector<double> server_peak_mib;
  std::vector<double> capacity;
  std::vector<double> replies_per_cpu_s;
  // A rate counts towards query_max_rate when every step at it meets.
  std::map<double, bool> rate_meets;
  std::vector<double> reference_latency;
  std::vector<double> reference_p50;
  std::vector<double> reference_lag;
  std::uint64_t reference_late = 0;
  std::uint64_t republished = 0;
  repro::serve::ServeReport report;  // summed over the inputs' servers
  std::size_t reply_bytes = 0;
  std::size_t reply_count = 0;
  std::size_t largest_reply = 0;
  for (std::size_t i = 0; i < kInputs; ++i) {
    host.sample();
    const std::int64_t start = now_ns();
    const std::uint64_t seed = input_seed(options, i);
    const Build build =
        timed_build(options, seed, kWidth, tracer, "setup.dataset");
    std::unique_ptr<repro::serve::ServeView> view;
    {
      const Tracer::Scoped span{tracer, "setup.view"};
      view = std::make_unique<repro::serve::ServeView>(
          repro::serve::ServeView::build(build.dataset.db, build.dataset.e,
                                         build.dataset.p, build.dataset.m,
                                         build.dataset.b, 1));
    }
    Script script = make_script(build.dataset, *view, seed, kScriptLength);
    setup_s.push_back(seconds_since(start));
    if (options.corrupt_reference && i == 0) script.expected[0] += "x";
    for (const std::string& reply : script.expected) {
      reply_bytes += reply.size();
      largest_reply = std::max(largest_reply, reply.size());
    }
    reply_count += script.expected.size();

    // The server starts from the memory this process holds live.
    reset_peak_rss();
    ServerProcess server{build.dataset, *view, republish_ms};
    // Server CPU time is read in clock ticks, so it is summed over the
    // input's probes before it divides.
    double probe_cpu_s = 0.0;
    std::uint64_t probe_replies = 0;
    for (const double rate : kSchedule) {
      host.sample();
      StepStats step;
      {
        const Tracer::Scoped span{tracer, "serve.step." + fixed(rate, 0)};
        step = run_open_loop(server.port(), script, rate, step_seconds,
                             kLateBoundMs);
      }
      const Distribution latency = summarize(step.latency_ms);
      const double lag_p99 = quantile(step.lag_ms, 0.99);
      // Growing backlog: more requests outstanding when the schedule
      // ended than the latency limit's worth of arrivals.
      const double backlog_allowed =
          std::max(8.0, rate * kLatencyLimitMs / 1e3);
      const bool meets = step.failed() == 0 &&
                         quantile(step.latency_ms, 0.99) <= kLatencyLimitMs &&
                         static_cast<double>(step.backlog_at_end) <=
                             backlog_allowed &&
                         lag_p99 <= kLateBoundMs;
      rate_meets.try_emplace(rate, true).first->second &= meets;
      result.attempted += step.sent;
      result.failed += step.failed();
      result.notes.push_back(
          "input " + std::to_string(i) + " step " + fixed(rate, 0) +
          " req/s: " + describe(latency, "ms") + ", p99 " +
          fixed(quantile(step.latency_ms, 0.99)) + " ms, lag p99 " +
          fixed(lag_p99) + " ms, late " + std::to_string(step.late) + "/" +
          std::to_string(step.sent) + ", backlog " +
          std::to_string(step.backlog_at_end) + ", failed " +
          std::to_string(step.failed()) + (meets ? "" : "  [does not count]"));
      if (rate == kReferenceRate) {
        reference_latency.insert(reference_latency.end(),
                                 step.latency_ms.begin(),
                                 step.latency_ms.end());
        reference_p50.push_back(latency.p50);
        reference_lag.insert(reference_lag.end(), step.lag_ms.begin(),
                             step.lag_ms.end());
        reference_late += step.late;
      }
      const Tracer::Scoped span{tracer, "serve.capacity"};
      const double cpu_start = server.cpu_seconds();
      const CapacityStats stats =
          run_capacity(server.port(), script, probe_seconds, kCapacityWindow);
      probe_cpu_s += server.cpu_seconds() - cpu_start;
      probe_replies += stats.replies;
      capacity.push_back(static_cast<double>(stats.replies) / stats.seconds);
      result.attempted += stats.replies;
      result.failed += stats.failed;
    }
    if (probe_cpu_s > 0.0) {
      replies_per_cpu_s.push_back(static_cast<double>(probe_replies) /
                                  probe_cpu_s);
    }
    server_peak_mib.push_back(server.peak_rss_mib());

    const ServerProcess::Outcome outcome = server.finish();
    result.check(outcome.exited_cleanly,
                 "the server process did not drain and exit cleanly");
    result.check(!outcome.republish_failed && outcome.republished > 0,
                 "the writer thread did not republish the view");
    result.check(outcome.report.protocol_errors == 0 &&
                     outcome.report.busy_sheds == 0 &&
                     outcome.report.timeouts == 0,
                 "server reported protocol errors, sheds or timeouts");
    republished += outcome.republished;
    report.requests += outcome.report.requests;
    report.replies_ok += outcome.report.replies_ok;
    report.replies_err += outcome.report.replies_err;
    report.busy_sheds += outcome.report.busy_sheds;
    report.timeouts += outcome.report.timeouts;
  }
  double max_rate = 0.0;
  for (const auto& [rate, meets] : rate_meets) {
    if (meets) max_rate = rate;
  }

  // Replies per second of the server's own CPU time: the capacity one
  // core of the server gives, apart from the time the host's scheduler
  // keeps it waiting. Query latency is not gated: it follows the host's
  // scheduling (see context.json).
  const double throughput = median(replies_per_cpu_s);
  add_gated(result, host, median(setup_s), throughput,
            mean(server_peak_mib));
  const Distribution reference = summarize(reference_latency);
  result.notes.push_back(
      "script: " + std::to_string(kScriptLength) +
      " requests per input, mean reply " +
      std::to_string(reply_bytes / reply_count) + " bytes, largest reply " +
      std::to_string(largest_reply) + " bytes");
  result.notes.push_back(
      "query_p50_ms = " + fixed(reference.p50, 4) + " ms at " +
      fixed(kReferenceRate, 0) + " req/s (" + describe(reference, "ms") +
      "; per step " + describe(summarize(reference_p50), "ms") + ")");
  result.notes.push_back("query_p99_ms = " +
                         fixed(quantile(reference_latency, 0.99)) + " ms");
  result.notes.push_back("query_max_rate = " + fixed(max_rate, 0) +
                         " req/s (p99 <= " + fixed(kLatencyLimitMs, 1) +
                         " ms, lag p99 <= " + fixed(kLateBoundMs, 1) +
                         " ms, no growing backlog)");
  result.notes.push_back("loadgen.lag_p99_ms = " +
                         fixed(quantile(reference_lag, 0.99)) +
                         " ms at the reference rate, late " +
                         std::to_string(reference_late) + " of " +
                         std::to_string(reference_lag.size()));
  result.notes.push_back(
      "serve_replies_per_cpu_s = " + fixed(throughput * host.slowdown(), 0) +
      " 1/s at nominal host speed (median over " +
      std::to_string(replies_per_cpu_s.size()) +
      " inputs of their closed-loop probes, 1 connection with " +
      std::to_string(kCapacityWindow) +
      " in flight, replies per second of server CPU time; as measured " +
      fixed(throughput, 0) + ")");
  result.notes.push_back(
      "serve_capacity_per_s = " + fixed(median(capacity), 0) +
      " 1/s as measured (replies per wall second, median of " +
      std::to_string(capacity.size()) + " probes, " +
      fixed(*std::min_element(capacity.begin(), capacity.end()), 0) + " to " +
      fixed(*std::max_element(capacity.begin(), capacity.end()), 0) + "); " +
      std::to_string(republished) + " view republishes");
  result.notes.push_back(
      "server: requests " + std::to_string(report.requests) + ", ok " +
      std::to_string(report.replies_ok) + ", err " +
      std::to_string(report.replies_err) + " (expected NOT_FOUND), busy " +
      std::to_string(report.busy_sheds) + ", timeouts " +
      std::to_string(report.timeouts) + "; server peak resident set " +
      describe(summarize(server_peak_mib), "MiB"));
  return result;
}

}  // namespace perfbench
