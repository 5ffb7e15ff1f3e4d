// perfbench — the whole-system benchmark program.
//
//   perfbench --workload batch|serve --seed N --seconds S
//             --trace 0|1 [--scale X] [--work-dir DIR]
//             [--trace-out FILE] [--corrupt-reference]
//
// With --trace 0 it runs the workload untraced and reports the gated
// end-to-end metrics; with --trace 1 it runs the workload with spans on,
// then the per-layer sweep, and reports the per-layer metrics (and
// writes the spans as Chrome trace-event JSON to --trace-out). Every
// metric is printed by name with its unit; the last line of standard
// output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Exit status: 0 when every oracle held, 1 when any failed (the result
// line is still printed), 2 on a usage or set-up error (no result line).
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "util/error.hpp"
#include "util/parse.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

std::string number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc{} ? std::string(buffer, end) : std::string{"0"};
}

double parse_positive(const std::string& text, const char* what) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() ||
      !(value > 0.0) || !std::isfinite(value)) {
    throw repro::ConfigError(std::string{what} + " must be a positive number");
  }
  return value;
}

std::string json_line(const Result& result, bool correct) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    out += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
           number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw repro::ConfigError("missing value after " + std::string{arg});
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = repro::parse_u64(value(), "--seed");
    } else if (arg == "--seconds") {
      options.seconds = parse_positive(value(), "--seconds");
    } else if (arg == "--trace") {
      options.trace = repro::parse_u64(value(), "--trace") != 0;
    } else if (arg == "--scale") {
      options.scale = parse_positive(value(), "--scale");
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
    } else {
      throw repro::ConfigError("unknown argument " + std::string{arg});
    }
  }
  if (!have_workload ||
      (options.workload != "batch" && options.workload != "serve")) {
    throw repro::ConfigError("--workload must be batch or serve");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    const std::string run_id = options.workload + "-" +
                               std::to_string(options.seed) + "-" +
                               std::to_string(::getpid());
    std::cout << "perfbench " << options.workload << " seed " << options.seed
              << " scale " << perfbench::workload_scale(options)
              << " seconds " << options.seconds << " trace "
              << (options.trace ? 1 : 0) << "\n"
              << "env: nproc " << std::thread::hardware_concurrency()
              << ", compiler g++ " << __VERSION__ << ", build "
#ifdef NDEBUG
              << "optimized (NDEBUG)"
#else
              << "assertions on"
#endif
              << "\n";

    perfbench::Tracer tracer{run_id};
    perfbench::Tracer* spans = options.trace ? &tracer : nullptr;
    Result result;
    if (options.workload == "batch") {
      result = perfbench::run_batch(options, spans);
    } else {
      result = perfbench::run_serve(options, spans);
    }
    for (const Metric& metric : result.metrics) {
      std::cout << metric.name << " = " << number(metric.value) << ' '
                << metric.unit << "\n";
    }
    if (options.trace) {
      // The traced run reports per-layer figures; the workload's own
      // numbers above were taken with spans on and are not gated.
      Result layers = perfbench::run_layers(options, tracer);
      layers.attempted += result.attempted;
      layers.failed += result.failed;
      layers.notes.insert(layers.notes.begin(), result.notes.begin(),
                          result.notes.end());
      result = std::move(layers);
      for (const Metric& metric : result.metrics) {
        std::cout << metric.name << " = " << number(metric.value) << ' '
                  << metric.unit << "\n";
      }
      if (!options.trace_out.empty()) {
        tracer.write_chrome_json(options.trace_out);
        std::cout << "trace: " << options.trace_out << "\n";
      }
    }
    for (const Metric& metric : result.metrics) {
      if (!std::isfinite(metric.value)) {
        ++result.failed;
        result.notes.push_back("FAILED: " + metric.name +
                               " is not a finite number");
      }
    }
    for (const std::string& note : result.notes) std::cout << note << "\n";
    const double fail_ratio =
        result.attempted == 0 ? 1.0
                              : static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted);
    std::cout << "fail_ratio = " << number(fail_ratio) << " ("
              << result.failed << " of " << result.attempted << ")\n";
    const bool correct = result.failed == 0 && result.attempted > 0;
    std::cout << json_line(result, correct) << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& err) {
    std::cerr << "perfbench: " << err.what() << "\n";
    return 2;
  }
}
