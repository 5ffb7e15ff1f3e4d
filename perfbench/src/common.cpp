#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "io/csv_export.hpp"
#include "obs/stopwatch.hpp"
#include "util/error.hpp"
#include "util/md5.hpp"

namespace perfbench {

namespace {
/// Keeps the optimizer from dropping the reference kernel's work.
volatile std::uint64_t kernel_sink = 0;
}  // namespace

std::int64_t now_ns() { return repro::obs::monotonic_now_ns(); }

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

namespace {
std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

void HostSpeed::sample() {
  // Integer mixing, byte hashing over an L2-sized buffer and small
  // string-keyed hash-map work: the kinds of work the pipeline does
  // (PE synthesis, MD5, feature interning), in fixed amounts.
  const std::int64_t start = thread_cpu_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t sink = 0;
  for (int i = 0; i < 8'000'000; ++i) sink += next() * 0x9E3779B97F4A7C15ULL;
  std::vector<std::uint8_t> bytes(256 << 10);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(next());
  std::uint64_t h = 1469598103934665603ULL;
  for (int pass = 0; pass < 24; ++pass) {
    for (const std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ULL;
  }
  sink += h;
  static constexpr char kHex[] = "0123456789abcdef";
  std::unordered_map<std::string, std::uint32_t> map;
  std::string key(32, '0');
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    const std::uint64_t a = next();
    const std::uint64_t b = next();
    for (int j = 0; j < 16; ++j) {
      key[j] = kHex[(a >> (4 * j)) & 15];
      key[16 + j] = kHex[(b >> (4 * j)) & 15];
    }
    map.emplace(key, i);
  }
  for (const auto& [name, value] : map) sink += name[3] + value;
  kernel_sink = sink;
  seconds_.push_back(static_cast<double>(thread_cpu_ns() - start) / 1e9);
}

double HostSpeed::slowdown() const {
  return seconds_.empty() ? 1.0 : median(seconds_) / kNominalKernelSeconds;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Distribution summarize(const std::vector<double>& values) {
  Distribution d;
  d.count = values.size();
  d.p50 = median(values);
  d.tail = d.p50;
  for (const double pct : {99.9, 99.0, 90.0}) {
    const double beyond = (1.0 - pct / 100.0) * static_cast<double>(d.count);
    if (beyond >= 10.0) {
      d.tail_percentile = pct;
      d.tail = quantile(values, pct / 100.0);
      break;
    }
  }
  return d;
}

std::string describe(const Distribution& d, const std::string& unit) {
  std::ostringstream out;
  out << "p50 " << d.p50 << ' ' << unit;
  if (d.tail_percentile > 50.0) {
    out << ", p" << d.tail_percentile << ' ' << d.tail << ' ' << unit;
  }
  out << " (n=" << d.count << ')';
  return out.str();
}

double peak_rss_mib(const std::string& pid) {
  std::ifstream in{"/proc/" + pid + "/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      // "VmHWM:   123456 kB"
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  // Free memory the allocator still holds from earlier work first, so
  // that the peak starts from what is live, not from what was retained.
  ::malloc_trim(0);
  // Writing 5 to clear_refs resets the peak resident set (Linux 4.0+).
  std::ofstream{"/proc/self/clear_refs"} << "5";
}

std::string export_digest(const repro::scenario::Dataset& ds) {
  std::ostringstream out;
  repro::io::write_events_csv(out, ds.db, ds.e, ds.p, ds.m, ds.b);
  repro::io::write_samples_csv(out, ds.db, ds.b);
  repro::io::write_clusters_csv(out, ds.e);
  repro::io::write_clusters_csv(out, ds.p);
  repro::io::write_clusters_csv(out, ds.m);
  const std::string bytes = out.str();
  return repro::Md5::hex_digest(std::span<const std::uint8_t>{
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
}

std::string flip_digest(std::string digest) {
  if (!digest.empty()) digest[0] = digest[0] == '0' ? '1' : '0';
  return digest;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    notes.push_back("FAILED: " + what);
  }
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::SpanId Tracer::begin(std::string name, SpanId parent) {
  const std::lock_guard lock{mutex_};
  spans_.push_back(Span{std::move(name), parent, now_ns(), 0,
                        std::hash<std::thread::id>{}(
                            std::this_thread::get_id())});
  return spans_.size() - 1;
}

void Tracer::end(SpanId id) {
  const std::int64_t t = now_ns();
  const std::lock_guard lock{mutex_};
  if (id < spans_.size()) spans_[id].end_ns = std::max(t, spans_[id].start_ns + 1);
}

void Tracer::adopt(const repro::obs::TraceRecorder& recorder, SpanId parent) {
  const std::vector<repro::obs::TraceRecorder::Span> program = recorder.spans();
  const std::lock_guard lock{mutex_};
  const std::size_t base = spans_.size();
  for (const auto& span : program) {
    const SpanId mapped = span.parent == repro::obs::TraceRecorder::kNoParent
                              ? parent
                              : base + span.parent;
    // The recorder does not keep thread ids; program spans share one
    // lane per adopted recorder, nested by time in the viewer.
    spans_.push_back(Span{span.name, mapped, span.start_ns,
                          std::max(span.end_ns, span.start_ns + 1), base});
  }
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw repro::IoError("perfbench: cannot write " + path);
  const std::lock_guard lock{mutex_};
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::int64_t end = span.end_ns != 0 ? span.end_ns : span.start_ns + 1;
    out << (i == 0 ? "" : ",\n") << "{\"name\":\""
        << repro::io::json_escape(span.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (span.thread % 1000000)
        << ",\"ts\":" << static_cast<double>(span.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(end - span.start_ns) / 1e3
        << ",\"args\":{\"span\":" << i << ",\"parent\":"
        << (span.parent == kNoParent ? -1 : static_cast<long long>(span.parent))
        << ",\"run\":\"" << repro::io::json_escape(run_id_) << "\"}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
