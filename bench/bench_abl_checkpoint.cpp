// ABL-7 — cost of crash-safe checkpointing. Builds the dataset three
// ways: without checkpoints, with cold cut writes (the one-epoch run
// serializes its epoch cut, fsyncs it and renames it into place), and
// resuming from the warm checkpoint directory (the cut covers the whole
// stream, so enrichment and clustering are restored instead of
// recomputed; the landscape and the event stream are regenerated).
// Reports wall time per mode plus the on-disk size of the cut, and
// verifies both checkpointed runs export byte-identically to the plain
// build.
#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "io/csv_export.hpp"
#include "snapshot/checkpoint.hpp"
#include "util/table.hpp"

namespace {

std::string all_csv(const repro::scenario::Dataset& ds) {
  std::ostringstream out;
  repro::io::write_events_csv(out, ds.db, ds.e, ds.p, ds.m, ds.b);
  repro::io::write_samples_csv(out, ds.db, ds.b);
  repro::io::write_clusters_csv(out, ds.e);
  repro::io::write_clusters_csv(out, ds.p);
  repro::io::write_clusters_csv(out, ds.m);
  return out.str();
}

std::string megabytes(std::uintmax_t bytes) {
  std::ostringstream out;
  out.precision(2);
  out << std::fixed << static_cast<double>(bytes) / (1024.0 * 1024.0)
      << " MiB";
  return out.str();
}

}  // namespace

int main() {
  using namespace repro;
  namespace fs = std::filesystem;
  using clock = std::chrono::steady_clock;

  const scenario::ScenarioOptions base = bench::options_from_env();
  std::cout << "### ABL-7: cold cut writes vs warm restore\n"
            << "(seed " << base.seed << ", scale " << base.scale
            << "; building the pipeline with and without an epoch cut...)\n\n";

  const fs::path dir = fs::temp_directory_path() / "repro-abl-checkpoint";
  fs::remove_all(dir);

  struct Timed {
    double seconds = 0.0;
    scenario::Dataset dataset;
  };
  const auto timed_build = [](const scenario::ScenarioOptions& options) {
    const clock::time_point start = clock::now();
    Timed timed{0.0, scenario::build_paper_dataset(options)};
    timed.seconds = std::chrono::duration<double>(clock::now() - start).count();
    return timed;
  };

  const Timed plain = timed_build(base);

  scenario::ScenarioOptions checkpointed = base;
  checkpointed.checkpoint.directory = dir.string();
  const Timed cold = timed_build(checkpointed);
  const Timed warm = timed_build(checkpointed);

  TextTable table{{"mode", "wall time", "vs plain", "saved", "restored"}};
  const auto add = [&](const char* name, const Timed& timed) {
    std::ostringstream secs, ratio;
    secs.precision(2);
    secs << std::fixed << timed.seconds << " s";
    ratio.precision(2);
    ratio << std::fixed << timed.seconds / plain.seconds << "x";
    table.add_row({name, secs.str(), ratio.str(),
                   std::to_string(timed.dataset.checkpoint_activity.saved),
                   std::to_string(timed.dataset.checkpoint_activity.restored)});
  };
  add("no checkpoints", plain);
  add("cut writes (cold)", cold);
  add("restore from the cut (warm)", warm);
  std::cout << table.render() << "\n";

  const fs::path cut = dir / snapshot::epoch_filename(0);
  std::cout << "epoch cut " << cut.filename().string() << ": "
            << megabytes(fs::exists(cut) ? fs::file_size(cut) : 0) << "\n";

  const std::string reference = all_csv(plain.dataset);
  const bool identical =
      all_csv(cold.dataset) == reference && all_csv(warm.dataset) == reference;
  std::cout << (identical
                    ? "checkpointed exports byte-identical to plain build: yes\n"
                    : "checkpointed exports byte-identical to plain build: NO "
                      "(BUG)\n");
  fs::remove_all(dir);
  return identical ? 0 : 1;
}
