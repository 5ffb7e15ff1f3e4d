// ABL-2 — scalability of behavioral clustering: exact O(n^2)
// single-linkage versus the LSH-accelerated variant of Bayer et al.
// (NDSS'09). Both must produce identical clusters; LSH evaluates far
// fewer candidate pairs, which is what made Anubis clustering scale.
//
// Runs as a google-benchmark binary and prints a quality/equivalence
// summary before the timing section. The summary is a gate: the binary
// exits non-zero when any LSH assignment differs from the exact one
// (`--benchmark_filter='^$'` runs the summary alone).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "cluster/behavioral.hpp"
#include "sandbox/profile.hpp"
#include "util/rng.hpp"

namespace {

using repro::Rng;
using repro::cluster::BehavioralOptions;
using repro::sandbox::BehavioralProfile;

/// Synthetic corpus shaped like the paper's: a few large behavior
/// families plus noisy singletons.
std::vector<BehavioralProfile> make_corpus(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<BehavioralProfile> profiles;
  profiles.reserve(n);
  const std::size_t families = 12;
  for (std::size_t i = 0; i < n; ++i) {
    BehavioralProfile profile;
    const std::size_t family = rng.index(families);
    for (int f = 0; f < 12; ++f) {
      profile.add("fam" + std::to_string(family) + "|" + std::to_string(f));
    }
    if (rng.chance(0.15)) {  // noisy execution -> singleton
      for (int f = 0; f < 8; ++f) {
        profile.add("noise|" + rng.alnum(10));
      }
    }
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

std::vector<const BehavioralProfile*> pointers(
    const std::vector<BehavioralProfile>& profiles) {
  std::vector<const BehavioralProfile*> out;
  out.reserve(profiles.size());
  for (const auto& p : profiles) out.push_back(&p);
  return out;
}

void BM_ExactClustering(benchmark::State& state) {
  const auto corpus = make_corpus(static_cast<std::size_t>(state.range(0)), 1);
  const auto ptrs = pointers(corpus);
  BehavioralOptions options;
  options.backend = repro::cluster::BackendKind::kExact;
  for (auto _ : state) {
    benchmark::DoNotOptimize(repro::cluster::cluster_profiles(ptrs, options));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExactClustering)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)
    ->Complexity(benchmark::oNSquared)->Unit(benchmark::kMillisecond);

void BM_LshClustering(benchmark::State& state) {
  const auto corpus = make_corpus(static_cast<std::size_t>(state.range(0)), 1);
  const auto ptrs = pointers(corpus);
  BehavioralOptions options;
  options.backend = repro::cluster::BackendKind::kLsh;
  for (auto _ : state) {
    benchmark::DoNotOptimize(repro::cluster::cluster_profiles(ptrs, options));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LshClustering)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)
    ->Arg(5000)->Complexity()->Unit(benchmark::kMillisecond);

/// Equivalence + pruning summary printed before the timings. Returns
/// whether every LSH partition equalled the exact one.
bool print_summary() {
  std::printf("### ABL-2: exact vs LSH behavioral clustering\n");
  bool identical = true;
  for (const std::size_t n : {500u, 2000u}) {
    const auto corpus = make_corpus(n, 7);
    const auto ptrs = pointers(corpus);
    BehavioralOptions exact;
    exact.backend = repro::cluster::BackendKind::kExact;
    BehavioralOptions lsh;
    lsh.backend = repro::cluster::BackendKind::kLsh;
    const auto exact_clusters = repro::cluster::cluster_profiles(ptrs, exact);
    // One signature pass serves both the LSH clustering and its
    // candidate-pair statistics.
    const auto lsh_run = repro::cluster::cluster_profiles_with_stats(ptrs, lsh);
    const auto& lsh_clusters = lsh_run.clusters;
    const auto& stats = lsh_run.stats;
    const bool same = exact_clusters.assignment == lsh_clusters.assignment;
    identical = identical && same;
    std::printf(
        "n=%zu: exact clusters=%zu, lsh clusters=%zu, identical=%s, "
        "pairs evaluated: %zu exact vs %zu lsh (%.1fx fewer)\n",
        n, exact_clusters.cluster_count(), lsh_clusters.cluster_count(),
        same ? "yes" : "NO",
        stats.exact_pairs, stats.lsh_candidate_pairs,
        static_cast<double>(stats.exact_pairs) /
            static_cast<double>(std::max<std::size_t>(
                1, stats.lsh_candidate_pairs)));
  }
  std::printf("\n");
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  const bool identical = print_summary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!identical) {
    std::fprintf(stderr, "ABL-2: an LSH partition differs from exact\n");
    return 1;
  }
  return 0;
}
