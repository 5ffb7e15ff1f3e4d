#include "cluster/behavioral.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "cluster/backend.hpp"
#include "cluster/minhash.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace repro::cluster {

namespace {

/// Jaccard over sorted unique id vectors.
double jaccard_ids(const std::vector<std::uint64_t>& a,
                   const std::vector<std::uint64_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::size_t intersection = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++intersection;
      ++i;
      ++j;
    }
  }
  const std::size_t unions = a.size() + b.size() - intersection;
  return unions == 0 ? 1.0
                     : static_cast<double>(intersection) /
                           static_cast<double>(unions);
}

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// Union by size: the larger tree's root absorbs the smaller, so
  /// find paths stay near-constant even on adversarial unite orders
  /// (a chain of buckets each attaching one new member used to build a
  /// linear parent chain). Which root represents a component is an
  /// internal detail — cluster ids are densified by first member, so
  /// the output partition is unaffected.
  void unite(std::size_t a, std::size_t b) {
    std::size_t root_a = find(a);
    std::size_t root_b = find(b);
    if (root_a == root_b) return;
    if (size_[root_a] < size_[root_b]) std::swap(root_a, root_b);
    parent_[root_b] = root_a;
    size_[root_a] += size_[root_b];
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

/// Fills ids[base..] with the feature-id sets of profiles[base..],
/// fanned out over the pool when one is attached.
void fill_id_sets(const std::vector<const sandbox::BehavioralProfile*>& profiles,
                  std::vector<std::vector<std::uint64_t>>& ids,
                  std::size_t base, ThreadPool* pool) {
  const auto fill = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = base + begin; i < base + end; ++i) {
      if (profiles[i] == nullptr) {
        throw ConfigError("cluster_profiles: null profile pointer");
      }
      ids[i] = profiles[i]->feature_ids();
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(profiles.size() - base, 64, fill);
  } else {
    fill(0, profiles.size() - base);
  }
}

/// Bands MinHash signatures into an LSH index. The bucket-map inserts
/// stay serial so every bucket's item list is built in ascending index
/// order. With `reps`, only exact-duplicate representatives
/// (reps[i] == i) are inserted.
LshIndex band_signatures(
    const std::vector<std::vector<std::uint64_t>>& signatures,
    const BehavioralOptions& options,
    const std::vector<std::size_t>* reps = nullptr) {
  LshIndex index{options.lsh_bands, options.lsh_rows};
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    if (reps == nullptr || (*reps)[i] == i) index.insert(i, signatures[i]);
  }
  return index;
}

/// Exact-duplicate representative of every item: rep[i] is the first
/// index whose id set equals ids[i]. Behavioral corpora are heavily
/// duplicated (one malware family, thousands of identical profiles),
/// so mapping Jaccard work onto representatives collapses each
/// duplicate class to one evaluation.
std::vector<std::size_t> duplicate_reps(
    const std::vector<std::vector<std::uint64_t>>& ids) {
  std::vector<std::size_t> rep(ids.size());
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index;
  index.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::uint64_t hash = 0x84222325cbf29ce4ULL ^ ids[i].size();
    for (const std::uint64_t id : ids[i]) hash = mix64(hash ^ id);
    std::vector<std::size_t>& candidates = index[hash];
    rep[i] = i;
    for (const std::size_t candidate : candidates) {
      if (ids[candidate] == ids[i]) {
        rep[i] = candidate;
        break;
      }
    }
    if (rep[i] == i) candidates.push_back(i);
  }
  return rep;
}

/// Replays a prior partition into the union-find: items that shared a
/// cluster are reconnected through their cluster's first member.
void seed_partition(UnionFind& groups, const std::vector<int>& assignment) {
  constexpr std::size_t kNone = ~std::size_t{0};
  std::vector<std::size_t> first;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] < 0) continue;
    const auto cluster = static_cast<std::size_t>(assignment[i]);
    if (cluster >= first.size()) first.resize(cluster + 1, kNone);
    if (first[cluster] == kNone) {
      first[cluster] = i;
    } else {
      groups.unite(first[cluster], i);
    }
  }
}

/// Evaluates within-bucket pairs and unions those whose Jaccard
/// similarity passes the threshold. Skipping a pair whose endpoints
/// are already connected (globally in the serial path, task-locally in
/// the parallel path) only suppresses edges that are redundant for the
/// connected components, so both paths — at any pool width — produce
/// the same partition. Within a bucket most items are near duplicates,
/// so after the first successful unite the union-find short-circuits
/// the remaining pairs in O(alpha) each — this is what keeps LSH
/// clustering below the O(n^2) distance matrix.
///
/// `groups` arrives pre-seeded with the caller's prior partition over
/// the first `old_n` items; pairs wholly inside that prefix are
/// skipped because their edges are already present (see
/// BehavioralOptions::prior_assignment for why that is sound).
void unite_bucket_pairs(UnionFind& groups,
                        const std::vector<std::vector<std::uint64_t>>& ids,
                        const std::vector<std::vector<std::size_t>>& buckets,
                        const BehavioralOptions& options, std::size_t old_n) {
  const double threshold = options.threshold;
  ThreadPool* pool = options.pool;
  // A pair of items can share several distinct buckets. Each sweep
  // memoizes failed pairs (passing pairs already short-circuit through
  // the union-find) to evaluate every pair at most once instead of once
  // per shared bucket. The packed key needs both indices to fit 32 bits.
  const bool memoize = ids.size() < (std::size_t{1} << 32);
  if (options.metrics != nullptr) {
    // Worst-case pair count is a property of the bucket contents, not
    // of the schedule — deterministic. The *performed* evaluation
    // count below is not: the union-find short-circuit depends on the
    // order (and task-locality) of earlier unions.
    std::size_t bucket_pairs = 0;
    for (const auto& bucket : buckets) {
      bucket_pairs += bucket.size() * (bucket.size() - 1) / 2;
    }
    obs::add_counter(options.metrics, "cluster.b.bucket_pairs", bucket_pairs);
  }
  obs::Counter* evaluations =
      options.metrics == nullptr
          ? nullptr
          : &options.metrics->counter("cluster.b.jaccard_evaluations",
                                      obs::Channel::kRuntime);

  using Edge = std::pair<std::size_t, std::size_t>;
  const auto process = [&](const std::vector<std::size_t>& bucket,
                           UnionFind& uf, std::vector<Edge>* edges,
                           std::uint64_t& evaluated,
                           std::unordered_set<std::uint64_t>* failed) {
    for (std::size_t i = 1; i < bucket.size(); ++i) {
      // Bucket items ascend, so bucket[i] < old_n puts every partner
      // bucket[j < i] inside the seeded prefix too.
      if (bucket[i] < old_n) continue;
      for (std::size_t j = 0; j < i; ++j) {
        const std::size_t a = bucket[j];
        const std::size_t b = bucket[i];
        if (uf.find(a) == uf.find(b)) continue;
        std::uint64_t key = 0;
        if (failed != nullptr) {
          key = (std::uint64_t{a} << 32) | b;
          if (failed->contains(key)) continue;
        }
        ++evaluated;
        if (jaccard_ids(ids[a], ids[b]) >= threshold) {
          uf.unite(a, b);
          if (edges != nullptr) edges->emplace_back(a, b);
        } else if (failed != nullptr) {
          failed->insert(key);
        }
      }
    }
  };

  if (pool == nullptr || pool->width() == 1 || buckets.size() < 2) {
    std::uint64_t evaluated = 0;
    std::unordered_set<std::uint64_t> failed;
    for (const auto& bucket : buckets) {
      process(bucket, groups, nullptr, evaluated, memoize ? &failed : nullptr);
    }
    if (evaluations != nullptr) evaluations->add(evaluated);
    return;
  }

  // Contiguous ranges of the (deterministically ordered) bucket list,
  // weighted by worst-case pair count so one giant bucket lands in its
  // own range instead of serializing everything behind it. Each range
  // runs with a task-local union-find and records its passing pairs;
  // the ranges' edge lists are then merged in range order.
  std::size_t total_weight = 0;
  for (const auto& bucket : buckets) {
    total_weight += bucket.size() * (bucket.size() - 1) / 2;
  }
  const std::size_t target_tasks = pool->width() * 4;
  const std::size_t per_task = std::max<std::size_t>(
      1, (total_weight + target_tasks - 1) / target_tasks);
  std::vector<std::size_t> bounds{0};
  std::size_t accumulated = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    accumulated += buckets[i].size() * (buckets[i].size() - 1) / 2;
    if (accumulated >= per_task && i + 1 < buckets.size()) {
      bounds.push_back(i + 1);
      accumulated = 0;
    }
  }
  bounds.push_back(buckets.size());

  const std::size_t tasks = bounds.size() - 1;
  std::vector<std::vector<Edge>> edges(tasks);
  // Task-local union-finds start as copies of the seeded global one so
  // the prior partition short-circuits old/new pairs inside each task.
  const UnionFind seeded = groups;
  pool->parallel_for(tasks, 1, [&](std::size_t task, std::size_t) {
    UnionFind local = seeded;
    std::uint64_t evaluated = 0;
    std::unordered_set<std::uint64_t> failed;
    for (std::size_t i = bounds[task]; i < bounds[task + 1]; ++i) {
      process(buckets[i], local, &edges[task], evaluated,
              memoize ? &failed : nullptr);
    }
    if (evaluations != nullptr) evaluations->add(evaluated);
  });
  for (const std::vector<Edge>& task_edges : edges) {
    for (const auto& [a, b] : task_edges) groups.unite(a, b);
  }
}

/// Shared core: unions qualifying pairs (from LSH buckets over
/// `signatures`, or all pairs when `signatures` is null) and densifies
/// cluster ids in first-member order.
BehavioralClusters cluster_from_ids(
    const std::vector<std::vector<std::uint64_t>>& ids,
    const BehavioralOptions& options,
    const std::vector<std::vector<std::uint64_t>>* signatures) {
  const std::size_t n = ids.size();
  BehavioralClusters result;
  if (n == 0) return result;

  UnionFind groups{n};
  std::size_t old_n = 0;
  if (options.prior_assignment != nullptr &&
      options.prior_assignment->size() <= n) {
    old_n = options.prior_assignment->size();
    seed_partition(groups, *options.prior_assignment);
  }
  // Duplicates score Jaccard 1.0, so at any threshold <= 1.0 each
  // duplicate class lies inside one component: unite it up front.
  const bool collapse = options.threshold <= 1.0;
  std::vector<std::size_t> reps;
  if (collapse) {
    reps = duplicate_reps(ids);
    for (std::size_t i = 0; i < n; ++i) {
      if (reps[i] != i) groups.unite(reps[i], i);
    }
  }
  if (signatures != nullptr) {
    // Only representatives are banded. A duplicate has its
    // representative's signature, so it shares every bucket with it; it
    // is already united with it; and Jaccard depends on the id sets
    // alone, so its pairs score exactly as its representative's do. Its
    // buckets would add only edges the partition already has. reps[i]
    // <= i and reps are stable under append, so a prior partition's
    // prefix still covers every old/old representative pair.
    const LshIndex index =
        band_signatures(*signatures, options, collapse ? &reps : nullptr);
    unite_bucket_pairs(groups, ids, index.multi_item_buckets(), options,
                       old_n);
  } else {
    std::uint64_t evaluated = 0;
    for (std::size_t i = 0; i < n; ++i) {
      // Pairs wholly inside the seeded prefix were already decided by
      // the prior partition; resume at its edge.
      for (std::size_t j = i < old_n ? old_n : i + 1; j < n; ++j) {
        if (groups.find(i) == groups.find(j)) continue;
        ++evaluated;
        if (jaccard_ids(ids[i], ids[j]) >= options.threshold) {
          groups.unite(i, j);
        }
      }
    }
    obs::add_counter(options.metrics, "cluster.b.exact_pairs",
                     n * (n - 1) / 2);
    if (options.metrics != nullptr) {
      options.metrics
          ->counter("cluster.b.jaccard_evaluations", obs::Channel::kRuntime)
          .add(evaluated);
    }
  }

  // Densify cluster ids in first-member order.
  result.assignment.assign(n, -1);
  std::vector<int> root_to_cluster(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = groups.find(i);
    if (root_to_cluster[root] < 0) {
      root_to_cluster[root] = static_cast<int>(result.members.size());
      result.members.emplace_back();
    }
    const int cluster = root_to_cluster[root];
    result.assignment[i] = cluster;
    result.members[static_cast<std::size_t>(cluster)].push_back(i);
  }
  // A partition of n items into k components took exactly n - k
  // effective unions regardless of which redundant edges were skipped —
  // deterministic even though the edge set explored is not.
  obs::add_counter(options.metrics, "cluster.b.union_ops",
                   n - result.members.size());
  return result;
}

}  // namespace

namespace detail {

/// Feature-id sets of every profile. With an attached signature cache
/// the store's id-set cache is the backing storage: only ids of items
/// appended since the previous pass are recomputed (profiles are
/// immutable, so the cached prefix is bit-identical to a fresh
/// extraction). Without one, `scratch` holds a freshly computed set.
const std::vector<std::vector<std::uint64_t>>& profile_id_sets(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options,
    std::vector<std::vector<std::uint64_t>>& scratch) {
  SignatureStore* cache = options.signature_cache;
  if (cache == nullptr) {
    scratch.assign(profiles.size(), {});
    fill_id_sets(profiles, scratch, 0, options.pool);
    return scratch;
  }
  if (cache->id_sets.size() > profiles.size()) cache->id_sets.clear();
  const std::size_t have = cache->id_sets.size();
  cache->id_sets.resize(profiles.size());
  fill_id_sets(profiles, cache->id_sets, have, options.pool);
  return cache->id_sets;
}

/// MinHash signatures of every id set. The computation (the expensive
/// part of both the LSH and K-means backends) fans out over the pool
/// into disjoint slots. An attached signature cache supplies the
/// unchanged prefix (items are positional and the streaming caller
/// only ever appends) and is the backing storage for this pass — new
/// signatures are computed straight into it, nothing is copied. A
/// configuration change or a shrunk item list invalidates it.
const std::vector<std::vector<std::uint64_t>>& minhash_signatures(
    const std::vector<std::vector<std::uint64_t>>& ids,
    const BehavioralOptions& options,
    std::vector<std::vector<std::uint64_t>>& scratch) {
  const MinHasher hasher{options.lsh_bands * options.lsh_rows, options.seed};
  SignatureStore* cache = options.signature_cache;
  const std::uint64_t config =
      signature_config(options.lsh_bands, options.lsh_rows, options.seed);
  if (cache != nullptr &&
      (cache->config != config || cache->signatures.size() > ids.size())) {
    cache->config = config;
    cache->signatures.clear();
  }
  std::vector<std::vector<std::uint64_t>>& signatures =
      cache != nullptr ? cache->signatures : scratch;
  const std::size_t cached = signatures.size();
  signatures.resize(ids.size());
  const auto compute = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      signatures[cached + i] = hasher.signature(ids[cached + i]);
    }
  };
  if (options.pool != nullptr) {
    options.pool->parallel_for(ids.size() - cached, 64, compute);
  } else {
    compute(0, ids.size() - cached);
  }
  if (cache != nullptr) {
    cache->reused += cached;
    cache->computed += ids.size() - cached;
  }
  obs::add_counter(options.metrics, "cluster.b.signatures", ids.size());
  return signatures;
}

}  // namespace detail

std::size_t BehavioralClusters::singleton_count() const noexcept {
  std::size_t count = 0;
  for (const auto& cluster : members) count += cluster.size() == 1 ? 1 : 0;
  return count;
}

BehavioralClusters cluster_profiles(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options) {
  return cluster_backend(options.backend).partition(profiles, options);
}

BehavioralClusters lsh_single_linkage(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options) {
  std::vector<std::vector<std::uint64_t>> scratch;
  const auto& ids = detail::profile_id_sets(profiles, options, scratch);
  if (ids.empty()) return {};
  std::vector<std::vector<std::uint64_t>> signature_scratch;
  return cluster_from_ids(
      ids, options,
      &detail::minhash_signatures(ids, options, signature_scratch));
}

BehavioralClusters exact_single_linkage(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options) {
  std::vector<std::vector<std::uint64_t>> scratch;
  const auto& ids = detail::profile_id_sets(profiles, options, scratch);
  if (ids.empty()) return {};
  return cluster_from_ids(ids, options, nullptr);
}

PairStats pair_stats(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options) {
  PairStats stats;
  const std::size_t n = profiles.size();
  stats.exact_pairs = n * (n - 1) / 2;
  std::vector<std::vector<std::uint64_t>> scratch;
  const auto& ids = detail::profile_id_sets(profiles, options, scratch);
  std::vector<std::vector<std::uint64_t>> signature_scratch;
  // Over every item, duplicates included: the statistic describes what
  // banding proposes, not what the clustering sweep walks.
  stats.lsh_candidate_pairs =
      band_signatures(
          detail::minhash_signatures(ids, options, signature_scratch), options)
          .candidate_pairs()
          .size();
  return stats;
}

ClusteringRun cluster_profiles_with_stats(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options) {
  ClusteringRun run;
  const std::size_t n = profiles.size();
  run.stats.exact_pairs = n * (n - 1) / 2;
  std::vector<std::vector<std::uint64_t>> scratch;
  const auto& ids = detail::profile_id_sets(profiles, options, scratch);
  if (ids.empty()) return run;
  // One signature pass feeds both artifacts: the statistic bands every
  // item (as pair_stats does), the clustering only representatives.
  std::vector<std::vector<std::uint64_t>> signature_scratch;
  const auto& signatures =
      detail::minhash_signatures(ids, options, signature_scratch);
  run.stats.lsh_candidate_pairs =
      band_signatures(signatures, options).candidate_pairs().size();
  if (options.backend == BackendKind::kLsh) {
    run.clusters = cluster_from_ids(ids, options, &signatures);
  } else if (options.backend == BackendKind::kExact) {
    run.clusters = cluster_from_ids(ids, options, nullptr);
  } else {
    run.clusters = cluster_profiles(profiles, options);
  }
  return run;
}

}  // namespace repro::cluster
