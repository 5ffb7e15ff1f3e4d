// Cross-module consistency checks on one end-to-end pipeline run:
// invariants that must hold between the database, the four
// clusterings, and every analysis built on top of them.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <sstream>

#include "analysis/anomaly.hpp"
#include "analysis/codeshare.hpp"
#include "analysis/evolution.hpp"
#include "analysis/graph.hpp"
#include "analysis/healing.hpp"
#include "fault/plan.hpp"
#include "io/csv_export.hpp"
#include "io/csv_import.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/paper.hpp"

namespace repro {
namespace {

class Pipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario::ScenarioOptions options;
    options.scale = 0.12;
    options.seed = 99;
    dataset_ = new scenario::Dataset(scenario::build_paper_dataset(options));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static const scenario::Dataset& ds() { return *dataset_; }

 private:
  static scenario::Dataset* dataset_;
};

scenario::Dataset* Pipeline::dataset_ = nullptr;

TEST_F(Pipeline, EpmMembersPartitionRows) {
  for (const cluster::EpmResult* result : {&ds().e, &ds().p, &ds().m}) {
    std::size_t total = 0;
    std::set<std::size_t> seen;
    for (std::size_t c = 0; c < result->members.size(); ++c) {
      for (const std::size_t row : result->members[c]) {
        EXPECT_TRUE(seen.insert(row).second) << "row in two clusters";
        EXPECT_EQ(result->assignment[row], static_cast<int>(c));
        ++total;
      }
    }
    EXPECT_EQ(total, result->assignment.size());
    EXPECT_EQ(total, result->event_ids.size());
  }
}

TEST_F(Pipeline, EventClusterMapsAgreeWithAssignments) {
  for (const cluster::EpmResult* result : {&ds().e, &ds().p, &ds().m}) {
    for (std::size_t row = 0; row < result->event_ids.size(); ++row) {
      EXPECT_EQ(result->cluster_of_event(result->event_ids[row]),
                result->assignment[row]);
    }
  }
}

TEST_F(Pipeline, ClassifyReproducesAssignmentsOnMu) {
  const auto mu_data = cluster::build_mu_data(ds().db);
  ASSERT_EQ(mu_data.instances.size(), ds().m.assignment.size());
  // Spot-check a deterministic sample of rows (full sweep is O(n*k)).
  for (std::size_t row = 0; row < mu_data.instances.size(); row += 97) {
    const auto classified = ds().m.classify(mu_data.instances[row]);
    ASSERT_TRUE(classified.has_value());
    EXPECT_EQ(*classified, ds().m.assignment[row]);
  }
}

TEST_F(Pipeline, PatternsMatchTheirMembers) {
  const auto pi_data = cluster::build_pi_data(ds().db);
  for (std::size_t c = 0; c < ds().p.members.size(); ++c) {
    for (const std::size_t row : ds().p.members[c]) {
      EXPECT_TRUE(ds().p.patterns[c].matches(pi_data.instances[row]));
    }
  }
}

TEST_F(Pipeline, GammaExistsExactlyForProxiedEvents) {
  std::size_t unknown_paths = 0;
  std::size_t with_gamma = 0;
  for (const auto& event : ds().db.events()) {
    const bool proxied = event.epsilon.fsm_path.rfind("unknown/", 0) == 0;
    unknown_paths += proxied ? 1 : 0;
    with_gamma += event.gamma.has_value() ? 1 : 0;
    if (event.gamma.has_value()) {
      EXPECT_TRUE(proxied) << "gamma on an autonomously-handled event";
    }
  }
  EXPECT_GT(with_gamma, 0u);
  EXPECT_LE(with_gamma, unknown_paths);
  EXPECT_EQ(cluster::build_gamma_data(ds().db).instances.size(), with_gamma);
}

TEST_F(Pipeline, GraphEdgeWeightsSumToLinkedEvents) {
  const auto graph = analysis::build_relationship_graph(
      ds().db, ds().e, ds().p, ds().m, ds().b, 1);
  using Layer = analysis::RelationshipGraph::Layer;
  std::size_t ep_weight = 0;
  for (const auto& [edge, weight] : graph.edges) {
    if (graph.nodes[edge.first].layer == Layer::kE &&
        graph.nodes[edge.second].layer == Layer::kP) {
      ep_weight += weight;
    }
  }
  std::size_t events_with_both = 0;
  for (const auto& event : ds().db.events()) {
    events_with_both += ds().e.cluster_of_event(event.id) >= 0 &&
                                ds().p.cluster_of_event(event.id) >= 0
                            ? 1
                            : 0;
  }
  EXPECT_EQ(ep_weight, events_with_both);
}

TEST_F(Pipeline, BehavioralViewCoversAnalyzableSamples) {
  EXPECT_EQ(ds().b.row_count(), ds().db.analyzable_sample_count());
  std::size_t via_clusters = 0;
  for (std::size_t c = 0; c < ds().b.cluster_count(); ++c) {
    via_clusters += ds().b.samples_of_cluster(static_cast<int>(c)).size();
  }
  EXPECT_EQ(via_clusters, ds().b.row_count());
}

TEST_F(Pipeline, AnomalyPartitionIsComplete) {
  const auto report = analysis::detect_singleton_anomalies(
      ds().db, ds().e, ds().p, ds().m, ds().b);
  EXPECT_EQ(report.one_to_one + report.anomalies,
            report.singleton_b_clusters);
  EXPECT_EQ(report.anomalous_samples.size(), report.anomalies);
  std::size_t av_total = 0;
  for (const auto& [name, count] : report.av_names) av_total += count;
  EXPECT_EQ(av_total, report.anomalies);
}

TEST_F(Pipeline, HealingWithNoSuspectsIsANoop) {
  scenario::Dataset copy = ds();  // mutate a copy, not the fixture
  const auto outcome = analysis::heal_by_reexecution(
      copy.db, copy.landscape, copy.environment, {}, copy.b);
  EXPECT_EQ(outcome.report.reexecuted, 0u);
  EXPECT_EQ(outcome.report.b_clusters_after,
            outcome.report.b_clusters_before);
  EXPECT_EQ(outcome.report.singletons_after,
            outcome.report.singletons_before);
}

TEST_F(Pipeline, EvolutionBirthsMatchClusterCount) {
  const auto report = analysis::analyze_evolution(
      ds().db, ds().m, ds().b, ds().landscape.start_time,
      ds().landscape.weeks);
  const std::size_t births = std::accumulate(
      report.births_per_week.begin(), report.births_per_week.end(),
      std::size_t{0});
  EXPECT_EQ(births, ds().m.cluster_count());
  EXPECT_EQ(report.lifetimes.size(), ds().m.cluster_count());
}

TEST_F(Pipeline, CodeSharingVectorsAreBounded) {
  const auto report =
      analysis::analyze_code_sharing(ds().db, ds().e, ds().p, ds().m);
  EXPECT_LE(report.distinct_vectors(),
            ds().e.cluster_count() * ds().p.cluster_count());
  EXPECT_LE(report.shared_vectors(), report.distinct_vectors());
  for (const auto& shared : report.shared_payloads) {
    EXPECT_GE(shared.e_clusters.size(), 2u);
  }
}

TEST_F(Pipeline, ExportReimportPreservesClusterAssignments) {
  std::stringstream stream;
  io::write_events_csv(stream, ds().db, ds().e, ds().p, ds().m, ds().b);
  const auto records = io::read_events_csv(stream);
  ASSERT_EQ(records.size(), ds().db.events().size());
  for (std::size_t i = 0; i < records.size(); i += 53) {
    EXPECT_EQ(records[i].m_cluster,
              ds().m.cluster_of_event(records[i].event_id));
    EXPECT_EQ(records[i].p_cluster,
              ds().p.cluster_of_event(records[i].event_id));
  }
}

TEST_F(Pipeline, TruncatedSamplesNeverCarryProfiles) {
  for (const auto& sample : ds().db.samples()) {
    if (sample.truncated) {
      EXPECT_FALSE(sample.profile.has_value());
      EXPECT_EQ(sample.av_label, "(corrupted)");
    }
  }
}

/// Every exported artifact of a dataset, as one byte string.
std::string all_exports(const scenario::Dataset& ds) {
  std::ostringstream out;
  io::write_events_csv(out, ds.db, ds.e, ds.p, ds.m, ds.b);
  io::write_samples_csv(out, ds.db, ds.b);
  io::write_clusters_csv(out, ds.e);
  io::write_clusters_csv(out, ds.p);
  io::write_clusters_csv(out, ds.m);
  io::write_profiles_jsonl(out, ds.db);
  return std::move(out).str();
}

TEST(Determinism, ThreadWidthNeverChangesExportedBytes) {
  // The ScenarioOptions::threads contract: width 1 is the bit-exact
  // legacy serial path, and every other width exports the same bytes.
  scenario::ScenarioOptions options;
  options.scale = 0.08;
  options.seed = 41;
  options.threads = 1;
  const std::string baseline =
      all_exports(scenario::build_paper_dataset(options));
  ASSERT_FALSE(baseline.empty());
  for (const std::size_t width : {std::size_t{2}, std::size_t{8}}) {
    options.threads = width;
    EXPECT_EQ(all_exports(scenario::build_paper_dataset(options)), baseline)
        << "width " << width;
  }
}

TEST(Determinism, MetricsIdenticalAcrossThreadWidths) {
  // The observability split's core promise: the deterministic metrics
  // channel is a pure function of (seed, scale, faults) and exports
  // byte-identical JSON at every pool width, while the wall-clock trace
  // stays strictly positive (real time passed) but is never compared.
  scenario::ScenarioOptions options;
  options.scale = 0.08;
  options.seed = 41;

  std::string metrics_baseline;
  std::string exports_baseline;
  for (const std::size_t width :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace;
    options.threads = width;
    options.metrics = &metrics;
    options.trace = &trace;
    const scenario::Dataset dataset = scenario::build_paper_dataset(options);

    const std::string json = metrics.to_json(obs::Channel::kDeterministic);
    ASSERT_NE(json.find("pipeline.events"), std::string::npos);
    if (width == 1) {
      metrics_baseline = json;
      exports_baseline = all_exports(dataset);
    } else {
      EXPECT_EQ(json, metrics_baseline) << "width " << width;
      // Attaching the recorders never perturbs the dataset itself.
      EXPECT_EQ(all_exports(dataset), exports_baseline) << "width " << width;
    }

    const auto spans = trace.spans();
    ASSERT_FALSE(spans.empty()) << "width " << width;
    for (const auto& span : spans) {
      EXPECT_GT(span.duration_ns(), 0)
          << "span " << span.name << " width " << width;
    }
  }

  // And the instrumented run exports the same dataset bytes as a bare
  // run with no registry attached.
  options.threads = 1;
  options.metrics = nullptr;
  options.trace = nullptr;
  EXPECT_EQ(all_exports(scenario::build_paper_dataset(options)),
            exports_baseline);
}

TEST(Determinism, FaultedExportsIdenticalAcrossThreadWidths) {
  // The same promise under the paper fault plan: refused and corrupted
  // downloads, sensor outages and proxy failures take their serial-pass
  // decisions, while the corrupted and truncated binaries are built and
  // hashed on the pool.
  scenario::ScenarioOptions options;
  options.scale = 0.08;
  options.seed = 43;
  options.faults = fault::FaultPlan::paper_calibrated();

  std::string metrics_baseline;
  std::string exports_baseline;
  for (const std::size_t width :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    obs::MetricsRegistry metrics;
    options.threads = width;
    options.metrics = &metrics;
    const scenario::Dataset dataset = scenario::build_paper_dataset(options);
    const std::string json = metrics.to_json(obs::Channel::kDeterministic);
    if (width == 1) {
      const honeypot::EventDatabase::PresenceSummary summary =
          dataset.db.presence_summary();
      ASSERT_GT(summary.refused_downloads, 0u);
      ASSERT_GT(summary.corrupted_samples, 0u);
      ASSERT_GT(summary.truncated_samples, 0u);
      metrics_baseline = json;
      exports_baseline = all_exports(dataset);
    } else {
      EXPECT_EQ(json, metrics_baseline) << "width " << width;
      EXPECT_EQ(all_exports(dataset), exports_baseline) << "width " << width;
    }
  }
}

TEST_F(Pipeline, EventTimesInsideObservationWindow) {
  const SimTime start = ds().landscape.start_time;
  const SimTime end = add_weeks(start, ds().landscape.weeks);
  for (const auto& event : ds().db.events()) {
    EXPECT_GE(event.time, start);
    EXPECT_LT(event.time, end);
    if (event.sample.has_value()) {
      EXPECT_LE(ds().db.sample(*event.sample).first_seen, event.time);
    }
  }
}

}  // namespace
}  // namespace repro
