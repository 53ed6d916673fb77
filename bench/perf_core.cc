// google-benchmark microbenchmarks for the SimProf toolchain itself:
// clustering speed (the reason the paper caps features at K = 100),
// silhouette scoring, feature selection, cache-model throughput, profiling
// overhead (the paper claims a negligible slowdown at the 10M-instruction
// snapshot interval) and sampling-plan construction.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/phase.h"
#include "core/profile.h"
#include "core/sampling.h"
#include "core/sensitivity.h"
#include "data/kronecker.h"
#include "data/text.h"
#include "exec/cluster.h"
#include "hw/access_stream.h"
#include "hw/memory_system.h"
#include "stats/feature_select.h"
#include "stats/kmeans.h"
#include "stats/silhouette.h"
#include "support/rng.h"
#include "support/zipf.h"

namespace {

using namespace simprof;

stats::Matrix synthetic_features(std::size_t n, std::size_t d,
                                 std::size_t clusters, Rng& rng) {
  stats::Matrix m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % clusters;
    for (std::size_t j = 0; j < d; ++j) {
      m.at(i, j) = (j % clusters == c ? 1.0 : 0.1) + 0.05 * rng.next_gaussian();
    }
  }
  return m;
}

void BM_KMeans(benchmark::State& state) {
  Rng rng(1);
  const auto k = static_cast<std::size_t>(state.range(0));
  stats::Matrix pts = synthetic_features(1000, 100, 6, rng);
  for (auto _ : state) {
    auto res = stats::kmeans(pts, k, rng);
    benchmark::DoNotOptimize(res.inertia);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_KMeans)->Arg(2)->Arg(8)->Arg(20);

void BM_ChooseK(benchmark::State& state) {
  Rng rng(2);
  stats::Matrix pts = synthetic_features(
      static_cast<std::size_t>(state.range(0)), 100, 5, rng);
  stats::ChooseKConfig cfg;
  cfg.max_k = 20;
  for (auto _ : state) {
    auto res = stats::choose_k(pts, rng, cfg);
    benchmark::DoNotOptimize(res.k);
  }
}
BENCHMARK(BM_ChooseK)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

// Thread-count sweeps for the parallel phase-formation engine. Run via
// bench/run_phase_formation.sh to refresh BENCH_phase_formation.json (the
// perf trajectory across PRs). Output is bit-identical across thread
// counts; only wall clock changes.
void BM_KMeansThreads(benchmark::State& state) {
  Rng rng(1);
  stats::Matrix pts = synthetic_features(1000, 100, 6, rng);
  stats::KMeansConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto res = stats::kmeans(pts, 8, rng, cfg);
    benchmark::DoNotOptimize(res.inertia);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_KMeansThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ChooseKThreads(benchmark::State& state) {
  Rng rng(2);
  stats::Matrix pts = synthetic_features(800, 100, 5, rng);
  stats::ChooseKConfig cfg;
  cfg.max_k = 20;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto res = stats::choose_k(pts, rng, cfg);
    benchmark::DoNotOptimize(res.k);
  }
}
BENCHMARK(BM_ChooseKThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SilhouetteExactThreads(benchmark::State& state) {
  Rng rng(3);
  stats::Matrix pts = synthetic_features(2000, 100, 4, rng);
  auto res = stats::kmeans(pts, 4, rng);
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::exact_silhouette(pts, res.labels, 4, threads));
  }
}
BENCHMARK(BM_SilhouetteExactThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SilhouetteSampled(benchmark::State& state) {
  Rng rng(3);
  stats::Matrix pts = synthetic_features(2000, 100, 4, rng);
  auto res = stats::kmeans(pts, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::sampled_silhouette(pts, res.labels, 4));
  }
}
BENCHMARK(BM_SilhouetteSampled);

void BM_SilhouetteSimplified(benchmark::State& state) {
  Rng rng(3);
  stats::Matrix pts = synthetic_features(2000, 100, 4, rng);
  auto res = stats::kmeans(pts, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::simplified_silhouette(pts, res.centers, res.labels));
  }
}
BENCHMARK(BM_SilhouetteSimplified);

// Ablation: feature-selection cost and clustering cost vs feature count —
// why the paper caps at the top K = 100 methods.
void BM_FRegression(benchmark::State& state) {
  Rng rng(4);
  const auto d = static_cast<std::size_t>(state.range(0));
  stats::Matrix pts = synthetic_features(1000, d, 5, rng);
  std::vector<double> y(1000);
  for (auto& v : y) v = rng.next_double();
  for (auto _ : state) {
    auto scores = stats::f_regression(pts, y);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_FRegression)->Arg(50)->Arg(100)->Arg(1000);

void BM_CacheAccessSequential(benchmark::State& state) {
  hw::MemorySystem mem({});
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mem.access(0, hw::MemRef{line++ % (1 << 18), false, true}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessSequential);

void BM_CacheAccessRandom(benchmark::State& state) {
  hw::MemorySystem mem({});
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.access(
        0, hw::MemRef{rng.next_below(1 << 18), false, false}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessRandom);

void BM_KroneckerGeneration(benchmark::State& state) {
  data::KroneckerConfig cfg;
  cfg.scale = static_cast<std::uint32_t>(state.range(0));
  cfg.edge_factor = 8.0;
  for (auto _ : state) {
    auto g = data::kronecker_graph(cfg, false);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(cfg.edge_factor * (1u << cfg.scale)));
}
BENCHMARK(BM_KroneckerGeneration)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Input synthesis, layer by layer: one Zipf draw, a whole text corpus, and
// the CSR build alone over a pre-generated Kronecker edge list.
void BM_ZipfSample(benchmark::State& state) {
  const ZipfSampler zipf(std::size_t{1} << 18, 1.0);
  Rng rng(8);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void BM_TextSynthesize(benchmark::State& state) {
  data::TextConfig cfg;  // arg 0: plain corpus; arg 1: 4-class labeled
  cfg.num_words = 1 << 20;
  cfg.vocabulary = 1 << 18;
  cfg.zipf_skew = 1.0;
  cfg.mean_doc_words = 160;
  if (state.range(0) != 0) {
    cfg.num_classes = 4;
    cfg.vocabulary /= 2;
  }
  for (auto _ : state) {
    auto corpus = data::TextCorpus::synthesize(cfg);
    benchmark::DoNotOptimize(corpus.total_bytes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.num_words));
}
BENCHMARK(BM_TextSynthesize)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_GraphFromEdges(benchmark::State& state) {
  // A raw scale-16 R-MAT edge list with the default web-like initiator
  // (a, b, c, d) = (.57, .19, .19, .05): unsorted, with duplicates and
  // self-loops, as kronecker_graph hands it over. The per-iteration copy
  // of the list is outside the timed region.
  constexpr std::uint32_t kScale = 16;
  Rng rng(11);
  std::vector<data::Edge> edges(std::size_t{16} << kScale);
  for (data::Edge& e : edges) {
    for (std::uint32_t level = 0; level < kScale; ++level) {
      const double u = rng.next_double();
      const auto quad = static_cast<data::VertexId>(u >= 0.57) +
                        static_cast<data::VertexId>(u >= 0.76) +
                        static_cast<data::VertexId>(u >= 0.95);
      e.src = (e.src << 1) | (quad >> 1);
      e.dst = (e.dst << 1) | (quad & 1);
    }
  }
  const bool symmetrize = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto copy = edges;
    state.ResumeTiming();
    auto g = data::Graph::from_edges(data::VertexId{1} << kScale,
                                     std::move(copy), symmetrize);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_GraphFromEdges)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Profiling overhead: executor work with and without the SimProf hook
// attached. The paper tunes the snapshot interval so this gap is negligible.
void run_executor_work(bool with_hook, benchmark::State& state) {
  exec::ClusterConfig cfg;
  cfg.memory.num_cores = 1;
  exec::Cluster cluster(cfg);
  core::SamplingManager manager(cluster.methods());
  if (with_hook) cluster.set_profiling_hook(&manager);
  auto& ctx = cluster.context(0);
  const auto m = cluster.methods().intern("bench.Work.run", jvm::OpKind::kMap);
  for (auto _ : state) {
    jvm::MethodScope scope(ctx.stack(), m);
    hw::SequentialStream stream(0, 1 << 16);
    ctx.execute(1'000'000, &stream);
  }
  state.SetItemsProcessed(state.iterations() * 1'000'000);
}

void BM_ExecuteUnprofiled(benchmark::State& state) {
  run_executor_work(false, state);
}
BENCHMARK(BM_ExecuteUnprofiled);

void BM_ExecuteProfiled(benchmark::State& state) {
  run_executor_work(true, state);
}
BENCHMARK(BM_ExecuteProfiled);

core::ThreadProfile bench_profile(std::size_t units) {
  core::ThreadProfile p;
  for (int m = 0; m < 40; ++m) {
    p.method_names.push_back("m" + std::to_string(m));
    p.method_kinds.push_back(jvm::OpKind::kMap);
  }
  Rng rng(6);
  for (std::size_t i = 0; i < units; ++i) {
    core::UnitRecord u;
    u.unit_id = i;
    u.counters.instructions = 1'000'000;
    u.counters.cycles =
        1'000'000 + static_cast<std::uint64_t>(rng.next_below(2'000'000));
    for (int j = 0; j < 6; ++j) {
      u.methods.push_back(static_cast<jvm::MethodId>((i + 7ull * j) % 40));
      u.counts.push_back(static_cast<std::uint32_t>(1 + rng.next_below(20)));
    }
    p.units.push_back(std::move(u));
  }
  return p;
}

void BM_FormPhases(benchmark::State& state) {
  const auto p = bench_profile(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto model = core::form_phases(p);
    benchmark::DoNotOptimize(model.k);
  }
}
BENCHMARK(BM_FormPhases)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_StratifiedPlan(benchmark::State& state) {
  const auto p = bench_profile(2000);
  const auto model = core::form_phases(p);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto plan = core::simprof_sample(p, model, 20, seed++);
    benchmark::DoNotOptimize(plan.estimated_cpi);
  }
}
BENCHMARK(BM_StratifiedPlan);

void BM_UnitClassification(benchmark::State& state) {
  const auto train = bench_profile(1000);
  const auto ref = bench_profile(1000);
  const auto model = core::form_phases(train);
  for (auto _ : state) {
    auto labels = core::classify_units(model, ref);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_UnitClassification);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the ObsSession strips the obs
// flags (--log-level/--metrics-out/--trace-out) before google-benchmark
// parses the remainder, so both flag families coexist.
int main(int argc, char** argv) {
  simprof::bench::ObsSession obs_session(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
