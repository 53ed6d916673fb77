// Unit tests for the data synthesizers: Zipf text corpora, CSR graphs,
// Kronecker generation and the Table II catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "data/catalog.h"
#include "data/graph.h"
#include "data/kronecker.h"
#include "data/text.h"
#include "support/assert.h"

namespace simprof::data {
namespace {

TextConfig tiny_text() {
  TextConfig cfg;
  cfg.num_words = 20'000;
  cfg.vocabulary = 5'000;
  cfg.mean_doc_words = 50;
  cfg.seed = 9;
  return cfg;
}

TEST(TextCorpus, ExactWordCountAndDocPartition) {
  const TextCorpus c = TextCorpus::synthesize(tiny_text());
  EXPECT_EQ(c.words().size(), 20'000u);
  std::uint64_t sum = 0;
  for (std::size_t d = 0; d < c.num_docs(); ++d) sum += c.doc(d).size();
  EXPECT_EQ(sum, 20'000u);
  EXPECT_GT(c.num_docs(), 100u);
}

TEST(TextCorpus, DeterministicPerSeed) {
  const TextCorpus a = TextCorpus::synthesize(tiny_text());
  const TextCorpus b = TextCorpus::synthesize(tiny_text());
  ASSERT_EQ(a.words().size(), b.words().size());
  for (std::size_t i = 0; i < a.words().size(); ++i) {
    ASSERT_EQ(a.words()[i], b.words()[i]) << "at " << i;
  }
  auto cfg = tiny_text();
  cfg.seed = 10;
  const TextCorpus c = TextCorpus::synthesize(cfg);
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.words().size(); ++i) {
    diff += (a.words()[i] != c.words()[i]) ? 1 : 0;
  }
  EXPECT_GT(diff, 1000u);
}

TEST(TextCorpus, ZipfSkewMakesHotWords) {
  const TextCorpus c = TextCorpus::synthesize(tiny_text());
  std::map<WordId, std::size_t> counts;
  for (WordId w : c.words()) ++counts[w];
  // Word 0 (hottest rank) must appear far more often than vocabulary/2.
  EXPECT_GT(counts[0], counts[2500] * 10 + 10);
}

TEST(TextCorpus, LabelsOnlyWhenRequested) {
  const TextCorpus plain = TextCorpus::synthesize(tiny_text());
  EXPECT_EQ(plain.label(0), 0u);

  auto cfg = tiny_text();
  cfg.num_classes = 3;
  const TextCorpus labeled = TextCorpus::synthesize(cfg);
  std::set<std::uint32_t> seen;
  for (std::size_t d = 0; d < labeled.num_docs(); ++d) {
    seen.insert(labeled.label(d));
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(TextCorpus, WordBytesDeterministicAndBounded) {
  for (WordId w : {0u, 1u, 17u, 100'000u}) {
    const auto b = TextCorpus::word_bytes(w);
    EXPECT_EQ(b, TextCorpus::word_bytes(w));
    EXPECT_GE(b, 4u);
    EXPECT_LE(b, 13u);
  }
}

TEST(TextCorpus, TotalBytesIsSumOfWordBytes) {
  const TextCorpus c = TextCorpus::synthesize(tiny_text());
  std::uint64_t sum = 0;
  for (WordId w : c.words()) sum += TextCorpus::word_bytes(w);
  EXPECT_EQ(c.total_bytes(), sum);
}

TEST(TextCorpus, RejectsMoreClassesThanWords) {
  // Each class owns a vocabulary band of vocabulary / num_classes words; an
  // empty band would be a division by zero.
  auto cfg = tiny_text();
  cfg.vocabulary = 3;
  cfg.num_classes = 4;
  EXPECT_THROW(TextCorpus::synthesize(cfg), ContractViolation);
  cfg.num_classes = 3;
  EXPECT_NO_THROW(TextCorpus::synthesize(cfg));
}

TEST(Graph, CsrFromEdgesBasics) {
  std::vector<Edge> edges{{0, 1}, {0, 2}, {1, 2}, {2, 0}};
  const Graph g = Graph::from_edges(3, edges, /*symmetrize=*/false);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.neighbors(1).size(), 1u);
  EXPECT_EQ(g.neighbors(1)[0], 2u);
}

TEST(Graph, DuplicateEdgesCollapse) {
  std::vector<Edge> edges{{0, 1}, {0, 1}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges, false);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, SymmetrizeAddsReverseEdges) {
  std::vector<Edge> edges{{0, 1}};
  const Graph g = Graph::from_edges(2, edges, /*symmetrize=*/true);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.out_degree(1), 1u);
}

TEST(Graph, SelfLoopNotDuplicatedBySymmetrize) {
  std::vector<Edge> edges{{1, 1}};
  const Graph g = Graph::from_edges(2, edges, true);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, OutOfRangeEndpointThrows) {
  std::vector<Edge> edges{{0, 5}};
  EXPECT_THROW(Graph::from_edges(2, edges, false), ContractViolation);
  // A bad endpoint after valid edges, on either side, with or without
  // symmetrization: the throw comes before any count is indexed by it.
  for (const bool symmetrize : {false, true}) {
    std::vector<Edge> bad_dst{{0, 1}, {1, 0}, {1, 7}};
    EXPECT_THROW(Graph::from_edges(2, bad_dst, symmetrize), ContractViolation);
    std::vector<Edge> bad_src{{0, 1}, {9, 0}};
    EXPECT_THROW(Graph::from_edges(2, bad_src, symmetrize), ContractViolation);
    std::vector<Edge> max_id{{0, std::numeric_limits<VertexId>::max()}};
    EXPECT_THROW(Graph::from_edges(2, max_id, symmetrize), ContractViolation);
  }
}

/// The CSR a global sort-and-unique over the (symmetrized) edge list gives:
/// rows ascending, duplicates collapsed, self-loops kept once.
std::pair<std::vector<std::uint64_t>, std::vector<VertexId>> reference_csr(
    VertexId n, std::vector<Edge> edges, bool symmetrize) {
  if (symmetrize) {
    const std::size_t m = edges.size();
    for (std::size_t i = 0; i < m; ++i) {
      if (edges[i].src != edges[i].dst) {
        edges.push_back(Edge{edges[i].dst, edges[i].src});
      }
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<std::uint64_t> offsets(std::size_t{n} + 1, 0);
  std::vector<VertexId> neighbors;
  for (const Edge& e : edges) {
    ++offsets[e.src + 1];
    neighbors.push_back(e.dst);
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  return {offsets, neighbors};
}

TEST(Graph, FromEdgesMatchesSortAndUniqueReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<VertexId>(1 + rng.next_below(40));
    // Few distinct endpoints relative to the edge count: many duplicates,
    // self-loops and (for the larger n) isolated vertices. Every tenth
    // list is empty; the others always give vertex n - 1 an edge.
    std::vector<Edge> edges;
    if (trial % 10 != 0) {
      const std::size_t m = rng.next_below(4 * n + 1);
      for (std::size_t i = 0; i < m; ++i) {
        edges.push_back(Edge{static_cast<VertexId>(rng.next_below(n)),
                             static_cast<VertexId>(rng.next_below(n))});
      }
      edges.push_back(Edge{n - 1, static_cast<VertexId>(rng.next_below(n))});
    }
    for (const bool symmetrize : {false, true}) {
      const Graph g = Graph::from_edges(n, edges, symmetrize);
      const auto [offsets, neighbors] = reference_csr(n, edges, symmetrize);
      ASSERT_EQ(g.num_vertices(), n);
      ASSERT_TRUE(std::ranges::equal(g.offsets(), offsets))
          << "trial " << trial << " symmetrize " << symmetrize;
      ASSERT_TRUE(std::ranges::equal(g.edges_flat(), neighbors))
          << "trial " << trial << " symmetrize " << symmetrize;
    }
  }
}

TEST(Graph, UnionFindGroundTruth) {
  // Two components: {0,1,2} and {3,4}; vertex 5 isolated.
  std::vector<Edge> edges{{0, 1}, {1, 2}, {3, 4}};
  const Graph g = Graph::from_edges(6, edges, true);
  const auto labels = connected_components_ground_truth(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(labels[5], 5u);
  EXPECT_EQ(labels[0], 0u);  // smallest-id labeling
}

TEST(Kronecker, VertexCountMatchesScale) {
  KroneckerConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8.0;
  const Graph g = kronecker_graph(cfg, false);
  EXPECT_EQ(g.num_vertices(), 256u);
  // Duplicates collapse, so realized edges are below the nominal count but
  // within a sane band.
  EXPECT_GT(g.num_edges(), 500u);
  EXPECT_LE(g.num_edges(), 2048u);
}

TEST(Kronecker, DeterministicPerSeed) {
  KroneckerConfig cfg;
  cfg.scale = 8;
  const Graph a = kronecker_graph(cfg, false);
  const Graph b = kronecker_graph(cfg, false);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  cfg.seed += 1;
  const Graph c = kronecker_graph(cfg, false);
  EXPECT_NE(a.num_edges(), c.num_edges());
}

TEST(Kronecker, SkewedInitiatorConcentratesDegree) {
  KroneckerConfig web;  // default initiator is web-like (high a)
  web.scale = 10;
  web.edge_factor = 8.0;
  const Graph g = kronecker_graph(web, false);
  // Hubs: the max out-degree should far exceed the mean.
  std::uint32_t max_deg = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_deg = std::max(max_deg, g.out_degree(v));
  }
  const double mean_deg =
      static_cast<double>(g.num_edges()) / g.num_vertices();
  EXPECT_GT(max_deg, 8 * mean_deg);
}

TEST(Kronecker, NoiseFlattensDegreeDistribution) {
  KroneckerConfig skewed;
  skewed.scale = 10;
  skewed.edge_factor = 8.0;
  KroneckerConfig road = skewed;
  road.a = 0.3;
  road.b = road.c = 0.25;
  road.d = 0.2;
  road.noise = 0.35;
  auto max_degree = [](const Graph& g) {
    std::uint32_t m = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      m = std::max(m, g.out_degree(v));
    }
    return m;
  };
  EXPECT_LT(max_degree(kronecker_graph(road, false)),
            max_degree(kronecker_graph(skewed, false)));
}

TEST(Kronecker, RejectsBadConfig) {
  KroneckerConfig cfg;
  cfg.scale = 0;
  EXPECT_THROW(kronecker_graph(cfg, false), ContractViolation);
  cfg = KroneckerConfig{};
  cfg.noise = 0.9;
  EXPECT_THROW(kronecker_graph(cfg, false), ContractViolation);
  for (const double bad : {-1.0, std::nan(""),
                           std::numeric_limits<double>::infinity(), 1e300}) {
    cfg = KroneckerConfig{};
    cfg.scale = 4;
    cfg.edge_factor = bad;
    EXPECT_THROW(kronecker_graph(cfg, false), ContractViolation) << bad;
  }
  cfg = KroneckerConfig{};
  cfg.scale = 4;
  cfg.edge_factor = 0.0;
  EXPECT_EQ(kronecker_graph(cfg, false).num_edges(), 0u);
}

// Golden digests of synthesized inputs. Every cached profile fixture is a
// function of these streams, so any change to the samplers' output — one
// word, one edge — must show up here, not as a silently different profile.
// The values come from reference implementations: a whole-CDF lower_bound
// Zipf inversion, an if/else quadrant chain and a global sort-and-unique
// CSR build.

/// FNV-1a over each value's eight little-endian bytes.
template <typename T>
std::uint64_t fnv_digest(std::span<const T> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const T v : values) {
    const auto x = static_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct TextGolden {
  TextConfig cfg;
  std::uint64_t words, doc_offsets;
};

TEST(Golden, TextCorpusDigests) {
  auto text = [](std::uint64_t words, std::uint32_t vocab, double skew,
                 std::uint32_t classes, std::uint64_t seed) {
    TextConfig cfg;
    cfg.num_words = words;
    cfg.vocabulary = vocab;
    cfg.zipf_skew = skew;
    cfg.mean_doc_words = 40;
    cfg.num_classes = classes;
    cfg.seed = seed;
    return cfg;
  };
  const TextGolden cases[] = {
      {text(50'000, 3'000, 1.05, 0, 3), 521252915754932462u,
       7630982258391919082u},
      {text(40'000, 1 << 12, 1.0, 0, 42), 14236487312514825433u,
       754015572923012255u},
      // Uniform over a power-of-two vocabulary: every CDF value lies
      // exactly on a guide-table bucket edge.
      {text(20'000, 1 << 10, 0.0, 0, 5), 16672655325296176642u,
       17347038791155779752u},
      {text(30'000, 2'000, 1.0, 4, 11), 4205568569487325128u,
       3776907115039668923u},
      {text(30'000, 1 << 11, 2.5, 3, 12), 10888864126255570768u,
       12771047493135785322u},
  };
  for (const auto& c : cases) {
    const TextCorpus corpus = TextCorpus::synthesize(c.cfg);
    EXPECT_EQ(fnv_digest(corpus.words()), c.words)
        << "vocabulary " << c.cfg.vocabulary << " seed " << c.cfg.seed;
    EXPECT_EQ(fnv_digest(corpus.doc_offsets()), c.doc_offsets)
        << "vocabulary " << c.cfg.vocabulary << " seed " << c.cfg.seed;
  }
}

struct GraphGolden {
  KroneckerConfig cfg;
  bool symmetrize;
  std::uint64_t offsets, edges;
};

TEST(Golden, KroneckerGraphDigests) {
  KroneckerConfig skewed;  // web-like default initiator
  skewed.scale = 10;
  skewed.edge_factor = 8.0;
  skewed.seed = 21;
  KroneckerConfig noisy;  // road-like: flat initiator, smoothed levels
  noisy.a = 0.3;
  noisy.b = 0.27;  // b != c, so a swap of the b and c quadrants shows
  noisy.c = 0.23;
  noisy.d = 0.2;
  noisy.noise = 0.35;
  noisy.scale = 11;
  noisy.edge_factor = 3.5;
  noisy.seed = 22;
  const GraphGolden cases[] = {
      {skewed, false, 3004315669652407962u, 14878926629767239994u},
      {skewed, true, 1947113018461453345u, 3414242961538562840u},
      {noisy, false, 13898702256933372084u, 6950763455649020071u},
      {noisy, true, 5577840319489722452u, 2103171371055602075u},
  };
  for (const auto& c : cases) {
    const Graph g = kronecker_graph(c.cfg, c.symmetrize);
    EXPECT_EQ(fnv_digest(g.offsets()), c.offsets)
        << "scale " << c.cfg.scale << " symmetrize " << c.symmetrize;
    EXPECT_EQ(fnv_digest(g.edges_flat()), c.edges)
        << "scale " << c.cfg.scale << " symmetrize " << c.symmetrize;
  }
}

TEST(Catalog, HasAllEightTableTwoInputs) {
  const auto cat = snap_catalog();
  ASSERT_EQ(cat.size(), 8u);
  EXPECT_EQ(cat[0].name, "Google");
  EXPECT_TRUE(cat[0].training);
  std::size_t training = 0;
  for (const auto& e : cat) training += e.training ? 1 : 0;
  EXPECT_EQ(training, 1u);  // exactly one training input (the paper's split)
  std::set<std::uint64_t> seeds;
  for (const auto& e : cat) seeds.insert(e.kron.seed);
  EXPECT_EQ(seeds.size(), 8u);  // all inputs use distinct streams
}

TEST(Catalog, ScaleOverrideApplies) {
  const auto cat = snap_catalog(10);
  for (const auto& e : cat) EXPECT_EQ(e.kron.scale, 10u);
}

TEST(Catalog, LookupByNameAndUnknownThrows) {
  const auto e = catalog_entry("Road");
  EXPECT_EQ(e.input_type, "Road Networks");
  EXPECT_THROW(catalog_entry("NotAGraph"), ContractViolation);
}

TEST(Catalog, RoadIsSparserAndFlatterThanSocial) {
  const auto road = catalog_entry("Road", 10);
  const auto fb = catalog_entry("Facebook", 10);
  const Graph gr = kronecker_graph(road.kron, true);
  const Graph gf = kronecker_graph(fb.kron, true);
  EXPECT_LT(gr.num_edges(), gf.num_edges());
  // The topology differs far more than the volume: road networks are
  // near-regular while social networks have hubs.
  auto max_degree = [](const Graph& g) {
    std::uint32_t m = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      m = std::max(m, g.out_degree(v));
    }
    return m;
  };
  EXPECT_LT(max_degree(gr) * 2, max_degree(gf));
}

}  // namespace
}  // namespace simprof::data
