#include "data/graph.h"

#include <algorithm>
#include <numeric>

#include "obs/trace.h"
#include "support/assert.h"

namespace simprof::data {

Graph Graph::from_edges(VertexId num_vertices, std::vector<Edge> edges,
                        bool symmetrize) {
  obs::ObsSpan span("data.csr_build");
  const std::size_t n = num_vertices;
  Graph g;
  auto& offsets = g.offsets_;
  auto& neighbors = g.neighbors_;

  // Counting sort. Row v's out-degree is counted into offsets[v + 2], so
  // after the prefix sum offsets[v + 1] is where row v starts; scattering
  // bumps it to where row v ends, which is where row v + 1 starts. That
  // leaves offsets[0..n] as the CSR offsets with no separate cursor array.
  // Each endpoint is range-checked before anything is indexed by it.
  offsets.assign(n + 2, 0);
  for (const Edge& e : edges) {
    SIMPROF_EXPECTS(e.src < num_vertices && e.dst < num_vertices,
                    "edge endpoint out of range");
    ++offsets[std::size_t{e.src} + 2];
    if (symmetrize && e.src != e.dst) ++offsets[std::size_t{e.dst} + 2];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  neighbors.resize(offsets.back());
  for (const Edge& e : edges) {
    neighbors[offsets[std::size_t{e.src} + 1]++] = e.dst;
    if (symmetrize && e.src != e.dst) {
      neighbors[offsets[std::size_t{e.dst} + 1]++] = e.src;
    }
  }
  offsets.pop_back();
  std::vector<Edge>().swap(edges);

  // Sort and dedup each row in place, compacting the rows leftward.
  VertexId* const base = neighbors.data();
  std::uint64_t out = 0, row_begin = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t row_end = offsets[v + 1];
    VertexId* const first = base + row_begin;
    std::sort(first, base + row_end);
    VertexId* const last = std::unique(first, base + row_end);
    offsets[v] = out;
    out = static_cast<std::uint64_t>(std::move(first, last, base + out) - base);
    row_begin = row_end;
  }
  offsets[n] = out;
  neighbors.resize(out);
  neighbors.shrink_to_fit();
  SIMPROF_ENSURES(offsets.size() == n + 1 && offsets.back() == neighbors.size(),
                  "CSR construction mismatch");
  return g;
}

std::span<const VertexId> Graph::neighbors(VertexId v) const {
  SIMPROF_EXPECTS(v < num_vertices(), "vertex out of range");
  return {neighbors_.data() + offsets_[v],
          static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
}

std::uint32_t Graph::out_degree(VertexId v) const {
  SIMPROF_EXPECTS(v < num_vertices(), "vertex out of range");
  return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
}

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), VertexId{0});
  }
  VertexId find(VertexId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }
  void unite(VertexId a, VertexId b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);  // keep the smaller id as root
    parent_[b] = a;
  }

 private:
  std::vector<VertexId> parent_;
};

}  // namespace

std::vector<VertexId> connected_components_ground_truth(const Graph& g) {
  UnionFind uf(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) uf.unite(v, u);
  }
  std::vector<VertexId> labels(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) labels[v] = uf.find(v);
  return labels;
}

}  // namespace simprof::data
