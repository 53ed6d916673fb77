// Compressed-sparse-row graph container for the graph-analytics workloads
// (Connected Components, PageRank) and the Kronecker synthesizer outputs.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace simprof::data {

using VertexId = std::uint32_t;

struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  Graph() = default;

  /// Build CSR from an edge list. Self-loops are kept; duplicate edges are
  /// removed. If `symmetrize` is set every edge is also inserted reversed
  /// (undirected view, needed by Connected Components). Rows come out in
  /// ascending neighbor order — the CSR a global sort-and-unique of the
  /// edge list would give.
  ///
  /// Built by counting sort in O(V + E) plus per-row sorts: count the
  /// out-degrees (reversed edges too when symmetrizing, but a self-loop
  /// once), prefix-sum them into the offsets, scatter the destinations,
  /// free `edges`, then sort and dedup each row in place while compacting
  /// the rows leftward. Peak memory is the edge list plus one neighbor
  /// array; no second, symmetrized edge list is ever materialized. Every
  /// endpoint is range-checked before it indexes anything.
  static Graph from_edges(VertexId num_vertices, std::vector<Edge> edges,
                          bool symmetrize);

  VertexId num_vertices() const {
    return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  std::uint64_t num_edges() const { return neighbors_.size(); }

  std::span<const VertexId> neighbors(VertexId v) const;
  std::uint32_t out_degree(VertexId v) const;

  /// Modeled byte footprint (CSR arrays) for sizing simulated regions.
  std::uint64_t footprint_bytes() const {
    return offsets_.size() * sizeof(std::uint64_t) +
           neighbors_.size() * sizeof(VertexId);
  }

  std::span<const std::uint64_t> offsets() const { return offsets_; }
  std::span<const VertexId> edges_flat() const { return neighbors_; }

 private:
  std::vector<std::uint64_t> offsets_;  // num_vertices + 1
  std::vector<VertexId> neighbors_;
};

/// Ground-truth connected components by union-find (for tests and the CC
/// workloads' verification). Returns the component label of each vertex,
/// labels being the smallest vertex id in the component.
std::vector<VertexId> connected_components_ground_truth(const Graph& g);

}  // namespace simprof::data
