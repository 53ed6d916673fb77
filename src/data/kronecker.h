// Stochastic Kronecker graph generation (Leskovec et al., JMLR 2010) — the
// paper synthesizes Kronecker graphs matching the connectivity of SNAP seed
// graphs (Table II / Section IV-E). Edges are sampled R-MAT style: for each
// edge, descend `scale` levels choosing a quadrant of the adjacency matrix
// with probabilities from the 2×2 initiator.
#pragma once

#include <cstdint>
#include <memory>

#include "data/graph.h"
#include "support/rng.h"

namespace simprof::data {

struct KroneckerConfig {
  /// 2×2 initiator probabilities (normalized internally).
  double a = 0.57, b = 0.19, c = 0.19, d = 0.05;
  std::uint32_t scale = 14;      ///< 2^scale vertices
  double edge_factor = 16.0;     ///< edges ≈ edge_factor · vertices
  /// Per-level probability smoothing toward uniform (0 = pure Kronecker,
  /// 0.5 ≈ Erdős–Rényi). Differentiates e.g. road networks from web graphs.
  double noise = 0.0;
  std::uint64_t seed = 11;
};

/// Generate the edge list and build a CSR graph. Duplicate edges collapse
/// inside Graph::from_edges, so the realized edge count is slightly below
/// edge_factor·V for skewed initiators — the same behaviour as SNAP's
/// krongen. `edge_factor` must be finite and non-negative.
///
/// Each level of an edge costs one uniform draw u and no branch: the
/// noise-blended quadrant probabilities are fixed for the whole run, so
/// their running sums t1 <= t2 <= t3 are computed once, and the quadrant
/// is (u >= t1) + (u >= t2) + (u >= t3) — the same index an if/else chain
/// over "u < t1, u < t2, u < t3" picks, because the thresholds are ordered.
Graph kronecker_graph(const KroneckerConfig& cfg, bool symmetrize);

/// Memoized generation (same contract as TextCorpus::synthesize_shared):
/// graphs are pure functions of (config, symmetrize) and immutable, so
/// repeated runs of one configuration — the checkpointed measure fast path,
/// batch mixes over one input — share a single instance. Single-flighted;
/// cached for the process lifetime.
std::shared_ptr<const Graph> kronecker_graph_shared(const KroneckerConfig& cfg,
                                                    bool symmetrize);

}  // namespace simprof::data
