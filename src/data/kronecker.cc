#include "data/kronecker.h"

#include <cmath>
#include <tuple>

#include "obs/metrics.h"
#include "support/assert.h"
#include "support/single_flight.h"

namespace simprof::data {

Graph kronecker_graph(const KroneckerConfig& cfg, bool symmetrize) {
  SIMPROF_EXPECTS(cfg.scale >= 1 && cfg.scale <= 30, "scale out of range");
  SIMPROF_EXPECTS(cfg.a > 0 && cfg.b >= 0 && cfg.c >= 0 && cfg.d >= 0,
                  "initiator probabilities must be non-negative");
  SIMPROF_EXPECTS(cfg.noise >= 0.0 && cfg.noise <= 0.5, "noise in [0, 0.5]");

  const double sum = cfg.a + cfg.b + cfg.c + cfg.d;
  const double pa = cfg.a / sum, pb = cfg.b / sum, pc = cfg.c / sum;

  const VertexId n = VertexId{1} << cfg.scale;
  const auto num_edges = static_cast<std::uint64_t>(
      cfg.edge_factor * static_cast<double>(n));

  Rng rng(cfg.seed);
  std::vector<Edge> edges;
  edges.reserve(num_edges);

  for (std::uint64_t e = 0; e < num_edges; ++e) {
    VertexId src = 0, dst = 0;
    for (std::uint32_t level = 0; level < cfg.scale; ++level) {
      // Blend the initiator toward uniform by `noise` at every level.
      const double qa = pa * (1.0 - 2.0 * cfg.noise) + 0.25 * 2.0 * cfg.noise;
      const double qb = pb * (1.0 - 2.0 * cfg.noise) + 0.25 * 2.0 * cfg.noise;
      const double qc = pc * (1.0 - 2.0 * cfg.noise) + 0.25 * 2.0 * cfg.noise;
      const double u = rng.next_double();
      std::uint32_t quad;
      if (u < qa) quad = 0;
      else if (u < qa + qb) quad = 1;
      else if (u < qa + qb + qc) quad = 2;
      else quad = 3;
      src = (src << 1) | (quad >> 1);
      dst = (dst << 1) | (quad & 1);
    }
    edges.push_back(Edge{src, dst});
  }
  return Graph::from_edges(n, std::move(edges), symmetrize);
}

std::shared_ptr<const Graph> kronecker_graph_shared(const KroneckerConfig& cfg,
                                                    bool symmetrize) {
  using Key = std::tuple<double, double, double, double, std::uint32_t, double,
                         double, std::uint64_t, bool>;
  static support::SingleFlight<Key, Graph> flights(
      obs::metrics().counter("data.graph_shared"),
      obs::metrics().counter("data.graph_synth"));
  const Key key{cfg.a,     cfg.b,    cfg.c,        cfg.d,    cfg.scale,
                cfg.edge_factor, cfg.noise, cfg.seed, symmetrize};
  return flights.get(key, [&] { return kronecker_graph(cfg, symmetrize); });
}

}  // namespace simprof::data
