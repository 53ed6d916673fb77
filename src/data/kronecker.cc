#include "data/kronecker.h"

#include <cmath>
#include <tuple>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/assert.h"
#include "support/single_flight.h"

namespace simprof::data {

Graph kronecker_graph(const KroneckerConfig& cfg, bool symmetrize) {
  SIMPROF_EXPECTS(cfg.scale >= 1 && cfg.scale <= 30, "scale out of range");
  SIMPROF_EXPECTS(cfg.a > 0 && cfg.b >= 0 && cfg.c >= 0 && cfg.d >= 0,
                  "initiator probabilities must be non-negative");
  SIMPROF_EXPECTS(cfg.noise >= 0.0 && cfg.noise <= 0.5, "noise in [0, 0.5]");
  SIMPROF_EXPECTS(std::isfinite(cfg.edge_factor) && cfg.edge_factor >= 0.0,
                  "edge_factor must be finite and non-negative");
  obs::ObsSpan span("data.graph_gen");

  const double sum = cfg.a + cfg.b + cfg.c + cfg.d;
  const double pa = cfg.a / sum, pb = cfg.b / sum, pc = cfg.c / sum;

  const VertexId n = VertexId{1} << cfg.scale;
  const double nominal_edges = cfg.edge_factor * static_cast<double>(n);
  SIMPROF_EXPECTS(nominal_edges < 0x1p64, "edge count out of range");
  const auto num_edges = static_cast<std::uint64_t>(nominal_edges);

  // Every level blends the initiator toward uniform by `noise` the same
  // way, so the quadrant thresholds are computed once. The q's are
  // non-negative, so t1 <= t2 <= t3 holds in floating point too, which is
  // what makes counting the thresholds u reaches pick the same quadrant as
  // testing u < t1, u < t2, u < t3 in turn.
  const double qa = pa * (1.0 - 2.0 * cfg.noise) + 0.25 * 2.0 * cfg.noise;
  const double qb = pb * (1.0 - 2.0 * cfg.noise) + 0.25 * 2.0 * cfg.noise;
  const double qc = pc * (1.0 - 2.0 * cfg.noise) + 0.25 * 2.0 * cfg.noise;
  const double t1 = qa, t2 = qa + qb, t3 = qa + qb + qc;

  Rng rng(cfg.seed);
  std::vector<Edge> edges(num_edges);
  for (Edge& edge : edges) {
    VertexId src = 0, dst = 0;
    for (std::uint32_t level = 0; level < cfg.scale; ++level) {
      const double u = rng.next_double();
      const auto quad = static_cast<VertexId>(u >= t1) +
                        static_cast<VertexId>(u >= t2) +
                        static_cast<VertexId>(u >= t3);
      src = (src << 1) | (quad >> 1);
      dst = (dst << 1) | (quad & 1);
    }
    edge = Edge{src, dst};
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
