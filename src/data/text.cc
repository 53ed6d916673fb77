#include "data/text.h"

#include <algorithm>
#include <tuple>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/assert.h"
#include "support/single_flight.h"
#include "support/zipf.h"

namespace simprof::data {

TextCorpus TextCorpus::synthesize(const TextConfig& cfg) {
  SIMPROF_EXPECTS(cfg.num_words > 0, "empty corpus requested");
  SIMPROF_EXPECTS(cfg.vocabulary > 0, "empty vocabulary");
  SIMPROF_EXPECTS(cfg.mean_doc_words > 0, "documents must be non-empty");
  SIMPROF_EXPECTS(cfg.num_classes <= cfg.vocabulary,
                  "more classes than vocabulary words");
  obs::ObsSpan span("data.text_synth");

  TextCorpus out;
  out.cfg_ = cfg;
  out.words_.reserve(cfg.num_words);
  out.doc_offsets_.push_back(0);

  Rng rng(cfg.seed);
  ZipfSampler zipf(cfg.vocabulary, cfg.zipf_skew);

  std::uint64_t produced = 0;
  while (produced < cfg.num_words) {
    // Document length ~ uniform in [mean/2, 3·mean/2].
    const std::uint64_t lo = cfg.mean_doc_words / 2 + 1;
    const std::uint64_t len = std::min<std::uint64_t>(
        cfg.num_words - produced, lo + rng.next_below(cfg.mean_doc_words));
    const std::uint32_t label =
        cfg.num_classes > 0
            ? static_cast<std::uint32_t>(rng.next_below(cfg.num_classes))
            : 0;
    for (std::uint64_t i = 0; i < len; ++i) {
      auto w = static_cast<WordId>(zipf.sample(rng));
      if (cfg.num_classes > 0) {
        // Shift one third of the draws into a class-specific vocabulary band
        // so classes are separable (NaiveBayes has signal to learn).
        if (rng.next_bool(1.0 / 3.0)) {
          const std::uint32_t band = cfg.vocabulary / cfg.num_classes;
          w = label * band + static_cast<WordId>(w % band);
        }
      }
      out.words_.push_back(w);
      out.total_bytes_ += word_bytes(w);
    }
    out.labels_.push_back(label);
    produced += len;
    out.doc_offsets_.push_back(produced);
  }
  SIMPROF_ENSURES(out.words_.size() == cfg.num_words, "word count mismatch");
  return out;
}

std::shared_ptr<const TextCorpus> TextCorpus::synthesize_shared(
    const TextConfig& cfg) {
  using Key = std::tuple<std::uint64_t, std::uint32_t, double, std::uint32_t,
                         std::uint64_t, std::uint32_t>;
  static support::SingleFlight<Key, TextCorpus> flights(
      obs::metrics().counter("data.corpus_shared"),
      obs::metrics().counter("data.corpus_synth"));
  const Key key{cfg.num_words, cfg.vocabulary, cfg.zipf_skew,
                cfg.mean_doc_words, cfg.seed, cfg.num_classes};
  return flights.get(key, [&] { return synthesize(cfg); });
}

std::span<const WordId> TextCorpus::doc(std::size_t i) const {
  SIMPROF_EXPECTS(i + 1 < doc_offsets_.size(), "document index out of range");
  return {words_.data() + doc_offsets_[i],
          static_cast<std::size_t>(doc_offsets_[i + 1] - doc_offsets_[i])};
}

std::uint32_t TextCorpus::label(std::size_t i) const {
  if (labels_.empty()) return 0;
  SIMPROF_EXPECTS(i < labels_.size(), "document index out of range");
  return labels_[i];
}

std::uint32_t TextCorpus::word_bytes(WordId w) {
  // Deterministic pseudo-length: hash the id into [3, 12], +1 separator.
  std::uint64_t z = (static_cast<std::uint64_t>(w) + 1) * 0x9e3779b97f4a7c15ULL;
  z ^= z >> 29;
  return 3 + static_cast<std::uint32_t>(z % 10) + 1;
}

}  // namespace simprof::data
