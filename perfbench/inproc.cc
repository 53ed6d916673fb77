// perfbench_inproc — the benchmark's in-process half. run.py spawns it; it
// drives SimProf only through public library functions and the service
// client, and prints one JSON object on stdout.
//
//   perfbench_inproc census --workload W --input I --seed S
//                           --cli-profile F --trace-out T
//       One cold profile in-process, layer by layer: input synthesis, the
//       oracle pass (memo already warm, no cache, no checkpoints), profile
//       save and load. Spans bracket each layer call; the trace goes to T.
//       memo_guard_ok is false if synthesis ran again inside the oracle
//       pass, i.e. oracle_ms would silently include it.
//
//   perfbench_inproc sampling-error --seed S --n N --draws D F...
//       Freq phase formation + Neyman sampling on each saved profile, as
//       the daemon's analyze request does; prints each profile's relative
//       error averaged over D plans at sampling seeds S..S+D-1.
//
//   perfbench_inproc mix --socket P --fixtures DIR --cache DIR --seed S
//                        --seconds T --connections C [--trace-out T]
//       Closed-loop request mix against a running `simprof serve`: one
//       warm-up pass, then T seconds timed. Every reply is checked against
//       the same call made in-process (measure replies against the tracked
//       fixture's unit records). With --trace-out the in-process reference
//       calls are also timed as the per-layer census, the first pass's
//       measure requests are replayed in-process on the daemon's cache DIR,
//       and C concurrent phase formations on the global pool price its
//       queueing (see pool_census).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/lab.h"
#include "core/phase.h"
#include "core/profile.h"
#include "core/sampling.h"
#include "core/sensitivity.h"
#include "data/catalog.h"
#include "data/kronecker.h"
#include "data/text.h"
#include "obs/obs.h"
#include "service/client.h"
#include "support/assert.h"
#include "workloads/workloads.h"

namespace {

using namespace simprof;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Flags {
  std::map<std::string, std::string> kv;
  std::vector<std::string> positional;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  std::string need(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
};

Flags parse_flags(int argc, char** argv) {
  Flags f;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      f.kv[a.substr(2)] = argv[++i];
    } else {
      f.positional.push_back(a);
    }
  }
  return f;
}

/// Flat JSON object writer; doubles keep all 17 significant digits.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  JsonOut& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonOut& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonOut& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return raw(key, q + "\"");
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  JsonOut& raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + v;
    return *this;
  }
  std::string body_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

core::ThreadProfile decode_profile(const std::string& bytes) {
  std::istringstream is(bytes);
  return core::ThreadProfile::load(is);
}

std::uint64_t synth_count() {
  return obs::metrics().counter("data.corpus_synth").value() +
         obs::metrics().counter("data.graph_synth").value();
}

// ---------------------------------------------------------------- census --

/// The workload's exact input config, mirroring corpus_config() in
/// workloads/text_{spark,hadoop}.cc and load_graph() in
/// workloads/graph_workloads.cc. If these drift from the workloads, the
/// memo guard fails the run instead of letting oracle_ms absorb synthesis.
struct InputSynth {
  bool graph = false;
  std::uint64_t items = 0;  ///< words or edges
};

InputSynth synthesize_input(const std::string& workload,
                            const std::string& input, std::uint64_t seed) {
  InputSynth out;
  const auto& info = workloads::workload(workload);
  if (info.graph_workload) {
    const bool cc = workload.rfind("cc_", 0) == 0;
    auto entry = data::catalog_entry(input, cc ? 17 : 16);
    entry.kron.seed ^= seed * 0x9e37ULL;
    out.graph = true;
    out.items = data::kronecker_graph_shared(entry.kron, /*symmetrize=*/cc)
                    ->num_edges();
    return out;
  }
  if (workload.rfind("grep_", 0) == 0) {
    throw std::runtime_error("census: grep inputs are not in any set");
  }
  const auto ts = workloads::detail::text_scale(1.0);
  data::TextConfig cfg;
  cfg.num_words = ts.num_words;
  cfg.vocabulary = ts.vocabulary;
  cfg.zipf_skew = 1.0;
  cfg.mean_doc_words = 160;
  cfg.seed = seed;
  if (workload.rfind("bayes_", 0) == 0) {
    cfg.num_classes = 4;
    cfg.vocabulary /= 2;
  }
  out.items = data::TextCorpus::synthesize_shared(cfg)->words().size();
  return out;
}

int cmd_census(const Flags& f) {
  const std::string workload = f.need("workload");
  const std::string input = f.need("input");
  const std::uint64_t seed = std::stoull(f.need("seed"));
  const std::string cli_bytes = read_file(f.need("cli-profile"));

  obs::start_tracing();
  InputSynth in;
  core::LabRun run;
  std::string saved;
  core::ThreadProfile loaded;
  double synth_ms = 0, oracle_ms = 0, save_ms = 0, load_ms = 0;
  bool memo_ok = false;
  {
    obs::ObsSpan root("bench.config");
    auto t0 = Clock::now();
    {
      obs::ObsSpan s("bench.data");
      in = synthesize_input(workload, input, seed);
    }
    auto t1 = Clock::now();
    synth_ms = ms_between(t0, t1);

    const std::uint64_t synth_before = synth_count();
    {
      obs::ObsSpan s("bench.oracle");
      core::LabConfig cfg;
      cfg.seed = seed;
      cfg.use_cache = false;
      cfg.checkpoint_stride = 0;
      core::WorkloadLab lab(cfg);
      run = lab.run(workload, input);
    }
    t0 = Clock::now();
    oracle_ms = ms_between(t1, t0);
    memo_ok = synth_count() == synth_before;

    {
      obs::ObsSpan s("bench.profile_save");
      std::ostringstream os;
      run.profile.save(os);
      saved = os.str();
    }
    t1 = Clock::now();
    save_ms = ms_between(t0, t1);
    {
      obs::ObsSpan s("bench.profile_load");
      loaded = decode_profile(saved);
    }
    load_ms = ms_between(t1, Clock::now());
  }
  obs::stop_tracing();
  if (!obs::write_trace(f.need("trace-out"))) return 1;

  std::ostringstream again;
  loaded.save(again);
  JsonOut out;
  out.flag("graph", in.graph)
      .num("input_items", in.items)
      .num("synth_ms", synth_ms)
      .num("oracle_ms", oracle_ms)
      .num("units", static_cast<std::uint64_t>(run.profile.num_units()))
      .num("instructions", run.profile.total_instructions())
      .num("save_ms", save_ms)
      .num("profile_bytes", static_cast<std::uint64_t>(saved.size()))
      .num("load_ms", load_ms)
      .flag("memo_guard_ok", memo_ok)
      .flag("matches_cli", saved == cli_bytes)
      .flag("roundtrip_ok", again.str() == saved);
  std::cout << out.done() << '\n';
  return 0;
}

// -------------------------------------------------------- sampling-error --

int cmd_sampling_error(const Flags& f) {
  const std::uint64_t seed = std::stoull(f.need("seed"));
  const std::size_t n = std::stoull(f.need("n"));
  const std::uint64_t draws = std::stoull(f.need("draws"));
  std::string list;
  for (const auto& path : f.positional) {
    const auto profile = decode_profile(read_file(path));
    const auto model = core::form_phases(profile);
    double sum = 0;
    for (std::uint64_t d = 0; d < draws; ++d) {
      const auto plan = core::simprof_sample(
          profile, model, std::min(n, profile.num_units()), seed + d);
      sum += core::relative_error(plan, profile);
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", sum / static_cast<double>(draws));
    list += (list.empty() ? "" : ", ") + std::string(buf);
  }
  std::cout << "{\"errors\": [" << list << "]}\n";
  return 0;
}

// ------------------------------------------------------------------- mix --

// The 12 Table I configurations on the Google input, in catalog order: the
// round-robin target of the freq analyze requests.
const std::vector<std::string> kGoogleConfigs = {
    "sort_hp", "wc_hp",   "grep_hp", "bayes_hp", "cc_hp", "rank_hp",
    "sort_sp", "wc_sp",   "grep_sp", "bayes_sp", "cc_sp", "rank_sp"};
const std::vector<std::string> kGraphWorkloads = {"cc_hp", "cc_sp", "rank_hp",
                                                  "rank_sp"};
const std::vector<std::string> kGraphInputs = {
    "Google", "Amazon", "DBLP", "Facebook", "Flickr", "Road", "Stanford",
    "Wikipedia"};
constexpr std::uint64_t kSimSeed = 42;  // the tracked fixtures' seed
constexpr std::uint64_t kSampleSizes[] = {8, 16, 32};

enum class Kind { kAnalyze, kSensitivity, kMeasure };

struct Spec {
  Kind kind = Kind::kAnalyze;
  std::string workload;
  std::string input = "Google";
  std::uint8_t features = 0;  // features::FeatureMode
  std::uint64_t sample_n = 8;
  std::vector<std::string> references;
  std::vector<std::uint64_t> units;
};

/// Expected reply of one spec, computed in-process.
struct Expected {
  service::ProfileResult analyze;
  service::SensitivityResult sensitivity;
  std::vector<std::uint64_t> unit_ids;
  std::vector<double> cpis;
};

std::string fixture_path(const std::string& dir, const std::string& workload,
                         const std::string& input) {
  // Lab cache key (WorkloadLab::cache_key) of the tracked fixtures: scale 1,
  // seed 42, 4 cores, catalog graph scale, 1M-instruction units.
  return dir + "/" + workload + "-" + input + "-s1-seed42-c4-g0-u1000000-v" +
         std::to_string(core::kLabCacheSchema) + ".sprf";
}

constexpr std::size_t kPassLen = 46;
/// Passes in one cycle of the mix: the sensitivity requests visit all 8
/// graph inputs once per cycle.
constexpr std::size_t kCyclePasses = 8;
/// Targets of the combined-feature requests: the two configs on which
/// combined features beat freq under the daemon's default Neyman estimator
/// in EXPERIMENTS.md's feature-mode grid (sort_hp 2.7% vs 4.3%, rank_sp
/// 1.9% vs 2.9%), i.e. where a client has a reason to ask for them.
const std::vector<std::string> kCombinedConfigs = {"sort_hp", "rank_sp"};
/// Measure requests per pass: the plan's units split as a client with one
/// connection per core of a 4-core host would.
constexpr std::size_t kMeasureRequests = 4;
/// Sample size of the cc_sp plan whose units the measure requests simulate.
constexpr std::uint64_t kMeasuredPlanN = 8;

/// One cycle of the mix. What is taken from the repository and what is
/// assumed:
///  - freq analyze requests, round-robin over the 12 Google configs, are
///    the bulk of the traffic (the workload's definition). Three rounds per
///    pass, one at each of n = 8, 16, 32, bracketing the CLI's default
///    sample size of 20 (Fig. 7's): the sizes and the 36 : 10 share are
///    assumptions.
///  - one sensitivity request per graph workload per pass, trained on one
///    catalog graph input with the other three graph workloads as the
///    references the daemon's protocol takes; the input rotates over the 8
///    Table II graph inputs, one per pass. One test per workload per pass
///    is an assumption.
///  - the measure requests follow SimProf's workflow: a client simulates
///    the units its plan selected. They measure the `plan_units` of the
///    cc_sp n = 8 plan (the daemon's own analyze reply; cc_sp is the one
///    config whose checkpoints set-up records), split over 4 requests sent
///    back to back. Which plan, and once per pass, are assumptions.
///  - one combined-feature analyze request per kCombinedConfigs target per
///    pass, sent back to back (a minority by definition; 2 of 46 is
///    assumed).
/// The seed picks the rotation offsets and where the minority requests sit
/// in each pass; it never changes which requests a cycle holds, so the cost
/// of a cycle does not depend on the seed.
std::vector<Spec> build_mix(std::uint64_t seed,
                            std::vector<std::uint64_t> plan_units) {
  std::sort(plan_units.begin(), plan_units.end());
  plan_units.erase(std::unique(plan_units.begin(), plan_units.end()),
                   plan_units.end());
  if (plan_units.size() < kMeasureRequests) {
    throw std::runtime_error("cc_sp plan has too few units to measure");
  }
  std::mt19937_64 rng(seed);
  const std::uint64_t offset = rng() % kGoogleConfigs.size();
  const std::uint64_t input_offset = rng() % kGraphInputs.size();
  std::vector<Spec> mix;
  for (std::size_t p = 0; p < kCyclePasses; ++p) {
    std::vector<Spec> pass;
    for (const std::uint64_t n : kSampleSizes) {
      for (std::size_t i = 0; i < kGoogleConfigs.size(); ++i) {
        Spec s;
        s.workload = kGoogleConfigs[(offset + i) % kGoogleConfigs.size()];
        s.sample_n = n;
        pass.push_back(s);
      }
    }
    std::vector<std::vector<Spec>> groups;
    for (const auto& w : kGraphWorkloads) {
      Spec s;
      s.kind = Kind::kSensitivity;
      s.workload = w;
      s.input = kGraphInputs[(input_offset + p) % kGraphInputs.size()];
      for (const auto& r : kGraphWorkloads) {
        if (r != w) s.references.push_back(r);
      }
      groups.push_back({s});
    }
    groups.emplace_back();
    for (std::size_t i = 0; i < kMeasureRequests; ++i) {
      Spec s;
      s.kind = Kind::kMeasure;
      s.workload = "cc_sp";
      for (std::size_t u = i; u < plan_units.size(); u += kMeasureRequests) {
        s.units.push_back(plan_units[u]);
      }
      groups.back().push_back(s);
    }
    groups.emplace_back();
    for (const auto& w : kCombinedConfigs) {
      Spec s;
      s.workload = w;
      s.features = static_cast<std::uint8_t>(features::FeatureMode::kCombined);
      groups.back().push_back(s);
    }
    for (auto& g : groups) {
      const std::size_t pos = rng() % (pass.size() + 1);
      pass.insert(pass.begin() + static_cast<std::ptrdiff_t>(pos), g.begin(),
                  g.end());
    }
    SIMPROF_ENSURES(pass.size() == kPassLen, "mix pass length");
    for (auto& s : pass) mix.push_back(std::move(s));
  }
  return mix;
}

/// Per-layer timings of the in-process reference calls (the census).
struct LayerTimes {
  double load_ms = 0, form_ms = 0, form_combined_ms = 0, plan_ms = 0,
         sensitivity_ms = 0;
  std::uint64_t loads = 0, forms = 0, forms_combined = 0, plans = 0,
                sensitivity_tests = 0;
};

/// Computes every spec's expected reply with the same library calls the
/// daemon makes (form_phases at the daemon's one request thread, Neyman
/// sampling at the simulation seed), timing each layer call.
class Reference {
 public:
  explicit Reference(std::string fixtures) : fixtures_(std::move(fixtures)) {}

  const core::ThreadProfile& profile(const std::string& w,
                                     const std::string& input) {
    auto& slot = profiles_[w + "/" + input];
    if (!slot) {
      obs::ObsSpan s("bench.profile_load");
      const auto t0 = Clock::now();
      slot = std::make_unique<core::ThreadProfile>(
          decode_profile(read_file(fixture_path(fixtures_, w, input))));
      times.load_ms += ms_between(t0, Clock::now());
      ++times.loads;
    }
    return *slot;
  }

  const core::PhaseModel& model(const std::string& w, const std::string& input,
                                std::uint8_t mode) {
    auto& slot = models_[w + "/" + input + "/" + std::to_string(mode)];
    if (!slot) {
      const auto& p = profile(w, input);
      const bool combined = mode != 0;
      obs::ObsSpan s(combined ? "bench.phase_form_combined"
                              : "bench.phase_form");
      core::PhaseFormationConfig fc;
      fc.features = static_cast<features::FeatureMode>(mode);
      fc.threads = 1;
      const auto t0 = Clock::now();
      slot = std::make_unique<core::PhaseModel>(core::form_phases(p, fc));
      const double ms = ms_between(t0, Clock::now());
      (combined ? times.form_combined_ms : times.form_ms) += ms;
      ++(combined ? times.forms_combined : times.forms);
    }
    return *slot;
  }

  Expected expect(const Spec& s) {
    Expected e;
    if (s.kind == Kind::kAnalyze) {
      const auto& p = profile(s.workload, s.input);
      const auto& m = model(s.workload, s.input, s.features);
      auto& r = e.analyze;
      r.units = p.num_units();
      r.methods = p.num_methods();
      r.oracle_cpi = p.oracle_cpi();
      r.phase_count = m.k;
      r.features = s.features;
      core::SamplePlan plan;
      {
        obs::ObsSpan span("bench.sampling_plan");
        const auto t0 = Clock::now();
        plan = core::simprof_sample(
            p, m, std::min<std::size_t>(s.sample_n, p.num_units()), kSimSeed);
        times.plan_ms += ms_between(t0, Clock::now());
        ++times.plans;
      }
      r.estimated_cpi = plan.estimated_cpi;
      r.standard_error = plan.standard_error;
      for (const auto& pt : plan.points) {
        r.selected_units.push_back(p.units[pt.unit_index].unit_id);
        r.weights.push_back(pt.weight);
      }
    } else if (s.kind == Kind::kSensitivity) {
      const auto& m = model(s.workload, s.input, 0);
      std::vector<const core::ThreadProfile*> refs;
      for (const auto& r : s.references) refs.push_back(&profile(r, s.input));
      obs::ObsSpan span("bench.sensitivity_test");
      const auto t0 = Clock::now();
      const auto report = core::input_sensitivity_test(m, refs, s.references);
      times.sensitivity_ms += ms_between(t0, Clock::now());
      ++times.sensitivity_tests;
      e.sensitivity.phases = report.phase_sensitive.size();
      e.sensitivity.sensitive = report.num_sensitive();
    } else {
      const auto& p = profile(s.workload, s.input);
      for (const auto u : s.units) {
        const auto it = std::find_if(
            p.units.begin(), p.units.end(),
            [u](const core::UnitRecord& r) { return r.unit_id == u; });
        if (it == p.units.end()) throw std::runtime_error("no unit in fixture");
        e.unit_ids.push_back(it->unit_id);
        e.cpis.push_back(it->cpi());
      }
    }
    return e;
  }

  LayerTimes times;

 private:
  std::string fixtures_;
  std::map<std::string, std::unique_ptr<core::ThreadProfile>> profiles_;
  std::map<std::string, std::unique_ptr<core::PhaseModel>> models_;
};

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct Outcome {
  std::uint64_t seq = 0;
  double start_ms = 0, end_ms = 0;  ///< since the drive started
  double latency_ms = 0;
  bool ok = false;
  double sampling_error = -1;  ///< freq analyze replies only
  std::string why;             ///< first failure reason
};

/// Sends one request and checks the reply against the expectation.
Outcome execute(service::ServiceClient& client, const Spec& s,
                const Expected& e) {
  Outcome o;
  if (s.kind == Kind::kAnalyze) {
    service::ProfileRequest q;
    q.workload = s.workload;
    q.input = s.input;
    q.scale = 1.0;
    q.seed = kSimSeed;
    q.sample_n = s.sample_n;
    q.features = s.features;
    const auto rep = client.profile(q);
    const auto& x = e.analyze;
    const auto& r = rep.result;
    if (rep.status != service::Status::kOk) {
      o.why = "analyze status " + std::string(service::to_string(rep.status)) +
              ": " + rep.message;
    } else if (r.units != x.units || r.methods != x.methods ||
               !same_bits(r.oracle_cpi, x.oracle_cpi) ||
               r.phase_count != x.phase_count ||
               !same_bits(r.estimated_cpi, x.estimated_cpi) ||
               !same_bits(r.standard_error, x.standard_error) ||
               r.selected_units != x.selected_units ||
               !same_bits(r.weights, x.weights) || r.features != x.features) {
      o.why = "analyze reply differs from the library: " + s.workload;
    } else {
      o.ok = true;
      if (s.features == 0 && r.oracle_cpi > 0) {
        o.sampling_error =
            std::abs(r.estimated_cpi - r.oracle_cpi) / r.oracle_cpi;
      }
    }
  } else if (s.kind == Kind::kSensitivity) {
    service::SensitivityRequest q;
    q.workload = s.workload;
    q.input = s.input;
    q.scale = 1.0;
    q.seed = kSimSeed;
    q.references = s.references;
    const auto rep = client.sensitivity(q);
    if (rep.status != service::Status::kOk) {
      o.why = "sensitivity status " +
              std::string(service::to_string(rep.status)) + ": " + rep.message;
    } else if (rep.result.phases != e.sensitivity.phases ||
               rep.result.sensitive != e.sensitivity.sensitive) {
      o.why = "sensitivity reply differs from the library: " + s.workload +
              "/" + s.input;
    } else {
      o.ok = true;
    }
  } else {
    service::MeasureRequest q;
    q.workload = s.workload;
    q.input = s.input;
    q.scale = 1.0;
    q.seed = kSimSeed;
    q.units = s.units;
    const auto rep = client.measure(q);
    const auto& r = rep.result;
    if (rep.status != service::Status::kOk) {
      o.why = "measure status " + std::string(service::to_string(rep.status)) +
              ": " + rep.message;
    } else if (!r.used_checkpoints || r.fallback) {
      o.why = "measure did not replay checkpoints";
    } else if (r.unit_ids != e.unit_ids || !same_bits(r.cpis, e.cpis)) {
      o.why = "measure reply differs from the fixture's unit records";
    } else {
      o.ok = true;
    }
  }
  return o;
}

struct PhaseResult {
  std::vector<Outcome> outcomes;
  double wall_ms = 0;
};

/// Runs the mix closed-loop on every connection: each takes the next
/// sequence number, sends that request, waits for the reply, repeats —
/// until `seq_end` is reached or the deadline passes.
PhaseResult drive(std::vector<std::unique_ptr<service::ServiceClient>>& clients,
                  const std::vector<Spec>& mix,
                  const std::vector<Expected>& expected,
                  std::atomic<std::uint64_t>& next, std::uint64_t seq_end,
                  double seconds) {
  PhaseResult res;
  std::mutex mu;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;  // joined on scope exit
    for (auto& c : clients) {
      threads.emplace_back([&, client = c.get()] {
        std::vector<Outcome> mine;
        for (;;) {
          if (Clock::now() >= deadline) break;
          const std::uint64_t seq = next.fetch_add(1);
          if (seq >= seq_end) break;
          const std::size_t i = seq % mix.size();
          const auto start = Clock::now();
          Outcome o;
          try {
            o = execute(*client, mix[i], expected[i]);
          } catch (const std::exception& ex) {
            o.why = std::string("request threw: ") + ex.what();
          }
          const auto end = Clock::now();
          o.seq = seq;
          o.start_ms = ms_between(t0, start);
          o.end_ms = ms_between(t0, end);
          o.latency_ms = ms_between(start, end);
          mine.push_back(std::move(o));
        }
        std::lock_guard<std::mutex> lock(mu);
        for (auto& o : mine) res.outcomes.push_back(std::move(o));
      });
    }
  }
  res.wall_ms = ms_between(t0, Clock::now());
  return res;
}

/// Wall time of each pass the window holds whole: from the first request
/// of the pass going out to its last reply coming back. With several
/// connections consecutive passes overlap a little at their ends.
std::vector<double> pass_walls(const std::vector<Outcome>& outcomes) {
  struct Span {
    double start = 1e300, end = 0;
    std::size_t requests = 0;
  };
  std::map<std::uint64_t, Span> passes;
  for (const auto& o : outcomes) {
    auto& p = passes[o.seq / kPassLen];
    p.start = std::min(p.start, o.start_ms);
    p.end = std::max(p.end, o.end_ms);
    ++p.requests;
  }
  std::vector<double> walls;
  for (const auto& [_, p] : passes) {
    if (p.requests == kPassLen) walls.push_back(p.end - p.start);
  }
  return walls;
}

/// The daemon at its default of one request thread never reaches the
/// thread pool, so the pool is priced the way a daemon started with
/// --request-threads nproc uses it: `callers` freq phase formations at a
/// time, each on the global pool at the default thread count, so the
/// callers queue behind each other's jobs. Every model must equal the
/// one-thread reference model bit for bit. Returns the p99 queue wait of
/// the pooled jobs (the delta of the pool.queue_wait_ms histogram), or -1
/// on a mismatch.
double pool_census(Reference& ref, std::size_t callers) {
  std::vector<std::pair<const core::ThreadProfile*, const core::PhaseModel*>>
      jobs;
  for (const auto& w : kGoogleConfigs) {
    jobs.emplace_back(&ref.profile(w, "Google"), &ref.model(w, "Google", 0));
  }
  auto& hist = obs::metrics().quantile_histogram("pool.queue_wait_ms");
  const auto before = hist.bucket_counts();
  std::atomic<std::size_t> next{0};
  std::atomic<bool> same{true};
  {
    obs::ObsSpan span("bench.pool");
    std::vector<std::jthread> threads;  // joined on scope exit
    for (std::size_t t = 0; t < callers; ++t) {
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= jobs.size()) break;
          core::PhaseFormationConfig fc;
          fc.threads = 0;  // the global pool at its default thread count
          const auto pooled = core::form_phases(*jobs[i].first, fc);
          const auto& serial = *jobs[i].second;
          if (pooled.k != serial.k || pooled.labels != serial.labels ||
              !same_bits(pooled.silhouette_scores,
                         serial.silhouette_scores)) {
            same = false;
          }
        }
      });
    }
  }
  if (!same) return -1;
  const auto after = hist.bucket_counts();
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < after.size(); ++b) total += after[b] - before[b];
  if (total == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(0.99 * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < after.size(); ++b) {
    seen += after[b] - before[b];
    if (seen >= rank) {
      return b + 1 == after.size()
                 ? hist.max()
                 : std::min(obs::QuantileHistogram::bucket_upper_bound(b),
                            hist.max());
    }
  }
  return hist.max();
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

int cmd_mix(const Flags& f) {
  const std::string socket = f.need("socket");
  const std::string fixtures = f.need("fixtures");
  const std::uint64_t seed = std::stoull(f.need("seed"));
  const double seconds = std::stod(f.need("seconds"));
  const std::size_t connections = std::stoull(f.need("connections"));
  const std::string trace_out = f.get("trace-out", "");

  // References first, while the daemon is idle: the in-process calls are
  // both the correctness oracle and, when traced, the per-layer census.
  if (!trace_out.empty()) obs::start_tracing();
  Reference ref(fixtures);
  Spec plan;
  plan.workload = "cc_sp";
  plan.sample_n = kMeasuredPlanN;
  const auto mix = build_mix(seed, ref.expect(plan).analyze.selected_units);
  std::vector<Expected> expected;
  for (const auto& s : mix) expected.push_back(ref.expect(s));

  // ckpt layer: the daemon's measure path, replayed in-process on the same
  // cache copy and its re-recorded archives.
  double measure_ms = 0, pool_wait_p99_ms = 0;
  std::uint64_t measured_units = 0, restore_bytes = 0, fallbacks = 0;
  bool measure_ok = true;
  if (!trace_out.empty()) {
    core::LabConfig cfg;
    cfg.cache_dir = f.need("cache");
    core::WorkloadLab lab(cfg);
    const std::uint64_t rb0 =
        obs::metrics().counter("ckpt.restore_bytes").value();
    const std::uint64_t fb0 = obs::metrics().counter("ckpt.fallback").value();
    for (std::size_t i = 0; i < kPassLen; ++i) {
      if (mix[i].kind != Kind::kMeasure) continue;
      obs::ObsSpan span("bench.ckpt_measure");
      const auto t0 = Clock::now();
      const auto mr = lab.measure_units(mix[i].workload, mix[i].input,
                                        mix[i].units);
      measure_ms += ms_between(t0, Clock::now());
      measured_units += mix[i].units.size();
      std::vector<double> cpis;
      for (const auto& r : mr.records) cpis.push_back(r.cpi());
      measure_ok = measure_ok && same_bits(cpis, expected[i].cpis);
    }
    restore_bytes = obs::metrics().counter("ckpt.restore_bytes").value() - rb0;
    fallbacks = obs::metrics().counter("ckpt.fallback").value() - fb0;
    pool_wait_p99_ms = pool_census(ref, connections);
    obs::stop_tracing();
    if (!obs::write_trace(trace_out)) return 1;
  }

  std::vector<std::unique_ptr<service::ServiceClient>> clients;
  for (std::size_t i = 0; i < connections; ++i) {
    clients.push_back(std::make_unique<service::ServiceClient>(socket));
  }
  std::atomic<std::uint64_t> next{0};
  // Warm-up: one full pass, so the admission probe has settled before
  // timing starts (the first pass runs ~30% below the steady rate).
  const auto warm = drive(clients, mix, expected, next, kPassLen, 1e9);
  const auto stats0 = clients.front()->stats();
  const auto window = drive(clients, mix, expected, next, UINT64_MAX, seconds);
  const auto stats1 = clients.front()->stats();

  std::uint64_t failed = 0;
  std::vector<std::string> reasons;
  for (const auto* phase : {&warm, &window}) {
    for (const auto& o : phase->outcomes) {
      if (o.ok) continue;
      ++failed;
      if (reasons.size() < 5) reasons.push_back(o.why);
    }
  }
  std::vector<double> latencies;
  double error_sum = 0;
  std::uint64_t error_n = 0;
  for (const auto& o : window.outcomes) {
    latencies.push_back(o.latency_ms);
    if (o.sampling_error >= 0) {
      error_sum += o.sampling_error;
      ++error_n;
    }
  }
  const double completed = static_cast<double>(window.outcomes.size());
  const auto per_call = [](double total, std::uint64_t n) {
    return n ? total / static_cast<double>(n) : 0.0;
  };
  const auto walls = pass_walls(window.outcomes);
  const double pass_wall_ms =
      per_call(std::accumulate(walls.begin(), walls.end(), 0.0), walls.size());

  const auto& t = ref.times;
  JsonOut out;
  out.num("attempted",
           static_cast<std::uint64_t>(warm.outcomes.size() +
                                      window.outcomes.size()))
      .num("failed", failed)
      .num("completed", static_cast<std::uint64_t>(window.outcomes.size()))
      .num("window_s", window.wall_ms / 1000.0)
      .num("req_per_s", completed / (window.wall_ms / 1000.0))
      .num("req_p50_ms", nearest_rank(latencies, 0.50))
      .num("req_p99_ms", nearest_rank(latencies, 0.99))
      .num("pass_wall_s", pass_wall_ms / 1000.0)
      .num("warmup_s", warm.wall_ms / 1000.0)
      .num("sampling_error_pct", 100.0 * per_call(error_sum, error_n))
      .num("admission_level", stats1.admission_level)
      .num("rejected", stats1.rejected - stats0.rejected)
      .num("profile_load_ms", per_call(t.load_ms, t.loads))
      .num("phase_form_ms", per_call(t.form_ms, t.forms))
      .num("phase_forms", t.forms)
      .num("phase_form_combined_ms",
           per_call(t.form_combined_ms, t.forms_combined))
      .num("sampling_plan_ms", per_call(t.plan_ms, t.plans))
      .num("sensitivity_test_ms",
           per_call(t.sensitivity_ms, t.sensitivity_tests))
      .num("ckpt_measure_ms_per_unit", per_call(measure_ms, measured_units))
      .num("ckpt_restore_bytes", restore_bytes)
      .num("ckpt_fallback", fallbacks)
      .flag("ckpt_measure_ok", measure_ok)
      .num("pool_queue_wait_ms_p99", std::max(pool_wait_p99_ms, 0.0))
      .flag("pool_models_ok", pool_wait_p99_ms >= 0);
  std::string why;
  for (const auto& r : reasons) why += (why.empty() ? "" : "; ") + r;
  out.str("failures", why);
  std::cout << out.done() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_inproc census|sampling-error|mix ...\n";
    return 2;
  }
  obs::set_log_level(obs::LogLevel::kWarn);
  const std::string cmd = argv[1];
  try {
    const Flags f = parse_flags(argc, argv);
    if (cmd == "census") return cmd_census(f);
    if (cmd == "sampling-error") return cmd_sampling_error(f);
    if (cmd == "mix") return cmd_mix(f);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_inproc " << cmd << ": " << e.what() << '\n';
    return 1;
  }
  std::cerr << "perfbench_inproc: unknown command " << cmd << '\n';
  return 2;
}
