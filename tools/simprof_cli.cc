// simprof — command-line driver for the framework.
//
//   simprof list
//   simprof profile <workload> [--input NAME] [--scale S] [--seed N]
//                   [--out FILE]
//   simprof phases  <profile.sprf>
//   simprof sample  <profile.sprf> [-n N] [--technique simprof|srs|second|
//                   code|systematic|simprof-sys] [--seed N]
//   simprof size    <profile.sprf> [--error 0.05] [--confidence 99.7]
//   simprof sensitivity <workload> [--train NAME] [--scale S]
//   simprof measure <workload> [--input NAME] [--scale S] [--seed N]
//                   [--units LIST | -n N [--stratified]]
//   simprof verify  [--cases N] [--seed N] [--resamples N] [--skip-lab]
//   simprof report  <base.json> <new.json> | <manifest-dir>
//   simprof serve   --socket PATH [--max-queue N] [--client-inflight N] ...
//   simprof loadgen --socket PATH [--clients N] [--requests N] ...
//   simprof --version
//
// Global flags (any subcommand):
//   --threads N       worker count for the parallel engines: phase
//                     formation and the batched lab pipeline (`sensitivity`
//                     profiles its training + reference inputs as one
//                     lab.run_batch), and the `serve` daemon's fixed
//                     request-worker pool. Default: hardware_concurrency;
//                     results bit-identical for any N.
//   --checkpoint-dir DIR
//                     root for sampling-unit checkpoint archives (default:
//                     $SIMPROF_CHECKPOINT_DIR or <cache>/ckpt)
//   --checkpoint-stride K
//                     save a checkpoint every K unit boundaries during
//                     oracle passes; 0 disables recording (default 2)
//   --log-level L     trace|debug|info|warn|error|off (default: info, or
//                     $SIMPROF_LOG_LEVEL)
//   --metrics-out F   write a JSON metrics snapshot on exit
//   --trace-out F     collect Chrome trace events (load in Perfetto /
//                     chrome://tracing) and write them on exit
//   --manifest-out F  where the run manifest goes (default:
//                     $SIMPROF_MANIFEST_DIR or .simprof_manifests/)
//   --no-manifest     skip the run manifest for this invocation
//   --heartbeat SECS  log a progress line every SECS seconds; SIGUSR1 dumps
//                     a live flight record (open spans + metrics)
//   --help, -h        this help (or per-subcommand usage)
//
// Every invocation (unless --no-manifest) writes a schema-versioned run
// manifest at exit — build sha, config, metrics, span rollup, quality — and
// `simprof report` diffs two of them (or gates the newest of a directory),
// exiting non-zero on a latency/quality regression. See DESIGN.md §6g.
//
// `profile` runs a Table I workload on the simulated cluster and writes the
// thread profile; the analysis subcommands operate on saved profiles, so a
// profile collected once can be explored offline — the same split as the
// real tool's agent/analyzer.
#include <pthread.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/lab.h"
#include "core/phase.h"
#include "core/sampling.h"
#include "core/sensitivity.h"
#include "data/catalog.h"
#include "features/feature_mode.h"
#include "obs/obs.h"
#include "service/loadgen.h"
#include "service/server.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "verify/fault_inject.h"
#include "verify/oracle.h"
#include "verify/roundtrip.h"
#include "workloads/workloads.h"

namespace {

using namespace simprof;

struct FlagSpec {
  std::string name;    // without leading dashes; "n" doubles as "-n"
  std::string value;   // metavariable shown in help; empty → boolean flag
  std::string help;
};

const std::vector<FlagSpec> kGlobalFlags = {
    {"threads", "N",
     "worker threads for phase formation, batched lab runs and the "
     "serve daemon's request workers (0 = hardware; output "
     "bit-identical for any N)"},
    {"checkpoint-dir", "DIR",
     "checkpoint archive root (default $SIMPROF_CHECKPOINT_DIR or "
     "<cache>/ckpt)"},
    {"checkpoint-stride", "K",
     "save a checkpoint every K unit boundaries; 0 disables (default 2)"},
    {"log-level", "LEVEL", "trace|debug|info|warn|error|off (default info)"},
    {"metrics-out", "FILE", "write a JSON metrics snapshot on exit"},
    {"trace-out", "FILE", "write Chrome trace events (Perfetto) on exit"},
    {"manifest-out", "FILE",
     "run-manifest path (default $SIMPROF_MANIFEST_DIR or "
     ".simprof_manifests/)"},
    {"no-manifest", "", "do not write a run manifest"},
    {"heartbeat", "SECS",
     "periodic progress line every SECS seconds; SIGUSR1 writes a live "
     "flight record"},
    {"help", "", "show this help"},
};

struct CommandSpec {
  std::string name;
  std::string positional;  // e.g. "<workload>"; empty → none
  std::string summary;
  std::vector<FlagSpec> flags;
};

const std::vector<CommandSpec> kCommands = {
    {"list", "", "list Table I workloads and Table II graph inputs", {}},
    {"profile",
     "<workload>",
     "run a workload under the thread profiler, write <name>.sprf",
     {{"input", "NAME", "Table II graph input (default Google)"},
      {"scale", "S", "workload scale factor (default 1.0)"},
      {"seed", "N", "simulation seed (default 42)"},
      {"out", "FILE", "output profile path"}}},
    {"phases",
     "<profile.sprf>",
     "form phases from a saved profile and print the phase table",
     {{"features", "MODE",
       "feature space: freq|mav|combined (default freq)"}}},
    {"sample",
     "<profile.sprf>",
     "draw simulation points with a sampling technique",
     {{"n", "N", "sample size (default 20)"},
      {"technique", "T",
       "simprof|srs|second|code|systematic|smarts|simprof-sys "
       "(default simprof)"},
      {"seed", "N", "sampling seed (default 1)"},
      {"features", "MODE",
       "feature space for phase formation: freq|mav|combined "
       "(default freq)"}}},
    {"size",
     "<profile.sprf>",
     "required sample size for a target error bound",
     {{"error", "E", "relative error margin (default 0.05)"},
      {"confidence", "PCT", "confidence level: 90|95|99|99.7 (default 99.7)"},
      {"features", "MODE",
       "feature space for phase formation: freq|mav|combined "
       "(default freq)"}}},
    {"sensitivity",
     "<workload>",
     "train on one input, test phase sensitivity across the rest",
     {{"train", "NAME", "training graph input (default Google)"},
      {"scale", "S", "workload scale factor (default 1.0)"},
      {"seed", "N", "simulation seed (default 42)"},
      {"features", "MODE",
       "feature space for phase formation: freq|mav|combined "
       "(default freq)"}}},
    {"measure",
     "<workload>",
     "measure selected sampling units via checkpoint restore + "
     "fast-forward (SMARTS-style)",
     {{"input", "NAME", "Table II graph input (default Google)"},
      {"scale", "S", "workload scale factor (default 1.0)"},
      {"seed", "N", "simulation seed (default 42)"},
      {"units", "LIST", "comma-separated unit ids (overrides -n)"},
      {"n", "N", "SMARTS systematic selection size (default 10)"},
      {"sample-seed", "N", "selection seed for -n (default 1)"},
      {"features", "MODE",
       "feature space for --stratified selection: freq|mav|combined "
       "(default freq)"},
      {"stratified", "",
       "select units with a Neyman-allocated stratified plan instead of "
       "SMARTS and report its weighted CPI estimate"}}},
    {"verify",
     "",
     "fault-injection + oracle verification of the archive/cache and "
     "statistics layers",
     {{"cases", "N", "seeded archive corruption cases (default 500)"},
      {"seed", "N", "verification seed (default 1)"},
      {"resamples", "N", "CI-coverage resamples (default 10000)"},
      {"skip-lab", "", "skip the on-disk lab-cache recovery drill"}}},
    {"serve",
     "",
     "run the resident profiling daemon on a Unix socket: shared lab "
     "cache, request queue, per-client quotas and a fixed pool of "
     "--threads workers (SIGINT/SIGTERM drains and exits cleanly)",
     {{"socket", "PATH", "Unix-domain socket path to listen on (required)"},
      {"max-queue", "N", "request queue capacity (default 64)"},
      {"client-inflight", "N",
       "per-connection in-flight request quota (default 8)"},
      {"request-threads", "N",
       "threads each request's lab/analysis may use (default 1; "
       "concurrency comes from the --threads worker pool)"}}},
    {"loadgen",
     "",
     "closed-loop load generator against a running daemon; prints QPS, "
     "latency quantiles and typed rejection counts",
     {{"socket", "PATH", "daemon socket path (required)"},
      {"clients", "N", "concurrent connections (default 4)"},
      {"requests", "N", "requests per connection (default 8)"},
      {"inflight", "N",
       "pipelined requests per connection (default 1; set above the "
       "daemon's --client-inflight to exercise typed rejections)"},
      {"workloads", "LIST",
       "comma-separated workload mix (default grep_sp)"},
      {"input", "NAME", "Table II graph input (default Google)"},
      {"scale", "S", "workload scale factor (default 0.05)"},
      {"seed", "N", "simulation seed (default 42)"},
      {"vary-seed", "",
       "use seed+i per request so each request is a distinct oracle pass"},
      {"no-analyze", "", "skip phase formation + sampling on the daemon"},
      {"sample", "N", "simulation points per request (default 8)"},
      {"features", "MODE",
       "feature space for daemon-side analysis: freq|mav|combined "
       "(default freq)"},
      {"json", "FILE", "write the loadgen report as JSON"}}},
    {"report",
     "<base.json> <new.json> | <manifest-dir>",
     "diff two run manifests (or gate the newest of a directory) and flag "
     "latency/quality regressions; exits 1 on a breach",
     {{"latency-threshold", "FRAC",
       "relative wall-time growth that fails the gate (default 0.25)"},
      {"quality-threshold", "FRAC",
       "relative quality degradation that fails the gate (default 0.10)"},
      {"min-delta", "MS",
       "absolute wall-time noise floor in ms (default 5)"},
      {"md", "FILE", "also write the markdown report to FILE"},
      {"json", "FILE", "also write the JSON report to FILE"}}},
};

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  bool help = false;

  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string opt(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

const CommandSpec* find_command(const std::string& name) {
  for (const auto& c : kCommands) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

void print_flag(std::ostream& os, const FlagSpec& f) {
  std::string left = "  --" + f.name;
  if (f.name.size() == 1) left += ", -" + f.name;
  if (!f.value.empty()) left += " " + f.value;
  os << left;
  for (std::size_t pad = left.size(); pad < 26; ++pad) os << ' ';
  os << f.help << '\n';
}

void print_usage(std::ostream& os) {
  os << "simprof — sampling framework for data-analytic workloads\n\n"
        "usage: simprof <subcommand> [flags]\n\nsubcommands:\n";
  for (const auto& c : kCommands) {
    std::string left = "  " + c.name + " " + c.positional;
    os << left;
    for (std::size_t pad = left.size(); pad < 28; ++pad) os << ' ';
    os << c.summary << '\n';
  }
  os << "\nglobal flags:\n";
  for (const auto& f : kGlobalFlags) print_flag(os, f);
  os << "\nrun `simprof <subcommand> --help` for per-subcommand flags;\n"
        "`simprof --version` prints build sha + schema versions.\n";
}

void print_command_usage(std::ostream& os, const CommandSpec& cmd) {
  os << "usage: simprof " << cmd.name;
  if (!cmd.positional.empty()) os << ' ' << cmd.positional;
  for (const auto& f : cmd.flags) {
    os << " [--" << f.name << (f.value.empty() ? "" : " " + f.value) << ']';
  }
  os << "\n\n" << cmd.summary << "\n";
  if (!cmd.flags.empty()) {
    os << "\nflags:\n";
    for (const auto& f : cmd.flags) print_flag(os, f);
  }
  os << "\nglobal flags:\n";
  for (const auto& f : kGlobalFlags) print_flag(os, f);
}

const FlagSpec* find_flag(const CommandSpec& cmd, const std::string& key) {
  for (const auto& f : cmd.flags) {
    if (f.name == key) return &f;
  }
  for (const auto& f : kGlobalFlags) {
    if (f.name == key) return &f;
  }
  return nullptr;
}

/// Parse argv[2..] against the subcommand's flag spec. Returns false (after
/// printing a diagnostic) on an unknown flag or a flag missing its value.
bool parse(const CommandSpec& cmd, int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "-h" || a == "--help") {
      args.help = true;
      continue;
    }
    const bool long_flag = a.rfind("--", 0) == 0;
    const bool short_flag = !long_flag && a.size() == 2 && a[0] == '-' &&
                            std::isalpha(static_cast<unsigned char>(a[1]));
    if (!long_flag && !short_flag) {
      args.positional.push_back(a);
      continue;
    }
    std::string key = long_flag ? a.substr(2) : a.substr(1);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      inline_value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_inline = true;
    }
    const FlagSpec* spec = find_flag(cmd, key);
    if (spec == nullptr) {
      std::cerr << "error: unknown flag '" << a << "' for `simprof "
                << cmd.name << "`\nvalid flags:";
      for (const auto& f : cmd.flags) std::cerr << " --" << f.name;
      for (const auto& f : kGlobalFlags) std::cerr << " --" << f.name;
      std::cerr << "\nrun `simprof " << cmd.name << " --help` for details.\n";
      return false;
    }
    if (spec->value.empty()) {  // boolean flag
      args.options[key] = "1";
      continue;
    }
    if (has_inline) {
      args.options[key] = inline_value;
    } else if (i + 1 < argc) {
      args.options[key] = argv[++i];
    } else {
      std::cerr << "error: flag '--" << key << "' expects a value ("
                << spec->value << ")\n";
      return false;
    }
  }
  return true;
}

/// Confidence percentage → normal z-score for the common levels.
bool confidence_to_z(double pct, double& z) {
  struct Level { double pct, z; };
  static constexpr Level kLevels[] = {
      {90.0, 1.645}, {95.0, 1.960}, {99.0, 2.576}, {99.7, 3.0}};
  for (const auto& l : kLevels) {
    if (std::abs(pct - l.pct) < 0.05) {
      z = l.z;
      return true;
    }
  }
  return false;
}

/// Parse --features into a feature mode (default freq). Returns false after
/// a diagnostic on an unknown name.
bool parse_features_arg(const Args& args, features::FeatureMode& mode) {
  const std::string s = args.opt("features", "freq");
  if (const auto m = features::parse_feature_mode(s)) {
    mode = *m;
    return true;
  }
  std::cerr << "error: --features must be freq|mav|combined (got '" << s
            << "')\n";
  return false;
}

/// Publish the quality figures for a stratified plan: the generic figures
/// always, plus the MAV-mode name the report gate tracks (lower is better
/// for all of them).
void set_plan_quality(const core::SamplePlan& plan,
                      const core::ThreadProfile& profile,
                      features::FeatureMode mode) {
  obs::ledger().set_quality("sampling_error_frac",
                            core::relative_error(plan, profile));
  if (plan.estimated_cpi > 0.0 && plan.ci.margin > 0.0) {
    obs::ledger().set_quality("ci_rel_width",
                              plan.ci.margin / plan.estimated_cpi);
  }
  if (mode != features::FeatureMode::kFreq) {
    obs::ledger().set_quality("mav_sampling_error_frac",
                              core::relative_error(plan, profile));
  }
}

/// Fold the global checkpoint flags into a lab configuration.
bool apply_checkpoint_flags(const Args& args, core::LabConfig& cfg) {
  cfg.checkpoint_dir = args.opt("checkpoint-dir", "");
  if (const std::string s = args.opt("checkpoint-stride", ""); !s.empty()) {
    try {
      cfg.checkpoint_stride = std::stoull(s);
    } catch (const std::exception&) {
      std::cerr << "error: --checkpoint-stride expects a non-negative "
                   "integer, got '"
                << s << "'\n";
      return false;
    }
  }
  return true;
}

core::ThreadProfile load_profile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open profile: " + path);
  }
  return core::ThreadProfile::load(in);
}

int cmd_list() {
  Table t({"name", "benchmark", "framework", "graph"});
  for (const auto& w : workloads::all_workloads()) {
    t.row({w.name, w.benchmark, std::string(workloads::to_string(w.framework)),
           w.graph_workload ? "yes" : "no"});
  }
  t.print_aligned(std::cout);
  std::cout << "\nTable II graph inputs:";
  for (const auto& e : data::snap_catalog()) {
    std::cout << ' ' << e.name << (e.training ? "(train)" : "");
  }
  std::cout << '\n';
  return 0;
}

int cmd_profile(const Args& args) {
  const std::string workload = args.positional[0];
  core::LabConfig cfg;
  cfg.scale = std::stod(args.opt("scale", "1.0"));
  cfg.seed = std::stoull(args.opt("seed", "42"));
  cfg.use_cache = false;
  if (!apply_checkpoint_flags(args, cfg)) return 2;
  core::WorkloadLab lab(cfg);
  const std::string input = args.opt("input", "Google");
  obs::ledger().set_config("workload", workload);
  obs::ledger().set_config("input", input);
  obs::ledger().set_config("scale", args.opt("scale", "1.0"));
  obs::ledger().set_config("seed", args.opt("seed", "42"));
  std::cout << "running " << workload << " (input " << input << ", scale "
            << cfg.scale << ") ...\n";
  auto run = lab.run(workload, input);
  const std::string out =
      args.opt("out", workload + "-" + input + ".sprf");
  std::ofstream os(out, std::ios::binary | std::ios::trunc);
  run.profile.save(os);
  obs::ledger().set_quality("units", static_cast<double>(run.profile.num_units()));
  obs::ledger().set_quality("oracle_cpi", run.profile.oracle_cpi());
  std::cout << "wrote " << run.profile.num_units() << " sampling units ("
            << run.profile.num_methods() << " methods) to " << out
            << "\noracle CPI " << Table::num(run.profile.oracle_cpi(), 4)
            << ", records out " << run.result.records_out << '\n';
  return 0;
}

int cmd_phases(const Args& args) {
  const auto profile = load_profile(args.positional[0]);
  features::FeatureMode mode = features::FeatureMode::kFreq;
  if (!parse_features_arg(args, mode)) return 2;
  core::PhaseFormationConfig pcfg;
  pcfg.features = mode;
  const auto model = core::form_phases(profile, pcfg);
  const auto cov = core::cov_summary(profile, model);
  obs::ledger().set_config("profile", args.positional[0]);
  obs::ledger().set_config("features", std::string(features::to_string(mode)));
  obs::ledger().set_quality("phase_count", static_cast<double>(model.k));
  if (model.k >= 1 && model.k <= model.silhouette_scores.size()) {
    obs::ledger().set_quality("silhouette",
                              model.silhouette_scores[model.k - 1]);
  }
  obs::ledger().set_quality("cov_weighted", cov.weighted);
  std::cout << profile.num_units() << " units, " << model.k
            << " phases; CoV population " << Table::num(cov.population)
            << ", weighted " << Table::num(cov.weighted) << ", max "
            << Table::num(cov.maximum) << "\n\n";
  Table t({"phase", "units", "weight", "mean_cpi", "cov", "type",
           "dominant_method"});
  for (std::size_t h = 0; h < model.k; ++h) {
    std::size_t best = 0;
    double bw = -1.0;
    for (std::size_t f = 0; f < model.feature_names.size(); ++f) {
      if (model.feature_kinds[f] == jvm::OpKind::kFramework) continue;
      if (model.centers.at(h, f) > bw) {
        bw = model.centers.at(h, f);
        best = f;
      }
    }
    t.row({std::to_string(h), std::to_string(model.phases[h].count),
           Table::pct(model.phases[h].weight),
           Table::num(model.phases[h].mean_cpi),
           Table::num(model.phases[h].cov),
           std::string(jvm::to_string(model.phase_types[h])),
           model.feature_names.empty() || bw < 0.0
               ? "-"
               : model.feature_names[best]});
  }
  t.print_aligned(std::cout);
  return 0;
}

int cmd_sample(const Args& args) {
  const auto profile = load_profile(args.positional[0]);
  const auto n = static_cast<std::size_t>(std::stoul(args.opt("n", "20")));
  const auto seed = std::stoull(args.opt("seed", "1"));
  const std::string tech = args.opt("technique", "simprof");
  features::FeatureMode mode = features::FeatureMode::kFreq;
  if (!parse_features_arg(args, mode)) return 2;

  core::SamplePlan plan;
  if (tech == "srs") {
    plan = core::srs_sample(profile, n, seed);
  } else if (tech == "second") {
    plan = core::second_sample(profile, 0.1, 2.0);
  } else if (tech == "systematic") {
    plan = core::systematic_sample(profile, n, seed);
  } else if (tech == "smarts") {
    plan = core::smarts_sample(profile, n, seed);
  } else if (tech == "code" || tech == "simprof" || tech == "simprof-sys") {
    core::PhaseFormationConfig pcfg;
    pcfg.features = mode;
    const auto model = core::form_phases(profile, pcfg);
    plan = tech == "code"
               ? core::code_sample(profile, model)
               : (tech == "simprof"
                      ? core::simprof_sample(profile, model, n, seed)
                      : core::simprof_systematic_sample(profile, model, n,
                                                        seed));
  } else {
    std::cerr << "error: unknown technique '" << tech
              << "' (simprof|srs|second|code|systematic|smarts|"
                 "simprof-sys)\n";
    return 2;
  }

  obs::ledger().set_config("profile", args.positional[0]);
  obs::ledger().set_config("technique", tech);
  obs::ledger().set_config("n", args.opt("n", "20"));
  obs::ledger().set_config("seed", args.opt("seed", "1"));
  obs::ledger().set_config("features", std::string(features::to_string(mode)));
  set_plan_quality(plan, profile, mode);
  std::cout << to_string(plan.technique) << " selected "
            << plan.sample_size() << " simulation points\n";
  std::cout << "estimate " << Table::num(plan.estimated_cpi, 4) << " vs oracle "
            << Table::num(profile.oracle_cpi(), 4) << " (error "
            << Table::pct(core::relative_error(plan, profile), 2) << ")";
  if (plan.standard_error > 0.0) {
    std::cout << ", 99.7% CI ±" << Table::num(plan.ci.margin, 4);
  }
  std::cout << "\nunit_id,phase,weight\n";
  for (const auto& pt : plan.points) {
    std::cout << profile.units[pt.unit_index].unit_id << ',' << pt.phase << ','
              << Table::num(pt.weight, 5) << '\n';
  }
  return 0;
}

int cmd_size(const Args& args) {
  const auto profile = load_profile(args.positional[0]);
  features::FeatureMode mode = features::FeatureMode::kFreq;
  if (!parse_features_arg(args, mode)) return 2;
  core::PhaseFormationConfig pcfg;
  pcfg.features = mode;
  const auto model = core::form_phases(profile, pcfg);
  const double err = std::stod(args.opt("error", "0.05"));
  const double conf = std::stod(args.opt("confidence", "99.7"));
  double z = 3.0;
  if (!confidence_to_z(conf, z)) {
    std::cerr << "error: --confidence must be one of 90, 95, 99, 99.7 (got "
              << conf << ")\n";
    return 2;
  }
  const auto n = core::required_sample_size(model, err, z);
  std::cout << "units for " << Table::pct(err, 0) << " error at " << conf
            << "% confidence: " << n << " of " << profile.num_units() << " ("
            << Table::pct(static_cast<double>(n) /
                          static_cast<double>(profile.num_units()))
            << " of the run)\n";
  return 0;
}

int cmd_sensitivity(const Args& args) {
  const std::string workload = args.positional[0];
  core::LabConfig cfg;
  cfg.scale = std::stod(args.opt("scale", "1.0"));
  cfg.seed = std::stoull(args.opt("seed", "42"));
  if (!apply_checkpoint_flags(args, cfg)) return 2;
  features::FeatureMode mode = features::FeatureMode::kFreq;
  if (!parse_features_arg(args, mode)) return 2;
  core::WorkloadLab lab(cfg);
  const std::string train_name = args.opt("train", "Google");
  // One batch covers the training input and every reference: cache misses
  // simulate concurrently on the thread pool (--threads), hits decode
  // alongside them, and the results are bit-identical to serial runs.
  std::vector<core::BatchItem> items;
  items.push_back({workload, train_name, {}});
  std::vector<std::string> names;
  for (const auto& e : data::snap_catalog()) {
    if (e.name == train_name) continue;
    items.push_back({workload, e.name, {}});
    names.push_back(e.name);
  }
  std::cout << "profiling " << train_name << " + " << names.size()
            << " reference inputs as one batch...\n";
  auto runs = lab.run_batch(items);
  const auto train = std::move(runs.front());
  core::PhaseFormationConfig pcfg;
  pcfg.features = mode;
  const auto model = core::form_phases(train.profile, pcfg);

  std::vector<const core::ThreadProfile*> ptrs;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ptrs.push_back(&runs[i].profile);
  }
  const auto report = core::input_sensitivity_test(model, ptrs, names);
  obs::ledger().set_config("workload", workload);
  obs::ledger().set_config("train", train_name);
  obs::ledger().set_config("features", std::string(features::to_string(mode)));
  obs::ledger().set_quality("phase_count", static_cast<double>(model.k));
  obs::ledger().set_quality("sensitive_phases",
                            static_cast<double>(report.num_sensitive()));
  const auto budget_plan = core::simprof_sample(train.profile, model, 20, 1);
  set_plan_quality(budget_plan, train.profile, mode);
  std::cout << report.num_sensitive() << "/" << model.k
            << " phases input-sensitive; simulation points needed per "
               "reference input: "
            << Table::pct(report.sensitive_point_fraction(budget_plan))
            << '\n';
  return 0;
}

int cmd_measure(const Args& args) {
  const std::string workload = args.positional[0];
  core::LabConfig cfg;
  cfg.scale = std::stod(args.opt("scale", "1.0"));
  cfg.seed = std::stoull(args.opt("seed", "42"));
  if (!apply_checkpoint_flags(args, cfg)) return 2;
  core::WorkloadLab lab(cfg);
  const std::string input = args.opt("input", "Google");

  // The oracle pass populates the profile cache and (stride permitting)
  // records the checkpoint archives the fast path restores from.
  auto run = lab.run(workload, input);

  // --stratified switches the selection from SMARTS-systematic to a
  // Neyman-allocated plan over the formed phases (in the chosen feature
  // space); the measured units then feed that plan's weighted CPI estimate.
  features::FeatureMode mode = features::FeatureMode::kFreq;
  if (!parse_features_arg(args, mode)) return 2;
  const bool stratified = args.has("stratified");
  core::SamplePlan plan;

  std::vector<std::uint64_t> units;
  if (const std::string list = args.opt("units", ""); !list.empty()) {
    std::size_t pos = 0;
    while (pos < list.size()) {
      const std::size_t comma = list.find(',', pos);
      const std::string tok =
          list.substr(pos, comma == std::string::npos ? comma : comma - pos);
      try {
        units.push_back(std::stoull(tok));
      } catch (const std::exception&) {
        std::cerr << "error: --units expects comma-separated unit ids, got '"
                  << tok << "'\n";
        return 2;
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  } else {
    const auto n = static_cast<std::size_t>(std::stoul(args.opt("n", "10")));
    const auto sample_seed = std::stoull(args.opt("sample-seed", "1"));
    if (stratified) {
      core::PhaseFormationConfig pcfg;
      pcfg.features = mode;
      const auto model = core::form_phases(run.profile, pcfg);
      plan = core::simprof_sample(run.profile, model, n, sample_seed);
    } else {
      plan = core::smarts_sample(run.profile, n, sample_seed);
    }
    for (const auto& pt : plan.points) {
      units.push_back(run.profile.units[pt.unit_index].unit_id);
    }
  }

  const auto m = lab.measure_units(workload, input, units);
  obs::ledger().set_config("workload", workload);
  obs::ledger().set_config("input", input);
  obs::ledger().set_config("seed", args.opt("seed", "42"));
  if (stratified) {
    obs::ledger().set_config("features",
                             std::string(features::to_string(mode)));
  }
  obs::ledger().set_quality("units_measured",
                            static_cast<double>(m.records.size()));
  Table t({"unit_id", "instructions", "cycles", "cpi"});
  for (const auto& u : m.records) {
    t.row({std::to_string(u.unit_id), std::to_string(u.counters.instructions),
           std::to_string(u.counters.cycles), Table::num(u.cpi(), 4)});
  }
  t.print_aligned(std::cout);
  std::cout << "measured " << m.records.size() << "/" << units.size()
            << " requested units\n"
            << "checkpoints_restored=" << m.checkpoints_restored
            << " fallback=" << (m.fallback ? 1 : 0)
            << " fast_forwarded_instrs=" << m.fast_forwarded_instrs << '\n';

  if (stratified && !plan.points.empty()) {
    // The plan's weights (which sum to 1) applied to the *measured* per-unit
    // CPIs — the estimator the measured sample actually induces.
    std::map<std::uint64_t, double> cpi_of;
    for (const auto& u : m.records) cpi_of[u.unit_id] = u.cpi();
    double estimate = 0.0;
    bool complete = true;
    for (const auto& pt : plan.points) {
      const auto it = cpi_of.find(run.profile.units[pt.unit_index].unit_id);
      if (it == cpi_of.end()) {
        complete = false;
        break;
      }
      estimate += pt.weight * it->second;
    }
    if (complete) {
      const double oracle = run.profile.oracle_cpi();
      const double err =
          oracle > 0.0 ? std::abs(estimate - oracle) / oracle : 0.0;
      obs::ledger().set_quality("sampling_error_frac", err);
      if (mode != features::FeatureMode::kFreq) {
        obs::ledger().set_quality("mav_sampling_error_frac", err);
      }
      std::cout << "stratified estimate " << Table::num(estimate, 4)
                << " vs oracle " << Table::num(oracle, 4) << " (error "
                << Table::pct(err, 2) << ")\n";
    }
  }
  return 0;
}

int cmd_verify(const Args& args) {
  const auto cases =
      static_cast<std::size_t>(std::stoul(args.opt("cases", "500")));
  const auto seed = std::stoull(args.opt("seed", "1"));
  const auto resamples =
      static_cast<std::size_t>(std::stoul(args.opt("resamples", "10000")));

  verify::VerifyReport report;
  std::cout << "round-trip differential check...\n";
  report.merge(verify::verify_roundtrip(seed));
  std::cout << "archive fault injection (" << cases << " cases, seed " << seed
            << ")...\n";
  report.merge(verify::verify_archive_robustness({seed, cases}));
  std::cout << "checkpoint fault injection (" << cases << " cases, seed "
            << seed << ")...\n";
  report.merge(verify::verify_checkpoint_robustness({seed, cases}));
  std::cout << "statistical oracle harness (" << resamples
            << " coverage resamples)...\n";
  verify::OracleConfig oracle;
  oracle.seed = seed;
  oracle.coverage_resamples = resamples;
  report.merge(verify::verify_statistics(oracle));
  if (!args.has("skip-lab")) {
    std::cout << "lab cache corruption drill (tiny workload)...\n";
    report.merge(verify::verify_lab_cache_recovery(seed));
    std::cout << "checkpoint corruption drill (tiny workload)...\n";
    report.merge(verify::verify_checkpoint_recovery(seed));
  }

  std::cout << '\n';
  Table t({"check", "status", "detail"});
  for (const auto& c : report.checks) {
    t.row({c.name, c.passed ? "ok" : "FAIL", c.detail});
  }
  t.print_aligned(std::cout);
  std::cout << '\n'
            << report.checks.size() - report.failures() << "/"
            << report.checks.size() << " checks passed over "
            << report.cases_run << " seeded cases (fingerprint "
            << report.fingerprint << ")\n";
  if (!report.ok()) {
    std::cerr << "error: " << report.failures() << " verification check(s) "
              << "failed\n";
    return 1;
  }
  return 0;
}

int cmd_report(const Args& args) {
  obs::ReportThresholds thresholds;
  try {
    thresholds.latency_frac =
        std::stod(args.opt("latency-threshold", "0.25"));
    thresholds.quality_frac =
        std::stod(args.opt("quality-threshold", "0.10"));
    thresholds.latency_min_delta_ms = std::stod(args.opt("min-delta", "5"));
  } catch (const std::exception&) {
    std::cerr << "error: report thresholds must be numbers\n";
    return 2;
  }

  obs::RunReport report;
  std::string series_md;
  if (args.positional.size() == 2) {
    const auto base = obs::load_json_file(args.positional[0]);
    const auto cur = obs::load_json_file(args.positional[1]);
    if (!base || !cur) {
      std::cerr << "error: cannot load manifests\n";
      return 2;
    }
    report = obs::diff_manifests(*base, *cur, thresholds, args.positional[0],
                                 args.positional[1]);
  } else if (args.positional.size() == 1) {
    const auto dir = obs::report_directory(args.positional[0], thresholds);
    if (!dir) {
      std::cerr << "error: need a readable directory with >= 2 manifests\n";
      return 2;
    }
    report = dir->gate;
    series_md = dir->series_md;
  } else {
    std::cerr << "error: `simprof report` takes <base.json> <new.json> or "
                 "one <manifest-dir>\n";
    return 2;
  }

  std::string md = report.to_markdown();
  if (!series_md.empty()) md += "\n" + series_md;
  std::cout << md;
  if (const std::string f = args.opt("md", ""); !f.empty()) {
    std::ofstream out(f, std::ios::trunc);
    out << md;
  }
  if (const std::string f = args.opt("json", ""); !f.empty()) {
    std::ofstream out(f, std::ios::trunc);
    out << report.to_json();
  }
  obs::ledger().set_quality("regressions",
                            static_cast<double>(report.regressions()));
  return report.regressions() > 0 ? 1 : 0;
}

void print_version() {
  const obs::BuildInfo build = obs::build_info();
  std::cout << "simprof " << build.git_sha << " (" << build.build_type
            << ")\n"
            << "  cache schema      v" << core::kLabCacheSchema << "\n"
            << "  checkpoint schema v" << core::kCheckpointVersion << "\n"
            << "  manifest schema   simprof.manifest/"
            << obs::kManifestSchemaVersion << "\n";
}

/// Applies the observability flags at startup and flushes the requested
/// outputs on destruction (normal exit and error paths alike): trace,
/// metrics snapshot, and the run manifest with the final exit code.
class ObsFlags {
 public:
  bool apply(const Args& args, const std::string& verb, int argc,
             char** argv) {
    if (const std::string l = args.opt("log-level", ""); !l.empty()) {
      const auto level = obs::parse_log_level(l);
      if (!level) {
        std::cerr << "error: --log-level must be "
                     "trace|debug|info|warn|error|off (got '"
                  << l << "')\n";
        return false;
      }
      obs::set_log_level(*level);
    }
    metrics_out_ = args.opt("metrics-out", "");
    trace_out_ = args.opt("trace-out", "");

    std::vector<std::string> raw_args(argv + 2, argv + argc);
    obs::ledger().begin("simprof", verb, std::move(raw_args));
    obs::ledger().set_schema("cache", core::kLabCacheSchema);
    obs::ledger().set_schema("checkpoint", core::kCheckpointVersion);
    if (args.has("no-manifest")) {
      obs::ledger().disable();
    } else if (const std::string m = args.opt("manifest-out", "");
               !m.empty()) {
      obs::ledger().set_output_path(m);
    }

    // Tracing feeds both --trace-out and the manifest's span rollup, so a
    // manifest-emitting run always collects spans (observation only — it
    // cannot perturb results; see the determinism contract in obs/trace.h).
    if (!trace_out_.empty() || obs::ledger().enabled()) {
      obs::start_tracing();
    }

    if (const std::string hb = args.opt("heartbeat", ""); !hb.empty()) {
      obs::HeartbeatConfig config;
      try {
        config.period_s = std::stod(hb);
      } catch (const std::exception&) {
        std::cerr << "error: --heartbeat expects seconds, got '" << hb
                  << "'\n";
        return false;
      }
      obs::start_heartbeat(config);
      heartbeat_ = true;
    }
    return true;
  }

  void set_exit_code(int code) {
    exit_code_ = code;
    obs::ledger().set_exit_code(code);
  }

  /// Flush every requested output exactly once: trace, metrics snapshot and
  /// the run manifest. Runs on the normal exit path (destructor) and from
  /// the signal watcher before a forced exit — an interrupt no longer loses
  /// the run ledger entry.
  void flush(int exit_code) {
    if (flushed_.exchange(true)) return;
    obs::ledger().set_exit_code(exit_code);
    if (heartbeat_) obs::stop_heartbeat();
    if (obs::trace_enabled()) obs::stop_tracing();
    if (!trace_out_.empty()) {
      obs::write_trace(trace_out_);
      std::cerr << "wrote trace to " << trace_out_
                << " (load in Perfetto or chrome://tracing)\n";
    }
    if (!metrics_out_.empty()) {
      obs::metrics().write_json(metrics_out_);
      std::cerr << "wrote metrics to " << metrics_out_ << '\n';
    }
    obs::ledger().write();
  }

  ~ObsFlags() { flush(exit_code_); }

 private:
  std::string metrics_out_;
  std::string trace_out_;
  bool heartbeat_ = false;
  std::atomic<bool> flushed_{false};
  int exit_code_ = 2;
};

/// The running `serve` daemon, if any — the signal watcher routes the first
/// SIGINT/SIGTERM to its graceful drain instead of exiting.
std::atomic<simprof::service::ServiceServer*> g_serve_instance{nullptr};
sigset_t g_watched_signals;

/// Block SIGINT/SIGTERM for the whole process. Must run before any thread
/// is spawned so every thread inherits the mask and delivery is funnelled
/// to the watcher's sigwait.
void block_termination_signals() {
  sigemptyset(&g_watched_signals);
  sigaddset(&g_watched_signals, SIGINT);
  sigaddset(&g_watched_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &g_watched_signals, nullptr);
}

/// Watcher thread: sigwait for SIGINT/SIGTERM on a normal thread so the
/// response can do real work (I/O, locks) instead of being confined to
/// async-signal-safe calls. First signal: graceful — a running daemon
/// drains and the command returns 0 through the normal path; a one-shot
/// verb flushes manifests/metrics/trace and exits 128+sig (the distinct
/// interrupted exit code). Second signal: force-exit immediately.
void start_signal_watcher(ObsFlags* obs_flags) {
  std::thread([obs_flags] {
    int signals_seen = 0;
    for (;;) {
      int sig = 0;
      if (sigwait(&g_watched_signals, &sig) != 0) continue;
      ++signals_seen;
      if (auto* server = g_serve_instance.load(std::memory_order_acquire);
          server != nullptr && signals_seen == 1) {
        std::cerr << "\nsimprof: caught " << strsignal(sig)
                  << ", draining in-flight requests (signal again to force "
                     "exit)\n";
        server->request_stop();
        continue;
      }
      std::cerr << "\nsimprof: caught " << strsignal(sig)
                << ", flushing observability outputs\n";
      obs_flags->flush(128 + sig);
      std::_Exit(128 + sig);
    }
  }).detach();
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int cmd_serve(const Args& args) {
  service::ServiceConfig cfg;
  cfg.socket_path = args.opt("socket", "");
  if (cfg.socket_path.empty()) {
    std::cerr << "error: `simprof serve` needs --socket PATH\n";
    return 2;
  }
  if (!apply_checkpoint_flags(args, cfg.lab)) return 2;
  try {
    cfg.max_queue = std::stoull(args.opt("max-queue", "64"));
    cfg.client_max_inflight = std::stoull(args.opt("client-inflight", "8"));
    cfg.request_threads = std::stoull(args.opt("request-threads", "1"));
  } catch (const std::exception&) {
    std::cerr << "error: serve flags expect non-negative integers\n";
    return 2;
  }

  service::ServiceServer server(cfg);
  obs::ledger().set_config("socket", cfg.socket_path);
  obs::ledger().set_config("workers", std::to_string(server.config().workers));
  // Published before start() so a signal landing between the bind and the
  // first accept still drains: a stop requested before start() makes the
  // listener and workers exit at once and wait() return.
  g_serve_instance.store(&server, std::memory_order_release);
  try {
    server.start();
  } catch (...) {
    g_serve_instance.store(nullptr, std::memory_order_release);
    throw;
  }
  std::cout << "serving on " << cfg.socket_path << " ("
            << server.config().workers
            << " workers; SIGINT/SIGTERM drains and exits)\n"
            << std::flush;
  server.wait();  // blocks until the signal watcher requests the drain
  g_serve_instance.store(nullptr, std::memory_order_release);

  const service::ServerStats stats = server.stats();
  obs::ledger().set_quality("service_requests",
                            static_cast<double>(stats.completed));
  obs::ledger().set_quality(
      "service_qps", stats.uptime_sec > 0.0
                         ? static_cast<double>(stats.completed) /
                               stats.uptime_sec
                         : 0.0);
  auto& request_ms = obs::metrics().quantile_histogram("svc.request_ms");
  obs::ledger().set_quality("service_p50_ms", request_ms.quantile(0.50));
  obs::ledger().set_quality("service_p99_ms", request_ms.quantile(0.99));
  obs::ledger().set_quality("service_admission_level",
                            static_cast<double>(stats.admission_level));
  std::cout << "served " << stats.completed << " requests ("
            << stats.rejected << " rejected, " << stats.errors
            << " errors) in " << Table::num(stats.uptime_sec, 1)
            << "s with " << stats.admission_level << " workers\n";
  return 0;
}

int cmd_loadgen(const Args& args) {
  service::LoadgenConfig cfg;
  cfg.socket_path = args.opt("socket", "");
  if (cfg.socket_path.empty()) {
    std::cerr << "error: `simprof loadgen` needs --socket PATH\n";
    return 2;
  }
  try {
    cfg.clients = std::stoull(args.opt("clients", "4"));
    cfg.requests_per_client = std::stoull(args.opt("requests", "8"));
    cfg.inflight_per_client = std::stoull(args.opt("inflight", "1"));
    cfg.scale = std::stod(args.opt("scale", "0.05"));
    cfg.seed = std::stoull(args.opt("seed", "42"));
    cfg.sample_n = std::stoull(args.opt("sample", "8"));
  } catch (const std::exception&) {
    std::cerr << "error: loadgen flags expect numbers\n";
    return 2;
  }
  cfg.workloads = split_csv(args.opt("workloads", "grep_sp"));
  if (cfg.workloads.empty()) {
    std::cerr << "error: --workloads needs at least one name\n";
    return 2;
  }
  cfg.input = args.opt("input", "Google");
  cfg.analyze = !args.has("no-analyze");
  cfg.vary_seed = args.has("vary-seed");
  features::FeatureMode mode = features::FeatureMode::kFreq;
  if (!parse_features_arg(args, mode)) return 2;
  cfg.features = static_cast<std::uint8_t>(mode);

  const service::LoadgenReport report = service::run_loadgen(cfg);

  obs::ledger().set_config("socket", cfg.socket_path);
  obs::ledger().set_config("clients", std::to_string(cfg.clients));
  obs::ledger().set_config("inflight", std::to_string(cfg.inflight_per_client));
  obs::ledger().set_quality("loadgen_completed",
                            static_cast<double>(report.completed));
  obs::ledger().set_quality("loadgen_rejected",
                            static_cast<double>(report.rejected));
  obs::ledger().set_quality("loadgen_qps", report.qps);
  obs::ledger().set_quality("loadgen_p50_ms", report.p50_ms);
  obs::ledger().set_quality("loadgen_p99_ms", report.p99_ms);

  std::cout << "offered " << cfg.clients << " clients x "
            << cfg.requests_per_client << " requests (inflight "
            << cfg.inflight_per_client << ")\n"
            << "completed " << report.completed << ", rejected "
            << report.rejected << ", errors " << report.errors << '\n'
            << "qps " << Table::num(report.qps, 2) << ", p50 "
            << Table::num(report.p50_ms, 1) << "ms, p90 "
            << Table::num(report.p90_ms, 1) << "ms, p99 "
            << Table::num(report.p99_ms, 1) << "ms\n";

  if (const std::string f = args.opt("json", ""); !f.empty()) {
    std::ofstream out(f, std::ios::trunc);
    out << "{\n  \"completed\": " << report.completed
        << ",\n  \"rejected\": " << report.rejected
        << ",\n  \"errors\": " << report.errors
        << ",\n  \"elapsed_sec\": " << report.elapsed_sec
        << ",\n  \"qps\": " << report.qps
        << ",\n  \"p50_ms\": " << report.p50_ms
        << ",\n  \"p90_ms\": " << report.p90_ms
        << ",\n  \"p99_ms\": " << report.p99_ms << "\n}\n";
  }
  return report.errors > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string cmd_name = argv[1];
  if (cmd_name == "--help" || cmd_name == "-h" || cmd_name == "help") {
    print_usage(std::cout);
    return 0;
  }
  if (cmd_name == "--version" || cmd_name == "-V" || cmd_name == "version") {
    print_version();
    return 0;
  }
  const CommandSpec* cmd = find_command(cmd_name);
  if (cmd == nullptr) {
    std::cerr << "error: unknown subcommand '" << cmd_name
              << "'\nsubcommands:";
    for (const auto& c : kCommands) std::cerr << ' ' << c.name;
    std::cerr << "\nrun `simprof --help` for details.\n";
    return 2;
  }
  Args args;
  if (!parse(*cmd, argc, argv, args)) return 2;
  if (args.help) {
    print_command_usage(std::cout, *cmd);
    return 0;
  }
  if (!cmd->positional.empty() && args.positional.empty()) {
    std::cerr << "error: `simprof " << cmd->name << "` needs "
              << cmd->positional << '\n';
    print_command_usage(std::cerr, *cmd);
    return 2;
  }

  // Signals are blocked before any thread exists — including the
  // --heartbeat thread obs_flags.apply() starts — so every thread inherits
  // the mask, and handled by a dedicated watcher: graceful daemon drain on
  // the first SIGINT/SIGTERM, flush-then-exit(128+sig) otherwise.
  block_termination_signals();
  ObsFlags obs_flags;
  if (!obs_flags.apply(args, cmd->name, argc, argv)) return 2;
  start_signal_watcher(&obs_flags);
  int rc = 2;
  try {
    // Global: --threads N caps the phase-formation thread pool for every
    // subcommand. Output is bit-identical regardless of the value.
    if (const std::string t = args.opt("threads", ""); !t.empty()) {
      try {
        support::set_default_thread_count(std::stoull(t));
      } catch (const std::exception&) {
        obs_flags.set_exit_code(2);
        std::cerr << "error: --threads expects a non-negative integer, got '"
                  << t << "'\n";
        return 2;
      }
    }
    if (cmd->name == "list") rc = cmd_list();
    else if (cmd->name == "profile") rc = cmd_profile(args);
    else if (cmd->name == "phases") rc = cmd_phases(args);
    else if (cmd->name == "sample") rc = cmd_sample(args);
    else if (cmd->name == "size") rc = cmd_size(args);
    else if (cmd->name == "sensitivity") rc = cmd_sensitivity(args);
    else if (cmd->name == "measure") rc = cmd_measure(args);
    else if (cmd->name == "verify") rc = cmd_verify(args);
    else if (cmd->name == "report") rc = cmd_report(args);
    else if (cmd->name == "serve") rc = cmd_serve(args);
    else if (cmd->name == "loadgen") rc = cmd_loadgen(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    rc = 1;
  }
  // The manifest is written by obs_flags' destructor after this return, so
  // record the exit code first.
  obs_flags.set_exit_code(rc);
  return rc;
}
