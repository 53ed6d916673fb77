#!/usr/bin/env python3
"""SimProf benchmark: cold oracle passes and a warm daemon mix.

    python3 perfbench/run.py --workload cold_text|cold_graph|serve_warm \
        --seed N --seconds S --trace 0|1

Run from the root of a SimProf source tree. Builds the CLI and the
benchmark's in-process tool (perfbench/CMakeLists.txt, Release only) into
.bench_build/, runs the workload, checks every output, and prints one JSON
line last: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones (a separate traced
run; the gap to its own untraced pass is trace_overhead_frac). Lines before
it carry provenance (nproc, CPU, git sha, source digest, build type) and
every figure with its unit, failed_frac included.

The system is driven only from outside: the `simprof` CLI and daemon are
spawned as a user runs them, and perfbench_inproc (inproc.cc) calls the
public library functions and the service client. Every cache, manifest,
socket, trace and checkpoint archive lives in a temporary directory under
.bench_build/ that is removed on exit; the tracked .simprof_cache is only
read.

End-to-end metrics ("op" = one `simprof profile` process on the cold
workloads, one daemon request on serve_warm):
  setup_s            median of several full set-ups in the run. Cold: a
                     cold profile has no set-up of its own, so this is only
                     a fresh workspace and one `simprof --version` process
                     start; warm: the cache copy, the checkpoint recording
                     and the daemon start until it serves
  profile_wall_s     cold: one serial pass over the configs (sum of each
                     config's median profile time); warm: mean wall time of
                     one pass of the request mix, from its first request
                     going out to its last reply, over the window's whole
                     passes (some 8 mix cycles, so where the seed puts the
                     minority requests in each pass averages out)
  peak_rss_mb        largest RSS of the workload's oracle-pass processes:
                     cold, the `simprof profile` children; warm, the set-up
                     pass that re-records the checkpoints. The daemon's own
                     peak is per-layer svc.peak_rss_mb: it swings 88-132 MB
                     from run to run with how many of its 16 workers' malloc
                     arenas a run happens to touch, too wide for a bound
  req_per_s          ops completed per second of timed wall time
  req_p50_ms         median op latency (client-observed)
  req_p99_ms         warm: p99 over >= 1000 requests; cold: a run has only
                     a few profiles, so the slowest config's median
  sampling_error_pct mean |estimated - oracle CPI| / oracle of freq-feature
                     Neyman plans: over the analyze replies (warm), over
                     the fresh profiles at n=8, 1024 plans each (cold)
failed_frac (failed / attempted) is the JSON's failed and attempted: any
error, typed rejection or correctness mismatch is a failed op.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(ROOT, ".simprof_cache")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SIMPROF = os.path.join(BUILD, "simprof_tools", "simprof")
INPROC = os.path.join(BUILD, "perfbench_inproc")
SIM_SEED = 42  # the tracked fixtures' simulation seed
RUN_TIMEOUT_S = 170

# cold_text: Zipf corpus synthesis is ~37% of a cold wc_sp. The set covers
# the Spark and Hadoop engines and the labeled (NaiveBayes) corpus, with no
# graph generation and almost no analytics.
COLD_TEXT = [("wc_sp", "Google"), ("sort_hp", "Google"), ("bayes_sp", "Google")]
# cold_graph: kronecker_graph + Graph::from_edges is ~63% of a cold cc_sp.
# Both engines and two graph shapes (web, road), no Zipf sampler: the bypass
# workload for every text-input optimisation, as cold_text is for this one.
COLD_GRAPH = [("cc_sp", "Google"), ("rank_sp", "Google"), ("cc_sp", "Road"),
              ("rank_hp", "Flickr")]
# serve_warm: a default-flag daemon over a copy of the tracked profile cache,
# so request time is decode, phases, sampling, sensitivity and checkpoint
# replay with no oracle pass. Its request mix, and which of its ratios come
# from the repository and which are assumed, is build_mix() in inproc.cc.
# Set-up re-records this config's checkpoint archives: its
# oracle pass costs ~2.5 s and 200 MB at stride 2 (wc_sp: 12.5 s, 1.4 GB).
RECORD = ("cc_sp", "Google")
SETUP_REPS = {"cold": 21, "warm": 3}
CONNECTIONS = os.cpu_count() or 1  # closed-loop clients, one per core

PER_LAYER = [
    "data.text_synth_ms", "data.text_words", "data.graph_gen_ms",
    "data.graph_edges", "workloads.oracle_ms", "workloads.units",
    "workloads.sim_minstr_per_s", "workloads.exec_stage_ms",
    "workloads.shuffle_bytes", "profile.save_ms", "profile.bytes",
    "profile.load_ms", "phase.form_ms", "phase.form_combined_ms",
    "phase.choose_k_ms", "sampling.plan_ms", "sensitivity.test_ms",
    "ckpt.record_ms", "ckpt.archive_bytes", "ckpt.measure_ms",
    "ckpt.restore_bytes", "ckpt.fallback", "svc.queue_wait_ms_p99",
    "svc.request_ms_p50", "svc.request_ms_p99", "svc.admission_level",
    "svc.rejected", "svc.peak_rss_mb", "pool.queue_wait_ms_p99",
    "unattributed_frac",
    "trace_overhead_frac",
]
UNITS = {
    "setup_s": "s", "profile_wall_s": "s", "peak_rss_mb": "MB",
    "req_per_s": "1/s", "req_p50_ms": "ms", "req_p99_ms": "ms",
    "sampling_error_pct": "%", "data.text_words": "count",
    "data.graph_edges": "count", "workloads.units": "count",
    "workloads.sim_minstr_per_s": "Minstr/s", "workloads.shuffle_bytes": "B",
    "profile.bytes": "B", "ckpt.archive_bytes": "B", "ckpt.restore_bytes": "B",
    "ckpt.fallback": "count", "svc.admission_level": "count",
    "svc.rejected": "count", "svc.peak_rss_mb": "MB",
    "unattributed_frac": "frac",
    "trace_overhead_frac": "frac",
}


class BenchError(Exception):
    pass


class Children:
    """Every process the benchmark starts; all are stopped and reaped."""

    def __init__(self):
        self.procs = []

    def start(self, argv, **kw):
        p = subprocess.Popen(argv, **kw)
        self.procs.append(p)
        return p

    def reap(self, p, flags=0):
        """Wait for `p`: (exit code, peak RSS in MB), or None if still
        running under os.WNOHANG."""
        pid, status, ru = os.wait4(p.pid, flags)
        if pid == 0:
            return None
        self.procs.remove(p)
        p.returncode = os.waitstatus_to_exitcode(status)
        return p.returncode, ru.ru_maxrss / 1024.0

    def stop(self, p, timeout=60):
        """SIGTERM (the daemon's graceful drain), SIGKILL after `timeout`."""
        p.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            done = self.reap(p, os.WNOHANG)
            if done:
                return done
            time.sleep(0.01)
        p.kill()
        return self.reap(p)

    def stop_all(self):
        for p in list(self.procs):
            if p.poll() is None:
                p.kill()
            p.wait()
            self.procs.remove(p)


CHILDREN = Children()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fixture(workload, graph_input):
    """Tracked seed-42 fixture of a config (newest cache schema)."""
    prefix = f"{workload}-{graph_input}-s1-seed42-c4-g0-u1000000-v"
    names = [n for n in os.listdir(FIXTURES)
             if n.startswith(prefix) and n.endswith(".sprf")]
    if not names:
        raise BenchError(f"no tracked fixture for {workload}/{graph_input}")
    return os.path.join(FIXTURES, max(
        names, key=lambda n: int(n[len(prefix):-len(".sprf")])))


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def median(values):
    return statistics.median(values) if values else 0.0


def build():
    # Configure every time: cheap when nothing changed, and a build tree
    # left by another revision may lack a target this one names.
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "simprof_cli", "perfbench_inproc"],
                   stdout=sys.stderr, check=True)


def provenance():
    version = subprocess.run([SIMPROF, "--version"], capture_output=True,
                             text=True, check=True).stdout
    build_type = version.split("(", 1)[1].split(")", 1)[0]
    if build_type != "Release":
        raise BenchError(f"refusing to record from a {build_type!r} build")
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for d, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(files):
                digest.update(name.encode())
                digest.update(read_bytes(os.path.join(d, name)))
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
            "source_sha256": digest.hexdigest()[:16],
            "cmake_build_type": build_type}


def child_env(ws):
    env = dict(os.environ)
    env["SIMPROF_CACHE_DIR"] = os.path.join(ws, "cache")
    env["SIMPROF_MANIFEST_DIR"] = os.path.join(ws, "manifests")
    env.pop("SIMPROF_CHECKPOINT_DIR", None)
    return env


def timed(argv, ws, logname):
    """Run one process to completion: (wall s, peak RSS MB, exit code)."""
    with open(os.path.join(ws, logname), "ab") as out:
        t0 = time.perf_counter()
        p = CHILDREN.start(argv, stdout=out, stderr=out, env=child_env(ws),
                           cwd=ws)
        rc, rss = CHILDREN.reap(p)
        return time.perf_counter() - t0, rss, rc


def inproc_json(argv, ws):
    """Run perfbench_inproc; its JSON reply, or None if it failed."""
    with open(os.path.join(ws, "inproc.log"), "ab") as err:
        p = CHILDREN.start([INPROC] + argv, stdout=subprocess.PIPE,
                           stderr=err, env=child_env(ws), cwd=ws)
        out = p.stdout.read()
        p.stdout.close()
        rc, _ = CHILDREN.reap(p)
    if rc != 0:
        log(f"perfbench_inproc {argv[0]} exited {rc}")
        return None
    return json.loads(out.decode().strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")
        return ok


# ------------------------------------------------------------------ cold --

def cold(configs, seed, seconds, trace, tmp):
    tally = Tally()
    reference = {}
    if seed == SIM_SEED:
        reference = {c: read_bytes(fixture(*c)) for c in configs}

    def setup_once(i):
        # A cold profile has no set-up of its own: a fresh workspace and the
        # binary's provenance check are all that precede the first profile.
        t0 = time.perf_counter()
        ws = os.path.join(tmp, f"cold{i}")
        for sub in ("cache", "manifests"):
            os.makedirs(os.path.join(ws, sub))
        subprocess.run([SIMPROF, "--version"], stdout=subprocess.DEVNULL,
                       check=True)
        return ws, time.perf_counter() - t0

    setups = [setup_once(i) for i in range(SETUP_REPS["cold"])]
    ws = setups[-1][0]
    setup_s = median([s for _, s in setups])

    walls, rss = {c: [] for c in configs}, []

    def one_pass(tag, extra):
        total = 0.0
        for c in configs:
            w, graph_input = c
            out = os.path.join(ws, f"{tag}-{w}-{graph_input}.sprf")
            wall, peak, rc = timed(
                [SIMPROF, "profile", w, "--input", graph_input, "--seed",
                 str(seed), "--out", out] + extra(c), ws, "profile.log")
            total += wall
            ok = rc == 0 and os.path.exists(out)
            if ok:
                data = read_bytes(out)
                # Seed 42 must reproduce the tracked fixture; any other seed
                # must reproduce the first fresh process's bytes.
                ok = reference.setdefault(c, data) == data
            if tally.check(ok, f"profile {w}/{graph_input} seed {seed} ({tag})"):
                walls[c].append(wall)
                rss.append(peak)
        return total

    if not trace:
        t0 = time.perf_counter()
        passes = 0
        while passes < 2 or time.perf_counter() - t0 < seconds:
            one_pass(f"u{passes}", lambda c: [])
            passes += 1
        timed_s = time.perf_counter() - t0
        profiles = [os.path.join(ws, f"u0-{w}-{i}.sprf") for w, i in configs]
        errors = inproc_json(["sampling-error", "--seed", str(seed), "--n",
                              "8", "--draws", "1024"] + profiles, ws)
        tally.check(errors is not None, "sampling-error run")
        latencies = [x for c in configs for x in walls[c]]
        per_config = [median(walls[c]) for c in configs]
        for (w, graph_input), wall in zip(configs, per_config):
            print(f"config {w}/{graph_input}: median {wall:.4f} s over "
                  f"{len(walls[(w, graph_input)])} profiles")
        return tally, {
            "setup_s": setup_s,
            "profile_wall_s": sum(per_config),
            "peak_rss_mb": max(rss, default=0.0),
            "req_per_s": len(latencies) / timed_s,
            "req_p50_ms": 1000.0 * median(per_config),
            "req_p99_ms": 1000.0 * max(per_config),
            "sampling_error_pct": 100.0 * statistics.fmean(
                errors["errors"]) if errors else 0.0,
        }

    # Traced run: one untraced pass, one pass with the program's trace and
    # metrics outputs, then the in-process census of every config.
    untraced = one_pass("u0", lambda c: [])
    traced = one_pass("t", lambda c: [
        "--trace-out", os.path.join(ws, f"trace-{c[0]}-{c[1]}.json"),
        "--metrics-out", os.path.join(ws, f"metrics-{c[0]}-{c[1]}.json")])
    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer["trace_overhead_frac"] = traced / untraced - 1.0
    root_us = unattributed_us = 0.0
    instructions = oracle_ms = 0.0
    for w, graph_input in configs:
        tag = f"{w}-{graph_input}"
        try:
            rows = spans.reduce_spans(os.path.join(ws, f"trace-{tag}.json"))
            layer["workloads.exec_stage_ms"] += spans.span_ms(rows,
                                                              "exec.stage")
            with open(os.path.join(ws, f"metrics-{tag}.json")) as f:
                counters = json.load(f)["counters"]
            layer["workloads.shuffle_bytes"] += counters.get(
                "spark.shuffle_write_bytes", 0) + counters.get(
                "hadoop.shuffle_bytes", 0)
        except (OSError, ValueError, KeyError, spans.SpanError) as e:
            tally.check(False, f"trace of {tag}: {e}")
        census = inproc_json(
            ["census", "--workload", w, "--input", graph_input, "--seed",
             str(seed), "--cli-profile", os.path.join(ws, f"t-{tag}.sprf"),
             "--trace-out", os.path.join(ws, f"census-{tag}.json")], ws)
        if not tally.check(census is not None, f"census {tag}"):
            continue
        tally.check(census["memo_guard_ok"],
                    f"memo guard {tag}: synthesis ran inside the oracle pass")
        tally.check(census["matches_cli"] and census["roundtrip_ok"],
                    f"census profile of {tag} differs from the CLI's")
        if census["graph"]:
            layer["data.graph_gen_ms"] += census["synth_ms"]
            layer["data.graph_edges"] += census["input_items"]
        else:
            layer["data.text_synth_ms"] += census["synth_ms"]
            layer["data.text_words"] += census["input_items"]
        oracle_ms += census["oracle_ms"]
        instructions += census["instructions"]
        layer["workloads.units"] += census["units"]
        layer["profile.save_ms"] += census["save_ms"]
        layer["profile.bytes"] += census["profile_bytes"]
        layer["profile.load_ms"] += census["load_ms"]
        try:
            rows = spans.reduce_spans(os.path.join(ws, f"census-{tag}.json"))
            root_us += spans.span_ms(rows, "bench.config")
            # Time in a container span that none of its layer children
            # covers, e.g. lab.workload_run outside its exec.stage spans.
            unattributed_us += sum(
                spans.span_ms(rows, name, "self_us") for name in
                ("bench.config", "bench.oracle", "lab.workload_run"))
        except (OSError, ValueError, spans.SpanError) as e:
            tally.check(False, f"census trace of {tag}: {e}")
    layer["workloads.oracle_ms"] = oracle_ms
    layer["workloads.sim_minstr_per_s"] = (
        instructions / (oracle_ms * 1000.0) if oracle_ms else 0.0)
    layer["unattributed_frac"] = unattributed_us / root_us if root_us else 0.0
    return tally, layer


# ------------------------------------------------------------------ warm --

def wait_ready(ws, daemon, timeout=30.0):
    """Wait until the daemon accepts connections on ws/svc.sock and has
    announced that it serves; returns the seconds until the socket opened.
    The announcement follows the daemon's registration for a graceful
    SIGTERM drain: stopped between the two, it exits 143 instead of 0."""
    t0 = time.perf_counter()
    socket_s = None
    cwd = os.getcwd()
    os.chdir(ws)  # a relative socket path stays under the AF_UNIX limit
    try:
        while time.perf_counter() - t0 < timeout:
            if daemon.poll() is not None:
                raise BenchError("daemon exited during start-up")
            if socket_s is None:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    try:
                        s.connect("svc.sock")
                        socket_s = time.perf_counter() - t0
                    except OSError:
                        pass
            if socket_s is not None and b"serving on" in read_bytes(
                    "serve.log"):
                return socket_s
            time.sleep(0.002)
    finally:
        os.chdir(cwd)
    raise BenchError("daemon did not start serving")


def start_daemon(ws, extra):
    out = open(os.path.join(ws, "serve.log"), "ab")
    try:
        return CHILDREN.start([SIMPROF, "serve", "--socket", "svc.sock"] +
                              extra, stdout=out, stderr=out,
                              env=child_env(ws), cwd=ws)
    finally:
        out.close()


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, n))
               for d, _, files in os.walk(path) for n in files)


def warm(seed, seconds, trace, tmp):
    tally = Tally()
    record_fixture = fixture(*RECORD)

    def setup_once(i, traced):
        # Set-up a daemon user pays: a private copy of the profile cache, the
        # measured config's checkpoint archives re-recorded by one oracle
        # pass (its .sprf deleted so the pass runs), and the daemon started
        # until it serves.
        t0 = time.perf_counter()
        ws = os.path.join(tmp, f"warm{i}")
        cache = os.path.join(ws, "cache")
        os.makedirs(os.path.join(ws, "manifests"))
        shutil.copytree(FIXTURES, cache)
        os.remove(os.path.join(cache, os.path.basename(record_fixture)))
        extra = (["--trace-out", os.path.join(ws, "record-trace.json")]
                 if traced else [])
        _, record_rss, rc = timed(
            [SIMPROF, "measure", RECORD[0], "--input", RECORD[1], "--units",
             "0"] + extra, ws, "record.log")
        recorded = os.path.join(cache, os.path.basename(record_fixture))
        tally.check(rc == 0 and os.path.exists(recorded) and
                    read_bytes(recorded) == read_bytes(record_fixture),
                    "re-recorded cc_sp profile differs from its fixture")
        daemon = start_daemon(ws, [])
        socket_s = wait_ready(ws, daemon)
        return {"ws": ws, "daemon": daemon, "record_rss": record_rss,
                "setup_s": time.perf_counter() - t0, "socket_s": socket_s}

    setups = []
    for i in range(SETUP_REPS["warm"]):
        last = i == SETUP_REPS["warm"] - 1
        setups.append(setup_once(i, trace and last))
        if not last:
            rc, _ = CHILDREN.stop(setups[-1]["daemon"])
            tally.check(rc == 0, f"daemon exit code {rc}")
            shutil.rmtree(setups[-1]["ws"])
    ws, daemon = setups[-1]["ws"], setups[-1]["daemon"]
    setup_s = median([s["setup_s"] for s in setups])
    print(f"setup: median {setup_s:.4f} s, of which the daemon opening its "
          f"socket {median([s['socket_s'] for s in setups]):.4f} s")

    def mix(extra):
        reply = inproc_json(
            ["mix", "--socket", "svc.sock", "--fixtures", FIXTURES, "--cache",
             os.path.join(ws, "cache"), "--seed", str(seed), "--seconds",
             str(seconds), "--connections", str(CONNECTIONS)] + extra, ws)
        if reply is None:
            tally.check(False, "request mix run")
            return None
        tally.attempted += reply["attempted"]
        tally.failed += reply["failed"]
        if reply["failed"]:
            log(f"FAILED: {reply['failed']} requests: {reply['failures']}")
        return reply

    untraced = mix([])
    if untraced:
        print("mix: " + ", ".join(f"{k} {untraced[k]:.6g}" for k in (
            "completed", "window_s", "warmup_s",
            "admission_level")))
    rc, daemon_rss = CHILDREN.stop(daemon)
    tally.check(rc == 0, f"daemon exit code {rc}")
    if untraced is None:
        raise BenchError("the request mix did not run")
    if not trace:
        return tally, {
            "setup_s": setup_s,
            "profile_wall_s": untraced["pass_wall_s"],
            "peak_rss_mb": max(s["record_rss"] for s in setups),
            "req_per_s": untraced["req_per_s"],
            "req_p50_ms": untraced["req_p50_ms"],
            "req_p99_ms": untraced["req_p99_ms"],
            "sampling_error_pct": untraced["sampling_error_pct"],
        }

    # Traced daemon: Chrome trace and metrics snapshot on exit. Its
    # histograms cover the warm-up pass as well as the window (a flight
    # record at the window start needs --heartbeat, and a daemon started
    # with --heartbeat dies on SIGTERM instead of draining).
    daemon = start_daemon(ws, ["--trace-out", "daemon-trace.json",
                               "--metrics-out", "daemon-metrics.json"])
    wait_ready(ws, daemon)
    traced = mix(["--trace-out", "census-trace.json"])
    rc, _ = CHILDREN.stop(daemon)
    tally.check(rc == 0, f"traced daemon exit code {rc}")
    layer = dict.fromkeys(PER_LAYER, 0.0)
    if traced is None:
        return tally, layer
    layer.update({
        "profile.load_ms": traced["profile_load_ms"],
        "phase.form_ms": traced["phase_form_ms"],
        "phase.form_combined_ms": traced["phase_form_combined_ms"],
        "sampling.plan_ms": traced["sampling_plan_ms"],
        "sensitivity.test_ms": traced["sensitivity_test_ms"],
        "ckpt.measure_ms": traced["ckpt_measure_ms_per_unit"],
        "ckpt.restore_bytes": traced["ckpt_restore_bytes"],
        "ckpt.fallback": traced["ckpt_fallback"],
        "pool.queue_wait_ms_p99": traced["pool_queue_wait_ms_p99"],
        "ckpt.archive_bytes": dir_bytes(os.path.join(ws, "cache", "ckpt")),
        "svc.admission_level": traced["admission_level"],
        "svc.peak_rss_mb": daemon_rss,
        "svc.rejected": traced["rejected"],
        "trace_overhead_frac": untraced["req_per_s"] / traced["req_per_s"] - 1,
    })
    tally.check(traced["ckpt_fallback"] == 0 and traced["ckpt_measure_ok"],
                "in-process checkpoint measurement fell back or differs")
    tally.check(traced["pool_models_ok"],
                "phase model formed on the thread pool differs from the "
                "one-thread model")
    try:
        rows = spans.reduce_spans(os.path.join(ws, "census-trace.json"))
        if traced["phase_forms"]:
            layer["phase.choose_k_ms"] = spans.span_ms(
                rows, "bench.phase_form/choose_k.k") / traced["phase_forms"]
        rows = spans.reduce_spans(os.path.join(ws, "record-trace.json"))
        layer["ckpt.record_ms"] = spans.span_ms(rows, "ckpt.save")
        layer["workloads.exec_stage_ms"] = spans.span_ms(rows, "exec.stage")
        rows = spans.reduce_spans(os.path.join(ws, "daemon-trace.json"))
        request_us = spans.span_ms(rows, "svc.request")
        layer["unattributed_frac"] = spans.span_ms(
            rows, "svc.request", "self_us") / request_us if request_us else 0
        with open(os.path.join(ws, "daemon-metrics.json")) as f:
            hists = json.load(f)["quantile_histograms"]
        for name, metric, q in (
                ("svc.queue_wait_ms", "svc.queue_wait_ms_p99", "p99"),
                ("svc.request_ms", "svc.request_ms_p50", "p50"),
                ("svc.request_ms", "svc.request_ms_p99", "p99")):
            layer[metric] = hists.get(name, {}).get(q, 0.0)
    except (OSError, ValueError, KeyError, spans.SpanError) as e:
        tally.check(False, f"traced daemon outputs: {e}")
    return tally, layer


# ------------------------------------------------------------------ main --

WORKLOADS = {
    "cold_text": lambda *a: cold(COLD_TEXT, *a),
    "cold_graph": lambda *a: cold(COLD_GRAPH, *a),
    "serve_warm": warm,
}


def on_signal(signum, _frame):
    raise BenchError(f"interrupted by signal {signum}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    for need in ("src", "tools", ".simprof_cache"):
        if not os.path.isdir(os.path.join(ROOT, need)):
            log(f"error: {ROOT} is not a SimProf source tree (no {need}/)")
            return 2

    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(s, on_signal)
    # Compilers and children put their temporary files in the checkout too.
    scratch = os.path.join(os.path.dirname(BUILD), "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    build()  # untimed: the first build in a checkout takes minutes
    signal.alarm(RUN_TIMEOUT_S)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        prov = provenance()
        print("provenance: " + json.dumps(prov), flush=True)
        tally, metrics = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        CHILDREN.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
    signal.alarm(0)
    failed_frac = tally.failed / max(1, tally.attempted)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {UNITS.get(name, 'ms')}")
    print(f"{args.workload} failed_frac = {failed_frac:.6g} frac "
          f"({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k, "ms")}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"error: {e}")
        sys.exit(1)
