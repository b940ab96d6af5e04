#!/usr/bin/env python3
"""The simulator's benchmark: host throughput, memory and latency of the
built CLIs on four workloads, and a traced pass that times each layer.

    python3 perfbench/run.py --workload classify-trace --seed 3 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run it from anywhere inside a ccm source tree; it builds the CLIs and its
two drivers (perfbench/CMakeLists.txt) into .bench_build/ and works in
.bench_run/.  Workloads (BENCHMARK.json says why each is there):

  classify-trace  ccm-sim --classify --trace gcc.bin --shards 3
  sample-plan     ccm-sample --trace gcc.d.bin --rate 0.01 --intervals 8
  timing-suite    ccm-sim --suite --arch amb --victim --prefetch --exclude
                  --jobs 3
  serve-streams   ccm-serve --arch baseline, fed by perfbench_loadgen over
                  2 connections in a closed loop

Modelled caches start empty, as the CLIs do; one untimed run per workload
warms the host page cache.  Every document a program writes is checked:
wall-clock fields are stripped and the rest is compared with the digests
in perfbench/digests.json (recorded at DEFAULT_SEED) or, for any other
seed, with a cross-check run (--shards 1 for classify, the packed encoding
for sampling, --jobs 1 for the suite, a batch ccm-sim run per serve
stream).  A mismatch, a non-zero exit or a failed stream is a failed
operation.  Changing a workload's size or flags changes its documents:
re-record the digests with --write-digests.  The model has no hardware
reference results in the repo, so no model-error figure is reported.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}; --trace 0 gives the end-to-end metrics of BENCHMARK.json and
--trace 1 the per-layer ones.  The lines before it print every metric with
its unit, value, p10/median/p90 and sample count, and the environment.
mrec_per_s is taken at the fast tenth of a run's command times, or of its
serve sessions (FAST_Q); every other timing is a median.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build")
RUN = Path(".bench_run")
DIGESTS = HERE / "digests.json"

WORKLOADS = ("classify-trace", "sample-plan", "timing-suite", "serve-streams")
CLI_LANES = WORKLOADS[:3]
DEFAULT_SEED = 1

GCC_REFS = 1_000_000      # 4M records, a 96 MB packed trace
SUITE_REFS = 1_000_000    # per suite workload
STREAM_REFS = 50_000      # per serve stream
STREAM_WORKLOADS = ("gcc", "tomcatv", "compress", "swim")
MIN_OPS = 3
# The host is shared: other tenants only ever slow a command down, and
# they do so in phases of tens of seconds.  The fast tenth of a run's
# command times is the least disturbed, so a lane's mrec_per_s is
# taken there (the median and p90 are printed beside it).  The serve
# lane splits its run into SERVE_SESSIONS daemon sessions for this.
FAST_Q = 0.1
SERVE_SESSIONS = 5
# Set-ups per run: writing the trace costs ~0.5 s; the others, milliseconds
# (serve's includes a drain, ~0.1 s), so they take more to settle.
SETUP_REPS = {"classify-trace": 5, "sample-plan": 5, "timing-suite": 31,
              "serve-streams": 21}
BUILD_JOBS = 3

# Fields that carry host time, not simulated results.
WALL_KEYS = ("wall_seconds", "records_per_sec", "uptime_seconds")

PACKED = RUN / "gcc.bin"
DELTA = RUN / "gcc.d.bin"
INGEST = RUN / "in.sock"
CONTROL = RUN / "ctl.sock"


class BenchError(Exception):
    """A failure of the benchmark itself (build, set-up, protocol)."""


# ---- processes ------------------------------------------------------------


def tool(name):
    return str(BUILD / "ccm" / "tools" / name)


def driver(name):
    return str(BUILD / name)


def timed(argv, log):
    """Run argv to completion: (exit code, wall seconds, peak RSS MB)."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def must(argv, log):
    rc, wall, _ = timed(argv, log)
    if rc != 0:
        raise BenchError(f"{' '.join(argv)} exited {rc} (see {log})")
    return wall


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"{ROOT} is not a ccm source tree")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "perfbench-build.log"
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        must(["cmake", "-S", "perfbench", "-B", str(BUILD), *gen,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log)
    must(["cmake", "--build", str(BUILD), "-j", str(BUILD_JOBS)], log)


# ---- documents ------------------------------------------------------------


def strip_wall(doc):
    if isinstance(doc, dict):
        return {k: strip_wall(v) for k, v in doc.items()
                if not k.startswith(WALL_KEYS)}
    if isinstance(doc, list):
        return [strip_wall(v) for v in doc]
    return doc


def digest(doc):
    text = json.dumps(strip_wall(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def bump_first_count(doc):
    """Add 1 to the first simulated count: a deliberately wrong document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, bool) or key == "schema_version":
            continue
        if isinstance(value, int):
            doc[key] = value + 1
            return True
        if isinstance(value, (dict, list)) and bump_first_count(value):
            return True
    return False


def read_doc(path, alter):
    with open(path) as f:
        doc = json.load(f)
    if alter:
        bump_first_count(doc)
    return doc


def trace_records(path):
    """Record count of a packed CCMTRACE file: 16-byte header, 24 per record."""
    with open(path, "rb") as f:
        if f.read(8) != b"CCMTRACE":
            raise BenchError(f"{path} is not a packed trace")
    return (path.stat().st_size - 16) // 24


def load_digests():
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())
    return {}


# ---- statistics -----------------------------------------------------------


def quantile(values, q):
    """The q-quantile (0 < q < 1), interpolated; the sole value if one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


class Sampled:
    """A metric with its samples, reported as their median."""

    def __init__(self, samples, value=None):
        self.samples = list(samples)
        self.value = statistics.median(self.samples) if value is None else value

    def describe(self):
        s = self.samples
        if len(s) < 2:
            return f"n={len(s)}"
        return (f"p10 {quantile(s, 0.1):.6g} median {statistics.median(s):.6g}"
                f" p90 {quantile(s, 0.9):.6g} n={len(s)}")


# ---- lanes ----------------------------------------------------------------


class Run:
    """One benchmark invocation: seed, counters of checked operations."""

    def __init__(self, seed, alter, record):
        self.seed = seed
        self.alter = alter
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.digests = load_digests()
        self.references = {}
        self.log = RUN / "programs.log"

    def count(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def reference(self, lane, cross_check):
        """The expected digest(s) of a lane's output at this seed."""
        if lane not in self.references:
            recorded = (self.seed == DEFAULT_SEED and not self.record
                        and lane in self.digests)
            self.references[lane] = (self.digests[lane] if recorded
                                     else cross_check())
        return self.references[lane]


def setup_inputs(run, lane):
    """Write the lane's inputs; returns the wall time of one set-up."""
    gen = [tool("ccm-trace"), "gen", "gcc", str(PACKED), "--refs",
           str(GCC_REFS), "--seed", str(run.seed)]
    if lane == "classify-trace":
        return must(gen, run.log)
    if lane == "sample-plan":
        return must(gen, run.log) + must(
            [tool("ccm-trace"), "pack", str(PACKED), str(DELTA)], run.log)
    if lane == "timing-suite":
        # The suite has no input files: its set-up is the command's
        # fixed cost, measured at 1000 refs per workload.
        return must(suite_cmd(run.seed, 1000, 3, RUN / "suite-setup.json"),
                    run.log)
    raise BenchError(f"no file set-up for {lane}")


def suite_cmd(seed, refs, jobs, out):
    return [tool("ccm-sim"), "--suite", "--arch", "amb", "--victim",
            "--prefetch", "--exclude", "--jobs", str(jobs), "--refs",
            str(refs), "--seed", str(seed), "--stats-json", str(out)]


def cli_cmd(lane, seed, out):
    if lane == "classify-trace":
        return [tool("ccm-sim"), "--classify", "--trace", str(PACKED),
                "--shards", "3", "--stats-json", str(out)]
    if lane == "sample-plan":
        # ccm-sample keeps its default sampling seed: the workload seed
        # shapes the trace only, so which lines are sampled, and with
        # them the sampled work (50k to 100k refs across seeds when the
        # seed was passed on), do not change from run to run.
        return [tool("ccm-sample"), "--trace", str(DELTA), "--rate", "0.01",
                "--intervals", "8", "--stats-json", str(out)]
    return suite_cmd(seed, SUITE_REFS, 3, out)


def lane_key(lane, doc):
    """Digest of the simulated content of one of the lane's documents."""
    if lane == "sample-plan":
        # The trace path names the encoding; the results must not.
        doc = {k: v for k, v in doc.items() if k != "workload"}
    return digest(doc)


def lane_records(lane, doc):
    if lane == "timing-suite":
        return sum(r["sim"]["instructions"] for r in doc["rows"])
    return trace_records(PACKED)


def cross_check(run, lane):
    """Digest of the lane's output from an independent configuration."""
    out = RUN / f"{lane}-cross.json"
    if lane == "classify-trace":
        argv = [tool("ccm-sim"), "--classify", "--trace", str(PACKED),
                "--shards", "1", "--stats-json", str(out)]
    elif lane == "sample-plan":
        argv = cli_cmd(lane, run.seed, out)
        argv[argv.index(str(DELTA))] = str(PACKED)
    else:
        argv = suite_cmd(run.seed, SUITE_REFS, 1, out)
    rc, _, _ = timed(argv, run.log)
    run.count(rc == 0)
    return lane_key(lane, read_doc(out, False)) if rc == 0 else None


def run_cli_lane(run, lane, seconds):
    """Warm up once, then run the lane's command until `seconds` pass."""
    out = RUN / f"{lane}.json"
    argv = cli_cmd(lane, run.seed, out)
    rc, _, _ = timed(argv, run.log)
    if rc != 0:
        raise BenchError(f"warm-up of {lane} exited {rc}")
    ops = []
    t0 = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - t0 < seconds:
        rc, wall, rss = timed(argv, run.log)
        doc = read_doc(out, run.alter) if rc == 0 else None
        ops.append({"wall": wall, "rss": rss,
                    "key": lane_key(lane, doc) if doc else None,
                    "records": lane_records(lane, doc) if doc else 0})
    expected = run.reference(lane, lambda: cross_check(run, lane))
    for op in ops:
        run.count(op["key"] is not None and op["key"] == expected)
    walls = [op["wall"] for op in ops]
    records = max(op["records"] for op in ops)
    return {
        "mrec_per_s": Sampled([records / w / 1e6 for w in walls],
                              records / quantile(walls, FAST_Q) / 1e6),
        "peak_rss_mb": Sampled(op["rss"] for op in ops),
        "expected": expected,
    }


# ---- serve ----------------------------------------------------------------


def control(command, timeout=5.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(str(CONTROL))
        s.sendall(command.encode() + b"\n")
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := s.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks).decode()


class Daemon:
    """ccm-serve on RUN's sockets; always stopped and waited for."""

    def __init__(self, run):
        self.run = run
        self.proc = None
        self.rss_mb = 0.0
        self.drain_ms = 0.0

    def __enter__(self):
        for path in (INGEST, CONTROL):
            path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        with open(self.run.log, "ab") as err:
            self.proc = subprocess.Popen(
                [tool("ccm-serve"), "--socket", str(INGEST), "--control",
                 str(CONTROL), "--arch", "baseline", "--log-level", "warn"],
                stdout=subprocess.DEVNULL, stderr=err)
        try:
            while not self.answers_ping():
                if self.proc.poll() is not None or \
                        time.perf_counter() - t0 > 10:
                    raise BenchError("ccm-serve did not come up")
                time.sleep(0.0005)
        except BaseException:
            self.__exit__()
            raise
        self.start_s = time.perf_counter() - t0
        return self

    @staticmethod
    def answers_ping():
        try:
            return control("ping").startswith("pong")
        except OSError:
            return False

    def drain(self):
        """Request a drain and time it until the daemon has exited."""
        t0 = time.perf_counter()
        control("drain")
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.drain_ms = (time.perf_counter() - t0) * 1e3
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        if self.proc.returncode != 0:
            raise BenchError(f"ccm-serve exited {self.proc.returncode}")

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def serve_references(run):
    """Per workload, the digest of a batch ccm-sim run's sim + mem."""
    def batch():
        refs = {}
        for w in STREAM_WORKLOADS:
            out = RUN / f"batch-{w}.json"
            rc, _, _ = timed([tool("ccm-sim"), "--workload", w, "--refs",
                              str(STREAM_REFS), "--seed", str(run.seed),
                              "--arch", "baseline", "--stats-json", str(out)],
                             run.log)
            run.count(rc == 0)
            doc = read_doc(out, False) if rc == 0 else {}
            refs[w] = digest({"sim": doc.get("sim"), "mem": doc.get("mem")})
        return refs
    return run.reference("serve-streams", batch)


def serve_session(run, seconds, traced):
    out = RUN / ("loadgen-traced.json" if traced else "loadgen.json")
    argv = [driver("perfbench_loadgen"), "--socket", str(INGEST),
            "--control", str(CONTROL), "--seed", str(run.seed), "--refs",
            str(STREAM_REFS), "--seconds", str(seconds), "--out", str(out)]
    with Daemon(run) as daemon:
        rc, _, _ = timed(argv + (["--traced"] if traced else []), run.log)
        daemon.drain()
    if rc != 0:
        raise BenchError(f"perfbench_loadgen exited {rc}")
    lg = read_doc(out, False)
    if run.alter:
        for report in lg["reports"].values():
            bump_first_count(report["mem"])
    return lg, daemon


def check_streams(run, lg, expected):
    for s in lg["streams"]:
        r = lg["reports"].get(s["name"])
        run.count("error" not in s and r is not None
                  and r.get("state") == "done"
                  and r.get("records") == s["records"]
                  and digest({"sim": r.get("sim"), "mem": r.get("mem")})
                  == expected.get(s["workload"]))


def serve_lane(run, seconds, traced=False, sessions=1):
    """`sessions` daemon sessions sharing `seconds`; each one's rate runs
    from its first connect to its last retire.  "loadgen" is the last
    session's record."""
    expected = serve_references(run)
    rates, rss, drains, starts, lat = [], [], [], [], []
    for _ in range(sessions):
        lg, daemon = serve_session(run, max(1, seconds // sessions), traced)
        check_streams(run, lg, expected)
        lat += [s["latency_ms"] for s in lg["streams"]]
        span = lg["last_retire_s"] - lg["first_connect_s"]
        rates.append(lg["records"] / span / 1e6)
        rss.append(daemon.rss_mb)
        drains.append(daemon.drain_ms)
        starts.append(daemon.start_s * 1e3)
    return {
        "mrec_per_s": Sampled(rates, quantile(rates, 1 - FAST_Q)),
        "peak_rss_mb": Sampled(rss),
        "stream_p50_ms": Sampled(lat),
        "stream_p90_ms": Sampled(lat, quantile(lat, 0.9)),
        "drain_ms": Sampled(drains),
        "start_ms": Sampled(starts),
        "loadgen": lg,
    }


def serve_setup(run):
    """Daemon start until its control socket answers, then stop it."""
    with Daemon(run) as daemon:
        daemon.drain()
    return daemon.start_s


# ---- traced layer pass ----------------------------------------------------


def layer_pass(run, lanes_untraced, serve_untraced, seconds):
    """Every per-layer metric; the spans come from perfbench_layers."""
    out = RUN / "layers.json"
    rc, _, _ = timed([driver("perfbench_layers"), "--packed", str(PACKED),
                      "--delta", str(DELTA), "--seed", str(run.seed),
                      "--suite-refs", str(SUITE_REFS), "--out", str(out),
                      "--spans",
                      str(RUN / "spans.json")], run.log)
    if rc != 0:
        raise BenchError(f"perfbench_layers exited {rc}")
    layers = read_doc(out, False)
    m = dict(layers["metrics"])
    traced_rate = {}
    for lane in CLI_LANES:
        info = layers["lanes"][lane]
        doc = read_doc(info["document"], run.alter)
        run.count(lane_key(lane, doc) == lanes_untraced[lane]["expected"])
        traced_rate[lane] = info["mrec_per_s"]

    served = serve_lane(run, seconds, traced=True)
    lg = served["loadgen"]
    streams = lg["streams"]
    reports = lg["reports"].values()
    retire = [s["end_to_retire_ms"] for s in streams
              if "end_to_retire_ms" in s]
    daemon_stats = lg["daemon"]
    m.update({
        "trace.file_mb_packed": PACKED.stat().st_size / 1e6,
        "trace.file_mb_delta": DELTA.stat().st_size / 1e6,
        "sim.e2e_over_kernel":
            lanes_untraced["classify-trace"]["mrec_per_s"].value
            / m["sim.kernel_k1_mrec_per_s"],
        "serve.connect_ms":
            statistics.median(s["connect_ms"] for s in streams),
        "serve.send_blocked_share":
            sum(s["send_ms"] for s in streams)
            / sum(s["latency_ms"] for s in streams),
        "serve.end_to_retire_ms": statistics.median(retire),
        "serve.queue_max_depth": max(r["queue_max_depth"] for r in reports),
        "serve.start_ms": served["start_ms"].value,
        "serve.refused": daemon_stats["streams_refused"],
        "serve.failed": daemon_stats["streams_failed"],
        "serve.shed_records": sum(r["shed_records"] for r in reports),
        "serve.malformed_frames": sum(r["malformed_frames"] for r in reports),
        "serve.stream_p50_ms": serve_untraced["stream_p50_ms"].value,
        "serve.stream_p90_ms": serve_untraced["stream_p90_ms"].value,
        "serve.drain_ms": served["drain_ms"].value,
    })
    traced_rate["serve-streams"] = served["mrec_per_s"].value
    untraced = {lane: lanes_untraced[lane]["mrec_per_s"].value
                for lane in CLI_LANES}
    untraced["serve-streams"] = serve_untraced["mrec_per_s"].value
    overhead = {lane: 100.0 * (untraced[lane] - traced_rate[lane])
                / untraced[lane] for lane in WORKLOADS}
    return m, overhead


# ---- environment and output -----------------------------------------------


def environment(run, workload, seconds):
    cache = {}
    cache_file = BUILD / "CMakeCache.txt"
    for line in cache_file.read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    sha, dirty = None, None
    if (ROOT / ".git").exists() and shutil.which("git"):
        rev = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            sha = rev.stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True).stdout.strip())
    sources = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        paths = [ROOT / top] if (ROOT / top).is_file() else sorted(
            (ROOT / top).rglob("*"))
        for path in paths:
            if path.is_file():
                sources.update(str(path.relative_to(ROOT)).encode())
                sources.update(path.read_bytes())
    traces = {p.name: round(p.stat().st_size / 1e6, 3)
              for p in (PACKED, DELTA) if p.exists()}
    return {
        "nproc": os.cpu_count(),
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": sources.hexdigest(),
        "workload": workload,
        "seed": run.seed,
        "seconds": seconds,
        "trace_mb": traces,
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def emit(run, values, trace, env, extra_lines):
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for line in extra_lines:
        print(line)
    metrics, samples = {}, {}
    for name, unit in units.items():
        v = values[name]
        value = v.value if isinstance(v, Sampled) else v
        detail = v.describe() if isinstance(v, Sampled) else "n=1"
        print(f"{name:34s} {value:14.6g} {unit:12s} {detail}")
        metrics[name] = {"value": float(value), "unit": unit}
        if isinstance(v, Sampled):
            samples[name] = v.samples
    print(f"operations: {run.attempted} attempted, {run.failed} failed")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (RUN / "result.json").write_text(json.dumps(
        {"env": env, **result, "samples": samples}, indent=2) + "\n")
    print(json.dumps(result), flush=True)


# ---- entry points ---------------------------------------------------------


def untraced(run, workload, seconds):
    extra = []
    if workload == "serve-streams":
        setups = [serve_setup(run) for _ in range(SETUP_REPS[workload])]
        serve_session(run, 1, False)  # warm-up
        values = serve_lane(run, seconds, sessions=SERVE_SESSIONS)
        extra = [f"stream_p50_ms {values['stream_p50_ms'].value:.6g} ms, "
                 f"stream_p90_ms {values['stream_p90_ms'].value:.6g} ms "
                 f"(n={len(values['stream_p50_ms'].samples)}), drain_ms "
                 f"{values['drain_ms'].value:.6g} ms "
                 f"(n={len(values['drain_ms'].samples)})"]
    else:
        setups = [setup_inputs(run, workload)
                  for _ in range(SETUP_REPS[workload])]
        os.sync()  # no write-back of the inputs while timing
        values = run_cli_lane(run, workload, seconds)
    values["setup_s"] = Sampled(setups)
    return values, extra


def traced(run, workload, seconds):
    setup_inputs(run, "sample-plan")  # both encodings, for every layer
    os.sync()
    lanes = {lane: run_cli_lane(run, lane, 0) for lane in CLI_LANES}
    serve_untraced = serve_lane(run, max(1, seconds // 4))
    values, overhead = layer_pass(run, lanes, serve_untraced,
                                  max(1, seconds // 4))
    values["bench.trace_overhead_pct"] = overhead[workload]
    extra = [f"trace overhead {lane}: {pct:.2f}%"
             for lane, pct in overhead.items()]
    return values, extra


def bench(args):
    os.chdir(ROOT)
    build()
    if RUN.exists():
        shutil.rmtree(RUN)
    RUN.mkdir()
    run = Run(args.seed, args.alter_output, args.write_digests)
    measure = traced if args.trace else untraced
    values, extra = measure(run, args.workload, args.seconds)
    env = environment(run, args.workload, args.seconds)
    for path in (PACKED, DELTA):
        path.unlink(missing_ok=True)
    if args.write_digests:
        digests = load_digests()
        digests.update(run.references)
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True)
                           + "\n")
    emit(run, values, args.trace, env, extra)


def self_test():
    """A non-default seed passes; an altered document is a failed op."""
    def result(*extra):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--seed",
             str(DEFAULT_SEED + 1), "--seconds", "1", "--trace", "0",
             *extra], capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    ok = True
    for workload in WORKLOADS:
        r = result("--workload", workload)
        good = r is not None and r["correct"] and r["failed"] == 0
        print(f"self-test {workload} seed {DEFAULT_SEED + 1}: "
              f"{'pass' if good else 'FAIL'} {r and r['attempted']} ops")
        ok &= good
    for workload in ("classify-trace", "serve-streams"):
        r = result("--workload", workload, "--alter-output")
        good = r is not None and not r["correct"] and r["failed"] > 0
        print(f"self-test altered {workload} output: "
              f"{'reported' if good else 'MISSED'} "
              f"({r and r['failed']} of {r and r['attempted']} failed)")
        ok &= good
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--alter-output", action="store_true",
                   help="corrupt every checked document (self-test)")
    p.add_argument("--write-digests", action="store_true",
                   help="record this run's references in digests.json")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    if args.write_digests and args.seed != DEFAULT_SEED:
        p.error(f"digests are recorded at --seed {DEFAULT_SEED}")
    try:
        bench(args)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
