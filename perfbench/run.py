#!/usr/bin/env python3
"""wlgen end-to-end benchmark.

Runs one named workload against the real wlgen_cli binary, checks every
run's output against a reference, and prints the end-to-end metrics (or,
with --trace 1, the per-layer metrics of the traced driver) as one JSON
object on the last line of stdout.  Everything else goes to stderr.

  python3 perfbench/run.py --workload spill_open --seed 1991 --seconds 45 --trace 0
  python3 perfbench/run.py --smoke                  # reduced size, all workloads, validates JSON
  python3 perfbench/run.py --record --runs 5        # writes perfbench/RESULTS.json
  python3 perfbench/run.py --record-references --size bench --seeds 1991,0-31
  python3 perfbench/run.py --record-references --workloads trace_replay --seeds 0-3

The first call configures and builds wlgen_cli and perfbench_layers (Release)
under .bench_build/perfbench.  See perfbench/README.md for the metrics, the
workloads and the layer map.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
CLI = BUILD_DIR / "wlgen" / "wlgen_cli"
LAYERS = BUILD_DIR / "perfbench_layers"
EXEC = BUILD_DIR / "perfbench_exec"
REFERENCES = BENCH_DIR / "references.json"
RESULTS = BENCH_DIR / "RESULTS.json"

THREADS = 4            # worker threads of every workload (the container's nproc)
DEFAULT_SEED = 1991
CHILD_TIMEOUT_S = 90   # one wlgen_cli run; a normal one takes about two seconds
SETUP_PROCESSES = 6    # set-up is timed in this many processes; median reported
MIN_TIMED_RUNS = 3

END_TO_END = [
    ("ops_per_s", "ops/s", "higher"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
]

PER_LAYER = [
    ("scenario.parse_s", "s"), ("traffic.assign_s", "s"), ("traffic.arrivals", "count"),
    ("fsc.busy_s", "s"), ("fsc.files", "count"), ("fsc.ns_per_file", "ns"),
    ("usim.busy_s", "s"), ("usim.ops", "count"), ("usim.sessions", "count"),
    ("usim.ns_per_op", "ns"), ("dist.rng_draws", "count"), ("sim.events", "count"),
    ("sim.heap_high_water", "count"),
    ("fsmodel.busy_s", "s"), ("fsmodel.plans", "count"), ("fsmodel.ns_per_plan", "ns"),
    ("log_sink.busy_s", "s"), ("log_sink.records", "count"), ("log_sink.spill_bytes", "B"),
    ("log_sink.spill_runs", "count"),
    ("runner.hook_busy_s", "s"), ("runner.pool_busy_s", "s"), ("runner.pool_idle_s", "s"),
    ("runner.fold_s", "s"), ("runner.merge_s", "s"), ("runner.merge_records", "count"),
    ("analysis.busy_s", "s"), ("analysis.records", "count"),
    ("output.write_s", "s"), ("output.write_bytes", "B"), ("output.parse_s", "s"),
    ("output.parse_records", "count"),
    ("replay.busy_s", "s"), ("replay.ops", "count"),
    ("phase.setup_s", "s"), ("phase.pool_s", "s"), ("phase.tail_s", "s"),
    ("phase.traced_wall_s", "s"), ("unattributed_s", "s"), ("trace_overhead", "ratio"),
    ("timer.span_ns", "ns"),
]

# Input sizes.  "bench" is what the driver measures: each wlgen_cli run lasts
# about two seconds on a 4-core container (trace_replay's about 0.6 s), so a
# run of --seconds holds several, and each input is large enough that its
# work varies little from seed to seed.  trace_replay replays a fixed number
# of records, so its work does not vary with the seed at all.  "smoke" only
# checks that everything works.
SIZES = {
    "bench": {
        "log_users": 96, "log_sessions": 10, "log_shards": 8,
        "sweep_users": "4:32:4", "sweep_replications": 4, "sweep_sessions": 12,
        "open_users": 240, "open_shards": 16, "open_sessions": 960, "open_rate": 2.0,
        "replay_records": 250000,
    },
    "smoke": {
        "log_users": 8, "log_sessions": 2, "log_shards": 4,
        "sweep_users": "2:4:2", "sweep_replications": 2, "sweep_sessions": 2,
        "open_users": 16, "open_shards": 4, "open_sessions": 32, "open_rate": 2.0,
        "replay_records": 4000,
    },
}

_current_child = None  # the process a signal handler must stop


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that ends the benchmark without a result."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Sample:
    def __init__(self, exit_code, timed_out, wall_s, cpu_s, rss_mib):
        self.exit_code = exit_code
        self.timed_out = timed_out
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mib = rss_mib


def spawn(argv, cwd, stdout_path, timeout_s=CHILD_TIMEOUT_S):
    """Runs one child to completion through perfbench_exec, which reports its
    wall time from spawn to exit, and CPU and peak RSS from wait4(2).  A child
    past its timeout is killed."""
    global _current_child
    result = Path(cwd) / "rusage.json"
    with open(stdout_path, "wb") as out, open(Path(cwd) / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([str(a) for a in [EXEC, result, timeout_s] + list(argv)],
                                cwd=cwd, stdout=out, stderr=err, start_new_session=True)
        _current_child = proc
        try:
            code = proc.wait(timeout=timeout_s + 30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return Sample(-signal.SIGKILL, True, float(timeout_s), 0.0, 0.0)
        finally:
            _current_child = None
    if code != 0:
        raise BenchError(f"perfbench_exec failed (exit {code})\n{stderr_tail(cwd)}")
    r = json.loads(result.read_text())
    return Sample(r["exit"], r["timed_out"], r["wall_s"], r["cpu_s"], r["maxrss_kb"] / 1024.0)


def run_tool(argv, timeout_s, cwd=None):
    """Runs a build step with its output on stderr; kills its whole process
    group on timeout."""
    global _current_child
    proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    _current_child = proc
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"timed out after {timeout_s} s: {' '.join(map(str, argv))}")
    finally:
        _current_child = None
    if code != 0:
        raise BenchError(f"exit {code}: {' '.join(map(str, argv))}")


def stop_on_signal(signum, _frame):
    child = _current_child
    if child is not None and child.poll() is None:
        os.killpg(child.pid, signal.SIGKILL)  # children run in their own session
        child.wait()
    raise SystemExit(128 + signum)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no wlgen source tree at {ROOT} (perfbench/ must sit in the repository root)")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_tool(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"], 60)
    run_tool(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "wlgen_cli",
              "perfbench_layers", "perfbench_exec"], 780)


def build_info():
    """Host and build context recorded with every result set."""
    version = subprocess.run([str(CLI), "version"], capture_output=True, text=True,
                             timeout=30).stdout.strip()
    match = re.search(r"\((\w+), (.*)\)", version)
    sha, dirty = "unknown", None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True, timeout=30).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "wlgen_version": version,
        "build_type": match.group(1) if match else "unknown",
        "compiler": match.group(2) if match else "unknown",
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def require_release(info):
    if info["build_type"] != "Release":
        raise BenchError(f"wlgen_cli reports build type {info['build_type']!r} "
                         f"({info['wlgen_version']}); refusing to measure an unoptimised build")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Job:
    """One process: its argv, where its stdout goes, and the artifact files
    whose checksum is the run's output."""

    def __init__(self, argv, stdout, artifacts):
        self.argv = argv
        self.stdout = stdout
        self.artifacts = artifacts


def checksum(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def write(path, text):
    Path(path).write_text(text)
    return path


def write_bytes(path, data):
    Path(path).write_bytes(data)
    return path


class Context:
    """One benchmark invocation: size, seed, scratch directory, references."""

    def __init__(self, size, seed, work, references):
        self.size = size
        self.p = SIZES[size]
        self.seed = seed
        self.work = work
        self.references = references
        self.crosschecks = {}  # workload name -> cross-check output, for uncovered seeds
        self.trace = None  # trace_replay's generated input
        self.trace_records = 0

    def reference(self, workload):
        return self.references.get(self.size, {}).get(workload, {}).get(str(self.seed))

    def fresh_dir(self, name):
        d = self.work / name
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d


class ShardedLog:
    name = "sharded_log"
    why = ("closed-loop sharded run with the log kept in RAM: one FSC per user universe, "
           "then the serial tail of in-memory merge, analysis pass and text log output")

    def flags(self, ctx, shards, threads):
        p = ctx.p
        return ["run", "--users", p["log_users"], "--sessions", p["log_sessions"],
                "--shards", shards, "--threads", threads, "--model", "nfs",
                "--seed", ctx.seed, "--log", "usage.log"]

    def child(self, ctx, d):
        return Job([CLI] + self.flags(ctx, ctx.p["log_shards"], THREADS), d / "stdout.txt",
                   [d / "usage.log"])

    def traced(self, ctx, d):
        return Job([LAYERS, "trace"] + self.flags(ctx, ctx.p["log_shards"], THREADS),
                   d / "stdout.txt", [d / "usage.log"])

    def setup(self, ctx, d):
        return [LAYERS, "setup"] + self.flags(ctx, ctx.p["log_shards"], THREADS)

    def crosscheck(self, ctx, d):
        # One shard on one thread must write the identical log.
        return [Job([CLI] + self.flags(ctx, 1, 1), d / "stdout.txt", [d / "usage.log"])]

    def ops(self, job):
        with open(job.artifacts[0], "rb") as f:
            return sum(1 for line in f if not line.startswith(b"#"))


def sweep_scn(ctx, threads):
    p = ctx.p
    return f"""[scenario]
name = contended_sweep
mode = contended
seed = {ctx.seed}
threads = {threads}

[workload]
users = {p['sweep_users']}
sessions = {p['sweep_sessions']}

[contended]
replications = {p['sweep_replications']}

[model]
name = nfs

[output]
stats = stats.txt
"""


def open_scn(ctx, threads, shards, spill):
    p = ctx.p
    span = p["open_sessions"] / p["open_rate"]  # seconds of arrivals at the base rate

    def at(fraction):
        return f"{fraction * span:g}"

    log_section = "[log]\nspill = true\nspool_dir = spool\n" if spill else ""
    return f"""[scenario]
name = spill_open
mode = sharded
seed = {ctx.seed}
threads = {threads}

[workload]
users = {p['open_users']}

[sharded]
shards = {shards}

{log_section}
[arrivals]
process = mmpp
rate = {p['open_rate']:g}
sessions = {p['open_sessions']}
diurnal = 0:0.6, {at(1.0)}:1.4
flash_at = {at(0.3)}
flash_duration = {at(0.125)}
flash_magnitude = 3

[faults]
slowdown = {at(0.4)}:{at(0.5)}:4
flush = {at(0.6)}
churn = {at(0.75)}:{at(0.875)}:0.5

[model]
name = nfs

[output]
log = usage.log
stats = stats.txt
"""


class ScenarioWorkload:
    """A workload that is one generated .scn file run by `wlgen scenario run`;
    its output is the listed [output] files, stats digest first."""

    outputs = ["stats.txt"]

    def scn(self, ctx, crosscheck):
        raise NotImplementedError

    def job(self, ctx, d, command, crosscheck=False):
        scn = write(d / "workload.scn", self.scn(ctx, crosscheck))
        return Job(command + [scn], d / "stdout.txt", [d / name for name in self.outputs])

    def child(self, ctx, d):
        return self.job(ctx, d, [CLI, "scenario", "run"])

    def traced(self, ctx, d):
        return self.job(ctx, d, [LAYERS, "trace", "scenario"])

    def setup(self, ctx, d):
        return self.job(ctx, d, [LAYERS, "setup", "scenario"]).argv

    def crosscheck(self, ctx, d):
        return [self.job(ctx, d, [CLI, "scenario", "run"], crosscheck=True)]

    def ops(self, job):
        text = Path(job.artifacts[0]).read_text()
        return sum(int(n) for n in re.findall(r"^point users=\d+ ops=(\d+)", text, re.M))


class ContendedSweep(ScenarioWorkload):
    name = "contended_sweep"
    why = ("4..32 users queue on one shared NFS model per replication: DES heap, fsmodel "
           "caches and USIM sampling; no log, merge or output")

    def scn(self, ctx, crosscheck):
        # Cross-check: two threads instead of four; the digest must not change.
        return sweep_scn(ctx, 2 if crosscheck else THREADS)


class SpillOpen(ScenarioWorkload):
    name = "spill_open"
    why = ("open-loop MMPP arrivals with faults, log spilled to sorted runs and merged back "
           "by the loser tree into output.log: the disk log path and the traffic code")
    outputs = ["stats.txt", "usage.log"]

    def scn(self, ctx, crosscheck):
        # Cross-check: in-memory log, three shards, one thread; same digest
        # and same log text.
        if crosscheck:
            return open_scn(ctx, 1, 3, False)
        return open_scn(ctx, THREADS, ctx.p["open_shards"], True)


class TraceReplay:
    name = "trace_replay"
    why = ("open-loop replay of the first 250k records of sharded_log's log on the local "
           "model: text parse, TraceReplayer, a second backend and the analyzer; no GDS, "
           "FSC or USIM work")

    def prepare(self, ctx):
        """Generates sharded_log's usage log for this seed, verifies its
        checksum, and keeps its header and first `replay_records` records as
        the trace, so every seed replays the same number of calls."""
        d = ctx.fresh_dir("trace")
        source = ShardedLog()
        job = source.child(ctx, d)
        sample = spawn(job.argv, d, job.stdout)
        if sample.exit_code != 0:
            raise BenchError(f"trace generation failed (exit {sample.exit_code})\n{stderr_tail(d)}")
        expected, _ = expected_output(ctx, source)
        if checksum(job.artifacts) != expected["sha256"]:
            raise BenchError("generated trace does not match its reference checksum")
        lines = job.artifacts[0].read_bytes().splitlines(keepends=True)
        header = [line for line in lines if line.startswith(b"#")]
        records = [line for line in lines if not line.startswith(b"#")][:ctx.p["replay_records"]]
        ctx.trace = write_bytes(d / "trace.log", b"".join(header + records))
        ctx.trace_records = len(records)
        job.artifacts[0].unlink()

    def child(self, ctx, d):
        return Job([CLI, "replay", ctx.trace, "--model", "local"], d / "stdout.txt",
                   [d / "stdout.txt"])

    def traced(self, ctx, d):
        return Job([LAYERS, "trace", "replay", ctx.trace, "--model", "local", "--out",
                    "report.txt"], d / "stdout.txt", [d / "report.txt"])

    def setup(self, ctx, d):
        return [LAYERS, "setup", "replay", ctx.trace, "--model", "local", "--out", "report.txt"]

    def crosscheck(self, ctx, d):
        # The scenario replay path writes the replayed log; `wlgen analyze`
        # of it must print the tables `wlgen replay` printed.
        scn = write(d / "replay.scn", f"""[scenario]
name = trace_replay
mode = replay

[replay]
trace = {os.path.relpath(ctx.trace, d)}
closed_loop = false

[model]
name = local

[output]
log = replayed.log
""")
        header = f"replayed {ctx.trace_records} ops (open loop) on local\n\n"
        write(d / "report.txt", header)
        return [Job([CLI, "scenario", "run", scn], d / "scenario.txt", []),
                Job([CLI, "analyze", "replayed.log"], d / "analysis.txt",
                    [d / "report.txt", d / "analysis.txt"])]

    def ops(self, job):
        match = re.match(r"replayed (\d+) ops", Path(job.artifacts[0]).read_text())
        return int(match.group(1)) if match else 0


# BENCHMARK.json lists spill_open and trace_replay, which between them
# exercise every layer metric.  Over ten seeds on the shared host the spread
# of wall_s reached the 0.25 bound on contended_sweep and sharded_log
# (README.md "Workloads").  Both stay runnable by name, with their
# references and traced driver: sharded_log is the source of trace_replay's
# trace and the in-memory log path, contended_sweep the control for tail
# optimisations.
WORKLOADS = {w.name: w for w in (ShardedLog(), ContendedSweep(), SpillOpen(), TraceReplay())}


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def load_references():
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text()).get("sizes", {})
    return {}


def run_crosscheck(ctx, workload):
    """Runs the workload in a different execution shape (one thread, other
    shard cut, in-memory log, or another code path) and returns its output
    checksum and op count; the benchmark's runs must reproduce it."""
    d = ctx.fresh_dir(f"crosscheck-{workload.name}")
    jobs = workload.crosscheck(ctx, d)
    for job in jobs:
        sample = spawn(job.argv, d, job.stdout)
        if sample.exit_code != 0:
            raise BenchError(f"{workload.name} cross-check run failed (exit {sample.exit_code})"
                             f"\n{stderr_tail(d)}")
    last = jobs[-1]
    expected = {"sha256": checksum(last.artifacts), "ops": workload.ops(last)}
    shutil.rmtree(d, ignore_errors=True)
    return expected


def expected_output(ctx, workload):
    """The committed reference for (size, workload, seed), or — for a seed
    the reference file does not cover — the cross-check's output."""
    ref = ctx.reference(workload.name)
    if ref is not None:
        return ref, "committed"
    if workload.name not in ctx.crosschecks:
        ctx.crosschecks[workload.name] = run_crosscheck(ctx, workload)
    return ctx.crosschecks[workload.name], "cross-check"


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def median(values):
    # 0 only when every run failed, and then the result is marked incorrect.
    return statistics.median(values) if values else 0.0


def reported(name, values):
    """The value a run reports for an end-to-end metric.  The host's speed
    switches between two levels about 1.45x apart, for seconds at a time,
    as other tenants load it; that noise only ever adds time.  So the time
    metrics report the fastest child (ops_per_s its rate), whose spread over
    seeds is about half that of the median.  peak_rss_mb reports the
    median."""
    if not values:
        return 0.0  # every run failed; the result is marked incorrect
    if name in ("wall_s", "cpu_s"):
        return min(values)
    if name == "ops_per_s":
        return max(values)
    return statistics.median(values)


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def stderr_tail(d):
    path = Path(d) / "stderr.txt"
    return path.read_text(errors="replace")[-2000:] if path.is_file() else ""


def setup_sample(ctx, workload, d):
    """One set-up process: the median set-up perfbench_layers measured."""
    out = d / "setup.json"
    sample = spawn(workload.setup(ctx, d), d, out)
    if sample.exit_code != 0:
        raise BenchError(f"{workload.name} set-up timing failed\n{stderr_tail(d)}")
    return json.loads(out.read_text().strip().splitlines()[-1])["setup_s"]


def checked_run(workload, job, d, expected):
    """One child run: (sample, ok).  ok means exit 0, no timeout and output
    equal to the reference."""
    sample = spawn(job.argv, d, job.stdout)
    ok = sample.exit_code == 0 and not sample.timed_out
    if ok:
        try:
            ok = checksum(job.artifacts) == expected["sha256"]
        except OSError:
            ok = False
    if not ok:
        log(f"  FAILED {' '.join(map(str, job.argv[:3]))} ({workload.name}): "
            f"exit={sample.exit_code} timed_out={sample.timed_out}, or output differs from "
            f"the reference\n{stderr_tail(d)}")
    return sample, ok


def measure(workload, seed, seconds, trace, size="bench", references=None):
    """Runs one benchmark invocation; returns (result dict, detail dict)."""
    work = WORK_DIR / f"{workload.name}-{size}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(size, seed, work, references if references is not None else load_references())
    try:
        if hasattr(workload, "prepare"):
            workload.prepare(ctx)
        expected, source = expected_output(ctx, workload)
        log(f"perfbench {workload.name}: size={size} seed={seed} seconds={seconds} "
            f"trace={trace} reference={source} ops={expected['ops']}")
        if trace:
            return measure_traced(ctx, workload, seconds, expected)
        return measure_untraced(ctx, workload, seconds, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_untraced(ctx, workload, seconds, expected):
    """Runs children for `seconds`.  The SETUP_PROCESSES set-up processes
    are spread evenly through that span, so their median is not one moment
    of the host's drifting speed; their own time is kept out of the span."""
    setup_dir = ctx.fresh_dir("setup")
    setups = []
    setup_time = 0.0
    attempted = failed = 0
    walls, cpus, rsss, rates = [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - setup_time
        if len(setups) < SETUP_PROCESSES and elapsed >= len(setups) * seconds / SETUP_PROCESSES:
            setup_start = time.perf_counter()
            setups.append(setup_sample(ctx, workload, setup_dir))
            setup_time += time.perf_counter() - setup_start
            continue
        if attempted >= MIN_TIMED_RUNS and elapsed >= seconds:
            break
        d = ctx.fresh_dir(f"run{attempted}")
        sample, ok = checked_run(workload, workload.child(ctx, d), d, expected)
        attempted += 1
        if ok:
            shutil.rmtree(d, ignore_errors=True)
            walls.append(sample.wall_s)
            cpus.append(sample.cpu_s)
            rsss.append(sample.rss_mib)
            rates.append(expected["ops"] / sample.wall_s)
        else:
            failed += 1
    setup_s = median(setups)
    values = {"ops_per_s": rates, "wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rsss}
    detail = {"runs": len(walls), "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "ops": expected["ops"]}
    metrics = {}
    for name, unit, _ in END_TO_END:
        if name == "setup_s":
            metrics[name] = {"value": setup_s, "unit": unit}
            detail[name] = {"median": setup_s, "processes": SETUP_PROCESSES}
            continue
        lo, hi = quartiles(values[name])
        metrics[name] = {"value": reported(name, values[name]), "unit": unit}
        detail[name] = {"median": median(values[name]), "p25": lo, "p75": hi}
    result = {"correct": failed == 0 and bool(walls), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def measure_traced(ctx, workload, seconds, expected):
    """Alternates untraced runs (the wall_s base of trace_overhead) with
    traced-driver passes; reports the median of every layer metric, and
    trace_overhead from the fastest run of each kind."""
    attempted = failed = 0
    untraced_walls, traced_walls = [], []
    layers = {}
    unattributed = []
    start = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - start < seconds:
        d = ctx.fresh_dir(f"run{index}")
        sample, ok = checked_run(workload, workload.child(ctx, d), d, expected)
        attempted += 1
        failed += not ok
        if ok:
            untraced_walls.append(sample.wall_s)
            shutil.rmtree(d, ignore_errors=True)

        d = ctx.fresh_dir(f"traced{index}")
        job = workload.traced(ctx, d)
        sample, ok = checked_run(workload, job, d, expected)
        attempted += 1
        if ok:
            report = json.loads(Path(job.stdout).read_text().strip().splitlines()[-1])
            traced_walls.append(sample.wall_s)
            phases = report["phase.setup_s"] + report["phase.pool_s"] + report["phase.tail_s"]
            unattributed.append(sample.wall_s - phases)
            for key, value in report.items():
                layers.setdefault(key, []).append(value)
            shutil.rmtree(d, ignore_errors=True)
        else:
            failed += 1
        index += 1

    metrics = {}
    for name, unit in PER_LAYER:
        if name == "phase.traced_wall_s":
            value = median(traced_walls)
        elif name == "unattributed_s":
            value = median(unattributed)
        elif name == "trace_overhead":
            # Fastest against fastest, as wall_s reports.
            base = reported("wall_s", untraced_walls)
            value = reported("wall_s", traced_walls) / base - 1.0 if base else 0.0
        else:
            value = median(layers.get(name, []))
        metrics[name] = {"value": value, "unit": unit}
    result = {"correct": failed == 0 and bool(traced_walls) and bool(untraced_walls),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {"traced_runs": len(traced_walls), "untraced_runs": len(untraced_walls),
              "untraced_wall_s": median(untraced_walls)}
    return result, detail


def print_table(result, detail):
    log(f"{'metric':<22} {'unit':<7} {'value':>14} {'median':>14} {'p25':>14} {'p75':>14}")
    for name, entry in result["metrics"].items():
        extra = detail.get(name, {})
        cells = [extra.get(key) for key in ("median", "p25", "p75")]
        log(f"{name:<22} {entry['unit']:<7} {entry['value']:>14.6g} " +
            " ".join(' ' * 14 if c is None else format(c, '14.6g') for c in cells))
    frac = result["failed"] / result["attempted"]
    log(f"{'fail_frac':<22} {'1':<7} {frac:>14.6g}   ({result['failed']} of "
        f"{result['attempted']} runs; {detail.get('runs', detail.get('traced_runs'))} timed)")


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def record_references(size, seeds, names):
    """Explicit reference refresh: each (workload, seed) runs once in the
    benchmark's shape and once in its cross-check shape; both must agree.
    Only the named workloads' entries are rewritten."""
    doc = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    sizes = doc.setdefault("sizes", {})
    table = sizes.setdefault(size, {})
    for seed in seeds:
        for workload in (WORKLOADS[name] for name in names):
            work = WORK_DIR / f"references-{os.getpid()}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            ctx = Context(size, seed, work, sizes)
            try:
                if hasattr(workload, "prepare"):
                    workload.prepare(ctx)
                crosscheck = run_crosscheck(ctx, workload)
                d = ctx.fresh_dir("run")
                job = workload.child(ctx, d)
                sample = spawn(job.argv, d, job.stdout)
                if sample.exit_code != 0:
                    raise BenchError(f"{workload.name} seed {seed}: exit {sample.exit_code}")
                entry = {"sha256": checksum(job.artifacts), "ops": workload.ops(job)}
                if entry != crosscheck:
                    raise BenchError(f"{workload.name} seed {seed}: benchmark run {entry} "
                                     f"differs from its cross-check {crosscheck}")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table.setdefault(workload.name, {})[str(seed)] = entry
            log(f"reference {size} {workload.name} seed={seed} ops={entry['ops']}")
    doc["format"] = 1
    doc["about"] = ("sha256 of each workload's output (see README.md 'Reference check') and "
                    "its simulated call count, per input size and seed.  Written only by "
                    "run.py --record-references.")
    REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def expected_nonzero(workload):
    """Layer metrics the smoke test requires to be positive per workload."""
    common = ["phase.setup_s", "phase.pool_s", "phase.tail_s", "phase.traced_wall_s",
              "fsmodel.busy_s", "fsmodel.plans", "sim.events", "analysis.records"
              if workload in ("sharded_log", "trace_replay") else "output.write_bytes"]
    generator = ["fsc.busy_s", "fsc.files", "usim.busy_s", "usim.ops", "usim.sessions",
                 "dist.rng_draws", "runner.hook_busy_s", "runner.pool_busy_s",
                 "runner.fold_s"]
    return common + {
        "sharded_log": generator + ["log_sink.records", "runner.merge_records",
                                    "analysis.busy_s", "output.write_s"],
        "contended_sweep": generator + ["scenario.parse_s"],
        "spill_open": generator + ["scenario.parse_s", "traffic.arrivals",
                                   "log_sink.spill_bytes", "log_sink.spill_runs",
                                   "runner.merge_records", "output.write_s"],
        "trace_replay": ["output.parse_s", "output.parse_records", "replay.busy_s",
                         "replay.ops", "analysis.busy_s"],
    }[workload]


def smoke():
    """Reduced-size run of every workload, untraced and traced, validating
    the emitted JSON against BENCHMARK.json's metric names and units.  It
    also runs the workloads BENCHMARK.json does not list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    if any(name not in WORKLOADS or WORKLOADS[name].why != why
           for name, why in listed.items()):
        raise BenchError("BENCHMARK.json workloads differ from run.py's")
    problems = []
    references = load_references()
    for workload in WORKLOADS.values():
        for trace in (0, 1):
            before = len(problems)
            result, _ = measure(workload, DEFAULT_SEED, 1, trace, "smoke", references)
            line = json.dumps(result)
            parsed = json.loads(line)
            where = f"{workload.name} trace={trace}"
            if set(parsed) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(parsed)}")
            if not parsed["correct"] or parsed["failed"] or parsed["attempted"] < 1:
                problems.append(f"{where}: not correct ({parsed['failed']} failed)")
            got = {k: v["unit"] for k, v in parsed["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{where}: metric names/units differ from BENCHMARK.json")
            for name, entry in parsed["metrics"].items():
                value = entry["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{where}: {name} = {value} (must be > 0)")
            if trace == 1:
                for name in expected_nonzero(workload.name):
                    if not parsed["metrics"].get(name, {}).get("value", 0) > 0:
                        problems.append(f"{where}: layer metric {name} is empty")
            log(f"smoke {where}: {'ok' if len(problems) == before else 'FAIL'}")
    for problem in problems:
        log(f"SMOKE FAIL {problem}")
    log("smoke: PASS" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def record(runs, seconds):
    """Records every workload's end-to-end metrics (median and quartiles
    over `runs` runs with seeds 1991, 1992, ...) plus one traced run into
    perfbench/RESULTS.json, with the host and build context."""
    info = build_info()
    require_release(info)
    references = load_references()
    doc = {"context": dict(info, size="bench", run_seconds=seconds, runs=runs,
                           recorded=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())),
           "workloads": {}}
    for workload in WORKLOADS.values():
        per_run = []
        attempted = failed = 0
        for i in range(runs):
            result, _ = measure(workload, DEFAULT_SEED + i, seconds, 0, "bench", references)
            per_run.append(result)
            attempted += result["attempted"]
            failed += result["failed"]
        entry = {"end_to_end": {}, "fail_frac": failed / attempted}
        for name, unit, better in END_TO_END:
            values = [r["metrics"][name]["value"] for r in per_run]
            lo, hi = quartiles(values)
            entry["end_to_end"][name] = {"unit": unit, "better": better,
                                         "median": median(values), "p25": lo, "p75": hi,
                                         "runs": len(values)}
        traced, _ = measure(workload, DEFAULT_SEED, seconds, 1, "bench", references)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_correct"] = traced["correct"]
        doc["workloads"][workload.name] = entry
        log(f"recorded {workload.name}")
    RESULTS.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"wrote {RESULTS}")
    return 0


def remove_stale_work():
    """Drops scratch directories left by runs whose process is gone."""
    if not WORK_DIR.is_dir():
        return
    for entry in WORK_DIR.iterdir():
        pid = entry.name.rsplit("-", 1)[-1]
        alive = False
        if pid.isdigit():
            try:
                os.kill(int(pid), 0)
                alive = int(pid) != os.getpid()
            except OSError:
                pass
        if not alive:
            shutil.rmtree(entry, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size run of every workload, traced and untraced")
    parser.add_argument("--record", action="store_true",
                        help="record all workloads into perfbench/RESULTS.json")
    parser.add_argument("--runs", type=int, default=5, help="runs per workload for --record")
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite perfbench/references.json for --seeds at --size")
    parser.add_argument("--seeds", default=str(DEFAULT_SEED))
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads for --record-references")
    parser.add_argument("--size", choices=sorted(SIZES), default="bench")
    args = parser.parse_args()

    signal.signal(signal.SIGTERM, stop_on_signal)
    signal.signal(signal.SIGINT, stop_on_signal)
    try:
        build()
        remove_stale_work()
        if args.smoke:
            return smoke()
        if args.record:
            return record(args.runs, args.seconds)
        if args.record_references:
            names = [name for name in args.workloads.split(",") if name]
            unknown = sorted(set(names) - set(WORKLOADS))
            if unknown:
                parser.error(f"unknown workload(s): {', '.join(unknown)}")
            record_references(args.size, parse_seeds(args.seeds), names)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        require_release(build_info())
        workload = WORKLOADS[args.workload]
        result, detail = measure(workload, args.seed, args.seconds, args.trace, args.size)
        print_table(result, detail)
        print(json.dumps(result), flush=True)
        return 0
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
