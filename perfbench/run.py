#!/usr/bin/env python3
"""The repository's benchmark: four `resmodel` workloads, end to end and
layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the CLI and
the traced-run program (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench; later runs rebuild incrementally.

--trace 0 times the workload's CLI commands, one fresh process per command,
repeated until S seconds have passed, checks every output, and reports the
end-to-end metrics as medians over the repetitions.

--trace 1 is the traced run. For every workload (not only --workload, so
that each per-layer metric is measured on the workload that exercises its
layer) it runs one untraced repetition and one traced pass of
perfbench_trace, which replays the same commands through the library's
public functions with spans around each layer call, in rounds until S
seconds have passed. It checks that each traced pass printed the same
deterministic output as the CLI and that its top-level spans cover at
least 95% of its wall time, and reports the per-layer metrics as medians
over the passes.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every output check passed. See perfbench/README.md for the workloads, the
metrics and what each one should move.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
RESMODEL = os.path.join(BUILD, "repo", "tools", "resmodel")
TRACER = os.path.join(BUILD, "perfbench_trace")

THREADS = 4
COMMAND_TIMEOUT_S = 120
MIN_REPS = 3
MODEL_BUILDS = 3
MODEL_TRACE_HOSTS = "3000"
MIN_COVERAGE = 0.95
DATE = "2011-04-01"
FAULTS = ["--availability",
          "--fault-mix=crash:0.06,straggler:0.04,corrupt:0.04"]
DURABLE = ["--clients=200000", "--days=14", "--shards=8",
           f"--threads={THREADS}", "--replication=2/3", "--deadline-days=5"]
SWEEP_POLICIES = ["rr", "sw", "pull", "ect"]
CHURN_POLICIES = ["checkpoint", "abandon"]


class BenchError(Exception):
    """Set-up or environment failure: no result is printed."""


# ------------------------------------------------------------- workloads

def serve_1m(seed, work):
    return [["serve", "--clients=1000000", "--days=7", "--shards=8",
             f"--threads={THREADS}", *FAULTS, f"--seed={seed}"]]


def serve_durable(seed, work):
    ckpt = os.path.join(work, "engine.ckpt")
    return [["serve", *DURABLE, *FAULTS, f"--seed={seed}",
             f"--checkpoint={ckpt}", "--checkpoint-every-days=2",
             "--stop-after-day=7"],
            ["serve", f"--resume={ckpt}", f"--threads={THREADS}"]]


def sweep_grid(seed, work):
    return [["sweep", os.path.join(work, "model.txt"), DATE, "30000", "30000",
             "--interrupt=" + ",".join(CHURN_POLICIES),
             f"--threads={THREADS}", f"--seed={seed}"]]


def generate_pack(seed, work):
    snap = os.path.join(work, "population.snap")
    return [["pack", "--generate", os.path.join(work, "model.txt"), DATE,
             "4000000", snap, "--shard=262144", f"--seed={seed}"],
            ["unpack", snap, "--digest-only"],
            ["verify", snap]]


# name -> (commands, needs a model file, files the commands leave behind)
WORKLOADS = {
    "serve-1m": (serve_1m, False, []),
    "serve-durable": (serve_durable, False, ["engine.ckpt"]),
    "sweep-grid": (sweep_grid, True, []),
    "generate-pack": (generate_pack, True, ["population.snap"]),
}

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s")]

# Per-layer metrics of the traced run: (name, unit, home workload). Each
# comes from the workload that exercises its layer (perfbench/README.md
# says which end-to-end metric it should move), so every traced run
# traces all four workloads and every value is measured, never a
# placeholder for an idle layer.
PER_LAYER = [
    ("core.generate_s", "s", "generate-pack"),
    ("core.hosts_per_s", "1/s", "generate-pack"),
    ("synth.finish_host_s", "s", "serve-1m"),
    ("serve.fork_streams_s", "s", "serve-1m"),
    ("engine.shard_build_s", "s", "serve-1m"),
    ("engine.bytes_per_client", "B", "serve-1m"),
    ("engine.drain_s", "s", "serve-1m"),
    ("engine.drain_busy_s", "s", "serve-1m"),
    ("engine.contacts", "count", "serve-1m"),
    ("engine.contacts_per_busy_s", "1/s", "serve-1m"),
    ("engine.parallel_eff", "ratio", "serve-1m"),
    ("engine.shard_imbalance", "ratio", "serve-1m"),
    ("serve.fold_s", "s", "serve-1m"),
    ("serve.teardown_s", "s", "serve-1m"),
    ("engine.drain_call_ms.p50", "ms", "serve-durable"),
    ("engine.drain_call_ms.p90", "ms", "serve-durable"),
    ("engine.drain_call_samples", "count", "serve-durable"),
    ("engine.barrier_wait_s", "s", "serve-durable"),
    ("engine.day_records", "count", "serve-durable"),
    ("engine.quorum_apply_s", "s", "serve-durable"),
    ("engine.checkpoint_epochs", "count", "serve-durable"),
    ("engine.checkpoint_bytes", "B", "serve-durable"),
    ("engine.state_bytes_per_client", "B", "serve-durable"),
    ("engine.checkpoint_write_s", "s", "serve-durable"),
    ("engine.checkpoint_encode_crc_s", "s", "serve-durable"),
    ("store.append_s.checkpoint", "s", "serve-durable"),
    ("store.fsync_s.checkpoint", "s", "serve-durable"),
    ("store.rename_s.checkpoint", "s", "serve-durable"),
    ("store.write_mb_per_s.checkpoint", "MB/s", "serve-durable"),
    ("engine.resume_load_s", "s", "serve-durable"),
    ("engine.resume_drain_s", "s", "serve-durable"),
    ("store.append_s.pack", "s", "generate-pack"),
    ("store.fsync_s.pack", "s", "generate-pack"),
    ("store.rename_s.pack", "s", "generate-pack"),
    ("store.write_mb_per_s.pack", "MB/s", "generate-pack"),
    ("store.encode_crc_s.pack", "s", "generate-pack"),
    ("store.read_s", "s", "generate-pack"),
    ("store.read_mb_per_s", "MB/s", "generate-pack"),
    ("store.verify_s", "s", "generate-pack"),
    ("sim.synthesize_s", "s", "sweep-grid"),
    *[(f"sim.policy_s.{p}", "s", "sweep-grid") for p in SWEEP_POLICIES],
    *[(f"churn.policy_s.{p}", "s", "sweep-grid") for p in CHURN_POLICIES],
    ("sim.grid_parallel_eff", "ratio", "sweep-grid"),
    ("sim.slowest_cell_share", "ratio", "sweep-grid"),
    ("churn.interruptions", "count", "sweep-grid"),
    ("churn.wasted_cpu_days", "days", "sweep-grid"),
    ("sim.tasks", "count", "sweep-grid"),
    *[(f"trace.{m}.{w}", u, w) for w in WORKLOADS
      for m, u in (("overhead_ratio", "ratio"), ("unattributed_s", "s"),
                   ("coverage", "ratio"))],
]


# ------------------------------------------------------------- processes

def run_process(argv, cwd, log_prefix):
    """Runs argv to completion; returns (exit code, stdout, stderr, wall
    seconds, user+system CPU seconds, max RSS in MB)."""
    out_path, err_path = log_prefix + ".out", log_prefix + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return (proc.returncode, stdout, stderr, wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def deterministic(stdout):
    """A command's output without its wall-clock `timing:` line."""
    return [l for l in stdout.splitlines() if not l.startswith("timing:")]


def drain_seconds(stdout):
    m = re.search(r"^timing: ([0-9.]+) s,", stdout, re.M)
    return float(m.group(1)) if m else None


# ---------------------------------------------------------------- checks

def check_serve_block(lines):
    """unaccounted=0 and balanced unit and quorum books."""
    problems = []
    text = "\n".join(lines)
    units = re.search(r"^units: granted=(\d+) reported=(\d+) invalid=(\d+) "
                      r"lost=(\d+) expired=(\d+) in_flight=(\d+) "
                      r"unaccounted=(\d+)$", text, re.M)
    if not units:
        return ["serve printed no units line"]
    g, rep, inv, lost, exp, fl, unacc = map(int, units.groups())
    if unacc != 0 or g != rep + inv + lost + exp + fl:
        problems.append(f"unit books do not balance: {units.group(0)}")
    tasks = re.search(r"^quorum tasks: issued=(\d+) validated=(\d+) "
                      r"invalid=(\d+) missed=(\d+) pending=(\d+)$", text, re.M)
    if tasks:
        issued, *rest = map(int, tasks.groups())
        if issued != sum(rest):
            problems.append(f"quorum tasks do not balance: {tasks.group(0)}")
    replicas = re.search(r"^quorum replicas: issued=(\d+) correct=(\d+) "
                         r"corrupt=(\d+) crashed=(\d+) missed=(\d+) "
                         r"duplicate=(\d+) in_flight=(\d+)$", text, re.M)
    if replicas:
        issued, *rest = map(int, replicas.groups())
        if issued != sum(rest):
            problems.append(
                f"quorum replicas do not balance: {replicas.group(0)}")
    return problems


def digests(lines):
    out, on = {}, False
    for line in lines:
        if line == "column digests:":
            on = True
        elif on and line.startswith("  "):
            name, value = line.split()
            out[name] = value
        else:
            on = False
    return out


def check_rep(workload, blocks, reference):
    """Workload-specific output checks of one repetition's deterministic
    blocks (one list of lines per command)."""
    if workload == "serve-1m":
        return check_serve_block(blocks[0])
    if workload == "serve-durable":
        problems = []
        if blocks[0] != ["halted: after day 7, 4 checkpoint(s) written"]:
            problems.append(f"unexpected halted run output: {blocks[0]}")
        problems += check_serve_block(blocks[1])
        if blocks[1] != reference:
            problems.append("resumed run differs from the uninterrupted run")
        return problems
    if workload == "sweep-grid":
        cells = [l for l in blocks[0] if l.startswith("| Correlated")
                 or l.startswith("| Independent")]
        values = [c.strip() for l in cells for c in l.strip("|").split("|")[1:]]
        n = len(SWEEP_POLICIES) + len(CHURN_POLICIES)
        if len(cells) != 2 or len(values) != 2 * n:
            return [f"sweep grid has {len(values)} cells, expected {2 * n}"]
        if not all(re.fullmatch(r"[0-9]+\.[0-9]", v) for v in values):
            return [f"sweep grid has a non-numeric makespan: {values}"]
        if not any(l.startswith("churn cells: ") for l in blocks[0]):
            return ["sweep printed no churn summary"]
        return []
    if workload == "generate-pack":
        problems = []
        packed, unpacked = digests(blocks[0]), digests(blocks[1])
        if len(packed) != 6 or packed != unpacked:
            problems.append(f"pack digests {packed} != unpack {unpacked}")
        if "rows: 4000000" not in blocks[1]:
            problems.append("unpack did not report 4000000 rows")
        if blocks[2][-1:] != ["verify: OK"]:
            problems.append("verify did not report OK")
        return problems
    raise BenchError(f"no checks for workload {workload}")


def run_rep(workload, seed, work, reference, tag):
    """One untraced repetition: every command of the workload, in order."""
    commands, _, leftovers = WORKLOADS[workload]
    blocks, problems = [], []
    cpu = rss = 0.0
    setup = None
    ticks = cpu_ticks()
    start = time.perf_counter()
    for i, command in enumerate(commands(seed, work)):
        rc, out, err, cmd_wall, cmd_cpu, cmd_rss = run_process(
            [RESMODEL, *command], work, os.path.join(work, f"{tag}-{i}"))
        cpu += cmd_cpu
        rss = max(rss, cmd_rss)
        if rc != 0:
            problems.append(f"`resmodel {command[0]}` exited {rc}: "
                            f"{err.strip()[-300:]}")
        blocks.append(deterministic(out))
        drain = drain_seconds(out)
        if drain is not None:
            # serve's own set-up: everything but the drain it times.
            setup = cmd_wall - drain
    wall = time.perf_counter() - start
    # Share of CPU time the hypervisor gave to other guests during the
    # repetition: context for run-to-run drift, not a metric.
    steal = None
    if ticks and (after := cpu_ticks()) and after[1] > ticks[1]:
        steal = (after[0] - ticks[0]) / (after[1] - ticks[1])
    for name in leftovers:
        remove(os.path.join(work, name))
    if not problems:
        problems = check_rep(workload, blocks, reference)
    return {"workload": workload, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": rss, "serve_setup_s": setup, "steal_share": steal,
            "blocks": blocks, "problems": problems}


def remove(path):
    if os.path.isdir(path):
        shutil.rmtree(path, ignore_errors=True)
    elif os.path.exists(path):
        os.remove(path)


# --------------------------------------------------------------- set-up

def build():
    for needed in ("CMakeLists.txt", "src", "tools", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} is missing: run.py must sit in "
                             "perfbench/ of a resmodel source checkout")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(THREADS),
                  "--target", "resmodel_tool", "perfbench_trace"])
    with open(log, "ab") as f:
        for step in steps:
            if subprocess.run(step, stdout=f, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log, encoding="utf-8", errors="replace") as r:
                    tail = r.read()[-2000:]
                raise BenchError(f"build failed ({' '.join(step)}):\n{tail}")
    build_type = None
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        raise BenchError(f"{BUILD} is configured as '{build_type}', not "
                         "Release; refusing to record (remove it and rerun)")


def build_model(seed, work):
    """Builds the model file with `resmodel synth` + `resmodel fit`
    MODEL_BUILDS times; returns (median seconds, sha256)."""
    times, hashes = [], set()
    for k in range(MODEL_BUILDS):
        trace_csv = os.path.join(work, f"trace-{k}.csv")
        model = os.path.join(work, f"model-{k}.txt")
        start = time.perf_counter()
        for argv in (["synth", trace_csv, MODEL_TRACE_HOSTS, str(seed)],
                     ["fit", trace_csv, model]):
            rc, _, err, *_ = run_process([RESMODEL, *argv], work,
                                         os.path.join(work, f"model-{k}"))
            if rc != 0:
                raise BenchError(f"`resmodel {argv[0]}` failed: {err}")
        times.append(time.perf_counter() - start)
        with open(model, "rb") as f:
            hashes.add(hashlib.sha256(f.read()).hexdigest())
        os.replace(model, os.path.join(work, "model.txt"))
        remove(trace_csv)
    if len(hashes) != 1:
        raise BenchError("the model file differs between identical builds")
    return statistics.median(times), hashes.pop()


def context(workload, seed, model_hash):
    ctx = {"workload": workload, "seed": seed, "threads": THREADS,
           "nproc": os.cpu_count(),
           "cpus_available": len(os.sched_getaffinity(0)),
           "build_type": "Release", "model_sha256": model_hash}
    ctx["git_sha"] = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            ctx["git_sha"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    ctx["source_sha256"] = digest.hexdigest()
    out = subprocess.run([RESMODEL, "backends"], capture_output=True,
                         text=True).stdout
    m = re.search(r"^cpu features: (\S*)", out, re.M)
    ctx["cpu_features"] = m.group(1) if m else None
    m = re.search(r"^\| auto\s*\|\s*(.*?)\s*\|$", out, re.M)
    ctx["backend_arm"] = m.group(1) if m else None
    ctx["llc"] = None
    cache = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache):
        best = -1
        for index in os.listdir(cache):
            try:
                with open(os.path.join(cache, index, "level")) as f:
                    level = int(f.read())
                with open(os.path.join(cache, index, "size")) as f:
                    size = f.read().strip()
            except (OSError, ValueError):
                continue
            if level > best:
                best, ctx["llc"] = level, f"L{level} {size}"
    return ctx


# ------------------------------------------------------------ traced run

def layer_metrics(workload, doc, traced_wall, untraced_wall):
    """The per-layer metrics whose home is `workload`, from one traced
    pass's spans and counters."""
    spans, counters = doc["spans"], doc["counters"]

    def c(name):
        return float(counters.get(name, 0.0))

    def dur(name, detail=None):
        return sum(s["end_s"] - s["start_s"] for s in spans
                   if s["name"] == name
                   and (detail is None or s["detail"] == detail))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    fs_s = (c("store.append_s") + c("store.fsync_s") + c("store.close_s")
            + c("store.rename_s"))
    m = {}
    if workload == "serve-1m":
        busy = c("engine.drain_busy_s")
        shard_busy = [v for k, v in counters.items()
                      if k.startswith("engine.shard_busy_s.")]
        m.update({
            "synth.finish_host_s": dur("synth.finish_host"),
            "serve.fork_streams_s": dur("serve.fork_streams"),
            "engine.shard_build_s": dur("engine.shard_build"),
            "engine.bytes_per_client": ratio(c("engine.rss_growth_bytes"),
                                             c("engine.clients_built")),
            "engine.drain_s": dur("engine.drain"),
            "engine.drain_busy_s": busy,
            "engine.contacts": c("engine.contacts"),
            "engine.contacts_per_busy_s": ratio(c("engine.contacts"), busy),
            "engine.parallel_eff": ratio(busy,
                                         dur("engine.drain") * THREADS),
            "engine.shard_imbalance": ratio(max(shard_busy),
                                            statistics.mean(shard_busy)),
            "serve.fold_s": dur("engine.fold"),
            "serve.teardown_s": dur("serve.teardown"),
        })
    elif workload == "serve-durable":
        calls = sorted(1000.0 * (s["end_s"] - s["start_s"]) for s in spans
                       if s["name"] == "engine.drain_call")
        write_s = dur("engine.checkpoint_write")
        m.update({
            "engine.drain_call_ms.p50": statistics.median(calls),
            "engine.drain_call_ms.p90": statistics.quantiles(
                calls, n=10, method="inclusive")[8],
            "engine.drain_call_samples": float(len(calls)),
            "engine.barrier_wait_s": c("engine.barrier_wait_s"),
            "engine.day_records": c("engine.day_records"),
            "engine.quorum_apply_s": dur("engine.quorum_apply"),
            "engine.checkpoint_epochs": c("engine.checkpoint_epochs"),
            "engine.checkpoint_bytes": c("engine.checkpoint_bytes"),
            "engine.state_bytes_per_client": ratio(
                c("engine.checkpoint_last_bytes"), c("engine.clients")),
            "engine.checkpoint_write_s": write_s,
            "engine.checkpoint_encode_crc_s": write_s - fs_s,
            "store.append_s.checkpoint": c("store.append_s"),
            "store.fsync_s.checkpoint": c("store.fsync_s"),
            "store.rename_s.checkpoint": c("store.rename_s"),
            "store.write_mb_per_s.checkpoint": ratio(c("store.bytes") / 1e6,
                                                     fs_s),
            "engine.resume_load_s": dur("engine.resume_load"),
            "engine.resume_drain_s": dur("engine.drain", "resume"),
        })
    elif workload == "generate-pack":
        m.update({
            "core.generate_s": dur("core.generate"),
            "core.hosts_per_s": ratio(c("core.hosts"), dur("core.generate")),
            "store.append_s.pack": c("store.append_s"),
            "store.fsync_s.pack": c("store.fsync_s"),
            "store.rename_s.pack": c("store.rename_s"),
            "store.write_mb_per_s.pack": ratio(c("store.bytes") / 1e6, fs_s),
            "store.encode_crc_s.pack": (dur("store.open")
                                        + dur("store.append_shard")
                                        + dur("store.finish") - fs_s),
            "store.read_s": dur("store.read"),
            "store.read_mb_per_s": ratio(c("store.read_bytes") / 1e6,
                                         dur("store.read")),
            "store.verify_s": dur("store.verify"),
        })
    elif workload == "sweep-grid":
        cells = [s for s in spans if s["name"] in ("sim.cell", "churn.cell")]
        cell_s = [s["end_s"] - s["start_s"] for s in cells]
        grid = dur("sim.grid")
        for prefix, keys in (("sim", SWEEP_POLICIES),
                             ("churn", CHURN_POLICIES)):
            for key in keys:
                m[f"{prefix}.policy_s.{key}"] = sum(
                    s["end_s"] - s["start_s"] for s in cells
                    if s["detail"].split("/")[0] == key)
        m.update({
            "sim.synthesize_s": dur("sim.synthesize"),
            "sim.grid_parallel_eff": ratio(sum(cell_s), grid * THREADS),
            "sim.slowest_cell_share": ratio(max(cell_s), grid),
            "churn.interruptions": c("churn.interruptions"),
            "churn.wasted_cpu_days": c("churn.wasted_cpu_days"),
            "sim.tasks": c("sim.tasks"),
        })
    top = sum(s["end_s"] - s["start_s"] for s in spans if s["parent"] == 0)
    m[f"trace.overhead_ratio.{workload}"] = ratio(traced_wall, untraced_wall)
    m[f"trace.unattributed_s.{workload}"] = traced_wall - top
    m[f"trace.coverage.{workload}"] = ratio(top, traced_wall)
    return m


def traced_pass(workload, seed, work, untraced, tag):
    """One perfbench_trace pass of `workload`, checked against the
    untraced repetition `untraced`; returns (metrics, problems, spans)."""
    commands, _, leftovers = WORKLOADS[workload]
    spans_path = os.path.join(work, f"{tag}.spans.json")
    argv = [TRACER, f"--out={spans_path}",
            f"--run-id={workload}/seed={seed}/{tag}"]
    for i, command in enumerate(commands(seed, work)):
        argv += (["--next"] if i else []) + command
    rc, out, err, wall, _, _ = run_process(argv, work,
                                           os.path.join(work, tag))
    for name in leftovers:
        remove(os.path.join(work, name))
    if rc != 0:
        return None, [f"perfbench_trace exited {rc}: {err.strip()[-300:]}"], None
    blocks = []
    for line in deterministic(out):
        if line.startswith("@@ "):
            blocks.append([])
        elif blocks:
            blocks[-1].append(line)
    problems = []
    if blocks != untraced["blocks"]:
        problems.append(f"{workload}: traced pass output differs from the "
                        "untraced run")
    with open(spans_path) as f:
        doc = json.load(f)
    metrics = layer_metrics(workload, doc, wall, untraced["wall_s"])
    coverage = metrics[f"trace.coverage.{workload}"]
    if coverage < MIN_COVERAGE:
        problems.append(f"{workload}: top-level spans cover {coverage:.3f} "
                        f"of the traced wall time (< {MIN_COVERAGE})")
    return metrics, problems, doc


# ------------------------------------------------------------------ main

def set_up(workloads, seed, work):
    """Untimed inputs: the model file (timed as set-up) and the
    uninterrupted serve-durable reference. Returns (model seconds, model
    hash, reference block)."""
    model_s = model_hash = reference = None
    if any(WORKLOADS[w][1] for w in workloads):
        model_s, model_hash = build_model(seed, work)
    if "serve-durable" in workloads:
        # The uninterrupted run the resumed half must reproduce, once per
        # seed and outside the timed repetitions.
        rc, out, err, *_ = run_process(
            [RESMODEL, "serve", *DURABLE, *FAULTS, f"--seed={seed}"], work,
            os.path.join(work, "reference"))
        if rc != 0:
            raise BenchError(f"uninterrupted reference run failed: {err}")
        reference = deterministic(out)
    return model_s, model_hash, reference


def measure_untraced(workload, seed, seconds, work):
    model_s, model_hash, reference = set_up([workload], seed, work)
    reps = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(reps) < MIN_REPS:
        rep = run_rep(workload, seed, work, reference, f"rep{len(reps)}")
        if reps and rep["blocks"] != reps[0]["blocks"]:
            rep["problems"].append("deterministic output differs from the "
                                   "first repetition")
        reps.append(rep)
    if model_s is not None:
        setups = [model_s]
    else:
        setups = [r["serve_setup_s"] for r in reps
                  if r["serve_setup_s"] is not None]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setups) if setups else 0.0,
    }
    return reps, metrics, model_hash, {}


def measure_traced(seed, seconds, work):
    """Rounds over all workloads of one untraced repetition plus one traced
    pass each, until `seconds` have passed (at least one round)."""
    model_s, model_hash, reference = set_up(list(WORKLOADS), seed, work)
    reps, passes, spans = [], {w: [] for w in WORKLOADS}, {}
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        for workload in WORKLOADS:
            tag = f"{workload}-{len(passes[workload])}"
            rep = run_rep(workload, seed, work, reference, tag)
            if not rep["problems"]:
                layer, problems, spans[workload] = traced_pass(
                    workload, seed, work, rep, f"{tag}-trace")
                rep["problems"] += problems
                if layer:
                    passes[workload].append(layer)
            reps.append(rep)
    metrics = {}
    for name, _, home in PER_LAYER:
        values = [p[name] for p in passes[home]]
        metrics[name] = statistics.median(values) if values else 0.0
    return reps, metrics, model_hash, spans


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    try:
        build()
        remove(work)
        os.makedirs(work)
        if args.trace:
            reps, metrics, model_hash, spans = measure_traced(
                args.seed, args.seconds, work)
        else:
            reps, metrics, model_hash, spans = measure_untraced(
                args.workload, args.seed, args.seconds, work)
        ctx = context(args.workload, args.seed, model_hash)
        steals = [r["steal_share"] for r in reps
                  if r["steal_share"] is not None]
        ctx["cpu_steal_share"] = statistics.median(steals) if steals else None
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        remove(work)

    units = ({name: unit for name, unit, _ in PER_LAYER} if args.trace
             else dict(END_TO_END))
    attempted = len(reps)
    failed = sum(1 for r in reps if r["problems"])
    print("context: " + json.dumps(ctx, sort_keys=True))
    for rep in reps:
        for problem in rep["problems"]:
            print(f"FAILED CHECK: {problem}")
    print(f"{args.workload} (trace {args.trace}): {attempted} repetition(s)")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6g} {units[name]}")
    print(f"  {'failed_ratio':36s} {failed / attempted:16.6g} ratio")

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({"context": ctx, "metrics": metrics,
                   "attempted": attempted, "failed": failed,
                   "problems": [p for r in reps for p in r["problems"]],
                   "samples": [{k: r[k] for k in (
                       "workload", "wall_s", "cpu_s", "peak_rss_mb",
                       "serve_setup_s", "steal_share")} for r in reps]},
                  f, indent=1, sort_keys=True)
    for workload, doc in spans.items():
        if doc:
            with open(f"{stem}.{workload}.spans.json", "w") as f:
                json.dump(doc, f)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
