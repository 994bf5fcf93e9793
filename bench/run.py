"""veryfree benchmark: time to a certified answer, end to end and by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see `workloads.py`):

  pipeline            two-line-point walk and nodal-section curve on the
                      five pinned F7 surfaces and Clebsch, seeded PGL4
  census              F16 Fermat trichotomy and line/Eckardt censuses on
                      five surfaces, seeded PGL4
  splitting_backends  pullback and splitting type of a seeded nodal normal
                      form over Q, F7 and F_{7^6} (vector fallback)
  verify_paper        `veryfree verify-paper --json --seed S`

One caller drives a closed loop: each pass runs the workload's instances
one after another in a fresh interpreter (`worker.py`), because users pay
cold caches on every CLI call and an in-process repeat would measure
cache hits. Passes never overlap. With `--trace 0` the benchmark runs
passes until the next one would end after S seconds (at least one), adds
set-up-only processes for more set-up samples, and reports medians over
passes:

  wall_s          s   time of one pass, set-up excluded
  instance_max_s  s   time of the slowest instance of a pass
  setup_s         s   process start until the first instance is ready
  peak_rss_mb     MB  peak resident memory of the pass process

Times are wall-clock times corrected for the machine's speed, which on a
shared host drifts by half or more within seconds: the worker times a
fixed reference loop every 50 ms and around each instance, and rescales
each interval to the speed at which that loop takes `worker.REF_LOOP_S`
(see `worker.py`). The uncorrected medians are printed as `raw medians`.

Failed instances (an exception or an answer the oracle rejects) are
counted in `failed` out of `attempted`, and their ratio is printed as
`error_rate`; it is not a metric, because it is zero whenever the
benchmark passes. With `--trace 1` it runs one untraced pass, one pass
with spans on every traced veryfree function and one pass counting
field operations, checks that all three give the same answers, and
reports the per-layer metrics plus `trace.overhead` (traced wall /
untraced wall, both uncorrected). The traced pass runs no speed probe,
so span times are uncorrected wall times of veryfree's work alone.
Spans are written to
`.bench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("pipeline", "census", "splitting_backends", "verify_paper")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0      # every worker has ended by then


def load_spec():
    """Metric names and units, as `BENCHMARK.json` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchError(RuntimeError):
    pass


class Pass:
    def __init__(self, raw_setup_s, elapsed_s, report):
        self.raw_setup_s = raw_setup_s  # process start to READY
        self.setup_s = raw_setup_s * report["setup_scale"]
        self.elapsed_s = elapsed_s      # process start to exit
        self.report = report

    @property
    def instances(self):
        return self.report.get("instances", [])

    @property
    def answers(self):
        return [(i["name"], i["answer"]) for i in self.instances]


def run_pass(workload, seed, mode, deadline):
    """One worker process; returns its set-up time and its report."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.time()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    elapsed = time.perf_counter() - t0
    if time.time() >= deadline:
        raise BenchError(f"{mode} pass of {workload} passed the time limit")
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"{mode} worker for {workload} exited with "
                         f"{proc.returncode}")
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker for {workload} printed no report")
    report = json.loads(lines[-1])
    return Pass(setup_s, elapsed, report)


def cold_problems(passes):
    """Each pass must start in its own interpreter with empty caches."""
    problems = []
    pids = [p.report["cold"]["pid"] for p in passes]
    if len(set(pids)) != len(pids):
        problems.append(f"passes shared a process: {pids}")
    for p in passes:
        warm = {k: v for k, v in p.report["cold"].items()
                if k != "pid" and v}
        if warm:
            problems.append(f"pass started with warm caches: {warm}")
    return problems


def metadata():
    sha = "unknown"
    try:
        # git must not search above the checkout for a repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": nproc, "cpu_model": cpu,
            "loadavg_at_start": list(os.getloadavg())}


def measure(workload, seed, seconds, deadline):
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed, "plain", deadline))
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(p.elapsed_s for p in passes)
        if elapsed + typical > seconds:
            break
    # set-up alone, until there are SETUP_SAMPLES times or set-up-only
    # processes have used a quarter of the run's seconds
    setups = list(passes)
    t_setup = time.perf_counter()
    while len(setups) < SETUP_SAMPLES and \
            time.perf_counter() - t_setup < seconds / 4:
        setups.append(run_pass(workload, seed, "setup", deadline))
    print(f"raw medians: wall_s = "
          f"{statistics.median(p.report['raw_wall_s'] for p in passes)} s, "
          f"setup_s = {statistics.median(p.raw_setup_s for p in setups)} s")
    values = {
        "wall_s": statistics.median(p.report["wall_s"] for p in passes),
        "instance_max_s": statistics.median(
            max(i["s"] for i in p.instances) for p in passes),
        "setup_s": statistics.median(p.setup_s for p in setups),
        "peak_rss_mb": statistics.median(p.report["peak_rss_mb"]
                                         for p in passes),
    }
    return passes, values, []


def measure_traced(workload, seed, deadline):
    plain = run_pass(workload, seed, "plain", deadline)
    traced = run_pass(workload, seed, "trace", deadline)
    counted = run_pass(workload, seed, "count", deadline)
    passes = [plain, traced, counted]
    problems = []
    for other in (traced, counted):
        if other.answers != plain.answers:
            problems.append("instrumented pass changed an answer")
    layers = dict(traced.report["layers"])
    layers.update(counted.report["layers"])
    layers["cli.json_bytes"] = sum(
        i["answer"].get("bytes", 0) for i in plain.instances
        if isinstance(i["answer"], dict))
    layers["trace.overhead"] = (traced.report["raw_wall_s"]
                                / plain.report["raw_wall_s"])
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json"),
              "w") as fh:
        json.dump(traced.report["spans"], fh)
    return passes, layers, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "veryfree",
                                       "__init__.py")):
        print(f"error: no veryfree source under {ROOT}/src",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = load_spec()
    deadline = time.time() + RUN_LIMIT_S
    meta = metadata()
    print("meta " + json.dumps(meta, sort_keys=True))
    try:
        if args.trace:
            passes, values, problems = measure_traced(args.workload,
                                                      args.seed, deadline)
        else:
            passes, values, problems = measure(args.workload, args.seed,
                                               args.seconds, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    problems += cold_problems(passes)
    attempted = sum(len(p.instances) for p in passes)
    failed = 0
    for p in passes:
        for inst in p.instances:
            if inst["errors"]:
                failed += 1
                problems.append(f"{inst['name']}: "
                                + "; ".join(inst["errors"]))
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"passes = {len(passes)}")
    print(f"error_rate = {failed / attempted if attempted else 0} ratio "
          f"({failed}/{attempted})")
    units = per_layer if args.trace else end_to_end
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
