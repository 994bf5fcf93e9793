"""One measured pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode MODE

MODE is `plain` (no instrumentation), `trace` (spans on), `count`
(field-operation counts on) or `setup` (stop after set-up). The worker
prints `READY` once set-up is done, then, unless MODE is `setup`, one
JSON line with the pass results. `bench/run.py` starts it and times
set-up from process start to the `READY` line.

Times are corrected for the speed of the machine, which on a shared host
drifts by half or more within seconds: a fixed reference loop runs every
INTERVAL_S on a timer signal and at the start and end of set-up and of
each instance, and each measured interval is rescaled by how long those
loops took, against REF_LOOP_S, during it. A loop of a millisecond or
more also catches the time the host takes the CPU away. Only `plain` and
`setup` passes run the probe: the spans of a `trace` pass and the work of
a `count` pass hold veryfree's work alone, timed uncorrected.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

INTERVAL_S = 0.05
# the reference loop's time on an unloaded 2.1 GHz Xeon under Python
# 3.11; it only sets the scale of the reported times
REF_LOOP_S = 0.0012


class _LogTable:
    """Log/antilog multiplication, the shape of veryfree's Zech tables."""

    def __init__(self, n=2400):
        self.n = n
        self.exp = [(i * 7 + 3) % n + 1 for i in range(n)]
        self.log = [0] + [(i * 11) % n for i in range(n)]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.n]


_TABLE = _LogTable()
_ROW = [(i * 37) % 2400 for i in range(48)]
_PRIMES = list(range(3, 67))


def _reference_loop():
    """Method calls, table lookups, list and dict building and integer
    arithmetic: under contention it slows about as veryfree's kernels do."""
    t, row, acc = _TABLE, _ROW, 0
    for k in range(72):
        out = [t.mul(x, row[(j + k) % 48]) for j, x in enumerate(row)]
        acc += sum(out) % 97 + len({x: j for j, x in enumerate(out)})
    primes = _PRIMES
    for i in range(4800):
        acc = (acc * primes[i & 63] + i) % 65521
    return acc


class SpeedProbe:
    """Samples the machine's speed by timing the reference loop."""

    def __init__(self):
        self.samples = []        # (start, duration) of each reference loop

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        _reference_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def busy(self, start, end):
        """Seconds the probe itself ran between start and end."""
        return sum(d for t, d in self.samples if start <= t < end)

    def corrected(self, start, end):
        """Seconds between start and end, the probe's own time left out,
        at the speed that makes the reference loop take REF_LOOP_S."""
        inside = [d for t, d in self.samples if start <= t < end]
        probe_s = sum(inside)
        return (end - start - probe_s) * REF_LOOP_S * len(inside) / probe_s


def cold_state(instances):
    """Cache contents that a previous pass would have left behind."""
    from veryfree import fields, sheafp1
    specs = list(fields._FIELD_CACHE.values())
    return {
        "pid": os.getpid(),
        "cohomology_cache": len(sheafp1._COHOMOLOGY_CACHE),
        "embed_cache": sum(len(f._embed_cache) for f in specs),
        "zech_tables": sum(f._exp is not None for f in specs),
        "smooth_cached": sum(x._smooth is not None
                             for inst in instances for x in inst.surfaces),
    }


def main():
    t_main = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "count", "setup"),
                    required=True)
    args = ap.parse_args()
    probe = None
    if args.mode in ("plain", "setup"):   # spans and counts time only veryfree
        probe = SpeedProbe()
        probe.sample()
        probe.start()

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import veryfree
    import veryfree.cli  # noqa: F401
    if not os.path.abspath(veryfree.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"veryfree imported from {veryfree.__file__}, "
                         f"not from {SRC}")
    from tracing import OpCounter, Tracer
    from workloads import WORKLOADS

    tracer = counter = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()          # before set-up: make_field, parse_poly
    instances = WORKLOADS[args.workload](args.seed)
    state = cold_state(instances)
    if probe is not None:
        probe.sample()
    t_ready = time.perf_counter()
    print("READY", flush=True)
    # interpreter start-up, before main, runs at the speed set-up saw
    setup_scale = (probe.corrected(t_main, t_ready) / (t_ready - t_main)
                   if probe else 1.0)
    if args.mode == "setup":
        probe.stop()
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return

    if args.mode == "count":
        counter = OpCounter()
        counter.install()
    results = []
    for inst in instances:
        if tracer is not None:
            tracer.instance = inst.name
        t0 = time.perf_counter()
        if probe is not None:
            probe.sample()
        try:
            value, error = inst.run(), None
        except Exception:
            value, error = None, traceback.format_exc(limit=4)
        if probe is not None:
            probe.sample()
        results.append((inst, value, error, t0, time.perf_counter()))
    if probe is not None:
        probe.stop()
    t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_state = cold_state(instances)
    for instrument in (tracer, counter):
        if instrument is not None:
            instrument.uninstall()   # the oracle's own calls stay unmeasured

    def raw(start, end):
        return end - start - (probe.busy(start, end) if probe else 0.0)

    out = []
    for inst, value, error, t0, t1 in results:
        answer, errors = None, [error] if error else []
        if error is None:
            try:
                answer, errors = inst.check(value)
            except Exception:
                errors = [traceback.format_exc(limit=4)]
        out.append({"name": inst.name, "raw_s": raw(t0, t1),
                    "s": probe.corrected(t0, t1) if probe else t1 - t0,
                    "answer": answer, "errors": errors})
    report = {"wall_s": sum(i["s"] for i in out),
              "raw_wall_s": sum(i["raw_s"] for i in out),
              "main_raw_s": raw(t_main, t_end),
              "setup_scale": setup_scale, "peak_rss_mb": peak_rss_mb,
              "instances": out, "cold": state, "end_state": end_state}
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["spans"] = tracer.span_records()
    if counter is not None:
        report["layers"] = counter.metrics()
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
