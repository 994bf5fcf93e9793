"""Self-tests of the benchmark itself (not of veryfree).

    python3 bench/selftest.py

Checks, in order:
  spec        BENCHMARK.json keeps to its format and names the metrics
              this harness reports
  cold        every pass runs in its own interpreter: caches a pass fills
              (cohomology, Zech tables, embeddings, smoothness) are empty
              when the next pass starts
  spans       with tracing on, each span fires on every workload predicted
              to exercise it, the quiet layers stay quiet, and traced and
              counting passes reproduce the untraced answers
  counts      two counting passes on one seed give identical field-op
              counts for every backend

All checks use workload seed SEED. A full run takes several minutes (one
traced run per workload, each under `run.RUN_LIMIT_S`, as in `run.py`).
"""
from __future__ import annotations

import json
import os
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SEED = 7

# per-layer metrics predicted to be nonzero, by workload
FIRES = {
    "pipeline": [
        "fields.ops.zech", "fields.ops.prime", "fields.embed.calls",
        "fields.find_roots.calls", "fields.make_field.s",
        "linalg.rref.calls", "linalg.kernel.calls", "linalg.rank.calls",
        "linalg.Solver.calls", "linalg.Solver.express.calls",
        "linalg.rref.cells", "linalg.self_s",
        "sheafp1.splitting_type.calls", "sheafp1.h0_twist.calls",
        "sheafp1.validate_monad.calls", "sheafp1.h0_per_splitting",
        "sheafp1.self_s",
        "poly.is_unit_ideal.calls", "poly.compose_with_curve.s",
        "poly.linear_substitute.s", "poly.parse_poly.s",
        "hypersurface.lines_on_cubic_surface.calls",
        "hypersurface.lines_on_cubic_surface.ext_degree",
        "hypersurface.is_smooth.calls", "hypersurface.plane_section.calls",
        "hypersurface.classify_plane_cubic.calls",
        "hypersurface.eckardt_points.s", "hypersurface.self_s",
        "constructions.find_nodal_section.calls",
        "constructions.find_nodal_section.work_ext",
        "constructions.walk.tangent_planes_per_section",
        "constructions.nodal_section_curve.s",
        "constructions.pullback_tangent.s", "constructions.self_s",
    ],
    "census": [
        "fields.ops.zech", "fields.ops.prime", "fields.find_roots.calls",
        "fields.embed.calls", "fields.make_field.s",
        "poly.is_unit_ideal.calls", "poly.groebner_basis.s",
        "poly.resultant_bin.calls", "poly.binary_roots.calls",
        "poly.linear_substitute.s", "poly.parse_poly.s", "poly.self_s",
        "hypersurface.lines_on_cubic_surface.calls",
        "hypersurface.is_smooth.calls",
        "hypersurface.classify_plane_cubic.calls",
        "hypersurface.plane_section.calls", "hypersurface.eckardt_points.s",
        "hypersurface.surface_points.yielded", "hypersurface.self_s",
        "constructions.fermat_char2_report.s",
    ],
    "splitting_backends": [
        "fields.ops.q", "fields.ops.prime", "fields.ops.vector",
        "fields.make_field.s",
        "linalg.rref.calls", "linalg.kernel.calls", "linalg.rank.calls",
        "linalg.Solver.calls", "linalg.Solver.express.calls",
        "linalg.self_s",
        "sheafp1.splitting_type.calls", "sheafp1.h0_twist.calls",
        "sheafp1.validate_monad.calls", "sheafp1.h0_per_splitting",
        "sheafp1.self_s", "poly.compose_with_curve.s",
        "constructions.pullback_tangent.s",
    ],
    "verify_paper": [
        "fields.ops.q", "fields.ops.prime", "fields.ops.zech",
        "fields.find_roots.calls", "fields.embed.calls",
        "linalg.rref.calls", "linalg.Solver.calls", "linalg.det.calls",
        "linalg.self_s",
        "sheafp1.splitting_type.calls", "sheafp1.h0_twist.calls",
        "sheafp1.self_s",
        "poly.is_unit_ideal.calls", "poly.groebner_basis.s",
        "poly.resultant_bin.calls", "poly.parse_poly.s", "poly.self_s",
        "hypersurface.singular_points_scan.calls",
        "hypersurface.is_smooth.calls",
        "hypersurface.lines_on_cubic_surface.calls",
        "hypersurface.classify_plane_cubic.calls",
        "constructions.find_nodal_section.calls",
        "constructions.build_very_free_curve.calls",
        "constructions.fermat_char2_report.s",
        "constructions.verify_xi_eta.s",
        "constructions.verify_cuspidal_delta.s",
        "constructions.six_point_diagonal.s", "constructions.self_s",
        "cli.main.s", "cli.run_verify_paper.s", "cli.self_s",
        "cli.json_bytes",
    ],
}

# layers predicted to do no work, or almost none, on a workload:
# metric -> largest share it may take of the traced process's wall time
# from start to the last instance's end (the window holding every span)
QUIET = {
    "census": {"sheafp1.self_s": 0.0, "linalg.Solver.s": 0.0,
               "linalg.self_s": 0.10, "cli.self_s": 0.0},
    "splitting_backends": {"hypersurface.self_s": 0.02,
                           "constructions.find_nodal_section.s": 0.0,
                           "cli.self_s": 0.0},
    "pipeline": {"cli.self_s": 0.0},
}
VECTOR_ONLY_ON = "splitting_backends"

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        problems.append(f"keys {sorted(spec)}")
    if tuple(w["name"] for w in spec["workloads"]) != run.WORKLOADS:
        problems.append("workloads differ from run.WORKLOADS")
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in spec[k]]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    problems += [f"bad name {n}" for n in names if not NAME.match(n)]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 \
                or "\n" in w["why"]:
            problems.append(f"workload entry {w['name']}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} \
                or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end entry {m['name']}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer entry {m['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower",
                                                             "higher"):
            problems.append(f"unit or direction of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or \
            setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must be in seconds with the largest bound")
    if not 1 <= spec["run_seconds"] <= 60 or \
            not isinstance(spec["run_seconds"], int):
        problems.append("run_seconds")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("file too large")
    return problems


def check_cold():
    """Two plain passes each of census (Zech tables, embeddings,
    smoothness flags) and verify_paper (cohomology cache)."""
    problems = []
    filled = {}
    deadline = time.time() + 600
    for workload in ("census", "verify_paper"):
        passes = [run.run_pass(workload, SEED, "plain", deadline)
                  for _ in range(2)]
        problems += run.cold_problems(passes)
        for key, value in passes[0].report["end_state"].items():
            if key != "pid":
                filled[key] = filled.get(key, 0) + value
    empty = [k for k, v in filled.items() if not v]
    if empty:
        problems.append(f"no pass filled {empty}; the check proves nothing")
    return problems


def check_spans():
    problems = []
    fired = {}
    for workload in run.WORKLOADS:
        t0 = time.perf_counter()
        passes, layers, mismatch = run.measure_traced(
            workload, SEED, time.time() + run.RUN_LIMIT_S)
        print(f"  {workload}: traced run {time.perf_counter() - t0:.1f} s "
              f"of {run.RUN_LIMIT_S:.0f} s", flush=True)
        problems += [f"{workload}: {p}" for p in mismatch]
        problems += [f"{workload}: {p}" for p in run.cold_problems(passes)]
        _, per_layer = run.load_spec()
        missing = set(per_layer) - set(layers)
        if missing:
            problems.append(f"{workload}: not reported {sorted(missing)}")
        for name in FIRES[workload]:
            if not layers.get(name):
                problems.append(f"{workload}: {name} did not fire")
        wall = passes[1].report["main_raw_s"]
        for name, share in QUIET.get(workload, {}).items():
            print(f"  {workload}: {name} = {layers[name] / wall:.4f} "
                  f"of {wall:.2f} s (at most {share})")
            if layers[name] > share * wall:
                problems.append(f"{workload}: {name} = {layers[name]} is "
                                f"more than {share} of {wall} s")
        if workload != VECTOR_ONLY_ON and layers["fields.ops.vector"]:
            problems.append(f"{workload}: vector fallback used")
        for name in per_layer:
            if layers.get(name):
                fired.setdefault(name, workload)
    silent = [n for n in run.load_spec()[1] if n not in fired]
    if silent:
        problems.append(f"zero on every workload: {silent}")
    return problems


def check_counts():
    problems = []
    deadline = time.time() + 600
    for workload in ("census", "splitting_backends"):
        a, b = (run.run_pass(workload, SEED, "count", deadline)
                for _ in range(2))
        if a.report["layers"] != b.report["layers"]:
            problems.append(f"{workload}: counts differ "
                            f"{a.report['layers']} vs {b.report['layers']}")
    return problems


def main():
    failures = 0
    for name, check in (("spec", check_spec), ("cold", check_cold),
                        ("spans", check_spans), ("counts", check_counts)):
        t0 = time.perf_counter()
        problems = check()
        status = "FAIL" if problems else "ok"
        print(f"{status} {name} ({time.perf_counter() - t0:.1f} s)")
        for p in problems:
            print(f"  {p}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
