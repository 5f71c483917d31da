"""Time the inverse sweep and the round trip on the North-star grid at two checkouts.

    python3 scripts/bench_sweep.py --before ../parent --after . -o BENCH_9.json

Every cell n in {1,2,3}, N in {10,20,40,80,160} takes seeds 0-4, and each
instance comes from perfbench's builders:

* ``orthonormalize(mu, N)`` on the GUE step measure of ``measure_instance``
  (T = I), the sweep that ``specband reconstruct`` runs;
* ``reconstruct.roundtrip(spec, I, N)`` on the ``generate_random`` spec of
  ``spec_instance`` with T = I, and ``orthonormalize`` on that spec's step
  measure, the round trip's sweep stage.

Each checkout runs in its own single-threaded process, importing its own
``src/``; the passes alternate between the checkouts, and every pass times
each instance ``--repeats`` times.  The output holds, per cell and
checkout, the median times in ms (wall clock, unscaled; the median of
perfbench's speed probe is recorded per checkout), the emitted counts and
the round trip's eigenvalue errors per seed ("inf" where the recovered size
is wrong, null where it raised), the stages that raised, and the largest
orthogonality loss max |W W* - I| of the emitted rows; per cell, whether the
inputs, q heights, skip logs and emitted counts agree between checkouts
(``decisions_agree``), and whether every sweep's sha256 of its ``weights``
and ``t_tilde`` bytes does too (``outputs_identical``).
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
GRID = [(n, N) for n in (1, 2, 3) for N in (10, 20, 40, 80, 160)]
SEEDS = range(5)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _timed(fn, *args):
    start = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failure is recorded, not raised
        out = exc
    return 1e3 * (time.perf_counter() - start), out


def _sweep_record(res):
    if isinstance(res, Exception):
        return {"failure": type(res).__name__}
    w = res.weights
    return {
        "emitted": len(w),
        "q_heights": list(res.q_heights),
        "skip_log": list(res.skip_log),
        "loss": float(np.max(np.abs(w @ w.conj().T - np.eye(len(w))))),
        "sha256": hashlib.sha256(w.tobytes() + res.t_tilde.t.tobytes()).hexdigest(),
    }


def worker(repeats):
    """One pass over the grid with the specband on sys.path; JSON on stdout."""
    import measure
    import workloads
    from specband import BoundaryMatrix, eigen_decompose, orthonormalize, step_measure, truncate
    from specband import reconstruct
    from specband import serialize as ser

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, N in GRID:
            eye = BoundaryMatrix.identity(n)
            for seed in SEEDS:
                gue = workloads.measure_instance(seed, n, N, 0, tmp)
                mu = ser.measure_from_dict(ser.load(gue.path))
                inst = workloads.spec_instance(seed, n, N, 0)
                try:
                    sigma = step_measure(eigen_decompose(truncate(inst.spec, N)), eye)
                except Exception:  # noqa: BLE001 - the round trip records the failure
                    sigma = None
                rec = {"n": n, "N": N, "seed": seed,
                       "digest": (gue.digest + inst.digest).hex(),
                       "gue_ms": [], "stage_ms": [], "roundtrip_ms": []}
                for _ in range(repeats):
                    ms, res = _timed(orthonormalize, mu, N)
                    rec["gue_ms"].append(ms)
                    rec["gue"] = _sweep_record(res)
                    if sigma is not None:
                        ms, res = _timed(orthonormalize, sigma, N)
                        rec["stage_ms"].append(ms)
                        rec["stage"] = _sweep_record(res)
                    ms, rep = _timed(reconstruct.roundtrip, inst.spec, eye, N)
                    rec["roundtrip_ms"].append(ms)
                    rec["roundtrip"] = (
                        {"failure": getattr(rep, "stage", type(rep).__name__)}
                        if isinstance(rep, Exception)
                        else {"eigenvalue_error": rep.eigenvalue_error}
                    )
                records.append(rec)
    probe_ms = statistics.median(1e3 * measure.probe() for _ in range(50))
    json.dump({"probe_ms": probe_ms, "records": records}, sys.stdout)


def run_side(checkout, repeats):
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.abspath(checkout), "src"), PERFBENCH])
    out = subprocess.run([sys.executable, __file__, "--worker", "--repeats", str(repeats)],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def _median(values):
    return round(statistics.median(values), 3) if values else None


def _finite(value):
    """The value, or the string "inf" for an infinite one (JSON has no inf)."""
    return "inf" if value == float("inf") else value


def _decisions(got):
    return tuple(got.get(k) for k in ("q_heights", "skip_log", "emitted", "failure"))


def summarize(passes):
    """Per cell and checkout, from the passes of each checkout."""
    cells = []
    for n, N in GRID:
        cell = {"n": n, "N": N, "seeds": len(SEEDS)}
        last = {}
        for side, runs in passes.items():
            recs = [r for run in runs for r in run["records"] if (r["n"], r["N"]) == (n, N)]
            final = [r for r in runs[-1]["records"] if (r["n"], r["N"]) == (n, N)]
            last[side] = final
            gue = [r["gue"] for r in final]
            stage = [r["stage"] for r in final if "stage" in r]
            trips = [r["roundtrip"] for r in final]
            cell[side] = {
                "orthonormalize_gue_ms": _median([t for r in recs for t in r["gue_ms"]]),
                "orthonormalize_roundtrip_ms": _median([t for r in recs for t in r["stage_ms"]]),
                "roundtrip_ms": _median([t for r in recs for t in r["roundtrip_ms"]]),
                "emitted_gue": [g.get("emitted") for g in gue],
                "emitted_roundtrip": [s.get("emitted") for s in stage],
                "orthogonality_loss_max": max((s["loss"] for s in gue + stage if "loss" in s),
                                              default=None),
                "roundtrip_eigenvalue_error": [_finite(t.get("eigenvalue_error")) for t in trips],
                "roundtrip_failures": sorted(t["failure"] for t in trips if "failure" in t),
            }
        before, after = last["before"], last["after"]
        cell["inputs_agree"] = all(a["digest"] == b["digest"] for a, b in zip(before, after))
        pairs = [(a.get(part, {}), b.get(part, {}))
                 for a, b in zip(before, after) for part in ("gue", "stage")]
        cell["decisions_agree"] = all(_decisions(a) == _decisions(b) for a, b in pairs)
        cell["outputs_identical"] = all(
            _decisions(a) == _decisions(b) and a.get("sha256") == b.get("sha256")
            for a, b in pairs
        )
        cells.append(cell)
    return cells


def _cpu_model():
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.machine()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0], allow_abbrev=False)
    ap.add_argument("--before", help="checkout of the parent commit")
    ap.add_argument("--after", default=ROOT, help="checkout of the change")
    ap.add_argument("--passes", type=int, default=3, help="alternating passes per checkout")
    ap.add_argument("--repeats", type=int, default=3, help="timings per instance and pass")
    ap.add_argument("-o", "--output", default=None)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker(args.repeats)
    if args.before is None:
        ap.error("--before is required")
    passes = {"before": [], "after": []}
    for i in range(args.passes):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            passes[side].append(run_side(getattr(args, side), args.repeats))
    doc = {
        "command": (f"python3 scripts/bench_sweep.py --before PARENT --after CHANGE "
                    f"--passes {args.passes} --repeats {args.repeats}"),
        "grid": {"n": [1, 2, 3], "N": [10, 20, 40, 80, 160], "seeds": list(SEEDS)},
        "passes": args.passes,
        "repeats": args.repeats,
        "threads": 1,
        "machine": {"cpu": _cpu_model(), "nproc": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "probe_ms": {side: [round(run["probe_ms"], 4) for run in runs]
                     for side, runs in passes.items()},
        "cells": summarize(passes),
    }
    text = json.dumps(doc, indent=1)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return None


if __name__ == "__main__":
    main()
