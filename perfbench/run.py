"""Benchmark of specband: the round trip, the direct side and the inverse sweep.

Run every workload, each in its own single-threaded process:

    python3 perfbench/run.py --seed 1 --seconds 30            # end-to-end metrics
    python3 perfbench/run.py --seed 1 --seconds 30 --trace 1  # per-layer metrics

or one workload:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` beside this directory.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print every
metric by name with its unit.  ``failed`` counts the attempts that raised or
whose output the gate rejected; ``correct`` is false when the generated
inputs differ from the fingerprint recorded for the seed in
``fingerprints.json`` or when no attempt passed.  Details of each run
(failures by stage, the input fingerprint, thread counts, library versions
and the unscaled times) go to ``perfbench/out/``.  ``--trace 1`` measures a
fixed number of rounds once untraced and once with the tracer of
``tracing.py`` installed, and reports self times, counts, failures by stage,
accuracy and the tracing overhead.  Times are scaled by a speed probe, see
``measure.py``.  ``--pin-fingerprints K`` rewrites ``fingerprints.json``;
only a change to the benchmark's inputs should need it.

Self-tests: ``python3 -m pytest perfbench -q``.

Everything runs in one thread and no layer queues for another, so there is
no wait-time metric: a layer's share of self time bounds what speeding it
up can save on that workload.
"""

import os
import sys
import time

T_START = time.perf_counter()

# BLAS and OpenMP read these once, when numpy loads.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# cli.run_cli would take its zero-norm threshold from this variable
CLEARED_VARS = {"SPECBAND_TOL": os.environ.pop("SPECBAND_TOL", None)}

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PINNED = os.path.join(HERE, "fingerprints.json")

WORKLOAD_NAMES = ("roundtrip", "direct", "inverse")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-fingerprints", type=int, default=None, metavar="K",
                        help="write the input fingerprints of seeds 0..K-1 to fingerprints.json")
    return parser.parse_args(argv)


def import_program():
    """Import numpy and the checkout's src/specband; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "specband", "__init__.py")):
        sys.stderr.write(f"perfbench: no specband package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401
    import specband

    if os.path.dirname(os.path.dirname(os.path.abspath(specband.__file__))) != SRC:
        sys.stderr.write(f"perfbench: specband was imported from {specband.__file__}\n")
        sys.exit(2)


def blas_threads(np):
    """Threads the loaded OpenBLAS will use, asked of the library itself; None if unknown."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cleared": CLEARED_VARS,
    }


def load_pinned(workload, seed):
    if not os.path.isfile(PINNED):
        return None
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def run_one(args):
    import_program()
    import_s = time.perf_counter() - T_START
    import measure

    os.makedirs(OUT, exist_ok=True)
    result, details = measure.run_workload(
        args.workload, args.seed, args.seconds, args.trace, import_s, OUT,
        pinned=load_pinned(args.workload, args.seed))
    env = details["environment"] = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: nproc={env['nproc']} affinity={env['affinity']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} blas_threads={env['blas_threads']} threads="
          + ",".join(f"{k}={v}" for k, v in env["threads"].items()))
    state = ("not pinned" if details["fingerprint_pinned"] is None
             else "matches pinned" if details["fingerprint_pinned"] == details["fingerprint"]
             else f"DIFFERS from pinned {details['fingerprint_pinned']}")
    print(f"inputs: {details['instances_in_pool']} instances, fingerprint {details['fingerprint']} "
          f"({state})")
    print(f"attempts: {result['attempted']}, verified {details['passed']}, failed {result['failed']}"
          " (" + ", ".join(f"{k}={v}" for k, v in details["failures"].items() if v) + ")")
    print(f"machine speed: probe median {details['probe_ms_median']:.4f} ms; times below are "
          f"scaled to a probe of {1e3 * measure.PROBE_REF_S:g} ms")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; prints their lines and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
        print()
    print(json.dumps(combined))
    return 0


def pin(count):
    """Record the input fingerprints of seeds 0..count-1 of every workload."""
    import_program()
    import shutil

    import workloads

    table = {}
    workdir = os.path.join(OUT, f"pin-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in WORKLOAD_NAMES:
            wl = workloads.WORKLOADS[name](workdir)
            table[name] = {str(s): workloads.fingerprint(wl.make_pool(s)) for s in range(count)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.pin_fingerprints is not None:
        return pin(args.pin_fingerprints)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
