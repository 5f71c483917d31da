"""Measurement loop, speed probe and metrics of the specband benchmark.

A shared machine changes speed with other tenants' load: on a 2-CPU
virtual Xeon, the median probe time of ten 30 s runs of one workload, made
one after the other, ranged from 0.93 to 1.33 ms.  Before every attempt the
loop therefore times a fixed probe of its own (an interpreter loop and a
LAPACK call, no program code), and every time it reports is scaled by
PROBE_REF_S over the median probe time of the attempt's round: times read
as on a machine where the probe takes exactly PROBE_REF_S.  In those runs
the scaling cut the quartile spread of goodput_per_s over ten seeds from
0.155 to 0.027 on inverse and from 0.070 to 0.041 on direct; on
roundtrip, where the spread comes from the instances' heavy-tailed times,
it changed little (0.156 to 0.136).  Set-up is scaled the same way, by
probes made between its pieces of work (``timed_setup``).  The wall-clock
figures go to the details file as "unscaled".

A run measures a number of rounds fixed by ``--seconds`` and the
workload's ``round_ref_s`` (the scaled time of one round), never by the
clock: two runs of the same code and seed make the same attempts, so
``attempted`` and ``failed`` agree exactly.  On the reference machine a run
of ``--seconds`` takes about that long.
"""

import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

import workloads
from tracing import Tracer

#: probe time on the reference machine; timed metrics are scaled to it
PROBE_REF_S = 1e-3

#: set-up is repeated this many times per run and its median reported
SETUP_REPS = 3

#: fewest attempts in an untraced run, so that ten lie beyond the p90
MIN_ATTEMPTS = 100

END_TO_END = (
    ("goodput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("fail_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: spans whose self time is reported as "<span>.self_ms"
SELF_MS = (
    "matrices.validate_class",
    "matrices.analyze_structure",
    "matrices.truncate",
    "spectral.eigen_decompose",
    "spectral.step_measure",
    "spectral.psi_at",
    "spectral.gram_matrix",
    "spectral.multiplication_matrix",
    "spectral.q_norms_sq",
    "spectral.det_theta_polynomial",
    "spectral.build_p",
    "spectral.build_q",
    "reconstruct.orthonormalize",
    "reconstruct.recover_matrix",
    "reconstruct.spec_from_dense",
    "reconstruct.compare_measures",
    "reconstruct.roundtrip",
    "interpolation.verify_generators",
    "cli.run_cli",
)

#: counters of the tracer reported as they are
COUNTS = (
    "matrices.struct_tol.calls",
    "spectral.moment.calls",
    "vectorpoly.arith.calls",
    "interpolation.kernel_dimension.calls",
    "reconstruct.orthonormalize.visited",
)

#: failure stages: the stages reconstruct.roundtrip names, the functions the
#: direct check calls, run_cli, the gate, and "other" for any further name
FAIL_STAGES = (
    "truncate",
    "structure",
    "eigen",
    "measure",
    "orthonormalize",
    "recover",
    "verify",
    "validate_class",
    "compare_measures",
    "analyze_structure",
    "eigen_decompose",
    "step_measure",
    "build_p",
    "build_q",
    "gram_matrix",
    "multiplication_matrix",
    "q_norms_sq",
    "det_theta_polynomial",
    "verify_generators",
    "run_cli",
    "gate",
    "other",
)

#: maximum over verified attempts; 0 on workloads that do not compute it
ACCURACY = (
    "reconstruct.roundtrip.eigenvalue_error_max",
    "reconstruct.roundtrip.jump_matrix_error_max",
    "spectral.gram_matrix.defect_max",
    "spectral.multiplication_matrix.defect_max",
    "spectral.det_theta_polynomial.root_gap_max",
    "reconstruct.orthonormalize.eigenvalue_error_max",
)

_PROBE_RNG = np.random.default_rng(0)
_PROBE_MATRIX = _PROBE_RNG.normal(size=(40, 40)) + 1j * _PROBE_RNG.normal(size=(40, 40))
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.conj().T


def probe():
    """Seconds taken by a fixed interpreter loop plus two fixed 40 x 40 eigh calls.

    Over minutes of drift, the workloads' times follow this sum in
    proportion (fitted log-log slope 0.94-1.12 on cells of all three
    workloads); a probe of small LAPACK calls alone followed with slope 0.8.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += (i * 0.5) ** 2
    for _ in range(2):
        np.linalg.eigh(_PROBE_MATRIX)
    return time.perf_counter() - start


@dataclass
class Record:
    """One attempt: its cell, time, outcome and the speed of the machine around it."""

    n: int
    N: int
    seconds: float
    failure: str  # None when the output passed the gate
    accuracy: dict
    detail: str  # the exception, for a raising attempt
    probe_s: float  # probe time just before the attempt
    scale: float = 1.0  # PROBE_REF_S over the median probe time of the round

    @property
    def scaled(self):
        return self.seconds * self.scale


def attempt(wl, inst, probe_s=0.0):
    """Run and check one instance; only the operation itself is timed."""
    start = time.perf_counter()
    try:
        out = wl.op(inst)
    except Exception as exc:  # noqa: BLE001 - a raising attempt is a counted failure
        elapsed = time.perf_counter() - start
        return Record(inst.n, inst.N, elapsed, wl.stage(exc), {},
                      f"{type(exc).__name__}: {exc}", probe_s)
    elapsed = time.perf_counter() - start
    try:
        failure, accuracy = wl.gate(inst, out)
    except (np.linalg.LinAlgError, ValueError, KeyError, OSError) as exc:
        return Record(inst.n, inst.N, elapsed, "gate", {}, f"{type(exc).__name__}: {exc}", probe_s)
    return Record(inst.n, inst.N, elapsed, failure, accuracy, None, probe_s)


def _set_scale(records):
    scale = PROBE_REF_S / statistics.median(r.probe_s for r in records)
    for r in records:
        r.scale = scale


def run_round(wl, rnd, records):
    first = len(records)
    for inst in rnd:
        records.append(attempt(wl, inst, probe()))
    _set_scale(records[first:])


def rounds_for(wl, seconds):
    """Rounds of an untraced run: ``seconds`` of scaled time at the reference, and
    never fewer attempts than MIN_ATTEMPTS."""
    return max(math.ceil(MIN_ATTEMPTS / len(wl.grid)), round(seconds / wl.round_ref_s))


def measure(wl, pool, seconds):
    """The first ``rounds_for(wl, seconds)`` rounds of the pool, cycling through it."""
    records = []
    for r in range(rounds_for(wl, seconds)):
        run_round(wl, pool[r % len(pool)], records)
    return records


def measure_traced(wl, pool, seconds):
    """Every instance of the first rounds once untraced and once traced.

    The rounds are as many as fit ``seconds`` with each instance run twice,
    at most ``wl.trace_rounds``.  The two attempts on an instance run back to
    back, and which goes first alternates, so that the machine's drift
    cancels in the overhead.  Returns (untraced records, traced records, tracer).
    """
    untraced, traced, tracer = [], [], Tracer()
    rounds = max(1, min(wl.trace_rounds, round(seconds / (2 * wl.round_ref_s))))
    for r in range(rounds):
        first_untraced, first_traced = len(untraced), len(traced)
        for i, inst in enumerate(pool[r % len(pool)]):
            for with_trace in (i % 2 == 1, i % 2 == 0):
                probe_s = probe()
                if with_trace:
                    tracer.attempt = len(traced)
                    with tracer:
                        traced.append(attempt(wl, inst, probe_s))
                else:
                    untraced.append(attempt(wl, inst, probe_s))
        _set_scale(untraced[first_untraced:])
        _set_scale(traced[first_traced:])
    return untraced, traced, tracer


def failures_by_stage(records):
    """Failed attempts per stage, and the first failure seen at each stage."""
    out = {stage: 0 for stage in FAIL_STAGES}
    examples = {}
    for r in records:
        if r.failure is None:
            continue
        out[r.failure if r.failure in out else "other"] += 1
        examples.setdefault(r.failure, f"n={r.n} N={r.N}: {r.detail or 'rejected by the gate'}")
    return out, examples


def end_to_end(records, setup_s, scaled=True):
    times = np.array([r.scaled if scaled else r.seconds for r in records])
    passed = sum(r.failure is None for r in records)
    p50, p90 = np.percentile(1e3 * times, [50, 90])
    return {
        "goodput_per_s": passed / float(times.sum()),
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "fail_share": 1.0 - passed / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, untraced, traced):
    """Per-layer metrics as (value, unit) by name; times scaled like the end-to-end ones."""
    scale = PROBE_REF_S / statistics.median(r.probe_s for r in traced)
    st = tracer.self_times()
    counts = tracer.counts
    m = {}
    for name in SELF_MS:
        m[f"{name}.self_ms"] = (1e3 * scale * st.get(name, (0, 0.0))[1], "ms")
    serialize = sum(v[1] for k, v in st.items() if k.startswith("serialize."))
    m["serialize.self_ms"] = (1e3 * scale * serialize, "ms")
    for name in COUNTS:
        m[name] = (counts[name], "count")
    m["spectral.psi_at.calls"] = (st.get("spectral.psi_at", (0, 0.0))[0], "count")
    entries = counts["matrices.entries_checked"]
    m["matrices.struct_tol.calls_per_entry"] = (
        counts["matrices.struct_tol.calls"] / entries if entries else 0.0, "ratio")
    visited = counts["reconstruct.orthonormalize.visited"]
    m["reconstruct.orthonormalize.emit_ratio"] = (
        counts["reconstruct.orthonormalize.emitted"] / visited if visited else 0.0, "ratio")
    fails, _ = failures_by_stage(untraced)
    for stage, count in fails.items():
        m[f"failures.{stage}"] = (count, "count")
    for name in ACCURACY:
        vals = [r.accuracy[name] for r in untraced if r.failure is None and name in r.accuracy]
        m[name] = (max(vals, default=0.0), "1")
    plain = sum(r.scaled for r in untraced)
    with_trace = sum(r.scaled for r in traced)
    m["trace.untraced_ms"] = (1e3 * plain, "ms")
    m["trace.overhead_ms"] = (1e3 * (with_trace - plain), "ms")
    m["trace.overhead_share"] = ((with_trace - plain) / plain, "ratio")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.probe_ms"] = (1e3 * statistics.median(r.probe_s for r in traced), "ms")
    return m


def cell_summary(records):
    """Attempts, passes and median scaled milliseconds per grid cell."""
    cells = {}
    for r in records:
        cells.setdefault(f"n={r.n} N={r.N}", []).append(r)
    return {
        k: {
            "attempts": len(v),
            "passed": sum(r.failure is None for r in v),
            "median_ms": 1e3 * float(np.median([r.scaled for r in v])),
        }
        for k, v in sorted(cells.items())
    }


def timed_setup(wl, seed):
    """One set-up: the instance pool and a warm-up attempt.

    Returns (pool, seconds of set-up work, probe times).  A probe runs
    before every round of the pool and before the warm-up, and is left out
    of the seconds: probes taken between pieces of work track the speed of
    that work, as they do between attempts.  Over 16-24 set-ups in one
    process, scaling by such probes gave a quartile spread of 0.06-0.09,
    against 0.10-0.27 for 20 probes made back to back before the set-up.
    """
    pool, spent, probes = [], 0.0, []
    for r in range(wl.pool_rounds):
        probes.append(probe())
        start = time.perf_counter()
        pool.append(wl.make_round(seed, r))
        spent += time.perf_counter() - start
    probes.append(probe())
    start = time.perf_counter()
    attempt(wl, pool[0][0])  # warm-up, its outcome unused
    spent += time.perf_counter() - start
    return pool, spent, probes


def run_workload(name, seed, seconds, trace, import_s, work_root, pinned=None):
    """Set up and measure one workload; returns (result dict, details dict).

    ``import_s`` is the time the process took to import numpy and the
    program; ``pinned`` the recorded input fingerprint for this seed, if any.
    """
    workdir = os.path.join(work_root, f"work-{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](workdir)
        setup, probes = [], []
        for _ in range(SETUP_REPS):
            pool, spent, rep_probes = timed_setup(wl, seed)
            setup.append(spent)
            probes.append(statistics.median(rep_probes))
        raw_setup_s = import_s + statistics.median(setup)
        setup_s = PROBE_REF_S * (
            import_s / statistics.median(probes)
            + statistics.median(t / p for t, p in zip(setup, probes))
        )
        fp = workloads.fingerprint(pool)
        details = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "fingerprint": fp,
            "fingerprint_pinned": pinned,
            "instances_in_pool": sum(len(r) for r in pool),
            "import_s": import_s,
            "setup_runs_s": setup,
            "setup_probe_ms": [1e3 * p for p in probes],
        }
        if trace:
            records, traced, tracer = measure_traced(wl, pool, seconds)
            tracer.write(os.path.join(work_root, f"spans-{name}-seed{seed}.csv"))
            metrics = per_layer(tracer, records, traced)
        else:
            records = measure(wl, pool, seconds)
            units = dict(END_TO_END)
            metrics = {k: (v, units[k]) for k, v in end_to_end(records, setup_s).items()}
            details["unscaled"] = end_to_end(records, raw_setup_s, scaled=False)
        passed = sum(r.failure is None for r in records)
        fails, examples = failures_by_stage(records)
        details.update(
            attempted=len(records),
            passed=passed,
            probe_ms_median=1e3 * statistics.median(r.probe_s for r in records),
            failures=fails,
            failure_examples=examples,
            cells=cell_summary(records),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": (pinned is None or pinned == fp) and passed > 0,
        "attempted": len(records),
        "failed": len(records) - passed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details["result"] = result
    return result, details
