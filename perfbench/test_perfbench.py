"""Self-tests of the benchmark on a tiny seed set.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import run  # noqa: E402
import specband  # noqa: E402
import workloads  # noqa: E402
from specband.matrices import FiniteHermitian  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.fixture
def workdir():
    path = os.path.join(run.OUT, f"test-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    proc = bench("--workload", "inverse", "--seed", "0", "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert set(result["metrics"]) == set(expected)
    printed = {ln.split()[0]: ln.split()[-1] for ln in lines[:-1] if len(ln.split()) == 3}
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
        assert printed.get(name) == unit, name


def small_instance(seed=0, n=2, N=10):
    return workloads.spec_instance(seed, n, N, 0)


def test_roundtrip_gate_rejects_a_perturbed_matrix_and_an_infinite_error(workdir):
    wl = workloads.RoundTrip(workdir)
    inst = small_instance()
    rep = wl.op(inst)
    assert wl.gate(inst, rep)[0] is None
    data = rep.matrix.data.copy()
    data[3, 3] += 1e-6
    perturbed = dataclasses.replace(rep, matrix=FiniteHermitian(inst.N, data))
    assert wl.gate(inst, perturbed)[0] == "gate"
    # the seed's silent failure: class_ok holds while the eigenvalue error is inf
    silent = dataclasses.replace(rep, eigenvalue_error=float("inf"))
    assert silent.class_ok
    assert wl.gate(inst, silent)[0] == "gate"


def test_inverse_gate_rejects_a_dropped_row(workdir):
    wl = workloads.Inverse(workdir)
    inst = workloads.measure_instance(0, 3, 20, 0, workdir)
    out = wl.op(inst)
    with open(wl.out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert wl.gate(inst, out)[0] is None
    # exit code 0 with one row fewer than asked for
    doc["matrix"]["data"] = [row[:-1] for row in doc["matrix"]["data"][:-1]]
    doc["matrix"]["N"] = doc["emitted"] = inst.N - 1
    with open(wl.out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert wl.gate(inst, out)[0] == "gate"


def test_direct_gate_rejects_a_perturbed_gram_matrix(workdir):
    wl = workloads.Direct(workdir)
    inst = small_instance(n=1)
    out = wl.op(inst)
    assert wl.gate(inst, out)[0] is None
    out.gram[0, 1] += 1e-6
    assert wl.gate(inst, out)[0] == "gate"


def _bindings():
    """Every module-level name of specband and every traced method, by identity."""
    mods = [m for k, m in sys.modules.items() if k == "specband" or k.startswith("specband.")]
    names = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for cls in (specband.MatrixSpec, specband.StepMeasure, specband.VectorPolynomial):
        names.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return names


class TinyRoundTrip(workloads.RoundTrip):
    grid = ((1, 10), (3, 10))
    pool_rounds = 2
    trace_rounds = 2


def test_traced_run_restores_every_name_and_stops_recording(workdir):
    before = _bindings()
    wl = TinyRoundTrip(workdir)
    pool = wl.make_pool(0)
    untraced, traced, tracer = measure.measure_traced(wl, pool, 60.0)
    assert len(untraced) == len(traced) == 4
    assert {s[0] for s in tracer.spans} >= {"reconstruct.roundtrip", "matrices.validate_class"}
    assert tracer.counts["matrices.struct_tol.calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    spans, counts = len(tracer.spans), dict(tracer.counts)
    measure.measure(wl, pool, 0.0)
    assert len(tracer.spans) == spans and dict(tracer.counts) == counts


def test_tracer_refuses_a_name_the_package_lacks(monkeypatch):
    import tracing

    before = _bindings()
    timed = dict(tracing.TIMED, reconstruct=tracing.TIMED["reconstruct"] + ("no_such_function",))
    monkeypatch.setattr(tracing, "TIMED", timed)
    with pytest.raises(AttributeError):
        with tracing.Tracer():
            pass
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_pinned_fingerprints_match_seed_zero(workdir):
    pinned = run.load_pinned
    for name, cls in workloads.WORKLOADS.items():
        assert pinned(name, 0) == workloads.fingerprint(cls(workdir).make_pool(0)), name


def test_refuses_to_run_without_the_program():
    bare = os.path.join(run.OUT, f"bare-{os.getpid()}")
    try:
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(HERE):
            if os.path.isfile(os.path.join(HERE, name)):
                shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
        proc = bench("--workload", "roundtrip", "--seed", "0", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_same_seed_gives_the_same_inputs(workdir):
    wl = workloads.Direct(workdir)
    a, b = wl.make_round(3, 0), wl.make_round(3, 0)
    assert [i.digest for i in a] == [i.digest for i in b]
    assert [i.digest for i in a] != [i.digest for i in wl.make_round(4, 0)]
    assert all(np.array_equal(x.lambdas, y.lambdas) for x, y in zip(a, b))
