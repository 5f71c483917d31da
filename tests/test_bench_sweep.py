"""Negative controls for ``scripts/bench_sweep.py``'s identity comparison.

Two checkouts' identical records raise every flag; one record that differs in
its sha256, its T~, its decisions or its failure lowers the flags that cover it,
and only those; the A/B timing entries read their sweeps' weights and T~ the
same way.  A worker process starts without the shell's SPECBAND_TOL.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("bench_sweep", ROOT / "scripts" / "bench_sweep.py")
bench_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_sweep)

SUMMARIES = {"records": bench_sweep.summarize, "direct": bench_sweep.summarize_direct,
             "inverse": bench_sweep.summarize_inverse}
FLAGS = ("inputs_agree", "specs_identical", "decisions_agree", "weights_identical",
         "outputs_identical", "gate_outputs_identical", "gate_verdicts_agree",
         "generator_reports_identical")
CELL, SEED = 3, 2
T_TILDE = np.array([[2.0, 1 - 1j], [0.0, 0.5]])


def t_tilde_hex(t=T_TILDE):
    return np.asarray(t, dtype=complex).tobytes().hex()


def sweep():
    return {"emitted": 4, "q_heights": [4], "skip_log": [], "loss": 2e-16, "sha256": "w",
            "t_tilde": t_tilde_hex()}


def records():
    """One checkout's identity records: every cell of each grid, every seed alike."""
    seeds = bench_sweep.SEEDS
    return {
        "records": [[{"digest": "d", "spec_sha256": "s", "gue": sweep(), "stage": sweep(),
                      "complex_t": sweep(),
                      "roundtrip": {"eigenvalue_error": 1e-15, "sha256": "r"}} for _ in seeds]
                    for _ in bench_sweep.GRID],
        "direct": [[{"digest": "d", "gate_sha256": "g", "gate_failure": None,
                     "solution_flags": [True, False], "generators_sha256": "h",
                     "height_table": [[0, 0, 0], [1, 1, 0]], "minimal": True} for _ in seeds]
                   for _ in bench_sweep.DIRECT_GRID],
        "inverse": [[{"digest": "d", "sha256": "f", "failure": None, "eigenvalue_error": 1e-14,
                      "jump_error": 1e-15, "band_leakage": 1e-12} for _ in range(64)]
                    for _ in bench_sweep.INVERSE_GRID],
        "payloads": {"measure": "m", "gen": "p"},
    }


def lowered(runs):
    """(section, cell, flag) of every flag that is not true, and ("payloads", kind)."""
    out = set()
    for key, summarize in SUMMARIES.items():
        for i, cell in enumerate(summarize(runs)):
            out |= {(key, i, flag) for flag in FLAGS if cell.get(flag, True) is not True}
            if cell.get("height_tables_changed"):
                out.add((key, i, "height_tables_changed"))
    payloads = bench_sweep.summarize_payloads(runs)
    return out | {("payloads", kind) for kind, entry in payloads.items() if not entry["identical"]}


def test_identical_records_raise_every_flag():
    runs = {"before": records(), "after": records()}
    assert lowered(runs) == set()
    cells = bench_sweep.summarize(runs)
    assert len(cells) == 15 and cells[CELL]["after"]["emitted_gue"] == [4] * 5
    assert [len(bench_sweep.summarize_direct(runs)), len(bench_sweep.summarize_inverse(runs))] == [9, 12]


@pytest.mark.parametrize("key, path, value, flags", [
    ("records", ("digest",), "e", ["inputs_agree"]),
    ("records", ("spec_sha256",), "t", ["specs_identical"]),
    ("records", ("gue", "sha256"), "x", ["weights_identical", "outputs_identical"]),
    ("records", ("stage", "sha256"), "x", ["weights_identical", "outputs_identical"]),
    ("records", ("gue", "t_tilde"), t_tilde_hex(T_TILDE + 2.0**-52), ["outputs_identical"]),
    ("records", ("complex_t", "sha256"), "x", ["weights_identical", "outputs_identical"]),
    ("records", ("complex_t", "failure"), "measure",
     ["decisions_agree", "weights_identical", "outputs_identical"]),
    ("records", ("roundtrip", "sha256"), "x", ["outputs_identical"]),
    ("records", ("gue", "q_heights"), [3],
     ["decisions_agree", "weights_identical", "outputs_identical"]),
    ("records", ("stage", "skip_log"), [2],
     ["decisions_agree", "weights_identical", "outputs_identical"]),
    ("records", ("gue", "emitted"), 3,
     ["decisions_agree", "weights_identical", "outputs_identical"]),
    ("records", ("gue", "failure"), "NumericalFailure",
     ["decisions_agree", "weights_identical", "outputs_identical"]),
    ("records", ("roundtrip", "failure"), "measure", ["outputs_identical"]),
    ("direct", ("digest",), "e", ["inputs_agree"]),
    ("direct", ("gate_sha256",), "x", ["gate_outputs_identical"]),
    ("direct", ("gate_failure",), "gate", ["gate_verdicts_agree"]),
    ("direct", ("solution_flags",), [True, True], ["gate_verdicts_agree"]),
    ("direct", ("generators_sha256",), "x", ["generator_reports_identical"]),
    ("direct", ("height_table",), [[0, 0, 0]], ["height_tables_changed"]),
    ("inverse", ("digest",), "e", ["inputs_agree"]),
    ("inverse", ("sha256",), "x", ["outputs_identical"]),
    ("inverse", ("failure",), "gate", ["gate_verdicts_agree", "outputs_identical"]),
    ("inverse", ("band_leakage",), 0.5, []),
    ("inverse", ("eigenvalue_error",), 1e-9, []),
])
def test_one_differing_record_lowers_its_flags(key, path, value, flags):
    after = records()
    rec = after[key][CELL][SEED]
    for part in path[:-1]:
        rec = rec[part]
    rec[path[-1]] = value
    assert lowered({"before": records(), "after": after}) == {(key, CELL, f) for f in flags}


def test_cells_report_the_largest_relative_change_of_t_tilde():
    runs = {"before": records(), "after": records()}
    assert {cell["t_tilde_change_max"] for cell in bench_sweep.summarize(runs)} == {0.0}
    # T~'s rounding moves in two seeds' sweeps; a sweep that raised has no T~
    after = runs["after"]["records"][CELL]
    moved = T_TILDE.astype(complex)
    moved[0, 1] += 2.0**-52
    after[SEED]["stage"]["t_tilde"] = t_tilde_hex(moved)
    moved[1, 1] -= 2.0**-50
    after[SEED + 1]["gue"]["t_tilde"] = t_tilde_hex(moved)
    for rec in runs["before"]["records"][0] + runs["after"]["records"][0]:
        rec["gue"] = rec["stage"] = rec["complex_t"] = {"failure": "NumericalFailure"}
    cells = bench_sweep.summarize(runs)
    assert cells[CELL]["t_tilde_change_max"] == 2.0**-50 / 2.0
    assert cells[CELL]["weights_identical"] and not cells[CELL]["outputs_identical"]
    assert cells[0]["t_tilde_change_max"] is None


def test_inverse_cells_report_the_digits_of_gate_passes():
    runs = {"before": records(), "after": records()}
    after = runs["after"]["inverse"][CELL]
    after[SEED].update(eigenvalue_error=5e-9, jump_error=3e-8, band_leakage=2e-11)
    # a refused instance's errors are not read; its leakage is
    after[SEED + 1].update(failure="gate", eigenvalue_error=1.0, jump_error=float("inf"),
                           band_leakage=0.3)
    # a checkout that writes no band_leakage, and a cell that the gate refuses whole
    for rec in runs["before"]["inverse"][CELL]:
        rec["band_leakage"] = None
    for rec in runs["after"]["inverse"][0]:
        rec["failure"] = "gate"
    cells = bench_sweep.summarize_inverse(runs)
    assert cells[CELL]["after"] == {"gate_failures": 1, "eigenvalue_error_max": 5e-9,
                                    "jump_error_max": 3e-8, "band_leakage_max": 0.3}
    assert cells[CELL]["before"] == {"gate_failures": 0, "eigenvalue_error_max": 1e-14,
                                     "jump_error_max": 1e-15, "band_leakage_max": None}
    assert cells[0]["after"] == {"gate_failures": 64, "eigenvalue_error_max": None,
                                 "jump_error_max": None, "band_leakage_max": 1e-12}


def test_one_differing_payload_lowers_its_flag():
    after = records()
    after["payloads"]["gen"] = "q"
    assert lowered({"before": records(), "after": after}) == {("payloads", "gen")}


def test_worker_env_has_no_shell_tolerance(monkeypatch):
    envs = []
    monkeypatch.setenv("SPECBAND_TOL", "1e-3")
    monkeypatch.setattr(bench_sweep.subprocess, "Popen", lambda *a, env, **kw: envs.append(env))
    bench_sweep.start_side(".", "--rounds", "1")
    assert len(envs) == 1 and "SPECBAND_TOL" not in envs[0]
    assert envs[0]["OPENBLAS_NUM_THREADS"] == "1"


def test_ab_entries_report_weights_and_t_tilde():
    # each checkout's records come back from _sides beside what it times
    recs = {side: [sweep() for _ in bench_sweep.SEEDS] for side in ("before", "after")}
    timed, got = bench_sweep._sides(lambda pkg, wl: ({"sweeps": pkg}, recs[pkg]),
                                    {side: (side, None) for side in recs})
    assert timed == {"sweeps": {"before": "before", "after": "after"}} and got == recs
    same = {"identical": True, "weights_identical": True, "t_tilde_change_max": 0.0}
    assert bench_sweep._agreement(got, lambda rec: rec) == same
    assert bench_sweep._agreement(got) == {"identical": True}
    # T~'s rounding moves: the entry is not identical, but its weights are
    moved = T_TILDE.astype(complex)
    moved[1, 1] -= 2.0**-50
    recs["after"][SEED]["t_tilde"] = t_tilde_hex(moved)
    assert bench_sweep._agreement(recs, lambda rec: rec) == {
        "identical": False, "weights_identical": True, "t_tilde_change_max": 2.0**-50 / 2.0}
    recs["after"][SEED + 1]["sha256"] = "x"
    assert bench_sweep._agreement(recs, lambda rec: rec)["weights_identical"] is False


def test_roundtrip_ab_entries_read_the_stage_sweep():
    trips = {side: records()["records"][CELL] for side in ("before", "after")}

    def stage(rec):  # as _roundtrip_ab reads a record
        return rec.get("stage", {})

    assert bench_sweep._agreement(trips, stage) == {
        "identical": True, "weights_identical": True, "t_tilde_change_max": 0.0}
    # the round trip's own bytes differ, its sweep's do not
    trips["after"][SEED]["roundtrip"]["sha256"] = "x"
    assert bench_sweep._agreement(trips, stage) == {
        "identical": False, "weights_identical": True, "t_tilde_change_max": 0.0}
    # a round trip that raised before its sweep has no stage on either side
    for recs in trips.values():
        for rec in recs:
            del rec["stage"]
    assert bench_sweep._agreement(trips, stage)["t_tilde_change_max"] is None
    trips["after"][SEED]["stage"] = sweep()
    assert bench_sweep._agreement(trips, stage)["weights_identical"] is False


def test_roundtrip_records_sweep_the_complex_boundary():
    # each spec's sweep also runs under the boundary that spec_instance draws
    # with it; the recovered T~ is that boundary, not the identity
    import specband

    wl_spec = importlib.util.spec_from_file_location("workloads_test",
                                                     ROOT / "perfbench" / "workloads.py")
    wl = importlib.util.module_from_spec(wl_spec)
    wl_spec.loader.exec_module(wl)
    insts = [dataclasses.replace(inst, spec=specband.serialize.spec_to_dict(inst.spec))
             for inst in (wl.spec_instance(seed, 2, 10, 0) for seed in bench_sweep.SEEDS)]
    _, recs = bench_sweep._roundtrip_side(specband, wl, insts, 2, 10)
    for inst, rec in zip(insts, recs):
        got = rec["complex_t"]
        assert got["emitted"] == 10 and got["t_tilde"] != rec["stage"]["t_tilde"]
        t_tilde = np.frombuffer(bytes.fromhex(got["t_tilde"]), dtype=complex).reshape(2, 2)
        assert np.max(np.abs(t_tilde - inst.t.t)) <= 1e-10 * np.max(np.abs(inst.t.t))
        assert np.any(inst.t.t.imag != 0)
