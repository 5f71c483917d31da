"""Check two checkouts' outputs byte for byte, and time them against each other in one process.

    python3 scripts/bench_sweep.py --before ../parent --after . -o BENCH_25.json

Every cell n in {1,2,3}, N in {10,20,40,80,160} of the North-star grid
takes seeds 0-4, and each instance comes from perfbench's builders:

* ``orthonormalize(mu, N)`` on the GUE step measure of ``measure_instance``
  (T = I), the sweep that ``specband reconstruct`` runs;
* ``reconstruct.roundtrip(spec, I, N)`` on the ``generate_random`` spec of
  ``spec_instance`` with T = I, whole, and then its stages one after the
  other: ``truncate``, ``structure``, ``eigen``, ``measure``,
  ``orthonormalize``, ``recover``, ``verify`` (reading the recovered
  matrix's structure, its class check and its step measure),
  ``compare_measures`` and ``moment_gap`` (both measures' ``moments_upto``
  and the largest entry of their difference); the first stage that raises
  ends the instance;
* the same stages up to ``orthonormalize`` under the random complex
  upper-triangular boundary that ``spec_instance`` draws with the spec, as
  perfbench's ``roundtrip`` pools run them: T = I alone leaves some
  rounding paths of the sweep untaken (``complex_t``);
* ``generate_random(GenProfile(n, N), s)`` with the spec seed s of
  ``spec_instance``, the generation that builds the round trip's spec.

The direct cells, n in {1,2,3}, N in {10,20,40}, take the same seeds and
run perfbench's ``direct_check`` and then its stages one after the other on
the spec and boundary matrix of ``spec_instance``: ``eigen_decompose``,
``step_measure``, ``build_p``, ``build_q``, ``gram_matrix``,
``multiplication_matrix``, ``q_norms_sq``, ``det_theta_polynomial`` and
``verify_generators``; the first stage that raises ends the instance.
Each call of a stage gets a new truncation, structure and boundary matrix
of equal bytes, so that no stage reads the spectral pass that an earlier
call left in ``spectral.direct_pass``'s one-slot memo; ``direct_check``
shares the pass between its checks, as every caller of the direct side
does.  The inverse cells, n in {1,2,3}, N in {20,40,80,160}, hold every
instance of perfbench's ``inverse`` pools (32 rounds) of the seeds
``INVERSE_SEEDS``: the ``specband reconstruct`` call of perfbench's
``inverse`` operation, and ``serialize.dumps`` of the payload it handed to
the writer.  The payloads are one of each other kind the command line
writes: a ``measure`` of n=3 N=160, a ``gen`` spec of n=3 N=160, a
``generators`` report of n=3 N=40, a ``roundtrip --batch 16`` report, a
40 x 40 ``truncate`` of an n=3 spec, the 160 x 160 ``truncate`` of an n=3
N=160 mtilde spec (the band layout of a ``reconstruct`` that emits every
row) and the ``moments --k 12`` of the n=3 N=160 measure.  Each checkout
builds its own, as its command hands it to ``serialize.dumps``.

Identity: each checkout runs every instance once, untimed, in a
single-threaded process of its own that imports its own ``src/``.  Per
cell and checkout the output holds the emitted counts, the round trip's
eigenvalue errors ("inf" where the recovered size is wrong, null where it
raised), the stages that raised, the largest orthogonality loss
max |W W* - I| of the emitted rows (under T = I), each direct seed's ``minimal`` flag,
the count of inverse instances that perfbench's gate refuses, the largest
eigenvalue and jump errors that the gate reads of the instances it passes
(criterion 09's bounds are 1e-8 and 1e-7) and the largest ``band_leakage``
of the written files (null where a checkout writes none).  Per
cell it says whether the checkouts agree on the inputs (``inputs_agree``),
the generated specs' text (``specs_identical``), the q heights, skip logs
and emitted counts of every sweep, the ``complex_t`` ones included
(``decisions_agree``), those and the sha256 of every
sweep's ``weights`` bytes (``weights_identical``), and those, the bytes of
every sweep's ``t_tilde`` and the sha256 of every round trip's
``RoundTripReport.to_dict()`` JSON text and matrix bytes, or of the error
raised (``outputs_identical``); it also gives the largest change of T~
between the checkouts, relative to its largest entry
(``t_tilde_change_max``), so that a change that moves only T~'s rounding
reads as that; on the sha256 over what perfbench's
``direct`` gate reads, the stage outputs up to ``det_theta_polynomial``
(or the stage and error that ended the instance) and the ``direct_check``
output (``gate_outputs_identical``), on the ``direct`` gate's verdict and
the solution flags of each instance (``gate_verdicts_agree``, which holds
where a change moves bits but no decision), and over the generator report's
JSON (``generator_reports_identical``), listing the seeds whose height table
differs (``height_tables_changed``); on every file the inverse operation
wrote (or its exit code and error line) and the gate's verdict
(``outputs_identical``), and on the verdict alone (``gate_verdicts_agree``);
and on each payload's text (``payloads``).

Timing: one more single-threaded process imports both checkouts' packages
and alternates between them (``_ab``), ``--rounds`` times per entry and
five times as often per payload: ``payloads_ab`` times ``serialize.dumps``;
``sweep_ab`` each grid cell's five sweeps in one timing; ``roundtrip_ab``
its five round trips (each checkout decodes the specs from one
``serialize.spec_to_dict``), their ``generate_random`` and each stage;
``direct_ab`` each direct cell's five ``direct_check`` calls and each stage
(the fresh inputs made outside the timing); ``inverse_ab`` the inverse
operation on one pool instance per round, and ``dumps`` of the payload it
handed to the writer.
A stage's timing holds the instances that reached it, and is null where
none did.  Each checkout runs its own modules: perfbench's operations come
from a copy of ``workloads`` bound to that checkout.  An entry holds the
median wall (``*_ms``) and CPU (``*_cpu_ms``) times per checkout, for the
inverse operation the 90th percentiles (``*_p90_ms``) too, the share of
rounds in which the after checkout took less CPU time, the quartiles of
its CPU-time ratio and, at the top of each cell, whether both checkouts'
outputs are identical; a ``sweep_ab`` or ``roundtrip_ab`` entry also gives
``weights_identical`` and ``t_tilde_change_max`` of its sweeps, as the
identity cells do, so that a change that moves only T~'s rounding reads as
that there too.  Read every ratio against ``roundtrip_aa``, the
round trips again with the after checkout on both sides, imported twice in
the same order: the second import of identical code read 1-3 % faster, and
heap state moved a single cell by up to 8 % between runs (n=1 N=160).
"""

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import importlib.util
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
DIRECT_GRID = [(n, N) for n in (1, 2, 3) for N in (10, 20, 40)]
SEEDS = range(5)
INVERSE_GRID = [(n, N) for n in (1, 2, 3) for N in (20, 40, 80, 160)]  # perfbench's inverse
INVERSE_SEEDS = (530, 531)
INVERSE_ROUNDS = 32  # perfbench's Inverse.pool_rounds
PAYLOAD_ROUND_FACTOR = 5  # a payload's dumps takes 0.05-3 ms, a cell's timing 1-100 ms
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failure is recorded, not raised
        return exc


def _each(fn, items, *rest):
    return [_attempt(fn, item, *rest) for item in items]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _sweep_record(res):
    if isinstance(res, Exception):
        return {"failure": type(res).__name__}
    w = res.weights
    return {
        "emitted": len(w),
        "q_heights": list(res.q_heights),
        "skip_log": list(res.skip_log),
        "loss": float(np.max(np.abs(w @ w.conj().T - np.eye(len(w))))),
        "sha256": _sha256(w.tobytes()),
        "t_tilde": res.t_tilde.t.tobytes().hex(),
    }


def _roundtrip_record(rep):
    """Eigenvalue error and sha256 of the report text and matrix bytes, or the failing stage."""
    if isinstance(rep, Exception):
        what = f"{getattr(rep, 'stage', '')}: {type(rep).__name__}: {rep}"
        return {"failure": getattr(rep, "stage", type(rep).__name__),
                "sha256": _sha256(what.encode())}
    text = json.dumps(rep.to_dict()).encode()
    return {"eigenvalue_error": rep.eigenvalue_error,
            "sha256": _sha256(text + rep.matrix.data.tobytes())}


def _direct_inputs(pkg, spec, t, N):
    """A new truncation, structure and boundary matrix of one direct instance."""
    return (pkg.matrices.truncate(spec, N), pkg.matrices.analyze_structure(spec, N),
            pkg.spectral.BoundaryMatrix(t.n, t.t))


def _direct_stages(pkg):
    """Each direct stage's call by name; a call takes the outputs so far by name and (m, s, t)."""
    spectral, interpolation = pkg.spectral, pkg.interpolation
    return {
        "eigen_decompose": lambda o, m, s, t: spectral.eigen_decompose(m),
        "step_measure": lambda o, m, s, t: spectral.step_measure(o["eigen_decompose"], t),
        "build_p": lambda o, m, s, t: spectral.build_p(m, s, t),
        "build_q": lambda o, m, s, t: spectral.build_q(m, s, t, o["build_p"]),
        "gram_matrix": lambda o, m, s, t: spectral.gram_matrix(m, s, t, o["eigen_decompose"]),
        "multiplication_matrix":
            lambda o, m, s, t: spectral.multiplication_matrix(m, s, t, o["eigen_decompose"]),
        "q_norms_sq": lambda o, m, s, t: spectral.q_norms_sq(m, s, t, o["eigen_decompose"]),
        "det_theta_polynomial": lambda o, m, s, t: spectral.det_theta_polynomial(m, s, t),
        "verify_generators": lambda o, m, s, t: interpolation.verify_generators(
            o["build_q"], interpolation.InterpolationData.from_measure(o["step_measure"])),
    }


def _output_bytes(name, out):
    """The bytes of one direct stage's output that the digest covers."""
    if name == "eigen_decompose":
        return out.lambdas.tobytes() + out.phi.tobytes()
    if name == "step_measure":
        return out.lambdas.tobytes() + out.c.tobytes()
    if name in ("build_p", "build_q"):
        return repr([(r.n, r.comps) for r in out]).encode()
    if name == "q_norms_sq":
        return out[0].tobytes() + out[1].tobytes()
    if name == "det_theta_polynomial":
        return out.coef.tobytes() + out.domain.tobytes()
    if name == "verify_generators":
        return json.dumps(out.to_dict()).encode()
    return out.tobytes()


def _roundtrip_stages(pkg, spec, t, N):
    """Each stage of ``reconstruct.roundtrip`` by name; a call takes the outputs so far.

    ``compare_measures`` and the moment gap, which the round trip runs after
    its last ``verify`` stage, are stages of their own here.
    """
    matrices, reconstruct, spectral = pkg.matrices, pkg.reconstruct, pkg.spectral
    order = 0
    if spec.tail is not None:
        j0, k0 = spec.tail
        order = 2 * max((N - spec.n) // (k0 - j0), 0)

    def verify(o):
        m_rec = o["recover"]
        matrices.validate_class(reconstruct.spec_from_dense(m_rec.data, spec.n), "mtilde")
        return spectral.step_measure(spectral.eigen_decompose(m_rec), o["orthonormalize"].t_tilde)

    def moment_gap(o):
        gap = o["measure"].moments_upto(order) - o["verify"].moments_upto(order)
        return float(np.max(np.abs(gap)))

    return {
        "truncate": lambda o: matrices.truncate(spec, N),
        "structure": lambda o: matrices.analyze_structure(spec, N),
        "eigen": lambda o: spectral.eigen_decompose(o["truncate"]),
        "measure": lambda o: spectral.step_measure(o["eigen"], t),
        "orthonormalize": lambda o: reconstruct.orthonormalize(o["measure"], N),
        "recover": lambda o: reconstruct.recover_matrix(o["orthonormalize"]),
        "verify": verify,
        "compare_measures": lambda o: reconstruct.compare_measures(o["measure"], o["verify"]),
        "moment_gap": moment_gap,
    }


def _run_stages(stages, inputs=tuple):
    """Each stage once, in order, until one raises.

    A call takes the outputs so far and then what ``inputs()`` returns, made
    anew before each call.  Returns the run: the stages, the names of those
    called, their outputs by name, (stage, exception) of the stage that raised
    or None, and ``inputs``.
    """
    run = {"stages": stages, "called": [], "outs": {}, "failed": None, "inputs": inputs}
    for name, call in stages.items():
        run["called"].append(name)
        out = _attempt(call, run["outs"], *inputs())
        if isinstance(out, Exception):
            run["failed"] = (name, out)
            break
        run["outs"][name] = out
    return run


def _direct_record(run, check, verdict):
    """The sha256 over a direct instance's stage outputs and ``direct_check`` output
    ``check`` (perfbench's ``DirectOutput``, or the exception it raised), the
    ``direct`` gate's ``verdict`` and the solution flags."""
    gate = hashlib.sha256()
    rec = {"gate_failure": verdict,
           "solution_flags": None if isinstance(check, Exception)
           else [bool(f) for f in check.solution_flags]}
    for name, out in run["outs"].items():
        if name == "verify_generators":
            rec["generators_sha256"] = _sha256(_output_bytes(name, out))
            rec["height_table"] = out.height_table
            rec["minimal"] = out.minimal
        else:
            gate.update(_output_bytes(name, out))
    if run["failed"]:
        name, exc = run["failed"]
        gate.update(f"{name}: {type(exc).__name__}: {exc}".encode())
        rec["failure"] = f"{name}: {type(exc).__name__}"
    if isinstance(check, Exception):
        gate.update(f"direct_check: {type(check).__name__}: {check}".encode())
    else:
        for a in (check.gram, check.mult, check.qnorm_ratio, check.roots):
            gate.update(a.tobytes())
        gate.update(repr(list(check.solution_flags)).encode())
    rec["gate_sha256"] = gate.hexdigest()
    return rec


# Each *_side function runs one checkout's instances of one cell once: it
# takes that checkout's specband and perfbench's workloads bound to it, and
# returns what the in-process A/B times and the records that identity compares.

def _sweep_side(pkg, wl, docs, N):
    """The sweeps of a cell's GUE measures, decoded from their ``docs``."""
    mus = [pkg.serialize.measure_from_dict(doc) for doc in docs]
    call = functools.partial(_each, pkg.reconstruct.orthonormalize, mus, N)
    return {"sweeps": call}, [_sweep_record(res) for res in call()]


def _own(pkg, inst):
    """A portable instance (see ``_inputs``) in the checkout's own types."""
    return dataclasses.replace(inst, spec=pkg.serialize.spec_from_dict(inst.spec),
                               t=pkg.spectral.BoundaryMatrix(inst.n, inst.t.t))


def _complex_boundary_record(pkg, inst, N):
    """The record of the sweep of ``inst``'s spec under its complex boundary, or
    of the stage of the round trip that raised before it."""
    stages = _roundtrip_stages(pkg, inst.spec, inst.t, N)
    upto = list(stages)[: list(stages).index("orthonormalize") + 1]
    run = _run_stages({name: stages[name] for name in upto})
    if "orthonormalize" in run["outs"]:
        return _sweep_record(run["outs"]["orthonormalize"])
    return {"failure": run["failed"][0]}


def _roundtrip_side(pkg, wl, insts, n, N):
    """The round trips with T = I of a cell's specs, the generation of the specs
    and the stages' runs; per seed, their records, with the record of the sweep
    under the spec's own complex boundary (``complex_t``)."""
    eye = pkg.BoundaryMatrix.identity(n)
    own = [_own(pkg, inst) for inst in insts]
    specs = [inst.spec for inst in own]
    # the spec seed that perfbench's spec_instance draws for each seed of the cell
    seeds = [int(np.random.SeedSequence([seed, n, N, 0]).generate_state(2)[0]) for seed in SEEDS]
    timed = {"trips": functools.partial(_each, pkg.reconstruct.roundtrip, specs, eye, N),
             "generate": functools.partial(_each, functools.partial(
                 pkg.generate_random, pkg.GenProfile(n, N)), seeds),
             "runs": [_run_stages(_roundtrip_stages(pkg, spec, eye, N)) for spec in specs]}
    records = []
    for rep, spec, run, inst in zip(timed["trips"](), timed["generate"](), timed["runs"], own):
        text = pkg.serialize.dumps(pkg.serialize.spec_to_dict(spec))
        rec = {"spec_sha256": _sha256(text.encode()), "roundtrip": _roundtrip_record(rep),
               "complex_t": _complex_boundary_record(pkg, inst, N)}
        if "orthonormalize" in run["outs"]:
            rec["stage"] = _sweep_record(run["outs"]["orthonormalize"])
        records.append(rec)
    return timed, records


def _direct_side(pkg, wl, insts):
    """``direct_check`` of a cell's instances and the stages' runs; per seed, their
    record, with perfbench's ``direct`` verdict: None, "gate" or the stage that raised."""
    own = [_own(pkg, inst) for inst in insts]
    runs = [_run_stages(_direct_stages(pkg),
                        functools.partial(_direct_inputs, pkg, inst.spec, inst.t, inst.N))
            for inst in own]
    timed = {"checks": functools.partial(_each, wl.direct_check, own), "runs": runs}
    direct, records = wl.Direct(None), []
    for inst, run, check in zip(own, runs, timed["checks"]()):
        verdict = (direct.stage(check) if isinstance(check, Exception)
                   else direct.gate(inst, check)[0])
        records.append(_direct_record(run, check, verdict))
    return timed, records


@contextlib.contextmanager
def _handed_to_writer(pkg):
    """A list of every payload that the checkout hands to ``serialize.dumps`` meanwhile."""
    ser, payloads = pkg.serialize, []
    dumps = ser.dumps

    def spy(obj):
        payloads.append(obj)
        return dumps(obj)

    ser.dumps = spy
    try:
        yield payloads
    finally:
        ser.dumps = dumps


def _inverse_side(pkg, wl, workdir, insts):
    """The inverse operation on each instance, writing into ``workdir``, and the payloads
    it handed to the writer; per instance, the sha256 of the written file (or of the
    exit code and error line), the gate's verdict and, of a written file, the
    eigenvalue and jump errors that the gate reads and the band leakage (None where
    the file has none)."""
    op = wl.Inverse(workdir)
    records = []
    with _handed_to_writer(pkg) as payloads:
        for inst in insts:
            out = op.op(inst)
            code, err = out
            written, figures = f"{code}: {err}".encode(), {}
            if code == 0:
                with open(op.out_path, "rb") as fh:
                    written = fh.read()
                doc = json.loads(written)
                eig, jump = wl.check_spectrum(wl._complex_array(doc["matrix"]["data"]),
                                              wl._complex_array(doc["boundary"]["t"]),
                                              inst.n, inst)
                figures = {"eigenvalue_error": eig, "jump_error": jump,
                           "band_leakage": doc.get("band_leakage")}
            records.append({"sha256": _sha256(written), **figures,
                            "failure": op.gate(inst, out)[0]})
    return {"op": op.op, "payloads": payloads}, records


def _inputs(tmp):
    """Every input, from perfbench's builders with the first specband on sys.path.

    Its instances are portable: each holds its spec as ``serialize.spec_to_dict``
    makes it.  Returns per grid cell the digest of each seed's inputs, its GUE
    measure's doc (the five measure files share one path) and its spec instance,
    which a direct cell of the same n and N shares; and the inverse pools, each
    seed's measure files in a directory of their own.
    """
    import workloads
    from specband import serialize as ser

    grid = {}
    for n, N in GRID:
        cell = grid[(n, N)] = {"digests": [], "measures": [], "specs": []}
        for seed in SEEDS:
            gue = workloads.measure_instance(seed, n, N, 0, tmp)
            inst = workloads.spec_instance(seed, n, N, 0)
            cell["digests"].append((gue.digest + inst.digest).hex())
            cell["measures"].append(ser.load(gue.path))
            cell["specs"].append(dataclasses.replace(inst, spec=ser.spec_to_dict(inst.spec)))
    pool = []
    for seed in INVERSE_SEEDS:
        wl = workloads.Inverse(os.path.join(tmp, str(seed)))
        os.makedirs(wl.workdir)
        assert list(wl.grid) == INVERSE_GRID and wl.pool_rounds == INVERSE_ROUNDS
        pool += [inst for rnd in wl.make_pool(seed) for inst in rnd]
    return grid, pool


def _payloads(pkg, wl, tmp):
    """One payload of each other kind the CLI writes, as the checkout builds it: a
    command's is the object that it hands to ``serialize.dumps``."""
    ser, cli = pkg.serialize, pkg.cli

    def handed(*argv):
        with (_handed_to_writer(pkg) as payloads, contextlib.redirect_stdout(None),
              contextlib.redirect_stderr(None)):
            cli.run_cli([*argv, "-o", os.path.join(tmp, "payload.json")])
        (payload,) = payloads
        return payload

    mtilde, small = os.path.join(tmp, "mtilde.json"), os.path.join(tmp, "small.json")
    mtilde160 = os.path.join(tmp, "mtilde160.json")
    cli.run_cli(["gen", "--n", "3", "--N-max", "40", "--mtilde", "--seed", "0", "-o", mtilde])
    cli.run_cli(["gen", "--n", "3", "--N-max", "160", "--mtilde", "--seed", "0", "-o", mtilde160])
    cli.run_cli(["gen", "--n", "2", "--N-max", "10", "--seed", "7", "-o", small])
    gue = wl.measure_instance(0, 3, 160, 0, tmp)
    return {
        "measure": ser.measure_to_dict(ser.measure_from_dict(ser.load(gue.path))),
        "gen": handed("gen", "--n", "3", "--N-max", "160", "--seed", "0"),
        "generators": handed("generators", mtilde),
        "roundtrip_batch": handed("roundtrip", small, "--N", "8", "--batch", "16", "--seed", "0"),
        "truncate": handed("truncate", mtilde, "--N", "40"),
        "truncate160": handed("truncate", mtilde160, "--N", "160"),
        "moments": handed("moments", gue.path, "--k", "12"),
    }


def worker():
    """Every instance once, untimed, with the specband on sys.path; as JSON on stdout,
    per cell of each grid (in order) the records of its seeds or instances."""
    import specband
    import workloads

    side = (specband, workloads)
    doc = {"direct": [], "records": []}
    with tempfile.TemporaryDirectory() as tmp:
        grid, pool = _inputs(tmp)
        for cell in DIRECT_GRID:
            insts = grid[cell]["specs"]
            records = _direct_side(*side, insts)[1]
            doc["direct"].append([dict(rec, digest=inst.digest.hex())
                                  for inst, rec in zip(insts, records)])
        for (n, N), cell in grid.items():
            sweeps = _sweep_side(*side, cell["measures"], N)[1]
            trips = _roundtrip_side(*side, cell["specs"], n, N)[1]
            doc["records"].append([dict(trip, digest=digest, gue=sweep)
                                   for digest, sweep, trip in zip(cell["digests"], sweeps, trips)])
        doc["inverse"] = []
        for cell in INVERSE_GRID:  # one cell at a time, so that one cell's payloads are held
            insts = [inst for inst in pool if (inst.n, inst.N) == cell]
            records = _inverse_side(*side, tmp, insts)[1]
            doc["inverse"].append([dict(rec, digest=inst.digest.hex())
                                   for inst, rec in zip(insts, records)])
        doc["payloads"] = {kind: _sha256(specband.serialize.dumps(payload).encode())
                           for kind, payload in _payloads(*side, tmp).items()}
    json.dump(doc, sys.stdout)


def _fresh_specband(checkout):
    """The checkout's specband package, imported anew, and a copy of perfbench's
    ``workloads`` bound to it: every specband module imported so far is dropped
    from ``sys.modules`` first."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "specband"]:
        del sys.modules[name]
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    try:
        import specband.cli
        import specband.reconstruct
        import specband.serialize  # noqa: F401 - read through the package
    finally:
        sys.path.pop(0)
    spec = importlib.util.spec_from_file_location("workloads_copy",
                                                  os.path.join(PERFBENCH, "workloads.py"))
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    return specband, wl


def _ab(calls, rounds, args=None, p90=False):
    """Each checkout's call, alternating ``rounds`` times in this one process:
    the median (and with ``p90`` the 90th-percentile) times, the share of
    rounds the after checkout took less CPU time and the quartiles of its
    CPU-time ratio.  ``args(side, i)``, if given, makes the call's arguments
    of round i outside the timing."""
    times = {"before": [], "after": []}
    for i in range(rounds):
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            call_args = args(side, i) if args else ()
            start, cpu = time.perf_counter(), time.process_time()
            calls[side](*call_args)
            times[side].append((1e3 * (time.perf_counter() - start),
                                1e3 * (time.process_time() - cpu)))
    ratios = [a[1] / b[1] for a, b in zip(times["after"], times["before"])]
    return {**_medians("before", times["before"], p90), **_medians("after", times["after"], p90),
            "after_faster": f"{sum(r < 1 for r in ratios)}/{rounds}",
            "ratio_quartiles": [round(q, 3) for q in statistics.quantiles(ratios, n=4)]}


def _sides(fn, sides, *args):
    """Each thing to time that ``fn`` returns, per checkout, and both checkouts' records."""
    out = {side: fn(*pkg_wl, *args) for side, pkg_wl in sides.items()}
    timed = {key: {side: out[side][0][key] for side in out} for key in out["after"][0]}
    return timed, {side: out[side][1] for side in out}


def _agreement(recs, sweep=None):
    """``identical``, whether both checkouts' records agree whole; with ``sweep``,
    which takes a record to its sweep's record, also ``_sweep_agreement`` of those."""
    out = {"identical": recs["before"] == recs["after"]}
    if sweep:
        out.update(_sweep_agreement([(sweep(a), sweep(b))
                                     for a, b in zip(recs["before"], recs["after"])]))
    return out


def _stage_each(name, runs, inputs):
    return [_attempt(run["stages"][name], run["outs"], *args) for run, args in zip(runs, inputs)]


def _stages_ab(runs, rounds):
    """Per stage, both checkouts' calls of it on each instance run that reached it,
    alternating, each on the outputs so far and on inputs made anew outside the
    timing; None where no instance reached the stage on a checkout."""
    entries = {}
    for name in runs["after"][0]["stages"]:
        todo = {side: [run for run in side_runs if name in run["called"]]
                for side, side_runs in runs.items()}
        calls = {side: functools.partial(_stage_each, name, side_runs)
                 for side, side_runs in todo.items()}
        entries[name] = _ab(calls, rounds, lambda side, i, todo=todo: (
            [run["inputs"]() for run in todo[side]],)) if all(todo.values()) else None
    return entries


def _roundtrip_ab(sides, specs, rounds, stages=False):
    """Per grid cell, both checkouts' round trips of its specs, alternating; with
    ``stages``, also their ``generate_random`` of the specs and each stage."""
    cells = []
    for (n, N), insts in specs.items():
        timed, recs = _sides(_roundtrip_side, sides, insts, n, N)
        cell = dict(_ab(timed["trips"], rounds), n=n, N=N)
        if stages:
            cell["generate_random"] = _ab(timed["generate"], rounds)
            cell["stages"] = _stages_ab(timed["runs"], rounds)
        cells.append(dict(cell, **_agreement(recs, lambda rec: rec.get("stage", {}))))
    return cells


def ab_worker(before, after, rounds):
    """Both checkouts in this one process, alternating: every timing of the output,
    and the round trips once more with the after checkout on both sides."""
    doc = {"payloads_ab": {}, "sweep_ab": [], "direct_ab": [], "inverse_ab": []}
    with tempfile.TemporaryDirectory() as tmp:
        grid, pool = _inputs(tmp)
        specs = {cell: inputs["specs"] for cell, inputs in grid.items()}
        sides = {"before": _fresh_specband(before), "after": _fresh_specband(after)}
        payloads = {side: _payloads(*pkg_wl, tmp) for side, pkg_wl in sides.items()}
        for kind in payloads["after"]:
            calls = {side: functools.partial(pkg.serialize.dumps, payloads[side][kind])
                     for side, (pkg, _) in sides.items()}
            doc["payloads_ab"][kind] = dict(_ab(calls, PAYLOAD_ROUND_FACTOR * rounds),
                                            identical=len({c() for c in calls.values()}) == 1)
        for (n, N), inputs in grid.items():
            timed, recs = _sides(_sweep_side, sides, inputs["measures"], N)
            doc["sweep_ab"].append(dict(_ab(timed["sweeps"], rounds), n=n, N=N,
                                        **_agreement(recs, lambda rec: rec)))
        doc["roundtrip_ab"] = _roundtrip_ab(sides, specs, rounds, stages=True)
        for n, N in DIRECT_GRID:
            timed, recs = _sides(_direct_side, sides, grid[(n, N)]["specs"])
            doc["direct_ab"].append(dict(_ab(timed["checks"], rounds), n=n, N=N,
                                         stages=_stages_ab(timed["runs"], rounds),
                                         **_agreement(recs)))
        for n, N in INVERSE_GRID:
            insts = [inst for inst in pool if (inst.n, inst.N) == (n, N)][:rounds]
            timed, recs = _sides(_inverse_side, sides, tmp, insts)
            handed = timed["payloads"]
            dumps = {side: pkg.serialize.dumps for side, (pkg, _) in sides.items()}
            cell = dict(_ab(timed["op"], rounds, lambda side, i: (insts[i % len(insts)],),
                            p90=True), n=n, N=N)
            cell["dumps"] = _ab(dumps, rounds, lambda side, i: (
                handed[side][i % len(handed[side])],)) if all(handed.values()) else None
            doc["inverse_ab"].append(dict(cell, **_agreement(recs)))
    twice = {"before": _fresh_specband(after), "after": _fresh_specband(after)}
    doc["roundtrip_aa"] = _roundtrip_ab(twice, specs, rounds)
    json.dump(doc, sys.stdout)


def start_side(checkout, *extra):
    """A single-threaded worker process with the checkout's ``src/`` and perfbench on its path.

    It does not inherit SPECBAND_TOL, which perfbench clears too: older
    checkouts passed as ``--before`` still read that variable as
    ``reconstruct``'s zero-norm threshold, and the scrub keeps their inverse
    cells at the default."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("SPECBAND_TOL", None)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.abspath(checkout), "src"), PERFBENCH])
    return subprocess.Popen([sys.executable, __file__, "--worker", *extra], env=env,
                            stdout=subprocess.PIPE, text=True)


def result(proc):
    """The JSON that a worker process wrote to stdout."""
    out, _ = proc.communicate()
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return json.loads(out)


def _median(values):
    return round(statistics.median(values), 3) if values else None


def _p90(values):
    return round(statistics.quantiles(values, n=10)[8], 3) if len(values) > 1 else None


def _medians(key, times, p90=False):
    """``{key}_ms``, the median wall time, and ``{key}_cpu_ms``, the median
    process CPU time, of (wall, CPU) pairs; with ``p90`` their 90th
    percentiles ``{key}_p90_ms`` and ``{key}_cpu_p90_ms`` too."""
    wall, cpu = [ms for ms, _ in times], [ms for _, ms in times]
    out = {f"{key}_ms": _median(wall), f"{key}_cpu_ms": _median(cpu)}
    if p90:
        out.update({f"{key}_p90_ms": _p90(wall), f"{key}_cpu_p90_ms": _p90(cpu)})
    return out


def _finite(value):
    """The value, or the string "inf" for an infinite one (JSON has no inf)."""
    return "inf" if value == float("inf") else value


def _decisions(got):
    return tuple(got.get(k) for k in ("q_heights", "skip_log", "emitted", "failure"))


def _cells(runs, key, grid):
    """(n, N, each checkout's records) per cell of a grid."""
    for (n, N), before, after in zip(grid, runs["before"][key], runs["after"][key]):
        yield n, N, {"before": before, "after": after}


def _agree(recs, *keys):
    """Whether each seed's records agree between the checkouts on every key."""
    return all(a.get(k) == b.get(k) for a, b in zip(recs["before"], recs["after"]) for k in keys)


def _sweep_agreement(pairs):
    """Of (before, after) sweep records: ``weights_identical``, whether every pair
    agrees on its decisions and weights, and ``t_tilde_change_max``, the largest
    relative change of T~ (None where no pair holds two T~)."""
    changes = [c for c in (_t_tilde_change(a, b) for a, b in pairs) if c is not None]
    return {
        "weights_identical": all(
            _decisions(a) == _decisions(b) and a.get("sha256") == b.get("sha256") for a, b in pairs
        ),
        "t_tilde_change_max": max(changes, default=None),
    }


def _t_tilde_change(a, b):
    """max |T~_after - T~_before| / max |T~_before| of two sweep records, None where
    either has no T~ (the sweep raised)."""
    if "t_tilde" not in a or "t_tilde" not in b:
        return None
    before, after = (np.frombuffer(bytes.fromhex(r["t_tilde"]), dtype=complex) for r in (a, b))
    return float(np.max(np.abs(after - before)) / np.max(np.abs(before)))


def summarize(runs):
    """Per grid cell, the records and agreement of both checkouts' identity passes."""
    cells = []
    for n, N, recs in _cells(runs, "records", GRID):
        cell = {"n": n, "N": N, "seeds": len(SEEDS)}
        for side, final in recs.items():
            gue = [r["gue"] for r in final]
            stage = [r["stage"] for r in final if "stage" in r]
            trips = [r["roundtrip"] for r in final]
            cell[side] = {
                "emitted_gue": [g.get("emitted") for g in gue],
                "emitted_roundtrip": [s.get("emitted") for s in stage],
                "emitted_complex_t": [r["complex_t"].get("emitted") for r in final],
                "orthogonality_loss_max": max((s["loss"] for s in gue + stage if "loss" in s),
                                              default=None),
                "roundtrip_eigenvalue_error": [_finite(t.get("eigenvalue_error")) for t in trips],
                "roundtrip_failures": sorted(t["failure"] for t in trips if "failure" in t),
            }
        cell["inputs_agree"] = _agree(recs, "digest")
        cell["specs_identical"] = _agree(recs, "spec_sha256")
        pairs = [(a.get(part, {}), b.get(part, {}))
                 for a, b in zip(recs["before"], recs["after"])
                 for part in ("gue", "stage", "complex_t")]
        cell["decisions_agree"] = all(_decisions(a) == _decisions(b) for a, b in pairs)
        cell.update(_sweep_agreement(pairs))
        outputs = pairs + [(a["roundtrip"], b["roundtrip"])
                           for a, b in zip(recs["before"], recs["after"])]
        cell["outputs_identical"] = all(
            _decisions(a) == _decisions(b) and a.get("sha256") == b.get("sha256")
            and a.get("t_tilde") == b.get("t_tilde")
            for a, b in outputs
        )
        cells.append(cell)
    return cells


def summarize_direct(runs):
    """Per direct cell, the failures and ``minimal`` flags per checkout, the digests,
    and whether the gate's verdicts and the solution flags agree."""
    cells = []
    for n, N, recs in _cells(runs, "direct", DIRECT_GRID):
        cell = {"n": n, "N": N, "seeds": len(SEEDS)}
        for side, final in recs.items():
            cell[side] = {"failures": sorted(r["failure"] for r in final if "failure" in r),
                          "minimal": [r.get("minimal") for r in final]}
        cell["inputs_agree"] = _agree(recs, "digest")
        cell["gate_outputs_identical"] = _agree(recs, "gate_sha256")
        cell["gate_verdicts_agree"] = _agree(recs, "gate_failure", "solution_flags")
        cell["generator_reports_identical"] = _agree(recs, "generators_sha256")
        cell["height_tables_changed"] = [
            seed for seed, a, b in zip(SEEDS, recs["before"], recs["after"])
            if a.get("height_table") != b.get("height_table")
        ]
        cells.append(cell)
    return cells


def summarize_inverse(runs):
    """Per inverse cell and checkout, the gate's refusals, the largest eigenvalue and
    jump errors of the instances that it passes and the largest band leakage; and
    whether every written file agrees."""
    cells = []
    for n, N, recs in _cells(runs, "inverse", INVERSE_GRID):
        cell = {"n": n, "N": N, "seeds": list(INVERSE_SEEDS), "rounds": INVERSE_ROUNDS}
        for side, final in recs.items():
            passed = [r for r in final if r["failure"] is None]
            leakages = [r["band_leakage"] for r in final if r.get("band_leakage") is not None]
            cell[side] = {
                "gate_failures": len(final) - len(passed),
                "eigenvalue_error_max": max((r["eigenvalue_error"] for r in passed), default=None),
                "jump_error_max": max((r["jump_error"] for r in passed), default=None),
                "band_leakage_max": max(leakages, default=None),
            }
        cell["inputs_agree"] = _agree(recs, "digest")
        cell["gate_verdicts_agree"] = _agree(recs, "failure")
        cell["outputs_identical"] = _agree(recs, "sha256", "failure")
        cells.append(cell)
    return cells


def summarize_payloads(runs):
    """Per payload kind, whether both checkouts wrote the same text."""
    return {kind: {"identical": sha == runs["after"]["payloads"].get(kind)}
            for kind, sha in runs["before"]["payloads"].items()}


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
    ap.add_argument("--rounds", type=int, default=40,
                    help=f"alternating rounds per timing ({PAYLOAD_ROUND_FACTOR} x for a payload)")
    ap.add_argument("-o", "--output", default=None)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--ab", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker and args.ab:
        return ab_worker(*args.ab, args.rounds)
    if args.worker:
        return worker()
    if args.before is None:
        ap.error("--before is required")
    if args.rounds < 2:
        ap.error("--rounds: the ratio quartiles need at least 2 rounds")
    # the identity passes are untimed, so they run side by side; the timing process runs alone
    procs = {side: start_side(getattr(args, side)) for side in ("before", "after")}
    runs = {side: result(proc) for side, proc in procs.items()}
    doc = {
        "command": (f"python3 scripts/bench_sweep.py --before PARENT --after CHANGE "
                    f"--rounds {args.rounds}"),
        "grid": {"n": [1, 2, 3], "N": [10, 20, 40, 80, 160], "seeds": list(SEEDS)},
        "direct_grid": {"n": [1, 2, 3], "N": [10, 20, 40], "seeds": list(SEEDS)},
        "inverse_grid": {"n": [1, 2, 3], "N": [20, 40, 80, 160], "seeds": list(INVERSE_SEEDS),
                         "rounds": INVERSE_ROUNDS},
        "times": ("ms, in one process alternating both checkouts: wall time (*_ms) and "
                  "process CPU time (*_cpu_ms, time.process_time)"),
        "rounds": args.rounds,
        "payload_rounds": PAYLOAD_ROUND_FACTOR * args.rounds,
        "threads": 1,
        "machine": {"cpu": _cpu_model(), "nproc": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "cells": summarize(runs),
        "direct_cells": summarize_direct(runs),
        "inverse_cells": summarize_inverse(runs),
        "payloads": summarize_payloads(runs),
        **result(start_side(args.after, "--rounds", str(args.rounds), "--ab",
                            os.path.abspath(args.before), os.path.abspath(args.after))),
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
