"""Time the inverse sweep, the round trip, the direct side and the generator at two checkouts.

    python3 scripts/bench_sweep.py --before ../parent --after . -o BENCH_16.json

Every cell n in {1,2,3}, N in {10,20,40,80,160} of the North-star grid
takes seeds 0-4, and each instance comes from perfbench's builders:

* ``orthonormalize(mu, N)`` on the GUE step measure of ``measure_instance``
  (T = I), the sweep that ``specband reconstruct`` runs;
* ``reconstruct.roundtrip(spec, I, N)`` on the ``generate_random`` spec of
  ``spec_instance`` with T = I, timed whole, and then its stages one after
  the other, each timed alone: ``truncate``, ``structure``, ``eigen``,
  ``measure``, ``orthonormalize``, ``recover``, ``verify`` (reading the
  recovered matrix's structure, its class check and its step measure),
  ``compare_measures`` and ``moment_gap`` (both measures' ``moments_upto``
  and the largest entry of their difference); the first stage that raises
  ends the instance;
* ``generate_random(GenProfile(n, N), s)`` with the spec seed s of
  ``spec_instance``, the generation that builds the round trip's spec.

The direct cells, n in {1,2,3}, N in {10,20,40}, take the same seeds and
run the stages of perfbench's ``direct`` operation one after the other on
the spec and boundary matrix of ``spec_instance``: ``eigen_decompose``,
``step_measure``, ``build_p``, ``build_q``, ``gram_matrix``,
``multiplication_matrix``, ``q_norms_sq``, ``det_theta_polynomial`` and
``verify_generators``; the first stage that raises ends the instance.
Every timing of a direct stage gets a new truncation, structure and
boundary matrix of equal bytes, so that no stage reads the spectral pass
(``spectral.direct_pass``) that an earlier call left in its one-slot memo:
each stage time is that stage's cost alone.  The whole operation,
perfbench's ``direct_check``, is then timed as well, and it shares the
pass between its checks as every caller of the direct side does.

Each checkout runs in its own single-threaded process, importing its own
``src/``; the passes alternate between the checkouts, and every pass times
each instance ``--repeats`` times.  Before each instance the pass takes one
of perfbench's speed probes, and every time of a pass is scaled by
``PROBE_REF_S`` over the median of its probes, as perfbench scales its
rounds: unscaled, a cell moved by about 30 % between two runs of this
script on the same checkouts.  The output holds, per cell and checkout,
the median scaled times in ms (of each round-trip stage too), the emitted
counts and the round trip's eigenvalue errors per seed ("inf" where the
recovered size is wrong, null where it raised), the stages that raised,
and the largest orthogonality loss max |W W* - I| of the emitted rows; per
cell, whether the inputs, q heights, skip logs and emitted counts agree
between checkouts (``decisions_agree``), and whether every sweep's sha256
of its ``weights`` and ``t_tilde`` bytes and every round trip's sha256 of
its ``RoundTripReport.to_dict()`` JSON text and recovered matrix bytes (or
of the error it raised) does too (``outputs_identical``).  A round-trip
cell also holds the median scaled time of ``generate_random`` per
checkout, and ``specs_identical`` says whether every generated spec's
sha256 of its ``serialize.dumps(spec_to_dict(spec))`` text agrees between
checkouts.  A direct cell holds each stage's median scaled time, the
median scaled time of the whole ``direct_check`` and each seed's
``minimal`` flag per checkout, and compares the checkouts.
``gate_outputs_identical`` says whether
every instance's sha256 over the outputs that perfbench's ``direct`` gate
reads agrees: the stage outputs up to ``det_theta_polynomial`` (or the stage
and exception that ended the instance) and the ``direct_check`` output
(Gram and multiplication matrices, q-norm ratios, det Theta roots and
``solution_flags``).  The generator report is compared on its own:
``generator_reports_identical`` over the sha256 of its JSON, and
``height_tables_changed`` lists the seeds whose height table differs.

The inverse cells, n in {1,2,3}, N in {20,40,80,160}, hold every instance
of perfbench's ``inverse`` pools (32 rounds) of the seeds ``INVERSE_SEEDS``.
Each instance times perfbench's ``inverse`` operation, the ``specband
reconstruct`` call that writes the recovered matrix, and then
``serialize.dumps`` of the payload it wrote (read back from the file, whose
JSON text it is).  A cell holds per checkout the median and 90th-percentile
scaled time of the operation, the median scaled time of ``dumps`` and the
count of instances that perfbench's gate refuses; ``outputs_identical``
says whether the sha256 of every written file (or of the exit code and
error line) agrees between checkouts.  ``payloads`` holds, per checkout,
the median scaled time (over ``10 * --repeats`` timings per pass) of
``serialize.dumps`` of one payload of each other kind that the command line
writes: a ``measure`` of n=3 N=160, a ``gen``
spec of n=3 N=160, a ``generators`` report of n=3 N=40 and a ``roundtrip
--batch 16`` report, each with ``identical`` over the sha256 of its text.
On a shared 2-core host the same code's time for these payloads moved by
up to 1.6 times within seconds, which the probe does not undo, and the
process CPU time of unchanged code moved about as much between two
subprocesses (``generate_random``'s by -22 % to +30 %).  So both checkouts' packages are also
imported into one process, which alternates between them: ``payloads_ab``
times their ``serialize.dumps`` of each payload ``AB_ROUNDS`` times,
``sweep_ab`` their ``orthonormalize(mu, N)`` of each grid cell's five GUE
measures, all five in one timing, and ``roundtrip_ab`` their
``reconstruct.roundtrip(spec, I, N)`` of each grid cell's five specs (those
of the round-trip cells, decoded by each checkout from one
``serialize.spec_to_dict``), all five in one timing, each ``CELL_AB_ROUNDS``
times.  Each holds the median times (the wall times unscaled), the share of
rounds in which the after checkout took less CPU time, the quartiles of its
CPU-time ratio and whether both checkouts' outputs are identical (for a
sweep, its record: decisions, orthogonality loss and the sha256 of its
``weights`` and ``t_tilde`` bytes; for a round trip, the sha256 of its
``RoundTripReport.to_dict()`` JSON text and recovered matrix bytes, or the
stage and error it raised).  The after checkout is imported second, and
the second import of identical code read 1-3 % faster in such an A/B, so
``roundtrip_aa`` repeats ``roundtrip_ab`` with the after checkout on both
sides, imported twice in the same order: its ratios are the A/B's bias.
"""

import argparse
import contextlib
import functools
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
DIRECT_GRID = [(n, N) for n in (1, 2, 3) for N in (10, 20, 40)]
DIRECT_STAGES = ("eigen_decompose", "step_measure", "build_p", "build_q", "gram_matrix",
                 "multiplication_matrix", "q_norms_sq", "det_theta_polynomial",
                 "verify_generators")
ROUNDTRIP_STAGES = ("truncate", "structure", "eigen", "measure", "orthonormalize", "recover",
                    "verify", "compare_measures", "moment_gap")
SEEDS = range(5)
INVERSE_GRID = [(n, N) for n in (1, 2, 3) for N in (20, 40, 80, 160)]  # perfbench's inverse
INVERSE_SEEDS = (530, 531)
INVERSE_ROUNDS = 32  # perfbench's Inverse.pool_rounds
AB_ROUNDS = 200
CELL_AB_ROUNDS = 40
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


def _direct_inputs(spec, t, N):
    """A new truncation, structure and boundary matrix of one direct instance."""
    from specband import matrices, spectral

    return (matrices.truncate(spec, N), matrices.analyze_structure(spec, N),
            spectral.BoundaryMatrix(t.n, t.t))


def _direct_stages():
    """(name, call) of each direct stage; a call takes the outputs so far by name and (m, s, t)."""
    from specband import interpolation, spectral

    return [
        ("eigen_decompose", lambda o, m, s, t: spectral.eigen_decompose(m)),
        ("step_measure", lambda o, m, s, t: spectral.step_measure(o["eigen_decompose"], t)),
        ("build_p", lambda o, m, s, t: spectral.build_p(m, s, t)),
        ("build_q", lambda o, m, s, t: spectral.build_q(m, s, t, o["build_p"])),
        ("gram_matrix", lambda o, m, s, t: spectral.gram_matrix(m, s, t, o["eigen_decompose"])),
        ("multiplication_matrix",
         lambda o, m, s, t: spectral.multiplication_matrix(m, s, t, o["eigen_decompose"])),
        ("q_norms_sq", lambda o, m, s, t: spectral.q_norms_sq(m, s, t, o["eigen_decompose"])),
        ("det_theta_polynomial", lambda o, m, s, t: spectral.det_theta_polynomial(m, s, t)),
        ("verify_generators", lambda o, m, s, t: interpolation.verify_generators(
            o["build_q"], interpolation.InterpolationData.from_measure(o["step_measure"]))),
    ]


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


def _roundtrip_stages(spec, t, N):
    """(name, call) of each stage of ``reconstruct.roundtrip``; a call takes the outputs so far.

    ``compare_measures`` and the moment gap, which the round trip runs after
    its last ``verify`` stage, are stages of their own here.
    """
    from specband import matrices, reconstruct, spectral

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

    return [
        ("truncate", lambda o: matrices.truncate(spec, N)),
        ("structure", lambda o: matrices.analyze_structure(spec, N)),
        ("eigen", lambda o: spectral.eigen_decompose(o["truncate"])),
        ("measure", lambda o: spectral.step_measure(o["eigen"], t)),
        ("orthonormalize", lambda o: reconstruct.orthonormalize(o["measure"], N)),
        ("recover", lambda o: reconstruct.recover_matrix(o["orthonormalize"])),
        ("verify", verify),
        ("compare_measures", lambda o: reconstruct.compare_measures(o["measure"], o["verify"])),
        ("moment_gap", moment_gap),
    ]


def _run_stages(stages, repeats, inputs=tuple):
    """Each stage timed ``repeats`` times, in order, until one raises.

    A call takes the outputs so far and then what ``inputs()`` returns, made
    anew before each timing and outside it.  Returns the times per stage, the
    outputs by stage and (stage, exception) of the stage that raised, or None.
    """
    times, outs = {}, {}
    for name, call in stages:
        times[name] = []
        for _ in range(repeats):
            ms, out = _timed(call, outs, *inputs())
            times[name].append(ms)
        if isinstance(out, Exception):
            return times, outs, (name, out)
        outs[name] = out
    return times, outs, None


def _direct_check_bytes(out):
    """The bytes of perfbench's ``DirectOutput``, or the exception it raised."""
    if isinstance(out, Exception):
        return f"direct_check: {type(out).__name__}: {out}".encode()
    arrays = (out.gram, out.mult, out.qnorm_ratio, out.roots)
    return b"".join(a.tobytes() for a in arrays) + repr(list(out.solution_flags)).encode()


def _direct_record(inst, repeats):
    """Per-stage and whole-operation times of one direct instance, and the
    sha256 over its outputs."""
    import workloads

    times, outs, failed = _run_stages(
        _direct_stages(), repeats, lambda: _direct_inputs(inst.spec, inst.t, inst.N))
    gate = hashlib.sha256()
    rec = {"stage_ms": times, "direct_check_ms": []}
    for name, out in outs.items():
        if name == "verify_generators":
            rec["generators_sha256"] = hashlib.sha256(_output_bytes(name, out)).hexdigest()
            rec["height_table"] = out.height_table
            rec["minimal"] = out.minimal
        else:
            gate.update(_output_bytes(name, out))
    if failed:
        name, exc = failed
        gate.update(f"{name}: {type(exc).__name__}: {exc}".encode())
        rec["failure"] = f"{name}: {type(exc).__name__}"
    for _ in range(repeats):
        ms, out = _timed(workloads.direct_check, inst)
        rec["direct_check_ms"].append(ms)
    gate.update(_direct_check_bytes(out))
    rec["gate_sha256"] = gate.hexdigest()
    return rec


def _roundtrip_record(rep):
    """Eigenvalue error and sha256 of the report text and matrix bytes, or the failing stage."""
    if isinstance(rep, Exception):
        what = f"{getattr(rep, 'stage', '')}: {type(rep).__name__}: {rep}"
        return {"failure": getattr(rep, "stage", type(rep).__name__),
                "sha256": hashlib.sha256(what.encode()).hexdigest()}
    text = json.dumps(rep.to_dict()).encode()
    return {"eigenvalue_error": rep.eigenvalue_error,
            "sha256": hashlib.sha256(text + rep.matrix.data.tobytes()).hexdigest()}


def _inverse_records(repeats, tmp, probes):
    """Per instance of perfbench's inverse pools: the operation's and the
    writer's times, the sha256 of the written file and the gate's verdict."""
    import measure
    import workloads
    from specband import serialize as ser

    wl = workloads.Inverse(tmp)
    assert list(wl.grid) == INVERSE_GRID and wl.pool_rounds == INVERSE_ROUNDS
    records = []
    for seed in INVERSE_SEEDS:
        for inst in (i for rnd in wl.make_pool(seed) for i in rnd):
            probes.append(1e3 * measure.probe())
            rec = {"n": inst.n, "N": inst.N, "seed": seed, "digest": inst.digest.hex(),
                   "op_ms": [], "dumps_ms": []}
            for _ in range(repeats):
                ms, out = _timed(wl.op, inst)
                rec["op_ms"].append(ms)
            code, err = out
            if code == 0:
                with open(wl.out_path, "rb") as fh:
                    written = fh.read()
                doc = json.loads(written)
                for _ in range(repeats):
                    rec["dumps_ms"].append(_timed(ser.dumps, doc)[0])
            else:
                written = f"{code}: {err}".encode()
            rec["sha256"] = hashlib.sha256(written).hexdigest()
            rec["failure"] = wl.gate(inst, out)[0]
            records.append(rec)
    return records


def _payload_docs(tmp):
    """One payload of each other kind the CLI writes, read back from the written file."""
    import workloads
    from specband import cli
    from specband import serialize as ser

    def written(*argv):
        path = os.path.join(tmp, "payload.json")
        with contextlib.redirect_stdout(None), contextlib.redirect_stderr(None):
            cli.run_cli([*argv, "-o", path])
        return ser.load(path)

    mtilde, small = os.path.join(tmp, "mtilde.json"), os.path.join(tmp, "small.json")
    cli.run_cli(["gen", "--n", "3", "--N-max", "40", "--mtilde", "--seed", "0", "-o", mtilde])
    cli.run_cli(["gen", "--n", "2", "--N-max", "10", "--seed", "7", "-o", small])
    gue = workloads.measure_instance(0, 3, 160, 0, tmp)
    return {
        "measure": ser.measure_to_dict(ser.measure_from_dict(ser.load(gue.path))),
        "gen": written("gen", "--n", "3", "--N-max", "160", "--seed", "0"),
        "generators": written("generators", mtilde),
        "roundtrip_batch": written("roundtrip", small, "--N", "8", "--batch", "16", "--seed", "0"),
    }


def _payload_records(repeats, tmp):
    """Times and sha256 of ``serialize.dumps`` of one payload per other kind the CLI writes."""
    from specband import serialize as ser

    records = {}
    for kind, doc in _payload_docs(tmp).items():
        times = [_timed(ser.dumps, doc)[0] for _ in range(10 * repeats)]
        records[kind] = {"dumps_ms": times,
                         "sha256": hashlib.sha256(ser.dumps(doc).encode()).hexdigest()}
    return records


def worker(repeats):
    """One pass over the grids with the specband on sys.path; JSON on stdout."""
    import measure
    import workloads
    from specband import BoundaryMatrix, GenProfile, generate_random, orthonormalize
    from specband import reconstruct
    from specband import serialize as ser

    records = []
    direct = []
    probes = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, N in DIRECT_GRID:
            for seed in SEEDS:
                probes.append(1e3 * measure.probe())
                inst = workloads.spec_instance(seed, n, N, 0)
                rec = _direct_record(inst, repeats)
                direct.append(dict(rec, n=n, N=N, seed=seed, digest=inst.digest.hex()))
        for n, N in GRID:
            eye = BoundaryMatrix.identity(n)
            for seed in SEEDS:
                probes.append(1e3 * measure.probe())
                gue = workloads.measure_instance(seed, n, N, 0, tmp)
                mu = ser.measure_from_dict(ser.load(gue.path))
                inst = workloads.spec_instance(seed, n, N, 0)
                rec = {"n": n, "N": N, "seed": seed,
                       "digest": (gue.digest + inst.digest).hex(),
                       "gue_ms": [], "roundtrip_ms": [], "generate_ms": []}
                # the spec seed that spec_instance draws for this cell
                spec_seed = int(np.random.SeedSequence([seed, n, N, 0]).generate_state(2)[0])
                for _ in range(repeats):
                    ms, spec = _timed(generate_random, GenProfile(n, N), spec_seed)
                    rec["generate_ms"].append(ms)
                text = ser.dumps(ser.spec_to_dict(spec))
                rec["spec_sha256"] = hashlib.sha256(text.encode()).hexdigest()
                for _ in range(repeats):
                    ms, res = _timed(orthonormalize, mu, N)
                    rec["gue_ms"].append(ms)
                    rec["gue"] = _sweep_record(res)
                    ms, rep = _timed(reconstruct.roundtrip, inst.spec, eye, N)
                    rec["roundtrip_ms"].append(ms)
                    rec["roundtrip"] = _roundtrip_record(rep)
                times, outs, _ = _run_stages(_roundtrip_stages(inst.spec, eye, N), repeats)
                rec["stage_ms"] = times
                if "orthonormalize" in outs:
                    rec["stage"] = _sweep_record(outs["orthonormalize"])
                records.append(rec)
        inverse = _inverse_records(repeats, tmp, probes)
        payloads = _payload_records(repeats, tmp)
    scale = 1e3 * measure.PROBE_REF_S / statistics.median(probes)
    for rec in records:
        for key in ("gue_ms", "roundtrip_ms", "generate_ms"):
            rec[key] = [scale * ms for ms in rec[key]]
    for rec in direct:
        rec["direct_check_ms"] = [scale * ms for ms in rec["direct_check_ms"]]
    for rec in records + direct:
        rec["stage_ms"] = {name: [scale * ms for ms in times]
                           for name, times in rec["stage_ms"].items()}
    for rec in inverse:
        for key in ("op_ms", "dumps_ms"):
            rec[key] = [scale * ms for ms in rec[key]]
    for rec in payloads.values():
        rec["dumps_ms"] = [scale * ms for ms in rec["dumps_ms"]]
    json.dump({"probe_ms": statistics.median(probes), "records": records, "direct": direct,
               "inverse": inverse, "payloads": payloads}, sys.stdout)


def _fresh_specband(checkout):
    """The checkout's specband package, imported anew: every specband module
    imported so far is dropped from ``sys.modules`` first."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "specband"]:
        del sys.modules[name]
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    try:
        import specband.reconstruct
        import specband.serialize  # noqa: F401 - read through the package
        return specband
    finally:
        sys.path.pop(0)


def _ab(calls, rounds):
    """Each checkout's call, alternating ``rounds`` times in this one process:
    the median times, the share of rounds the after checkout took less CPU time
    and the quartiles of its CPU-time ratio."""
    times = {"before": [], "after": []}
    for i in range(rounds):
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            start, cpu = time.perf_counter(), time.process_time()
            calls[side]()
            times[side].append((1e3 * (time.perf_counter() - start),
                                1e3 * (time.process_time() - cpu)))
    ratios = [a[1] / b[1] for a, b in zip(times["after"], times["before"])]
    return {**_medians("before", times["before"]), **_medians("after", times["after"]),
            "after_faster": f"{sum(r < 1 for r in ratios)}/{rounds}",
            "ratio_quartiles": [round(q, 3) for q in statistics.quantiles(ratios, n=4)]}


def _orthonormalize_each(reconstruct, mus, N):
    return [reconstruct.orthonormalize(mu, N) for mu in mus]


def _roundtrip_each(reconstruct, inputs, N):
    """Each (spec, t) pair's round trip, or the exception it raised."""
    return [_timed(reconstruct.roundtrip, spec, t, N)[1] for spec, t in inputs]


def _roundtrip_ab(pkgs, spec_docs):
    """Per grid cell, both packages' round trips of its specs with T = I, alternating."""
    cells = []
    for (n, N), docs in spec_docs.items():
        calls = {}
        for side, pkg in pkgs.items():
            inputs = [(pkg.serialize.spec_from_dict(d), pkg.BoundaryMatrix.identity(n))
                      for d in docs]
            calls[side] = functools.partial(_roundtrip_each, pkg.reconstruct, inputs, N)
        records = {side: [_roundtrip_record(r) for r in call()] for side, call in calls.items()}
        cells.append(dict(_ab(calls, CELL_AB_ROUNDS), n=n, N=N,
                          identical=records["before"] == records["after"]))
    return cells


def ab_worker(before, after):
    """Both checkouts in this one process, alternating: ``serialize.dumps`` of
    each payload, and ``orthonormalize`` of each grid cell's GUE measures and
    ``roundtrip`` of its specs; the round trips once more with the after
    checkout on both sides."""
    import workloads
    from specband import serialize as ser

    with tempfile.TemporaryDirectory() as tmp:
        docs = _payload_docs(tmp)
        paths = {(n, N): [workloads.measure_instance(seed, n, N, 0, tmp).path for seed in SEEDS]
                 for n, N in GRID}
        spec_docs = {(n, N): [ser.spec_to_dict(workloads.spec_instance(seed, n, N, 0).spec)
                              for seed in SEEDS] for n, N in GRID}
        pkgs = {"before": _fresh_specband(before), "after": _fresh_specband(after)}
        measures = {cell: {side: [pkg.serialize.measure_from_dict(pkg.serialize.load(path))
                                  for path in cell_paths] for side, pkg in pkgs.items()}
                    for cell, cell_paths in paths.items()}
    payloads = {}
    for kind, doc in docs.items():
        calls = {side: functools.partial(pkg.serialize.dumps, doc) for side, pkg in pkgs.items()}
        texts = {c() for c in calls.values()}
        payloads[kind] = dict(_ab(calls, AB_ROUNDS), identical=len(texts) == 1)
    sweeps = []
    for (n, N), mus in measures.items():
        calls = {side: functools.partial(_orthonormalize_each, pkg.reconstruct, mus[side], N)
                 for side, pkg in pkgs.items()}
        records = {side: [_sweep_record(r) for r in call()] for side, call in calls.items()}
        sweeps.append(dict(_ab(calls, CELL_AB_ROUNDS), n=n, N=N,
                           identical=records["before"] == records["after"]))
    roundtrips = _roundtrip_ab(pkgs, spec_docs)
    twice = {"before": _fresh_specband(after), "after": _fresh_specband(after)}
    json.dump({"payloads_ab": payloads, "sweep_ab": sweeps, "roundtrip_ab": roundtrips,
               "roundtrip_aa": _roundtrip_ab(twice, spec_docs)}, sys.stdout)


def run_side(checkout, repeats, *extra):
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.abspath(checkout), "src"), PERFBENCH])
    out = subprocess.run([sys.executable, __file__, "--worker", "--repeats", str(repeats), *extra],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def _median(values):
    return round(statistics.median(values), 3) if values else None


def _medians(key, times):
    """``{key}_ms``, the median wall time, and ``{key}_cpu_ms``, the median
    process CPU time, of (wall, CPU) pairs."""
    return {f"{key}_ms": _median([ms for ms, _ in times]),
            f"{key}_cpu_ms": _median([cpu for _, cpu in times])}


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
                "roundtrip_ms": _median([t for r in recs for t in r["roundtrip_ms"]]),
                "generate_ms": _median([t for r in recs for t in r["generate_ms"]]),
                "roundtrip_stage_ms": {
                    name: _median([t for r in recs for t in r["stage_ms"].get(name, [])])
                    for name in ROUNDTRIP_STAGES
                },
                "emitted_gue": [g.get("emitted") for g in gue],
                "emitted_roundtrip": [s.get("emitted") for s in stage],
                "orthogonality_loss_max": max((s["loss"] for s in gue + stage if "loss" in s),
                                              default=None),
                "roundtrip_eigenvalue_error": [_finite(t.get("eigenvalue_error")) for t in trips],
                "roundtrip_failures": sorted(t["failure"] for t in trips if "failure" in t),
            }
        before, after = last["before"], last["after"]
        cell["inputs_agree"] = all(a["digest"] == b["digest"] for a, b in zip(before, after))
        cell["specs_identical"] = all(
            a["spec_sha256"] == b["spec_sha256"] for a, b in zip(before, after)
        )
        pairs = [(a.get(part, {}), b.get(part, {}))
                 for a, b in zip(before, after) for part in ("gue", "stage")]
        cell["decisions_agree"] = all(_decisions(a) == _decisions(b) for a, b in pairs)
        pairs += [(a["roundtrip"], b["roundtrip"]) for a, b in zip(before, after)]
        cell["outputs_identical"] = all(
            _decisions(a) == _decisions(b) and a.get("sha256") == b.get("sha256")
            for a, b in pairs
        )
        cells.append(cell)
    return cells


def summarize_direct(passes):
    """Per direct cell: each stage's and the whole operation's median scaled time
    per checkout, and the digests."""
    cells = []
    for n, N in DIRECT_GRID:
        cell = {"n": n, "N": N, "seeds": len(SEEDS)}
        last = {}
        for side, runs in passes.items():
            recs = [r for run in runs for r in run["direct"] if (r["n"], r["N"]) == (n, N)]
            last[side] = [r for r in runs[-1]["direct"] if (r["n"], r["N"]) == (n, N)]
            cell[side] = {
                f"{name}_ms": _median([t for r in recs for t in r["stage_ms"].get(name, [])])
                for name in DIRECT_STAGES
            }
            cell[side]["direct_check_ms"] = _median(
                [t for r in recs for t in r["direct_check_ms"]])
            cell[side]["failures"] = sorted(r["failure"] for r in last[side] if "failure" in r)
            cell[side]["minimal"] = [r.get("minimal") for r in last[side]]
        before, after = last["before"], last["after"]
        cell["inputs_agree"] = all(a["digest"] == b["digest"] for a, b in zip(before, after))
        cell["gate_outputs_identical"] = all(
            a["gate_sha256"] == b["gate_sha256"] for a, b in zip(before, after)
        )
        cell["generator_reports_identical"] = all(
            a.get("generators_sha256") == b.get("generators_sha256") for a, b in zip(before, after)
        )
        cell["height_tables_changed"] = [
            a["seed"] for a, b in zip(before, after) if a.get("height_table") != b.get("height_table")
        ]
        cells.append(cell)
    return cells


def _p90(values):
    return round(statistics.quantiles(values, n=10)[8], 3) if len(values) > 1 else None


def summarize_inverse(passes):
    """Per inverse cell: the operation's and the writer's scaled times per
    checkout, the gate's refusals and whether every written file agrees."""
    cells = []
    for n, N in INVERSE_GRID:
        cell = {"n": n, "N": N, "seeds": list(INVERSE_SEEDS), "rounds": INVERSE_ROUNDS}
        last = {}
        for side, runs in passes.items():
            recs = [r for run in runs for r in run["inverse"] if (r["n"], r["N"]) == (n, N)]
            last[side] = [r for r in runs[-1]["inverse"] if (r["n"], r["N"]) == (n, N)]
            op = [t for r in recs for t in r["op_ms"]]
            cell[side] = {
                "op_ms": _median(op),
                "op_p90_ms": _p90(op),
                "dumps_ms": _median([t for r in recs for t in r["dumps_ms"]]),
                "gate_failures": sum(r["failure"] is not None for r in last[side]),
            }
        before, after = last["before"], last["after"]
        cell["inputs_agree"] = all(a["digest"] == b["digest"] for a, b in zip(before, after))
        cell["outputs_identical"] = all(
            a["sha256"] == b["sha256"] and a["failure"] == b["failure"]
            for a, b in zip(before, after)
        )
        cells.append(cell)
    return cells


def summarize_payloads(passes):
    """Per payload kind: the median scaled ``dumps`` time per checkout and whether the texts agree."""
    out = {}
    for kind in passes["before"][-1]["payloads"]:
        out[kind] = {side: _median([t for run in runs for t in run["payloads"][kind]["dumps_ms"]])
                     for side, runs in passes.items()}
        out[kind]["identical"] = len({run["payloads"][kind]["sha256"]
                                      for runs in passes.values() for run in runs}) == 1
    return out


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
    ap.add_argument("--ab", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker and args.ab:
        return ab_worker(*args.ab)
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
        "direct_grid": {"n": [1, 2, 3], "N": [10, 20, 40], "seeds": list(SEEDS)},
        "inverse_grid": {"n": [1, 2, 3], "N": [20, 40, 80, 160], "seeds": list(INVERSE_SEEDS),
                         "rounds": INVERSE_ROUNDS},
        "times": ("ms, each pass scaled by perfbench's PROBE_REF_S over its median probe; "
                  "payloads_ab, sweep_ab, roundtrip_ab and roundtrip_aa: unscaled wall time "
                  "(*_ms) and process CPU time (*_cpu_ms, time.process_time)"),
        "passes": args.passes,
        "repeats": args.repeats,
        "threads": 1,
        "machine": {"cpu": _cpu_model(), "nproc": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "probe_ms": {side: [round(run["probe_ms"], 4) for run in runs]
                     for side, runs in passes.items()},
        "cells": summarize(passes),
        "direct_cells": summarize_direct(passes),
        "inverse_cells": summarize_inverse(passes),
        "payloads": summarize_payloads(passes),
        **run_side(args.after, args.repeats, "--ab",
                   os.path.abspath(args.before), os.path.abspath(args.after)),
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
