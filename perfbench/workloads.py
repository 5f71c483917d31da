"""Workloads of the specband benchmark: instance pools, operations and gates.

Every workload is a closed loop with one caller and no concurrency.  A
*round* holds one instance of every grid cell (n, N), and a run always
measures whole rounds, so every cell has the same number of attempts.  The
cells' times differ by up to two orders of magnitude, so the latency
percentiles read off different cells.  The p50 lies between the middle
cells of a round: on roundtrip n=1 N=40 and n=3 N=20 (both ~85 ms), on
direct n=2,3 at N=20, on inverse between n=1 N=160 (~31 ms) and n=2 N=40
(~55 ms), a gap that gives its p50 a wider spread.  The p90 lies among the
slowest cells: on roundtrip n=2,3 at N=80 and n=3 N=40, whose median time
ranges from 0.2 to 0.75 s between seeds; on direct n=2,3 at N=40; on
inverse n=2 N=160 and n=3 N=80.  The pool of rounds is fixed by the seed,
and a run cycles through it.

roundtrip
    ``reconstruct.roundtrip(spec, T, N)`` on ``generate_random`` specs,
    n in {1,2,3}, N in {10,20,40,80}.  Loads matrices (``validate_class``,
    ``analyze_structure``), spectral (eigen data, step measure) and the
    inverse sweep; never calls the ``psi_at`` recursions or interpolation.
    Gate (criterion 09): no exception, ``class_ok``, recovered size N,
    eigenvalue error <= 1e-8 and jump-matrix error <= 1e-7, both as the
    package reports them and as recomputed here from the recovered matrix.
direct
    The direct-side check of one instance, N in {10,20,40}.  Loads the
    per-eigenvalue ``psi_at`` loops in spectral, vectorpoly through
    ``build_p``/``build_q`` and the one-SVD-per-height walk in interpolation;
    bypasses reconstruct and ``validate_class``.  Gate: criteria 02
    (|G - I| <= 1e-9), 03 (its bound |q_j|^2/scale^2 <= 1e-18), 05 (N roots of
    det Theta within 1e-6 of the eigenvalues) and 06 (|<p_i, t p_j> - m_ij|
    <= 1e-9), and every q_j passes ``is_solution``.  N=80 is left out: there
    ``verify_generators`` alone takes about 1.1 s per instance.
inverse
    ``cli.run_cli(["reconstruct", sigma.json, "--max-k", N, "-o", out])``
    on step measures of random GUE matrices (T = I, S_0 = I), n in {1,2,3},
    N in {20,40,80,160}.  The inputs come from numpy alone, so a change to
    ``generate_random`` cannot shift them.  Loads the inverse sweep,
    vectorpoly, serialize and cli; matrices and the spectral recursions do
    none of the work.  Gate (criterion 09 bounds): exit code 0, N rows
    emitted, eigenvalues within 1e-8 of the input's and jumps of the
    recovered step function within 1e-7 of the input's.

N=160 is absent from roundtrip and direct at this commit: one N=160 round
trip takes about 4-5 s and fails, which would leave too few attempts in a
run.  It is added once the structural scans are fast, as a benchmark change
of its own.
"""

import contextlib
import hashlib
import io
import json
import os
import traceback
from dataclasses import dataclass

import numpy as np

from specband import cli, interpolation, matrices, reconstruct, spectral
from specband.errors import StageError

# Gate bounds, each taken from the acceptance criterion named beside it
# (tests/test_acceptance.py).
EIG_TOL = 1e-8  # criterion 09: eigenvalue error of the round trip
JUMP_TOL = 1e-7  # criterion 09: jump-matrix error of the round trip
GRAM_TOL = 1e-9  # criterion 02: orthonormality defect max |G - I|
QNORM_TOL = 1e-18  # criterion 03: max |q_j|^2 / scale_j^2
ROOT_TOL = 1e-6  # criterion 05: gap between det Theta roots and eigenvalues
MULT_TOL = 1e-9  # criterion 06: max |<p_i, t p_j> - m_ij|

#: relative gap under which neighbouring eigenvalues form one jump; the
#: package uses the same value (spectral.CLUSTER_TOL)
CLUSTER_TOL = 1e-9


@dataclass
class Instance:
    """One input of a workload, with the reference data its gate needs."""

    n: int
    N: int
    lambdas: np.ndarray  # reference eigenvalues, ascending
    jumps: list  # reference jump matrices, one per eigenvalue cluster
    digest: bytes  # hash of the generated input
    spec: object = None  # MatrixSpec (roundtrip, direct)
    t: object = None  # BoundaryMatrix (roundtrip, direct)
    path: str = None  # step-measure file (inverse)


def step_jumps(lambdas, heads, t):
    """Jump matrices C C* of a step function, summed over eigenvalue clusters.

    ``heads`` holds the first n entries of each eigenvector as columns and
    ``t`` the upper-triangular boundary matrix; C solves T* C = head.  The
    phase of an eigenvector cancels in C C*.
    """
    cs = np.linalg.solve(np.asarray(t).conj().T, heads)
    jumps = []
    for k, lam in enumerate(lambdas):
        jump = np.outer(cs[:, k], cs[:, k].conj())
        if k and abs(lam - lambdas[k - 1]) <= CLUSTER_TOL * (1.0 + abs(lam)):
            jumps[-1] = jumps[-1] + jump
        else:
            jumps.append(jump)
    return jumps


def check_spectrum(data, t, n, inst):
    """(eigenvalue error, jump error) of a recovered dense matrix against the reference.

    Both are inf when the size or the number of jumps differs.
    """
    if data.shape != (inst.N, inst.N):
        return float("inf"), float("inf")
    lam, phi = np.linalg.eigh(data)
    eig_err = float(np.max(np.abs(lam - inst.lambdas)))
    jumps = step_jumps(lam, phi[:n, :], t)
    if len(jumps) != len(inst.jumps):
        return eig_err, float("inf")
    jump_err = max(float(np.max(np.abs(a - b))) for a, b in zip(jumps, inst.jumps))
    return eig_err, jump_err


def dense_from_spec(spec, N):
    """N x N Hermitian matrix of a spec's stored entries, built with numpy only."""
    data = np.zeros((N, N), dtype=complex)
    for (j, k), v in spec.entries.items():
        data[j - 1, k - 1] = v
        data[k - 1, j - 1] = np.conj(v)
    return data


def spec_instance(seed, n, N, rep):
    """Random spec and boundary matrix for one cell, as in the acceptance suite."""
    spec_seed, t_seed = np.random.SeedSequence([seed, n, N, rep]).generate_state(2)
    spec = matrices.generate_random(matrices.GenProfile(n, N), int(spec_seed))
    rng = np.random.default_rng(int(t_seed))
    t = np.triu(rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)), 1)
    t = t + np.diag(rng.uniform(0.5, 2.0, n))
    lam, phi = np.linalg.eigh(dense_from_spec(spec, N))
    h = hashlib.sha256(repr((n, N, sorted(spec.pivot.items()), spec.tail)).encode())
    for key in sorted(spec.entries):
        h.update(np.array(key, dtype=np.int64).tobytes())
        h.update(np.complex128(spec.entries[key]).tobytes())
    h.update(t.tobytes())
    return Instance(
        n=n,
        N=N,
        lambdas=lam,
        jumps=step_jumps(lam, phi[:n, :], t),
        digest=h.digest(),
        spec=spec,
        t=spectral.BoundaryMatrix(n, t),
    )


def measure_instance(seed, n, N, rep, directory):
    """Step-measure file from the eigen data of a random GUE matrix (T = I)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, N, rep]))
    a = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    # the file is hashed through the matrix it comes from: eigenvector bits
    # differ between BLAS builds and thread counts, the generator's do not
    digest = hashlib.sha256(repr((n, N)).encode() + a.tobytes()).digest()
    lam, phi = np.linalg.eigh(0.5 * (a + a.conj().T))
    heads = phi[:n, :]
    doc = {
        "n": n,
        "points": [
            {"lambda": float(l), "C": [[c.real, c.imag] for c in heads[:, k]]}
            for k, l in enumerate(lam)
        ],
    }
    text = json.dumps(doc)
    path = os.path.join(directory, f"sigma-{n}-{N}-{rep}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return Instance(
        n=n,
        N=N,
        lambdas=lam,
        jumps=step_jumps(lam, heads, np.eye(n)),
        digest=digest,
        path=path,
    )


def raiser(exc, caller):
    """Name of the function that ``caller`` called when ``exc`` was raised."""
    frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
    if caller in frames:
        i = frames.index(caller)
        if i + 1 < len(frames):
            return frames[i + 1]
    return frames[-1] if frames else caller


class Workload:
    """A grid of cells, how one instance is made, run and checked."""

    name = ""
    grid = ()  # (n, N) cells
    pool_rounds = 0  # rounds generated at set-up; a run cycles through them
    trace_rounds = 0  # most rounds a traced run measures
    round_ref_s = 1.0  # scaled seconds one round takes; sets the rounds of a run

    def __init__(self, workdir):
        self.workdir = workdir

    def make_round(self, seed, r):
        return [self.make_instance(seed, n, N, r) for n, N in self.grid]

    def make_pool(self, seed):
        return [self.make_round(seed, r) for r in range(self.pool_rounds)]

    def make_instance(self, seed, n, N, rep):
        raise NotImplementedError

    def op(self, inst):
        """The timed operation; returns what ``gate`` checks."""
        raise NotImplementedError

    def gate(self, inst, out):
        """(failure stage or None, accuracy figures) of one output.

        Runs outside the timed call.  A rejected output fails at stage "gate".
        """
        raise NotImplementedError

    def stage(self, exc):
        """Failure stage of an exception raised by ``op``."""
        raise NotImplementedError


class RoundTrip(Workload):
    name = "roundtrip"
    grid = tuple((n, N) for n in (1, 2, 3) for N in (10, 20, 40, 80))
    pool_rounds = 24
    trace_rounds = 5
    round_ref_s = 2.15

    def make_instance(self, seed, n, N, rep):
        return spec_instance(seed, n, N, rep)

    def op(self, inst):
        return reconstruct.roundtrip(inst.spec, inst.t, inst.N)

    def gate(self, inst, rep):
        eig_err, jump_err = check_spectrum(rep.matrix.data, rep.boundary.t, inst.n, inst)
        passed = (
            rep.class_ok
            and rep.matrix.N == inst.N
            and rep.eigenvalue_error <= EIG_TOL
            and rep.jump_matrix_error <= JUMP_TOL
            and eig_err <= EIG_TOL
            and jump_err <= JUMP_TOL
        )
        return None if passed else "gate", {
            "reconstruct.roundtrip.eigenvalue_error_max": rep.eigenvalue_error,
            "reconstruct.roundtrip.jump_matrix_error_max": rep.jump_matrix_error,
        }

    def stage(self, exc):
        if isinstance(exc, StageError):
            return exc.stage
        return raiser(exc, "roundtrip")


@dataclass
class DirectOutput:
    gram: np.ndarray
    mult: np.ndarray
    qnorm_ratio: np.ndarray
    roots: np.ndarray
    solution_flags: list


def direct_check(inst):
    """The direct side of one instance: structure, eigen data, p, q and their identities."""
    spec, t, N = inst.spec, inst.t, inst.N
    m = matrices.truncate(spec, N)
    s = matrices.analyze_structure(spec, N)
    sd = spectral.eigen_decompose(m)
    mu = spectral.step_measure(sd, t)
    p = spectral.build_p(m, s, t)
    q = spectral.build_q(m, s, t, p)
    gram = spectral.gram_matrix(m, s, t, sd)
    mult = spectral.multiplication_matrix(m, s, t, sd)
    norms, scales = spectral.q_norms_sq(m, s, t, sd)
    roots = spectral.det_theta_polynomial(m, s, t).roots()
    data = interpolation.InterpolationData.from_measure(mu)
    report = interpolation.verify_generators(q, data)
    return DirectOutput(gram, mult, norms / scales, roots, report.solution_flags)


class Direct(Workload):
    name = "direct"
    grid = tuple((n, N) for n in (1, 2, 3) for N in (10, 20, 40))
    pool_rounds = 48
    trace_rounds = 12
    round_ref_s = 0.667

    def make_instance(self, seed, n, N, rep):
        return spec_instance(seed, n, N, rep)

    def op(self, inst):
        return direct_check(inst)

    def gate(self, inst, out):
        N = inst.N
        gram_defect = float(np.max(np.abs(out.gram - np.eye(N))))
        mult_defect = float(np.max(np.abs(out.mult - dense_from_spec(inst.spec, N))))
        roots = np.sort(out.roots.real)
        root_gap = (
            float(np.max(np.abs(roots - inst.lambdas))) if len(roots) == N else float("inf")
        )
        passed = (
            gram_defect <= GRAM_TOL
            and float(np.max(out.qnorm_ratio)) <= QNORM_TOL
            and root_gap <= ROOT_TOL
            and mult_defect <= MULT_TOL
            and all(out.solution_flags)
        )
        return None if passed else "gate", {
            "spectral.gram_matrix.defect_max": gram_defect,
            "spectral.multiplication_matrix.defect_max": mult_defect,
            "spectral.det_theta_polynomial.root_gap_max": root_gap,
        }

    def stage(self, exc):
        return raiser(exc, "direct_check")


class Inverse(Workload):
    name = "inverse"
    grid = tuple((n, N) for n in (1, 2, 3) for N in (20, 40, 80, 160))
    pool_rounds = 32
    trace_rounds = 10
    round_ref_s = 0.97

    def __init__(self, workdir):
        super().__init__(workdir)
        self.out_path = os.path.join(workdir, "reconstructed.json")

    def make_instance(self, seed, n, N, rep):
        return measure_instance(seed, n, N, rep, self.workdir)

    def op(self, inst):
        argv = ["reconstruct", inst.path, "--max-k", str(inst.N), "-o", self.out_path]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.run_cli(argv)
        return code, err.getvalue()

    def read_output(self):
        """The reconstruction written by the last attempt; removed once read."""
        with open(self.out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(self.out_path)
        return doc

    def gate(self, inst, out):
        code, err = out
        if code != 0:
            # run_cli names the stage of a StageError on stderr
            if err.startswith("error in "):
                return err[len("error in "):].split(":", 1)[0], {}
            return "run_cli", {}
        doc = self.read_output()
        data = _complex_array(doc["matrix"]["data"])
        t = _complex_array(doc["boundary"]["t"])
        eig_err, jump_err = check_spectrum(data, t, inst.n, inst)
        passed = doc["emitted"] == inst.N and eig_err <= EIG_TOL and jump_err <= JUMP_TOL
        return None if passed else "gate", {
            "reconstruct.orthonormalize.eigenvalue_error_max": eig_err
        }

    def stage(self, exc):
        return raiser(exc, "run_cli")


def _complex_array(pairs):
    """Complex matrix from the nested [re, im] lists of specband's JSON."""
    a = np.asarray(pairs, dtype=float)
    if a.size == 0:
        return np.zeros((0, 0), dtype=complex)
    return a[..., 0] + 1j * a[..., 1]


WORKLOADS = {w.name: w for w in (RoundTrip, Direct, Inverse)}


def fingerprint(pool):
    """sha256 over every generated input of the pool, in order."""
    h = hashlib.sha256()
    for rnd in pool:
        for inst in rnd:
            h.update(inst.digest)
    return h.hexdigest()
