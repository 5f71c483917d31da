"""Command-line front end: validation, spectra, measures, reconstruction.

Every command reads/writes the JSON formats of :mod:`specband.serialize`;
complex values are [re, im] pairs throughout, a step measure's points are
sorted by lambda when read, and every JSON output is
``json.dumps(payload, indent=2)`` text, written by ``serialize.dumps``.
Exit codes: 0 success, 1 validation failure (a malformed file included), 2
numerical failure (an overflow included), 64 usage error.
``reconstruct --tol-zero`` sets the zero-norm threshold of the
reconstruction sweep (default ``reconstruct.ZERO_NORM_TOL``).
``staircase --cluster-tol`` sets the gap under which growth points join one
jump, ``check-solution --tol`` the membership check's threshold.
Tolerances are positive finite numbers, ``--k``, ``--batch`` and ``--seed``
are >= 0, and ``--N``, ``--n`` and ``gen --N-max`` are >= 1.  ``spectrum`` and
``measure`` truncate a spec at ``--N`` (default N_max); a dense input's own N
is the only ``--N`` they take.  ``measure --n`` may not exceed a dense
input's N, nor differ from a spec's n, and ``measure --N`` may not fall below
a spec's n.  A ``--boundary`` matrix's order must be that n.  ``validate
--class`` is ``m`` or ``mtilde``, and ``-o`` names every command's output file.
Flags must be spelled out in full; an abbreviation is a usage error.
``reconstruct`` writes the recovered band: an entry between rows whose
sweep heights differ by more than n is 0.0, and ``band_leakage`` is the
largest such entry of the recovered matrix over its largest entry; the
command never refuses for it.  Where the leakage exceeds
``reconstruct.BAND_NOISE_TOL`` (a degeneration of nonzero norm) and the
sweep emitted one row per point of the measure, it writes the dense
recovery, whose spectrum is the measure's.  ``reconstruct -v`` writes the
sweep's emitted count, q heights, skip count, orthogonality loss and the
band leakage to stderr.  ``roundtrip`` exits 1 when its round trip misses
criterion 09 (class ok, size N, eigenvalue error <= 1e-8, jump-matrix error
<= 1e-7), ``roundtrip --batch`` when any of its round trips does; the batch
summary counts those in ``failed``.
"""

import argparse
import contextlib
import csv
import functools
import math
import sys

import numpy as np

from . import reconstruct as rec
from . import serialize as ser
from .errors import (
    NoDecomposition,
    NumericalFailure,
    SingularBoundary,
    SingularZerothMoment,
    SpecbandError,
    StageError,
)
from .interpolation import InterpolationData, is_solution, verify_generators
from .matrices import GenProfile, analyze_structure, generate_random, truncate, validate_class
from .spectral import (
    CLUSTER_TOL,
    BoundaryMatrix,
    build_p,
    build_q,
    eigen_decompose,
    step_measure,
)
from .vectorpoly import height

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

_NUMERICAL = (NumericalFailure, SingularBoundary, SingularZerothMoment, NoDecomposition,
              FloatingPointError)


class UsageError(Exception):
    """Arguments that parse but cannot be used together (exit code 64)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _checked(parse, ok, what):
    """argparse type: ``parse(text)`` if ``ok`` holds of the value, else a usage error."""
    def convert(text):
        with contextlib.suppress(ValueError):  # unparsable: refused like a bad value
            if ok(value := parse(text)):
                return value
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return convert


_tolerance = _checked(float, lambda v: math.isfinite(v) and v > 0, "a positive finite number")
_count = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_size = _checked(int, lambda v: v > 0, "a positive integer")


def _emit(payload, out_path):
    text = ser.dump(payload, out_path or None)
    if text is not None:
        print(text)


def _load_boundary(path, n):
    if path is None:
        return BoundaryMatrix.identity(n)
    t = ser.boundary_from_dict(ser.load(path))
    if t.n != n:
        raise UsageError(f"--boundary order {t.n} differs from n={n}")
    return t


def cmd_validate(args):
    spec = ser.spec_from_dict(ser.load(args.file))
    report = validate_class(spec, args.klass)
    _emit(report.to_dict(), args.output)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_truncate(args):
    spec = ser.spec_from_dict(ser.load(args.file))
    m = truncate(spec, args.N)
    _emit(ser.matrix_to_dict(m), args.output)
    return EXIT_OK


def _read_truncation(path, N, n=None):
    """The matrix that ``--N`` selects from a spec or dense file, and its order n.

    A spec is truncated at N (default N_max) and ``n`` may only repeat its n; a
    dense matrix's N is the only N it takes, and ``n`` may not exceed it."""
    obj, kind = ser.sniff_matrix_or_spec(ser.load(path))
    if kind == "spec":
        if n not in (None, obj.n):
            raise UsageError(f"--n {n} differs from the spec's n={obj.n}")
        return truncate(obj, N or obj.n_max), obj.n
    if N not in (None, obj.N):
        raise SpecbandError("cannot retruncate a dense matrix; pass the structural file")
    if n is not None and n > obj.N:
        raise UsageError(f"--n {n} exceeds the dense matrix's size N={obj.N}")
    return obj, n


def cmd_spectrum(args):
    m, _ = _read_truncation(args.file, args.N)
    sd = eigen_decompose(m)
    payload = {
        "N": m.N,
        "eigenvalues": [float(l) for l in sd.lambdas],
        "unitarity_defect": sd.unitarity_defect(),
    }
    _emit(payload, args.output)
    return EXIT_OK


def cmd_measure(args):
    m, n = _read_truncation(args.file, args.N, args.n)
    if n is None:
        raise SpecbandError("dense input needs --n to fix the boundary order")
    if n > m.N:  # only a spec reaches here: a dense input's --n was checked above
        raise UsageError(f"--N {m.N} is below the spec's n={n}")
    sd = eigen_decompose(m)
    t = _load_boundary(args.boundary, n)
    mu = step_measure(sd, t)
    _emit(ser.measure_to_dict(mu), args.output)
    return EXIT_OK


def cmd_moments(args):
    mu = ser.measure_from_dict(ser.load(args.file))
    out = ser.Pairs(mu.moments_upto(args.k))
    _emit({"n": mu.n, "orders": args.k, "moments": out}, args.output)
    return EXIT_OK


def cmd_staircase(args):
    mu = ser.measure_from_dict(ser.load(args.file))
    jumps = mu.grouped_jumps(args.cluster_tol)
    # sigma after each jump, J_1, J_1 + J_2, ...; a jump is 0.0 + C C* + ..., so no -0.0
    acc = np.cumsum(jumps["jump"], axis=0)
    # a row is lambda, then re and im of each entry of sigma, row by row
    sigma = acc.view(float).reshape(len(acc), 2 * mu.n**2)
    rows = np.column_stack([jumps["location"], sigma]).tolist()
    ij = [f"s_{i}{j}" for i in range(1, mu.n + 1) for j in range(1, mu.n + 1)]
    header = ["lambda"] + [f"{s}_{part}" for s in ij for part in ("re", "im")]
    out = args.output
    fh = open(out, "w", newline="", encoding="utf-8") if out else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out:
            fh.close()
    return EXIT_OK


def cmd_check_solution(args):
    mu = ser.measure_from_dict(ser.load(args.sigma))
    poly = ser.poly_from_dict(ser.load(args.poly))
    data = InterpolationData.from_measure(mu)
    ok = is_solution(poly, data, tol=args.tol)
    _emit({"is_solution": ok, "height": none_if_inf(height(poly))}, args.output)
    return EXIT_OK if ok else EXIT_VALIDATION


def none_if_inf(h):
    return None if h == float("-inf") else int(h)


def cmd_generators(args):
    spec = ser.spec_from_dict(ser.load(args.file))
    N = args.N or spec.n_max
    m = truncate(spec, N)
    s = analyze_structure(spec, N)
    t = _load_boundary(args.boundary, spec.n)
    sd = eigen_decompose(m)
    mu = step_measure(sd, t)
    p = build_p(m, s, t)
    q = build_q(m, s, t, p)
    report = verify_generators(q, InterpolationData.from_measure(mu))
    payload = report.to_dict()
    payload["p_heights"] = [none_if_inf(height(pk)) for pk in p]
    _emit(payload, args.output)
    return EXIT_OK


def cmd_height(args):
    poly = ser.poly_from_dict(ser.load(args.file))
    _emit({"n": poly.n, "height": none_if_inf(height(poly))}, args.output)
    return EXIT_OK


def cmd_reconstruct(args):
    mu = ser.measure_from_dict(ser.load(args.file))
    if args.max_k < mu.n:
        raise UsageError(f"--max-k {args.max_k} is below the measure's order n={mu.n}")
    res = rec.orthonormalize(mu, args.max_k, zero_tol=args.tol_zero)
    m, leakage = rec.recover_band(res)
    if leakage > rec.BAND_NOISE_TOL and len(res.weights) == len(res.lambdas):
        # a degeneration of nonzero norm, and a row per point: W is unitary, so
        # W diag(lambda) W* reproduces the measure, which the band would not
        m = rec.recover_matrix(res)
    if args.verbose:
        print(f"emitted {len(res.weights)}, q heights {list(res.q_heights)}, "
              f"skips {len(res.skip_log)}, orthogonality loss {res.orthogonality_loss:.3e}, "
              f"band leakage {leakage:.3e}", file=sys.stderr)
    payload = {
        "matrix": ser.matrix_to_dict(m),
        "boundary": ser.boundary_to_dict(res.t_tilde),
        "q_heights": list(res.q_heights),
        "skip_log": list(res.skip_log),
        "rank_exhausted": res.rank_exhausted,
        "emitted": len(res.weights),
        "band_leakage": leakage,
    }
    _emit(payload, args.output)
    return EXIT_OK


def cmd_roundtrip(args):
    """Report one round trip, or a batch of them; exit 1 where one misses criterion 09."""
    spec = ser.spec_from_dict(ser.load(args.file))
    t = _load_boundary(args.boundary, spec.n)
    if args.batch:
        reports = []
        for i in range(args.batch):
            g = generate_random(
                GenProfile(n=spec.n, n_max=max(args.N, spec.n + 2)), args.seed + i
            )
            reports.append(rec.roundtrip(g, t, args.N))
        payload = {
            "batch": args.batch,
            "max_eigenvalue_error": max(r.eigenvalue_error for r in reports),
            "all_class_ok": all(r.class_ok for r in reports),
            "failed": sum(not r.passed for r in reports),
            "reports": [r.to_dict() for r in reports],
        }
        _emit(payload, args.output)
        return EXIT_OK if payload["failed"] == 0 else EXIT_VALIDATION
    report = rec.roundtrip(spec, t, args.N)
    _emit(report.to_dict(), args.output)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_gen(args):
    profile = GenProfile(
        n=args.n,
        n_max=args.N_max,
        tail=tuple(args.tail) if args.tail else None,
        mtilde=args.mtilde,
        complex_entries=not args.real,
    )
    spec = generate_random(profile, args.seed)
    _emit(ser.spec_to_dict(spec), args.output)
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process; each parse gets a new namespace."""
    parser = _Parser(prog="specband", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--output", default=None, help="write result here")
        return p

    p = add("validate", cmd_validate, help="check class membership")
    p.add_argument("--class", dest="klass", choices=["m", "mtilde"], default="m")
    p.add_argument("file")

    p = add("truncate", cmd_truncate, help="emit a dense truncation")
    p.add_argument("--N", type=_size, required=True)
    p.add_argument("file")

    p = add("spectrum", cmd_spectrum, help="eigenvalues of a truncation")
    p.add_argument("--N", type=_size, default=None)
    p.add_argument("file")

    p = add("measure", cmd_measure, help="step spectral function")
    p.add_argument("--N", type=_size, default=None)
    p.add_argument("--n", type=_size, default=None, help="boundary order for dense input")
    p.add_argument("--boundary", default=None, help="boundary matrix JSON")
    p.add_argument("file")

    p = add("moments", cmd_moments, help="matrix moments S_0..S_k")
    p.add_argument("--k", type=_count, required=True)
    p.add_argument("file")

    p = add("staircase", cmd_staircase, help="CSV of cumulative sigma per jump")
    p.add_argument("--cluster-tol", type=_tolerance, default=CLUSTER_TOL)
    p.add_argument("file")

    p = add("check-solution", cmd_check_solution, help="interpolation membership")
    p.add_argument("sigma")
    p.add_argument("poly")
    p.add_argument("--tol", type=_tolerance, default=1e-8)

    p = add("generators", cmd_generators, help="generator report for the q system")
    p.add_argument("--N", type=_size, default=None)
    p.add_argument("--boundary", default=None)
    p.add_argument("file")

    p = add("height", cmd_height, help="height of a vector polynomial")
    p.add_argument("file")

    p = add("reconstruct", cmd_reconstruct, help="matrix from a step measure")
    p.add_argument("--verbose", "-v", action="count", default=0)
    p.add_argument("--max-k", type=int, default=20)
    p.add_argument("--tol-zero", type=_tolerance, default=rec.ZERO_NORM_TOL,
                   help="zero-norm threshold of the sweep (default %(default)s)")
    p.add_argument("file")

    p = add("roundtrip", cmd_roundtrip, help="full direct+inverse pipeline report")
    p.add_argument("--N", type=_size, required=True)
    p.add_argument("--boundary", default=None)
    p.add_argument("--batch", type=_count, default=0,
                   help="round-trip B generated instances with seeds S..S+B-1 instead")
    p.add_argument("--seed", type=_count, default=0, help="first seed S of a batch")
    p.add_argument("file")

    p = add("gen", cmd_gen, help="random instance in the matrix class")
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--N-max", type=_size, required=True)
    p.add_argument("--tail", type=int, nargs=2, default=None)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--mtilde", action="store_true")
    p.add_argument("--real", action="store_true")
    return parser


def run_cli(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StageError as exc:
        print(f"error in {exc.stage}: {exc.original}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc.original, _NUMERICAL) else EXIT_VALIDATION
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SpecbandError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
