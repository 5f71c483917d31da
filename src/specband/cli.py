"""Command-line front end: validation, spectra, measures, reconstruction.

Every command reads/writes the JSON formats of :mod:`specband.serialize`;
complex values are [re, im] pairs throughout.  Exit codes: 0 success, 1
validation failure, 2 numerical failure, 64 usage error.  The environment
variable SPECBAND_TOL overrides the zero-norm threshold used by the
reconstruction sweep; --tol-zero overrides both.  Tolerances must be
positive finite numbers.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

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

_NUMERICAL = (NumericalFailure, SingularBoundary, SingularZerothMoment, NoDecomposition)


@dataclass
class Config:
    """Tolerances and output knobs shared by the subcommands."""

    tol_zero: float = rec.ZERO_NORM_TOL
    cluster: float = CLUSTER_TOL

    def __post_init__(self):
        if min(self.tol_zero, self.cluster) <= 0:
            raise ValueError("tolerances must be positive")


class UsageError(Exception):
    """Arguments that parse but cannot be used together (exit code 64)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _tolerance(text):
    """argparse type of a tolerance: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below like any other bad value
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_boundary(path, n):
    if path is None:
        return BoundaryMatrix.identity(n)
    return ser.boundary_from_dict(ser.load(path))


def _dense_and_structure(d, N=None):
    """Dense truncation plus structure info from a spec or dense-matrix dict."""
    obj, kind = ser.sniff_matrix_or_spec(d)
    if kind == "matrix":
        if N is not None and N != obj.N:
            raise SpecbandError("cannot retruncate a dense matrix; pass the structural file")
        return obj, None
    N = N or obj.n_max
    return truncate(obj, N), analyze_structure(obj, N)


def cmd_validate(args, cfg):
    spec = ser.spec_from_dict(ser.load(args.file))
    which = "mtilde" if args.klass in ("mtilde", "m_tilde") else "m"
    report = validate_class(spec, which)
    _emit(report.to_dict(), args.output)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_truncate(args, cfg):
    spec = ser.spec_from_dict(ser.load(args.file))
    m = truncate(spec, args.N)
    _emit(ser.matrix_to_dict(m), args.output)
    return EXIT_OK


def cmd_spectrum(args, cfg):
    m, _ = _dense_and_structure(ser.load(args.file), args.N)
    sd = eigen_decompose(m)
    payload = {
        "N": m.N,
        "eigenvalues": [float(l) for l in sd.lambdas],
        "unitarity_defect": sd.unitarity_defect(),
    }
    _emit(payload, args.output)
    return EXIT_OK


def cmd_measure(args, cfg):
    d = ser.load(args.file)
    obj, kind = ser.sniff_matrix_or_spec(d)
    if kind == "spec":
        N = args.N or obj.n_max
        m = truncate(obj, N)
        n = obj.n
    else:
        m = obj
        if args.n is None:
            raise SpecbandError("dense input needs --n to fix the boundary order")
        n = args.n
    sd = eigen_decompose(m)
    t = _load_boundary(args.boundary, n)
    mu = step_measure(sd, t)
    _emit(ser.measure_to_dict(mu), args.output)
    return EXIT_OK


def cmd_moments(args, cfg):
    mu = ser.measure_from_dict(ser.load(args.file))
    out = [[[list_pair(v) for v in row] for row in s] for s in mu.moments_upto(args.k)]
    _emit({"n": mu.n, "orders": args.k, "moments": out}, args.output)
    return EXIT_OK


def list_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def cmd_staircase(args, cfg):
    mu = ser.measure_from_dict(ser.load(args.file))
    jumps = mu.grouped_jumps(cfg.cluster)
    rows = []
    acc = np.zeros((mu.n, mu.n), dtype=complex)
    for lam, jump, _rank in jumps:
        acc = acc + jump
        row = [lam]
        for i in range(mu.n):
            for j in range(mu.n):
                row.extend([acc[i, j].real, acc[i, j].imag])
        rows.append(row)
    header = ["lambda"]
    for i in range(mu.n):
        for j in range(mu.n):
            header.extend([f"s_{i + 1}{j + 1}_re", f"s_{i + 1}{j + 1}_im"])
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


def cmd_check_solution(args, cfg):
    mu = ser.measure_from_dict(ser.load(args.sigma))
    poly = ser.poly_from_dict(ser.load(args.poly))
    data = InterpolationData.from_measure(mu)
    ok = is_solution(poly, data, tol=args.tol)
    _emit({"is_solution": ok, "height": none_if_inf(height(poly))}, args.output)
    return EXIT_OK if ok else EXIT_VALIDATION


def none_if_inf(h):
    return None if h == float("-inf") else int(h)


def cmd_generators(args, cfg):
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


def cmd_height(args, cfg):
    poly = ser.poly_from_dict(ser.load(args.file))
    _emit({"n": poly.n, "height": none_if_inf(height(poly))}, args.output)
    return EXIT_OK


def cmd_reconstruct(args, cfg):
    mu = ser.measure_from_dict(ser.load(args.file))
    if args.max_k < mu.n:
        raise UsageError(f"--max-k {args.max_k} is below the measure's order n={mu.n}")
    res = rec.orthonormalize(mu, args.max_k, zero_tol=cfg.tol_zero)
    m = rec.recover_matrix(res, mu)
    payload = {
        "matrix": ser.matrix_to_dict(m),
        "boundary": ser.boundary_to_dict(res.t_tilde),
        "q_heights": list(res.q_heights),
        "skip_log": list(res.skip_log),
        "rank_exhausted": res.rank_exhausted,
        "emitted": len(res.p_tilde),
    }
    _emit(payload, args.output)
    return EXIT_OK


def cmd_roundtrip(args, cfg):
    spec = ser.spec_from_dict(ser.load(args.file))
    t = _load_boundary(args.boundary, spec.n)
    if args.batch:
        reports = []
        for i in range(args.batch):
            g = generate_random(
                GenProfile(n=spec.n, n_max=max(args.N, spec.n + 2)), args.seed + i
            )
            reports.append(rec.roundtrip(g, t, args.N).to_dict())
        payload = {
            "batch": args.batch,
            "max_eigenvalue_error": max(r["eigenvalue_error"] for r in reports),
            "all_class_ok": all(r["class_ok"] for r in reports),
            "reports": reports,
        }
        _emit(payload, args.report or args.output)
        return EXIT_OK if payload["all_class_ok"] else EXIT_VALIDATION
    report = rec.roundtrip(spec, t, args.N)
    _emit(report.to_dict(), args.report or args.output)
    return EXIT_OK if report.class_ok else EXIT_VALIDATION


def cmd_gen(args, cfg):
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


def build_parser():
    parser = _Parser(prog="specband", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--output", default=None, help="write result here")
        return p

    p = add("validate", cmd_validate, help="check class membership")
    p.add_argument("--class", dest="klass", choices=["m", "mtilde", "m_tilde"], default="m")
    p.add_argument("file")

    p = add("truncate", cmd_truncate, help="emit a dense truncation")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("file")

    p = add("spectrum", cmd_spectrum, help="eigenvalues of a truncation")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("file")

    p = add("measure", cmd_measure, help="step spectral function")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="boundary order for dense input")
    p.add_argument("--boundary", default=None, help="boundary matrix JSON")
    p.add_argument("file")

    p = add("moments", cmd_moments, help="matrix moments S_0..S_k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("file")

    p = add("staircase", cmd_staircase, help="CSV of cumulative sigma per jump")
    p.add_argument("file")

    p = add("check-solution", cmd_check_solution, help="interpolation membership")
    p.add_argument("sigma")
    p.add_argument("poly")
    p.add_argument("--tol", type=float, default=1e-8)

    p = add("generators", cmd_generators, help="generator report for the q system")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--boundary", default=None)
    p.add_argument("file")

    p = add("height", cmd_height, help="height of a vector polynomial")
    p.add_argument("file")

    p = add("reconstruct", cmd_reconstruct, help="matrix from a step measure")
    p.add_argument("--max-k", type=int, default=20)
    p.add_argument("file")

    p = add("roundtrip", cmd_roundtrip, help="full direct+inverse pipeline report")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--boundary", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--batch", type=int, default=0,
                   help="round-trip B generated instances with seeds S..S+B-1 instead")
    p.add_argument("--seed", type=int, default=0, help="first seed S of a batch")
    p.add_argument("file")

    p = add("gen", cmd_gen, help="random instance in the matrix class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N-max", type=int, required=True)
    p.add_argument("--tail", type=int, nargs=2, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mtilde", action="store_true")
    p.add_argument("--real", action="store_true")

    for sp in sub.choices.values():
        sp.add_argument("--tol-zero", type=_tolerance, default=None)
        sp.add_argument("--cluster-tol", type=_tolerance, default=None)
        sp.add_argument("--verbose", "-v", action="count", default=0)
    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tol_zero = rec.ZERO_NORM_TOL
    env = os.environ.get("SPECBAND_TOL")
    if env:
        try:
            tol_zero = _tolerance(env)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"SPECBAND_TOL {exc}")
    if args.tol_zero is not None:
        tol_zero = args.tol_zero
    cfg = Config(
        tol_zero=tol_zero,
        cluster=CLUSTER_TOL if args.cluster_tol is None else args.cluster_tol,
    )
    try:
        return args.fn(args, cfg)
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
