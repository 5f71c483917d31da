"""JSON encodings for every on-disk data type.

Complex numbers are always written as two-element [re, im] arrays.  Matrix
entries store the upper triangle only; Hermitian symmetry is implied.
Every file is ``json.dumps(obj, indent=2)`` text, written by :func:`dumps`.
A decoder refuses a value of the wrong kind, such as a null where a number
belongs, with a ``ValueError`` that names the field (and, in a measure, the
point), which the command line prints as an ``error:`` line.
"""

import functools
import json
from itertools import chain

import numpy as np

from .matrices import FiniteHermitian, MatrixSpec, TailProfile
from .spectral import BoundaryMatrix, StepMeasure
from .vectorpoly import VectorPolynomial


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def complex_pairs(a):
    """Nested [re, im] lists of a complex array: the floats of ``_c`` per entry."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _unc(pair):
    return complex(pair[0], pair[1])


_MISSING = object()


def _field(d, key, parse, where="", default=_MISSING):
    """parse(d[key]), or ``default`` when given and the key is absent.

    A null or another value of the wrong kind, which ``parse`` refuses with a
    ``TypeError`` or ``AttributeError``, raises a ``ValueError`` naming the
    field, after the prefix ``where`` (such as the point it belongs to).
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where}expected an object, not {_excerpt(d)}")
    if default is not _MISSING and key not in d:
        return default
    try:
        return parse(d[key])
    except (TypeError, AttributeError):
        raise ValueError(f"{where}field {key!r} cannot hold {_excerpt(d[key])}") from None


def _excerpt(value, width=60):
    """The JSON text of a value, cut to ``width`` characters."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= width else text[: width - 3] + "..."


def _complex_rows(rows):
    return [[_unc(v) for v in row] for row in rows]


def spec_to_dict(spec: MatrixSpec) -> dict:
    out = {
        "n": spec.n,
        "N_max": spec.n_max,
        "tail": list(spec.tail) if spec.tail else None,
        "pivot": {str(c): r for c, r in sorted(spec.pivot.items())},
        "entries": [[j, k, *_c(v)] for (j, k), v in sorted(spec.entries.items())],
    }
    if spec.tail_profile is not None:
        out["tail_profile"] = {
            "edge": _c(spec.tail_profile.edge),
            "interior": {str(d): _c(v) for d, v in spec.tail_profile.interior.items()},
        }
    else:
        out["tail_profile"] = None
    return out


def spec_from_dict(d: dict) -> MatrixSpec:
    n = _field(d, "n", int)  # first: it refuses a d that is no object before d.get
    profile = None
    if d.get("tail_profile"):
        tp = d["tail_profile"]
        profile = TailProfile(
            _field(tp, "edge", _unc, "tail_profile: "),
            _field(tp, "interior", lambda i: {int(k): _unc(v) for k, v in i.items()},
                   "tail_profile: ", default={}),
        )
    return MatrixSpec(
        n=n,
        n_max=_field(d, "N_max", int),
        entries=_field(d, "entries",
                       lambda e: {(int(j), int(k)): complex(re, im) for j, k, re, im in e}),
        pivot=_field(d, "pivot", lambda p: {int(c): int(r) for c, r in p.items()}, default={}),
        tail=_field(d, "tail", lambda v: tuple(map(int, v)) if v else None, default=None),
        tail_profile=profile,
    )


def matrix_to_dict(m: FiniteHermitian) -> dict:
    return {"N": m.N, "data": complex_pairs(m.data)}


def matrix_from_dict(d: dict) -> FiniteHermitian:
    data = np.array(_field(d, "data", _complex_rows), dtype=complex)
    return FiniteHermitian(_field(d, "N", int), data)


def boundary_to_dict(t: BoundaryMatrix) -> dict:
    return {"n": t.n, "t": complex_pairs(t.t)}


def boundary_from_dict(d: dict) -> BoundaryMatrix:
    t = np.array(_field(d, "t", _complex_rows), dtype=complex)
    return BoundaryMatrix(_field(d, "n", int), t)


def measure_to_dict(mu: StepMeasure) -> dict:
    pairs = zip(mu.lambdas.tolist(), complex_pairs(mu.c))
    return {"n": mu.n, "points": [{"lambda": lam, "C": c} for lam, c in pairs]}


def measure_from_dict(d: dict) -> StepMeasure:
    """The measure of a dict, its points sorted by lambda (``StepMeasure`` sorts them)."""
    n, pts = _field(d, "n", int), d["points"]
    # one row per point: lambda, then the [re, im] pairs of C; float() refuses a null
    try:
        rows = np.array([[float(x) for x in chain([p["lambda"]], *p["C"])] for p in pts])
    except TypeError:
        # the first point and field at fault, read again one by one
        for i, p in enumerate(_field(d, "points", list)):
            _field(p, "lambda", float, f"point {i}: ")
            _field(p, "C", lambda c: [float(x) for x in chain(*c)], f"point {i}: ")
        raise
    rows = rows.reshape(len(pts), 2 * n + 1)
    return StepMeasure(n, rows[:, 0], np.ascontiguousarray(rows[:, 1:]).view(complex))


def poly_to_dict(r: VectorPolynomial) -> dict:
    return {"n": r.n, "comps": [[_c(v) for v in comp] for comp in r.comps]}


def poly_from_dict(d: dict) -> VectorPolynomial:
    comps = _field(d, "comps", _complex_rows)
    return VectorPolynomial.from_components(comps, _field(d, "n", int), tol=0.0)


_SCALARS = frozenset((str, int, float, bool, type(None)))
_SEQUENCES = frozenset((list, tuple))
_CONTAINERS = (list, tuple, dict)


@functools.lru_cache(maxsize=None)
def _flat(level):
    """C-encoder call that separates items by a newline and ``level`` indents."""
    return json.JSONEncoder(separators=(",\n" + "  " * level, ": ")).encode


def _scalars(items):
    """True if every item is exactly one of the JSON scalar types."""
    return _SCALARS.issuperset(map(type, items))


def _is_rows(o):
    """True for a list of non-empty lists (or tuples) of JSON scalars."""
    return _SEQUENCES.issuperset(map(type, o)) and all(o) and _scalars(chain.from_iterable(o))


def _rows(rows, level):
    r"""A list of non-empty scalar lists at ``level``, in one C-encoder call.

    Encoded scalars hold no raw newline, so "],\n[" only occurs between two
    inner lists and ",\n" only between two items.
    """
    outer, inner = "  " * (level + 1), "  " * (level + 2)
    body = (
        _flat(0)(rows)[2:-2]
        .replace(",\n", ",\n" + inner)
        .replace("],\n" + inner + "[", f"\n{outer}],\n{outer}[\n{inner}")
    )
    return f"[\n{outer}[\n{inner}{body}\n{outer}]\n{'  ' * level}]"


def _mixed(o, level, path):
    """Items of a container at ``level`` that holds containers, as texts.

    Each run of scalar items takes one C-encoder call; a dict key before a
    container goes through the C encoder on its own.
    """
    is_dict = isinstance(o, dict)
    parts, run = [], []
    path.add(id(o))
    for item in o.items() if is_dict else o:
        value = item[1] if is_dict else item
        if not isinstance(value, _CONTAINERS):
            run.append(item)
            continue
        if run:
            parts.append(_flat(level)(dict(run) if is_dict else run)[1:-1])
            run = []
        text = _encode(value, level, path)
        parts.append(_flat(0)({item[0]: 0})[1:-4] + ": " + text if is_dict else text)
    if run:
        parts.append(_flat(level)(dict(run) if is_dict else run)[1:-1])
    path.discard(id(o))
    return parts


def _encode(o, level, path):
    """``json.dumps(o, indent=2)`` text of ``o`` nested ``level`` deep."""
    if not isinstance(o, _CONTAINERS):
        return _flat(level)(o)
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    if id(o) in path:
        raise ValueError("Circular reference detected")
    is_dict = isinstance(o, dict)
    if _scalars(o.values() if is_dict else o):
        body = _flat(level + 1)(o)[1:-1]
    elif not is_dict and _is_rows(o):
        return _rows(o, level)
    else:
        body = (",\n" + "  " * (level + 1)).join(_mixed(o, level + 1, path))
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}\n{'  ' * (level + 1)}{body}\n{'  ' * level}{closing}"


def dumps(obj):
    """``json.dumps(obj, indent=2)``, byte for byte, with the same errors.

    Dicts and lists are walked here.  Each run of scalars, and each list of
    scalar lists such as a matrix row of [re, im] pairs, takes one call of
    the C encoder, which formats NaN, infinities, ints and strings exactly as
    json does.
    """
    return _encode(obj, 0, set())


def dump(obj_dict, path=None):
    text = dumps(obj_dict)
    if path is None:
        return text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return None


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sniff_matrix_or_spec(d: dict):
    """Accept either a structural spec or a dense matrix dictionary."""
    if "entries" in d:
        return spec_from_dict(d), "spec"
    if "data" in d:
        return matrix_from_dict(d), "matrix"
    raise ValueError("file is neither a matrix spec nor a dense matrix")
