"""JSON encodings for every on-disk data type.

Complex numbers are always written as two-element [re, im] arrays.  Matrix
entries store the upper triangle only; Hermitian symmetry is implied.
Every file is ``json.dumps(obj, indent=2)`` text, written by :func:`dumps`,
which hands each scalar and each dict or list of scalars to json's C
encoder and writes each :class:`Pairs` array (a matrix, a boundary matrix,
moments) at the cost of its nonzero entries (see ``_pairs``).
A decoder refuses a missing field or a value of the wrong kind, shape or
size, such as a null or NaN where a finite number belongs, an ``n`` that is
no integer >= 1 or a matrix whose ``data`` is not N x N pairs, with a
``ValueError`` that names the field (and, in a measure, the point), which
the command line prints as an ``error:`` line.
"""

import functools
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .matrices import FiniteHermitian, MatrixSpec, TailProfile
from .spectral import BoundaryMatrix, StepMeasure
from .vectorpoly import VectorPolynomial


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def complex_pairs(a):
    """Nested [re, im] lists of a complex array: the floats of ``_c`` per entry.

    :func:`dumps` writes ``Pairs(a)`` as the same text, without the lists.
    """
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


class Pairs:
    """A complex array that :func:`dumps` writes as its ``complex_pairs`` lists.

    It is the one value that :func:`dumps` knows and json does not: json
    refuses it with the ``TypeError`` it raises for any unknown type.
    """

    __slots__ = ("array",)

    def __init__(self, a):
        self.array = np.asarray(a, dtype=complex)


_MISSING = object()

#: what a parser raises for a value of the wrong kind, length, shape or size
_REFUSALS = (TypeError, ValueError, AttributeError, LookupError, ArithmeticError)


def _field(d, key, parse, where="", default=_MISSING):
    """parse(d[key]), or ``default`` when given and the key is absent.

    An absent key without a default, or a null or another value that
    ``parse`` refuses with one of ``_REFUSALS`` (a [re] pair, say), raises a
    ``ValueError`` naming the field, after the prefix ``where`` (such as the
    point it belongs to).
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where}expected an object, not {_excerpt(d)}")
    if key not in d:
        if default is _MISSING:
            raise ValueError(f"{where}missing field {key!r}")
        return default
    try:
        return parse(d[key])
    except _REFUSALS:
        raise ValueError(f"{where}field {key!r} cannot hold {_excerpt(d[key])}") from None


def _excerpt(value, width=60):
    """The JSON text of a value, cut to ``width`` characters."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= width else text[: width - 3] + "..."


def _index(v, low=1):
    """v if it is an integer >= ``low``; a float, a bool or a string is refused."""
    if type(v) is not int or v < low:
        raise ValueError(f"not an integer >= {low}")
    return v


def _finite(v):
    x = float(v)
    if not math.isfinite(x):
        raise ValueError("not a finite number")
    return x


def _unc(pair):
    """The complex number of a [re, im] pair of finite numbers."""
    re, im = pair
    return complex(_finite(re), _finite(im))


def _floats(v, shape):
    """v as a float array of ``shape`` with finite entries; [] is the empty one."""
    a = np.array(v, dtype=float)  # a null is NaN here, and refused
    if a.size == 0:
        a = a.reshape(shape)
    if a.shape != shape or not np.isfinite(a).all():
        raise ValueError(f"not finite numbers of shape {shape}")
    return a


def _complex_array(v, shape):
    """The complex array of ``shape`` whose entries are the [re, im] pairs of v."""
    return _floats(v, (*shape, 2)).view(complex)[..., 0]


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


def _tail(v):
    j0, k0 = map(_index, v)
    if k0 <= j0:
        raise ValueError("not k0 > j0")
    return j0, k0


def spec_from_dict(d: dict) -> MatrixSpec:
    n = _field(d, "n", _index)  # first: it refuses a d that is no object before d.get
    profile = None
    if d.get("tail_profile"):
        tp = d["tail_profile"]
        profile = TailProfile(
            _field(tp, "edge", _unc, "tail_profile: "),
            _field(tp, "interior", lambda i: {_index(int(k)): _unc(v) for k, v in i.items()},
                   "tail_profile: ", default={}),
        )
    n_max = _field(d, "N_max", lambda v: _index(v, n))
    entries = _field(d, "entries", lambda e: {
        (_index(j), _index(k)): complex(_finite(re), _finite(im)) for j, k, re, im in e})
    pivot = _field(d, "pivot", lambda p: {_index(int(c)): _index(r) for c, r in p.items()},
                   default={})
    tail = _field(d, "tail", lambda v: None if v is None else _tail(v), default=None)
    try:
        return MatrixSpec(n, n_max, entries, pivot, tail, profile)
    except ValueError as exc:  # the one check left to MatrixSpec: mirrored entries that differ
        raise ValueError(f"field 'entries': {exc}") from None


def matrix_to_dict(m: FiniteHermitian) -> dict:
    return {"N": m.N, "data": Pairs(m.data)}


def matrix_from_dict(d: dict) -> FiniteHermitian:
    N = _field(d, "N", _index)
    return FiniteHermitian(N, _field(d, "data", lambda v: _complex_array(v, (N, N))))


def boundary_to_dict(t: BoundaryMatrix) -> dict:
    return {"n": t.n, "t": Pairs(t.t)}


def boundary_from_dict(d: dict) -> BoundaryMatrix:
    n = _field(d, "n", _index)
    return _field(d, "t", lambda v: BoundaryMatrix(n, _complex_array(v, (n, n))))


def measure_to_dict(mu: StepMeasure) -> dict:
    pairs = zip(mu.lambdas.tolist(), complex_pairs(mu.c))
    return {"n": mu.n, "points": [{"lambda": lam, "C": c} for lam, c in pairs]}


def measure_from_dict(d: dict) -> StepMeasure:
    """The measure of a dict, its points sorted by lambda (``StepMeasure`` sorts them).

    Each point holds a finite lambda and a C of n [re, im] pairs of finite
    numbers; the first point and field at fault are named.
    """
    n, pts = _field(d, "n", _index), _field(d, "points", list)
    try:  # all lambdas as one array, all C as another
        lam = _floats([p["lambda"] for p in pts], (len(pts),))
        c = _complex_array([p["C"] for p in pts], (len(pts), n))
    except _REFUSALS:
        for i, p in enumerate(pts):  # read again one by one
            _field(p, "lambda", _finite, f"point {i}: ")
            _field(p, "C", lambda v: _floats(v, (n, 2)), f"point {i}: ")
        if not pts:  # no (0, n) array: n exceeds numpy's largest dimension
            raise ValueError(f"field 'n' cannot hold {_excerpt(n)}") from None
        raise
    return StepMeasure(n, lam, c)


def poly_to_dict(r: VectorPolynomial) -> dict:
    return {"n": r.n, "comps": [[_c(v) for v in comp] for comp in r.comps]}


def _comps(c, n):
    if len(c) != n:
        raise ValueError(f"not {n} components")
    return [[_unc(v) for v in comp] for comp in c]


def poly_from_dict(d: dict) -> VectorPolynomial:
    n = _field(d, "n", _index)
    return VectorPolynomial.from_components(_field(d, "comps", lambda c: _comps(c, n)), n)


_SCALARS = frozenset((str, int, float, bool, type(None)))
_CONTAINERS = (list, tuple, dict)
# Fewest floats to format (those of a finite Pairs array's pairs other than
# [0.0, 0.0]) whose distinct magnitudes are formatted once; fewer are
# formatted each.  On what reconstruct writes for gue_measure seeds 1-2
# (2 vCPUs, Python 3.11, numpy 2.4), the dedupe cost 11-13 us more than
# plain reprs on boundaries of 2-12 floats, broke even (within 2 us) on
# n=1 N=20 bands of 104-110 floats and saved 22-45 us on n=2, 3 N=20 bands
# of 188-256 floats.
DEDUPE_MIN_LEAVES = 128


@functools.lru_cache(maxsize=None)
def _flat(level):
    """C-encoder call that separates items by a newline and ``level`` indents."""
    return json.JSONEncoder(separators=(",\n" + "  " * level, ": ")).encode


def _deduped_reprs(x):
    """The repr of each float of the flat array x, each distinct magnitude
    formatted once: the magnitudes are sorted once, and each float reads the
    text of its run of equal ones.  (``np.unique`` with ``return_inverse``
    sorts the same way at a higher fixed cost; a binary search of each
    float's magnitude cost more on arrays of mostly distinct ones.)

    ``repr(-v) == "-" + repr(v)`` for every finite v >= 0, -0.0 included.
    """
    size = np.abs(x)
    order = np.argsort(size)
    ordered = size[order]
    first = np.empty(size.size, dtype=bool)  # where a run of equal magnitudes starts
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    run = np.empty(size.size, dtype=np.intp)
    run[order] = np.cumsum(first) - 1
    texts = list(map(float.__repr__, ordered[first].tolist()))
    texts = np.array(texts + ["-" + t for t in texts], dtype=object)
    return texts[run + len(texts) // 2 * np.signbit(x)].tolist()


def _join(shape, level, texts):
    """The indent-2 text at ``level`` of a nesting of ``shape`` whose leaves read ``texts``."""
    for depth in reversed(range(len(shape))):
        pad = "\n" + "  " * (level + depth)
        width, sep = shape[depth], f",{pad}  "
        texts = [f"[{pad}  {sep.join(texts[i:i + width])}{pad}]"
                 for i in range(0, len(texts), width)]
    return texts[0]


def _pairs(a, level, path):
    """``json.dumps(complex_pairs(a), indent=2)`` text of a complex array at ``level``.

    A finite array of one or more dimensions and entries is written from its
    float view: every pair whose parts are both +0.0 by bits (a -0.0 does
    not count) takes one shared text, the other pairs fill copies of one
    pair template, their floats deduped from ``DEDUPE_MIN_LEAVES`` on, and
    the rows are joined from the pairs' texts.  Any other array is written
    from its ``complex_pairs`` lists, so NaN and Infinity are json's text.
    """
    if a.ndim and a.size:
        x = np.ascontiguousarray(a).view(float)
        if np.isfinite(x).all():
            pairs = x.reshape(-1, 2)
            bits = pairs.view(np.uint64)
            kept = np.flatnonzero(bits[:, 0] | bits[:, 1])
            floats = pairs[kept].ravel()
            reprs = (_deduped_reprs(floats) if floats.size >= DEDUPE_MIN_LEAVES
                     else map(float.__repr__, floats.tolist()))
            pad = "\n" + "  " * (level + a.ndim)
            pair = f"[{pad}  %s,{pad}  %s{pad}]"
            texts = [pair % ("0.0", "0.0")] * len(pairs)
            # no float's repr holds "\0", so it parts the filled pairs again
            filled = "\0".join([pair] * kept.size) % tuple(reprs)
            for i, text in zip(kept.tolist(), filled.split("\0")):
                texts[i] = text
            return _join(a.shape, level, texts)
    return _encode(complex_pairs(a), level, path)


def _key(key):
    """json's text of a dict key; a key that is no str, int, float, bool or None
    raises the C encoder's ``TypeError``, as json does."""
    return encode_basestring_ascii(key) if type(key) is str else _flat(0)({key: 0})[1:-4]


def _encode(o, level, path):
    """``json.dumps(o, indent=2)`` text of ``o`` nested ``level`` deep."""
    if not isinstance(o, _CONTAINERS):
        return _pairs(o.array, level, path) if type(o) is Pairs else _flat(level)(o)
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    if id(o) in path:
        raise ValueError("Circular reference detected")
    is_dict = isinstance(o, dict)
    if _SCALARS.issuperset(map(type, o.values() if is_dict else o)):
        body = _flat(level + 1)(o)[1:-1]
    else:
        path.add(id(o))
        items = ((_key(k) + ": " + _encode(v, level + 1, path) for k, v in o.items())
                 if is_dict else (_encode(v, level + 1, path) for v in o))
        body = (",\n" + "  " * (level + 1)).join(items)
        path.discard(id(o))
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}\n{'  ' * (level + 1)}{body}\n{'  ' * level}{closing}"


def dumps(obj):
    """``json.dumps(obj, indent=2)``, byte for byte, with the same errors.

    Dicts and lists are walked here.  Each scalar, and each dict or list that
    holds only scalars, takes one call of the C encoder, which formats NaN,
    infinities, ints and strings exactly as json does.  One value that json
    does not know is written too: a :class:`Pairs` array gets the text that
    json gives its ``complex_pairs`` lists, from the array itself where it
    is finite (see ``_pairs``).
    """
    return _encode(obj, 0, set())


def dump(obj_dict, path=None):
    text = dumps(obj_dict)
    if path is None:
        return text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
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
