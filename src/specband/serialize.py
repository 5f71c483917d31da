"""JSON encodings for every on-disk data type.

Complex numbers are always written as two-element [re, im] arrays.  Matrix
entries store the upper triangle only; Hermitian symmetry is implied.
Every file is ``json.dumps(obj, indent=2)`` text, written by :func:`dumps`,
which fills one text template per block of scalar lists (such as a matrix's
[re, im] pairs) and formats each distinct float magnitude of a large block
once.
A decoder refuses a missing field or a value of the wrong kind, such as a
null where a number belongs, with a ``ValueError`` that names the field (and,
in a measure, the point), which the command line prints as an ``error:``
line.
"""

import functools
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

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

    An absent key without a default, or a null or another value of the wrong
    kind or length, which ``parse`` refuses with a ``TypeError``,
    ``AttributeError``, ``IndexError`` or ``KeyError`` (a [re] pair, say),
    raises a ``ValueError`` naming the field, after the prefix ``where``
    (such as the point it belongs to).
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where}expected an object, not {_excerpt(d)}")
    if key not in d:
        if default is _MISSING:
            raise ValueError(f"{where}missing field {key!r}")
        return default
    try:
        return parse(d[key])
    except (TypeError, AttributeError, IndexError, KeyError):
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
    n, pts = _field(d, "n", int), _field(d, "points", list)
    # one row per point: lambda, then the [re, im] pairs of C; float() refuses a null
    try:
        rows = np.array([[float(x) for x in chain([p["lambda"]], *p["C"])] for p in pts])
    except (TypeError, KeyError):
        # the first point and field at fault, read again one by one
        for i, p in enumerate(pts):
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
# Smallest block of finite floats whose distinct magnitudes are formatted
# once; a smaller one formats each float.  On random Hermitian N x N blocks
# of [re, im] pairs, about half of whose magnitudes are distinct, the dedupe
# broke even between 72 and 200 floats (N = 6 to 10; 2-core Xeon, Python
# 3.11, numpy 2.4): below, numpy's set-up costs more than the reprs it saves.
DEDUPE_MIN_LEAVES = 128


@functools.lru_cache(maxsize=None)
def _flat(level):
    """C-encoder call that separates items by a newline and ``level`` indents."""
    return json.JSONEncoder(separators=(",\n" + "  " * level, ": ")).encode


def _scalars(items):
    """True if every item is exactly one of the JSON scalar types."""
    return _SCALARS.issuperset(map(type, items))


def _block_leaves(o):
    """Shape and leaves of a rectangular nesting of o, or None.

    The nesting is two or more deep, of non-empty lists (or tuples), such as
    the [re, im] pairs of a matrix; the leaves are what it holds at the
    bottom.  The shape is read down the first items; a list that holds
    itself there ends the walk, and the encoder reports the cycle.
    """
    shape, seen, x = [], set(), o
    while type(x) in _SEQUENCES and x and id(x) not in seen:
        seen.add(id(x))
        shape.append(len(x))
        x = x[0]
    if len(shape) < 2:
        return None
    items = o
    for width in shape[1:]:
        if not (_SEQUENCES.issuperset(map(type, items)) and {width} == set(map(len, items))):
            return None
        items = list(chain.from_iterable(items))
    return shape, items


def _deduped_reprs(x):
    """The repr of each float of x, each distinct magnitude formatted once.

    ``repr(-v) == "-" + repr(v)`` for every finite v >= 0, -0.0 included.
    """
    magnitudes, at = np.unique(np.abs(x), return_inverse=True)
    texts = list(map(float.__repr__, magnitudes.tolist()))
    texts += ["-" + t for t in texts]
    return map(texts.__getitem__, (at + len(magnitudes) * np.signbit(x)).tolist())


def _block(o, level):
    """``json.dumps(o, indent=2)`` text of a block at ``level``, or None for no block.

    A block is a rectangular nesting (``_block_leaves``) of JSON scalars.
    The leaves' texts fill one %-template of the block's layout.  Finite
    floats are their reprs, each distinct magnitude formatted once in a
    block of ``DEDUPE_MIN_LEAVES`` or more; the texts of other leaves come
    from one C-encoder call, whose encoded scalars hold no raw newline, so
    ",\n" only occurs between two of them.
    """
    found = _block_leaves(o)
    if found is None:
        return None
    shape, leaves = found
    types = set(map(type, leaves))
    # a sum of floats is finite only if every float is; one that overflows
    # takes the C encoder, which is as exact
    if types == {float} and math.isfinite(sum(leaves)):
        if len(leaves) < DEDUPE_MIN_LEAVES:
            texts = map(float.__repr__, leaves)
        else:
            texts = _deduped_reprs(np.array(leaves))
    elif _SCALARS.issuperset(types):
        texts = _flat(0)(leaves)[1:-1].split(",\n")
    else:
        return None
    template = "%s"
    for depth, width in reversed(list(enumerate(shape))):
        pad = "\n" + "  " * (level + depth)
        template = f"[{pad}  " + f",{pad}  ".join([template] * width) + f"{pad}]"
    return template % tuple(texts)


def _mixed(o, level, path):
    """Items of a container at ``level`` that holds containers, as texts.

    Each run of scalar items takes one C-encoder call; a dict key before a
    container is encoded on its own.
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
        if is_dict:
            key = item[0]
            # json writes a str key as encode_basestring_ascii does, and turns others into str
            key = encode_basestring_ascii(key) if type(key) is str else _flat(0)({key: 0})[1:-4]
            text = key + ": " + text
        parts.append(text)
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
    elif not is_dict and (text := _block(o, level)) is not None:
        return text
    else:
        body = (",\n" + "  " * (level + 1)).join(_mixed(o, level + 1, path))
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}\n{'  ' * (level + 1)}{body}\n{'  ' * level}{closing}"


def dumps(obj):
    """``json.dumps(obj, indent=2)``, byte for byte, with the same errors.

    Dicts and lists are walked here, and each run of scalars takes one call
    of the C encoder, which formats NaN, infinities, ints and strings exactly
    as json does.  A block, a rectangular nesting of scalar lists such as the
    [re, im] pairs of a matrix, is one %-template filled with its leaves'
    texts: in a large block of finite floats each distinct magnitude is
    formatted once, so the mirrored entries of a Hermitian matrix cost one
    repr.
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
