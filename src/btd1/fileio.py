"""File formats: the BTD1 binary tensor container and JSON decompositions.

BTD1 layout: one ASCII header line ``BTD1 <R|C> <I> <J> <K>\\n`` followed by
little-endian float64 entries in storage order (lexicographic (i, j, k), k
fastest); complex tensors store interleaved re/im pairs.

Decomposition JSON: ``{"field": ..., "A": [[...]], "terms": [{"B": ...,
"C": ...}], "sizes": [...]}`` with row-major nested arrays; complex entries
are two-element [re, im] lists.
"""

import json

import numpy as np

from .linalg import DimensionError
from .tensor import BlockTermDecomposition, Tensor3

__all__ = [
    "write_tensor",
    "read_tensor",
    "write_decomposition",
    "read_decomposition",
    "decomposition_to_dict",
    "decomposition_from_dict",
]

_MAGIC = "BTD1"


def write_tensor(path, t):
    tag = "C" if t.field == "complex" else "R"
    i_dim, j_dim, k_dim = t.dims
    header = f"{_MAGIC} {tag} {i_dim} {j_dim} {k_dim}\n"
    flat = np.asarray(t.flat_values)
    if t.field == "complex":
        data = np.empty(2 * flat.size)
        data[0::2] = flat.real
        data[1::2] = flat.imag
    else:
        data = flat.astype(np.float64)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data.astype("<f8").tobytes())


def read_tensor(path):
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 5 or header[0] != _MAGIC or header[1] not in ("R", "C"):
            raise DimensionError(f"{path}: not a {_MAGIC} file")
        tag = header[1]
        i_dim, j_dim, k_dim = (int(x) for x in header[2:])
        if min(i_dim, j_dim, k_dim) < 1:
            raise DimensionError(f"{path}: dimensions must be at least 1, got {header[2:]}")
        raw = np.frombuffer(fh.read(), dtype="<f8")
    n = i_dim * j_dim * k_dim
    if tag == "C":
        if raw.size != 2 * n:
            raise DimensionError(f"{path}: expected {2*n} floats, found {raw.size}")
        flat = raw[0::2] + 1j * raw[1::2]
    else:
        if raw.size != n:
            raise DimensionError(f"{path}: expected {n} floats, found {raw.size}")
        flat = raw
    return Tensor3(flat.reshape(i_dim, j_dim, k_dim))


def _encode_array(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return [[[float(x.real), float(x.imag)] for x in row] for row in a]
    return [[float(x) for x in row] for row in a]


def _decode_array(rows, is_complex, where):
    """The matrix ``rows`` encodes; a :class:`DimensionError` names the part
    ``where`` when its entries do not have the field's shape."""
    try:
        if is_complex:
            return np.array([[complex(x[0], x[1]) for x in row] for row in rows])
        return np.array(rows, dtype=float)
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        field = "complex [re, im] pairs" if is_complex else "real numbers"
        raise DimensionError(f"{where} is not a matrix of {field}") from exc


def decomposition_to_dict(d):
    is_complex = any(
        np.iscomplexobj(m) for m in (d.A, *(b for b, _ in d.terms), *(c for _, c in d.terms))
    )
    return {
        "field": "complex" if is_complex else "real",
        "A": _encode_array(d.A),
        "terms": [{"B": _encode_array(b), "C": _encode_array(c)} for b, c in d.terms],
        "sizes": list(d.sizes),
    }


def _part(obj, key, where):
    """``obj[key]``; a :class:`DimensionError` names the part when it is
    missing."""
    if not isinstance(obj, dict):
        raise DimensionError(f"{where} is not a JSON object")
    if key not in obj:
        raise DimensionError(f"{where} has no {key!r}")
    return obj[key]


def decomposition_from_dict(obj):
    a = _part(obj, "A", "decomposition")
    is_complex = obj.get("field", "real") == "complex"
    a = _decode_array(a, is_complex, "'A'")
    terms = _part(obj, "terms", "decomposition")
    if not isinstance(terms, list):
        raise DimensionError("'terms' is not a list")
    terms = tuple(
        tuple(
            _decode_array(_part(term, key, f"term {r}"), is_complex, f"term {r} {key!r}")
            for key in "BC"
        )
        for r, term in enumerate(terms)
    )
    d = BlockTermDecomposition(a, terms)
    if "sizes" in obj and not (isinstance(obj["sizes"], list) and tuple(obj["sizes"]) == d.sizes):
        raise DimensionError("declared sizes do not match the factor blocks")
    return d


def write_decomposition(path, d):
    with open(path, "w") as fh:
        json.dump(decomposition_to_dict(d), fh, indent=1)


def read_decomposition(path):
    with open(path) as fh:
        return decomposition_from_dict(json.load(fh))
