"""Wire protocol for ``repro serve``: JSON codecs and request validation.

Matrices travel as plain-JSON CSR quadruples::

    {"shape": [rows, cols], "indptr": [...], "indices": [...], "data": [...]}

JSON round-trips IEEE-754 doubles exactly (Python serialises the shortest
string that parses back to the same double), so a matrix decoded from a
response is *bit-identical* to the server-side result — the property the
serve bench asserts against the batch CLI path.

All validation failures raise :class:`BadRequest`, which the server maps to
HTTP 400 with the message in the body; nothing in this module touches the
network.  ``json.loads`` accepts the non-standard ``NaN`` and ``Infinity``
tokens, so every number that reaches a multiply is checked for finiteness
here: a non-finite input would otherwise flow into a warm-structure replay
(which skips operand validation) and come back as a ``NaN`` token — not
valid JSON — in a 200 body.  Finite inputs can still overflow to a
non-finite *result*; the server's serialize stage refuses those with HTTP
422, so a 200 body is always strict JSON.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = [
    "BadRequest",
    "csr_from_wire",
    "csr_to_wire",
    "json_body",
    "require",
    "scalar",
]


class BadRequest(Exception):
    """A malformed or invalid request body (HTTP 400)."""


def json_body(raw: bytes) -> dict:
    """Decode a request body as a JSON object."""
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequest(f"body is not valid JSON: {exc}") from None
    if not isinstance(body, dict):
        raise BadRequest("body must be a JSON object")
    return body


def csr_to_wire(m: CSRMatrix) -> dict:
    """Encode a matrix for the wire."""
    return {
        "shape": [int(m.shape[0]), int(m.shape[1])],
        "indptr": m.indptr.tolist(),
        "indices": m.indices.tolist(),
        "data": m.data.tolist(),
    }


def csr_from_wire(obj: Any, field: str = "matrix") -> CSRMatrix:
    """Decode and validate a wire-format matrix.

    Nothing is coerced: ``indptr`` and ``indices`` must hold JSON integers
    and ``data`` JSON numbers (an empty array passes), so ``0.7``, ``"2"``,
    ``null`` or ``true`` is a 400, not an index or value the client did not
    send.  Each array is decoded without a dtype and rejected unless NumPy
    infers an integer dtype (a number dtype for ``data``) and no element is
    a boolean.  Structural invariants
    (monotone ``indptr``, index bounds, array lengths) are checked here,
    since the :class:`CSRMatrix` constructor trusts its inputs; every
    rejection raises :class:`BadRequest` so the server answers 400, not 500.
    """
    if not isinstance(obj, dict):
        raise BadRequest(f"{field!r} must be a JSON object with shape/indptr/indices/data")
    for key in ("shape", "indptr", "indices", "data"):
        if key not in obj:
            raise BadRequest(f"{field!r} is missing {key!r}")
    shape = obj["shape"]
    if (
        not isinstance(shape, (list, tuple))
        or len(shape) != 2
        or not all(type(s) is int and s >= 0 for s in shape)
    ):
        raise BadRequest(f"{field}.shape must be [rows, cols] of non-negative ints")
    arrays = []
    for key, kinds, what in (
        ("indptr", "iu", "integers"),
        ("indices", "iu", "integers"),
        ("data", "iuf", "numbers"),
    ):
        try:
            array = np.asarray(obj[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise BadRequest(f"{field}.{key} is not a numeric array: {exc}") from None
        if array.ndim != 1:
            raise BadRequest(f"{field}.{key} must be one-dimensional")
        # NumPy reads a JSON true mixed into numbers as 1.
        if array.size and (array.dtype.kind not in kinds or bool in map(type, obj[key])):
            raise BadRequest(f"{field}.{key} must hold JSON {what} only")
        arrays.append(array)
    indptr, indices, data = (
        array.astype(dtype, copy=False)
        for array, dtype in zip(arrays, (np.int64, np.int64, np.float64))
    )
    if not np.all(np.isfinite(data)):
        raise BadRequest(f"{field}.data must be finite (no NaN or Infinity)")
    rows, cols = shape
    # The CSRMatrix constructor trusts its inputs (internal fast path), so
    # the trust boundary is here: reject inconsistent structure with a 400
    # instead of letting it corrupt a multiply downstream.
    if (
        len(indptr) != rows + 1
        or (len(indptr) > 0 and indptr[0] != 0)
        or (len(indptr) > 0 and np.any(np.diff(indptr) < 0))
        or (len(indptr) > 0 and indptr[-1] != len(indices))
        or len(indices) != len(data)
        or (len(indices) > 0 and (indices.min() < 0 or indices.max() >= cols))
    ):
        raise BadRequest(f"{field!r} is not a valid CSR matrix")
    try:
        return CSRMatrix((rows, cols), indptr, indices, data)
    except Exception as exc:
        raise BadRequest(f"{field!r} is not a valid CSR matrix: {exc}") from None


def require(body: dict, key: str) -> Any:
    """Fetch a required request field."""
    if key not in body:
        raise BadRequest(f"missing required field {key!r}")
    return body[key]


def scalar(body: dict, key: str, kind: type, default: Any) -> Any:
    """Fetch an optional finite numeric field (bool is not a number); an
    ``int`` field must hold an integral value."""
    if key not in body or body[key] is None:
        return default
    value = body[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequest(f"{key!r} must be a number")
    if isinstance(value, float) and not np.isfinite(value):
        raise BadRequest(f"{key!r} must be finite")
    if kind is int and value % 1:
        raise BadRequest(f"{key!r} must be an integer")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadRequest(f"{key!r}: {exc}") from None
