"""Result envelopes: canonical JSON, the manifest hash, CSV emission, and
the published JSON schemas for machine consumers.

Canonical JSON is sorted-key with compact separators; identical manifests
(wall time aside) must reproduce byte-identical output.  ``write_json``
writes an envelope to a file object: the manifest and the small result
fields go through ``canonical_json``, while a window's points, held in the
envelope as a ``JsonArray`` of their texts, are written 1,024 at a time.
The bytes are those of ``canonical_json`` on the envelope with each point a
dict; no point dict, nor the whole text, is ever held in memory.
"""

from __future__ import annotations

import hashlib
import io
import json
from collections.abc import Iterable, Iterator


_CANONICAL = {"sort_keys": True, "separators": (",", ":"), "allow_nan": True}


def canonical_json(obj) -> str:
    return json.dumps(obj, **_CANONICAL)


class JsonArray:
    """A JSON array given as an iterable of canonical JSON texts, each one
    item or comma-joined items; ``write_json`` consumes it text by text.
    Not a tuple, so that ``json`` hands it to ``write_json``'s marker."""

    __slots__ = ("texts",)

    def __init__(self, texts: Iterable[str]):
        self.texts = texts


# stands in for each JsonArray in the encoded envelope; json escapes the NULs
_ARRAY_MARK = "\0JsonArray\0"
_ARRAY_MARK_JSON = json.dumps(_ARRAY_MARK)


def write_json(fh, obj) -> None:
    """Write ``canonical_json(obj)`` to the text file ``fh``, where each
    ``JsonArray`` inside ``obj`` is encoded as the array of its texts."""
    arrays = []

    def mark(o):
        if not isinstance(o, JsonArray):
            raise TypeError(f"{type(o).__name__} is not JSON serializable")
        arrays.append(o)
        return _ARRAY_MARK

    parts = json.dumps(obj, default=mark,
                       **_CANONICAL).split(_ARRAY_MARK_JSON)
    if len(parts) != len(arrays) + 1:
        raise ValueError("a string in the document equals the array marker")
    fh.write(parts[0])
    for array, tail in zip(arrays, parts[1:]):
        texts = iter(array.texts)
        fh.write("[" + next(texts, ""))
        for text in texts:
            fh.write("," + text)
        fh.write("]" + tail)


def window_point_texts(window) -> Iterator[str]:
    """The canonical JSON texts of a SpectrumWindow's points, in order, 1,024
    to a comma-joined text, each one ``%`` format of its columns: keys
    sorted, the value's ``float.__repr__`` (clipped to [-B, B], so finite),
    the digit text, and the vector decoded a run at a time (if monic)."""
    kernel, order = window.kernel, window.order
    n = kernel.d if kernel.lead == 1 else 0     # vector entries per point
    point = ('{"approx":%r,"digits":[%s]'
             + (',"vec":[%s]' % ",".join(["%d"] * n) if n else "") + "}")
    for k in range(0, len(order), 1024):
        at = order[k:k + 1024]
        vecs = kernel.unpack_all([window.keys[i] for i in at]) if n else ()
        yield ",".join(map(point.__mod__, zip(
            map(window.floats.__getitem__, at),
            map(window.texts.__getitem__, at), *[iter(vecs)] * n)))


def params_hash(params: dict) -> str:
    return hashlib.sha256(canonical_json(params).encode()).hexdigest()


# ---------------------------------------------------------------------------
# CSV emission


def window_csv(window) -> str:
    """(index, value, gap) rows of a SpectrumWindow's points, for plotting."""
    return "index,value,gap\n" + _window_rows(window)


def windows_csv(windows) -> str:
    """(degree, index, value, gap) rows of the points of several windows."""
    return "degree,index,value,gap\n" + "".join(
        _window_rows(w, f"{w.degree},") for w in windows)


def _window_rows(window, prefix: str = "") -> str:
    buf, prev = io.StringIO(), None
    for i, f in enumerate(window.values()):
        gap = "" if prev is None else repr(f - prev)
        buf.write(f"{prefix}{i},{f!r},{gap}\n")
        prev = f
    return buf.getvalue()


def gaps_csv(report: dict) -> str:
    buf = io.StringIO()
    buf.write("gap,count\n")
    for g, n in report["histogram"]:
        buf.write(f"{g!r},{n}\n")
    return buf.getvalue()


def minpos_csv(result: dict) -> str:
    buf = io.StringIO()
    buf.write("depth,min_value,states,new_states\n")
    for rec in result["trace"]:
        buf.write(f"{rec['depth']},{rec['min_value']!r},{rec['states']},"
                  f"{rec['new_states']}\n")
    return buf.getvalue()


def key_value_csv(result: dict) -> str:
    buf = io.StringIO()
    buf.write("key,value\n")

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, list):
            buf.write(f"{prefix},{json.dumps(obj)!r}\n")
        else:
            buf.write(f"{prefix},{obj!r}\n")

    walk("", result)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# published schemas


BASE_SCHEMA = {
    "type": "object",
    "properties": {
        "poly": {"type": "string"},
        "root": {"type": "number"},
    },
    "required": ["poly", "root"],
}

WINDOW_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "base": BASE_SCHEMA,
        "m": {"type": "integer", "minimum": 1},
        "kind": {"enum": ["X", "Y", "A"]},
        "degree": {"type": ["integer", "null"]},
        "bound": {"type": "number"},
        "complete": {"type": "boolean"},
        "points": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "vec": {"type": "array", "items": {"type": "integer"}},
                    "approx": {"type": "number"},
                    "digits": {"type": "array", "items": {"type": "integer"}},
                },
                "required": ["approx", "digits"],
            },
        },
        "covering_radius": {"type": "number"},
    },
    "required": ["base", "m", "kind", "degree", "bound", "complete", "points"],
}

MINPOS_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "base": BASE_SCHEMA,
        "m": {"type": "integer"},
        "trace": {"type": "array"},
        "closed": {"type": "boolean"},
        "budget_exhausted": {"type": "boolean"},
        "min_positive": {"type": ["number", "null"]},
    },
    "required": ["base", "m", "trace", "closed", "budget_exhausted"],
}

DIGITS_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "preperiod": {"type": "array", "items": {"type": "integer"}},
        "period": {"type": ["array", "null"],
                   "items": {"type": "integer"}},
        "height": {"type": "integer"},
        "first_index": {"type": "integer"},
        "exact_zero_tail": {"type": "boolean"},
    },
    "required": ["preperiod", "period", "height", "first_index"],
}

ENVELOPE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "manifest": {
            "type": "object",
            "properties": {
                "command": {"type": "string"},
                "params": {"type": "object"},
                "precision_bits": {"type": "integer"},
                "budgets": {"type": "object"},
                "version": {"type": "string"},
                "wall_time_s": {"type": ["number", "null"]},
                "input_hashes": {"type": "object"},
            },
            "required": ["command", "params", "precision_bits", "budgets",
                         "version", "input_hashes"],
        },
        "result": {},
    },
    "required": ["manifest", "result"],
}
