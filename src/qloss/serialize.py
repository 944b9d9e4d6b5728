"""Deterministic output formats: JSON matrices and headered CSV files.

Every emitted file starts with a comment block echoing the tool version,
the configuration, a content hash of that configuration, and the master
seed, so identical (config, seed) pairs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__


def fmt(x: float) -> str:
    """Canonical float formatting (12 significant digits)."""
    return f"{x:.12g}"


def matrix_to_json_dict(mat: np.ndarray, kind: str, basis_order: str) -> dict:
    """Row-major [re, im] pair encoding with an explicit basis-order field.

    ``data`` is an (n, 2) float array, which :func:`write_json` writes as the
    list of [re, im] pairs.
    """
    mat = np.asarray(mat, dtype=complex)
    data = np.stack([mat.real.reshape(-1), mat.imag.reshape(-1)], axis=1)
    return {"kind": kind, "basis_order": basis_order,
            "shape": list(mat.shape), "data": data}


def matrix_from_json_dict(d: Mapping) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in d["data"]])
    return flat.reshape(tuple(d["shape"]))


def config_hash(config: Mapping[str, object]) -> str:
    """Git-style sha1 of the canonical config rendering."""
    payload = canonical_config(config).encode()
    return hashlib.sha1(b"blob %d\0%s" % (len(payload), payload)).hexdigest()


def canonical_config(config: Mapping[str, object]) -> str:
    return " ".join(f"{k}={config[k]}" for k in sorted(config))


def header_lines(config: Mapping[str, object], seed: int) -> list[str]:
    return [
        f"# qloss {__version__}",
        f"# config: {canonical_config(config)}",
        f"# config-sha1: {config_hash(config)}",
        f"# seed: {seed}",
    ]


def write_csv(path: str, header: Sequence[str], columns: Sequence[str],
              rows: Iterable[Sequence[object]]) -> None:
    lines = list(header)
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(fmt(v))
            elif v is None:
                cells.append("")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


#: a line of ``json.dumps`` output whose value is the placeholder of array ``\3``
_DEFERRED = re.compile(r'^( *)(.*)"\\u0000(\d+)"', re.MULTILINE)


def _pairs_text(pairs: np.ndarray, indent: str) -> str:
    """``json.dumps(pairs.tolist(), indent=2, allow_nan=False)`` for an (n, 2) float
    array whose key sits at ``indent``; ``json`` writes a float with
    ``float.__repr__``, as ``%r`` does."""
    if not np.isfinite(pairs).all():
        raise ValueError("Out of range float values are not JSON compliant")
    if len(pairs) == 0:
        return "[]"
    pair = f"{indent}  [\n{indent}    %r,\n{indent}    %r\n{indent}  ]"
    return ("[\n" + ",\n".join([pair] * len(pairs)) % tuple(pairs.reshape(-1).tolist())
            + f"\n{indent}]")


def write_json(path: str, header: Sequence[str], payload: object) -> None:
    """``payload`` as ``json.dumps(indent=2, sort_keys=True, allow_nan=False)``
    below the header; the (n, 2) ``data`` arrays of :func:`matrix_to_json_dict`
    are written as their lists of pairs, without the generic encoder."""
    arrays: list[np.ndarray] = []

    def defer(obj: object) -> str:
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return f"\0{len(arrays) - 1}"

    body = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=defer)
    body = _DEFERRED.sub(lambda m: m[1] + m[2] + _pairs_text(arrays[int(m[3])], m[1]), body)
    text = "\n".join(header) + "\n" + body + "\n"
    with open(path, "w") as fh:
        fh.write(text)
