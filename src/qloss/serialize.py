"""Deterministic output formats: JSON matrices and headered CSV files.

Every emitted file starts with a comment block echoing the tool version,
the configuration, a content hash of that configuration, and the master
seed, so identical (config, seed) pairs produce byte-identical files.

A matrix is written as its nonzero support: ``shape``, the ascending
``rows`` and ``cols`` that hold a nonzero entry, and ``data``, the
row-major [re, im] pairs of that block.  Every entry outside the block is
+0.0, so a 243x243 density matrix on a 24-row block takes 576 pairs, not
59,049.

Every file is written by :func:`write_text`, which appends (path, byte count,
sha1) of its UTF-8 bytes to the ledger ``WRITTEN``, cleared per CLI command.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__

WRITTEN: list[tuple[str, int, str]] = []


def fmt(x: float) -> str:
    """Canonical float formatting (12 significant digits)."""
    return f"{x:.12g}"


def matrix_to_json_dict(mat: np.ndarray, kind: str, basis_order: str) -> dict:
    """The matrix as its nonzero support, with an explicit basis-order field."""
    mat = np.asarray(mat, dtype=complex)
    nonzero = mat != 0
    rows, cols = np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))
    block = mat[np.ix_(rows, cols)]  # a fresh C-ordered copy
    return {"kind": kind, "basis_order": basis_order, "shape": list(mat.shape),
            "rows": rows.tolist(), "cols": cols.tolist(),
            "data": block.view(float).reshape(-1, 2).tolist()}


def matrix_from_json_dict(d: Mapping) -> np.ndarray:
    """The matrix of :func:`matrix_to_json_dict`, +0.0 outside its support."""
    rows, cols = d["rows"], d["cols"]
    pairs = np.array(d["data"], dtype=float).reshape(len(rows) * len(cols), 2)
    mat = np.zeros(tuple(d["shape"]), dtype=complex)
    mat[np.ix_(rows, cols)] = pairs.view(complex).reshape(len(rows), len(cols))
    return mat


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


def write_text(path: str, text: str) -> None:
    data = text.encode()
    Path(path).write_bytes(data)
    WRITTEN.append((path, len(data), hashlib.sha1(data).hexdigest()))


def write_csv(path: str, header: Sequence[str], columns: Sequence[str],
              rows: Iterable[Sequence[object]]) -> None:
    lines = [*header, ",".join(columns)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


def _cell(v: object) -> str:
    return fmt(v) if isinstance(v, float) else "" if v is None else str(v)


def write_json(path: str, header: Sequence[str], payload: object) -> None:
    """``payload`` as ``json.dumps(indent=2, sort_keys=True, allow_nan=False)``
    below the header."""
    body = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    write_text(path, "\n".join(header) + "\n" + body + "\n")
