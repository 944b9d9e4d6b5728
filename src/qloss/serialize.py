"""Deterministic output formats: JSON matrices and headered CSV files.

Every emitted file starts with a comment block echoing the tool version,
the configuration, a content hash of that configuration, and the master
seed, so identical (config, seed) pairs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__


def fmt(x: float) -> str:
    """Canonical float formatting (12 significant digits)."""
    return f"{x:.12g}"


def matrix_to_json_dict(mat: np.ndarray, kind: str, basis_order: str) -> dict:
    """Row-major [re, im] pair encoding with an explicit basis-order field."""
    mat = np.asarray(mat, dtype=complex)
    data = [[float(v.real), float(v.imag)] for v in mat.reshape(-1)]
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


def write_json(path: str, header: Sequence[str], payload: object) -> None:
    body = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    text = "\n".join(header) + "\n" + body + "\n"
    with open(path, "w") as fh:
        fh.write(text)
