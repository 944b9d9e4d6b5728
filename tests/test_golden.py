"""Golden pins: analytic values to 1e-12 and sha1 digests of seeded outputs.

The files under ``tests/golden/`` hold the numbers a refactor must not move.
Regenerate them with ``PYTHONPATH=src python tests/test_golden.py [NAME ...]``
only for a change that is meant to move them, and say so in CHANGES.md.  A
NAME is a golden file (``sampled_tomography``), one seeded digest
(``process_tomography.sampled``) or one CLI run (``protocol``); with none
given, every file is rewritten.  It prints ``key: old → new`` for every digest
it rewrites (for a value file, the sha1 of the file), so CHANGES.md can cite
each move.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qloss.channels import NoiseModel
from qloss.cli import main, parse_angle, parse_grid
from qloss.lattice import (apply_losses, build_lattice, find_logical,
                           percolation_threshold, reform_stabilizers)
from qloss.protocol import analytic_run, detection_sweep, records_to_jsonl, run_protocol
from qloss.tomography import process_tomography, table_report

GOLDEN = Path(__file__).parent / "golden"
TOL = 1e-12
PI = math.pi

ALPHAS = (0.0, PI, PI / 2)
PHIS = (0.1 * PI, 0.2 * PI, 0.5 * PI)
NOISES = {"off": NoiseModel(),
          "pqnd=0.033": NoiseModel(p_qnd=0.033, mode="depolarizing_per_qubit")}
CHOI_PHIS = (0.10 * PI, 0.53 * PI, 0.81 * PI)


def _matrix(mat: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in np.asarray(mat).reshape(-1)]


def _summary(summary) -> dict:
    return {"probability": summary.probability, "fidelity": summary.fidelity,
            "observables": summary.observables}


def analytic_values() -> dict:
    out = {}
    for noise_name, noise in NOISES.items():
        for alpha in ALPHAS:
            for phi in PHIS:
                res = analytic_run(alpha, phi, noise)
                out[f"{noise_name} alpha={alpha / PI:g}pi phi={phi / PI:g}pi"] = {
                    "encoding": res.encoding, "no_loss": _summary(res.no_loss),
                    "loss": _summary(res.loss)}
    return out


def choi_values() -> dict:
    return {f"phi={phi / PI:g}pi post={post}":
            _matrix(process_tomography(phi, post, shots=0)[0].matrix)
            for phi in CHOI_PHIS for post in (0, 1)}


def stabilizer_sweep_values() -> dict:
    """The analytic columns of ``stabilizer-sweep`` at its default options."""
    alpha = parse_angle("pi/2")
    rows = []
    for phi in parse_grid("0.1pi:pi:10"):
        obs = analytic_run(alpha, phi).no_loss.observables
        rows.append([phi, 4 * math.cos(phi / 2) / (3 + math.cos(phi)),
                     obs["S1X"], obs["S1Z"], obs["S2Z"]])
    return {"columns": ["phi", "S1X_law", "S1X_analytic", "S1Z_analytic",
                        "S2Z_analytic"], "rows": rows}


#: sampled table cells (alpha, phi) at the default cycle presets
TABLE_CELLS = ((PI / 2, 0.5 * PI), (0.0, 0.1 * PI))


def _finite(row: dict | None) -> dict | None:
    # NaN marks a column the branch does not have (S2Z after a loss)
    return None if row is None else {k: v for k, v in row.items() if not math.isnan(v)}


def sampled_tomography_values() -> dict:
    """Sampled table rows and sampled Choi matrices at seed 0.

    A moved multinomial count shifts these by far more than 1e-12, so the
    pin holds the counts fixed while letting the estimator's floats move
    at the last bit.
    """
    out = {}
    for alpha, phi in TABLE_CELLS:
        rows = table_report((alpha,), (phi,), seed=0, sampled=True)
        out[f"table alpha={alpha / PI:g}pi phi={phi / PI:g}pi"] = [
            {"section": r.section, "values": _finite(r.values), "errors": _finite(r.errors)}
            for r in rows]
    for phi in CHOI_PHIS:
        for post in (0, 1):
            choi, _ = process_tomography(phi, post, shots=1000, seed=0)
            out[f"choi phi={phi / PI:g}pi post={post}"] = _matrix(choi.matrix)
    return out


def _sha1(payload) -> str:
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha1(payload).hexdigest()


SWEEP_GRID = list(np.linspace(0.0, PI, 5))


def _records(phi: float = 0.5 * PI, **kwargs) -> bytes:
    return records_to_jsonl(run_protocol(PI / 2, phi, shots=200, seed=0,
                                         **kwargs).records).encode()


def _sweep(register: int = 5, **kwargs) -> list:
    res = detection_sweep(SWEEP_GRID, 40, seed=0, register=register, **kwargs)
    return [res.efficiency] + [[r.phi, r.direct_loss, r.detected_loss,
                                r.false_positive_rate, r.false_negative_rate, r.shots]
                               for r in res.rows]


def _sampled_choi() -> list:
    out = []
    for phi in CHOI_PHIS:
        for post in (0, 1):
            choi, details = process_tomography(phi, post, shots=1000, seed=0)
            out.append([_matrix(choi.matrix), details["inputs"]])
    return out


def _survivors() -> list:
    res = percolation_threshold([8, 12], 100, [0.4, 0.5, 0.6], seed=0)
    return [res.threshold] + [[pt.L, pt.p, pt.samples, pt.survivors] for pt in res.points]


def _support(string) -> list[int] | None:
    return None if string is None else list(string.support)


def _correction() -> list:
    """Reformed generators and deformed logicals of seeded loss patterns; the
    patterns come from the test's own generators, so the pin follows the
    correction alone."""
    out = []
    for L in (2, 5, 12):
        lat = build_lattice(L)
        for p_idx, p in enumerate((0.1, 0.3, 0.45)):
            for s in range(20):
                rng = np.random.default_rng(np.random.SeedSequence((0, L, p_idx, s)))
                ref = reform_stabilizers(apply_losses(lat, p, rng))
                found = find_logical(ref)
                out.append([sorted(ref.lost), found.correctable,
                            _support(found.t_z), _support(found.t_x),
                            sorted(sorted(g) for g in ref.z_generators),
                            sorted(sorted(g) for g in ref.x_generators)])
    return out


SEEDED = {
    "run_protocol.exact": _records,
    "run_protocol.toolbox.pqnd=0.033": lambda: _records(
        shrunk_mode="toolbox", noise=NOISES["pqnd=0.033"]),
    # exact-mode noise on the loss branch, at the rate with the largest mixing
    # weight (p = 0.73)
    "run_protocol.exact.pqnd=0.033.0.1pi": lambda: _records(0.1 * PI,
                                                            noise=NOISES["pqnd=0.033"]),
    # both shrunk outcomes through the toolbox readout
    "run_protocol.toolbox.0.9pi": lambda: _records(0.9 * PI, shrunk_mode="toolbox"),
    "detection_sweep.mask": _sweep,
    "detection_sweep.register2": lambda: _sweep(register=2),
    # exposed-ion patterns of the ideal hiding
    "detection_sweep.mask.0.2": lambda: _sweep(addressing_error=0.2),
    "detection_sweep.explicit.0.05": lambda: _sweep(hiding="explicit",
                                                    addressing_error=0.05),
    # many pulse-failure patterns of the five-level hiding
    "detection_sweep.explicit.0.3": lambda: _sweep(hiding="explicit",
                                                   addressing_error=0.3),
    "process_tomography.sampled": _sampled_choi,
    "percolation_threshold.L8,12": _survivors,
    "lattice.correction": _correction,
}


def seeded_digests() -> dict:
    return {name: _sha1(make()) for name, make in SEEDED.items()}


#: one run of each CLI command, as in test_cli's byte-identity check
CLI_RUNS = {
    "detect-sweep": ["detect-sweep", "--phi-grid", "0:pi:5", "--shots", "10"],
    "protocol": ["protocol", "--alpha", "pi/2", "--phi", "0.5pi", "--shots", "15"],
    "choi": ["choi", "--phi-grid", "0.3pi", "--shots", "50"],
    "percolation": ["percolation", "--L", "4,6", "--p", "0.45,0.5", "--samples", "100"],
    "stabilizer-sweep": ["stabilizer-sweep", "--phi-grid", "0.5pi", "--shots", "20"],
}


def _cli_files(args: list[str]) -> dict:
    """sha1 of every file one CLI run writes, run in an empty working directory
    with a relative ``--out`` (the header echoes it)."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["--seed", "11", *args, "--out", "run"])
        assert res.exit_code == 0, res.output
        return {f.name: _sha1(f.read_bytes()) for f in sorted(Path().iterdir())}


def cli_digests() -> dict:
    return {name: _cli_files(args) for name, args in CLI_RUNS.items()}


GENERATORS = {"analytic_run": analytic_values, "process_choi": choi_values,
              "stabilizer_sweep": stabilizer_sweep_values,
              "sampled_tomography": sampled_tomography_values,
              "seeded_sha1": seeded_digests, "cli_sha1": cli_digests}


def _load(name: str):
    with open(GOLDEN / f"{name}.json") as fh:
        return json.load(fh)


def _flatten(obj, prefix: str = "") -> dict:
    if isinstance(obj, dict):
        out = {}
        for key, val in obj.items():
            out.update(_flatten(val, f"{prefix}/{key}"))
        return out
    if isinstance(obj, list):
        out = {}
        for idx, val in enumerate(obj):
            out.update(_flatten(val, f"{prefix}/{idx}"))
        return out
    return {prefix: obj}


def _assert_close(got, want) -> None:
    got, want = _flatten(json.loads(json.dumps(got))), _flatten(want)
    assert got.keys() == want.keys()
    for key, val in want.items():
        if isinstance(val, str) or val is None:  # names; rows without errors
            assert got[key] == val, key
        else:
            assert abs(got[key] - val) <= TOL, (key, got[key], val)


@pytest.mark.parametrize("name", ["analytic_run", "process_choi", "stabilizer_sweep",
                                  "sampled_tomography"])
def test_analytic_values_match_golden(name):
    _assert_close(GENERATORS[name](), _load(name))


@pytest.mark.parametrize("name", list(SEEDED))
def test_seeded_output_digest_matches_golden(name):
    assert _sha1(SEEDED[name]()) == _load("seeded_sha1")[name]


@pytest.mark.parametrize("name", list(CLI_RUNS))
def test_cli_output_bytes_match_golden(name):
    assert _cli_files(CLI_RUNS[name]) == _load("cli_sha1")[name]


def _dump(name: str, payload) -> None:
    with open(GOLDEN / f"{name}.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _regenerate(name: str) -> None:
    """Rewrite golden pin ``name`` and print ``key: old → new`` for every digest it
    rewrites; a value file reports the sha1 of its bytes."""
    if name in SEEDED:
        file, new = "seeded_sha1", {name: _sha1(SEEDED[name]())}
    elif name in CLI_RUNS:
        file, new = "cli_sha1", {name: _cli_files(CLI_RUNS[name])}
    else:
        file, new = name, GENERATORS[name]()
    path = GOLDEN / f"{file}.json"
    old = _load(file) if path.exists() else {}
    if file in ("seeded_sha1", "cli_sha1"):
        before, after = _flatten({k: old.get(k) for k in new}), _flatten(new)
        _dump(file, new if file == name else {**old, **new})
    else:
        before = {"": _sha1(path.read_bytes()) if path.exists() else None}
        _dump(file, new)
        after = {"": _sha1(path.read_bytes())}
    for key, digest in after.items():
        print(f"{file}{key}: {before.get(key)} → {digest}")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or list(GENERATORS):
        _regenerate(name)
