"""Batch experiment runner: one subcommand per figure/table-style experiment.

All angles on the command line are written in units of pi ("0.5pi", "pi/2",
or a bare number that is read as a multiple of pi).  Grids are either
comma lists ("0.1pi,0.2pi,0.5pi") or ranges "start:stop:count" (inclusive).
Exit codes: 0 success, 2 configuration error, 3 internal invariant
violation.  The seed comes from --seed or the QLOSS_SEED variable.  A
subcommand's --config names a key=value file that supplies defaults for that
subcommand's own options; an option given on the command line still wins.
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from .channels import CHOI_BASIS_ORDER, NoiseModel
from .lattice import ConsistencyError, percolation_threshold
from .protocol import detection_sweep, preset_shots, run_protocol, records_to_jsonl
from .qudit import ContractViolation
from .serialize import (fmt, header_lines, matrix_to_json_dict, write_csv,
                        write_json)
from .tomography import (EmptyBranchError, ideal_branch_choi, process_fidelity,
                         process_tomography, TABLE_COLUMNS)
from .tolerances import ATOL_TRACE

EXIT_CONFIG = 2
EXIT_INVARIANT = 3

#: most points a start:stop:count grid may have, checked before the grid is built
MAX_GRID_POINTS = 10_000
#: largest percolation lattice size, checked before any lattice is built (building
#: L=256, 130,561 edges, takes about 1 s and peaks at about 150 MB RSS, 120 MB of
#: it above the bare interpreter; the built lattice holds about 40 MB)
MAX_LATTICE_SIZE = 256
#: most shots or samples a run may ask for, checked before any work (a protocol
#: shot costs about 0.13 ms and 0.9 KB of records)
MAX_SHOTS = 100_000

#: lowercase, because parse_angle matches them case-insensitively
ALPHA_ALIASES = {"0": 0.0, "0l": 0.0, "pi": math.pi, "1l": math.pi,
                 "pi/2": math.pi / 2, "+il": math.pi / 2}


def parse_angle(text: str) -> float:
    """Angle in units of pi: '0.5pi', 'pi', 'pi/2', or bare '0.5'."""
    t = text.strip().lower()
    if not t:
        raise ValueError("empty angle")
    if t in ALPHA_ALIASES:
        value = ALPHA_ALIASES[t]
    elif t.startswith("pi/"):
        value = math.pi / float(t[3:])
    elif t.endswith("pi"):
        head = t[:-2]
        value = (float(head) if head not in ("", "+", "-") else float(head + "1")) * math.pi
    else:
        value = float(t) * math.pi
    if not math.isfinite(value):
        raise ValueError(f"angle {text!r} is not finite")
    return value


def parse_grid(text: str, parser=parse_angle) -> list[float]:
    t = text.strip()
    if ":" in t:
        parts = t.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:count, got {text!r}")
        start, stop = parser(parts[0]), parser(parts[1])
        count = int(parts[2])
        if count < 1:
            raise ValueError("grid count must be >= 1")
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid count {count} exceeds {MAX_GRID_POINTS}")
        with np.errstate(invalid="ignore", over="ignore"):  # rejected below
            grid = list(np.linspace(start, stop, count))
    else:
        grid = [parser(p) for p in t.split(",") if p.strip()]
    if not grid:
        raise ValueError(f"grid {text!r} has no points")
    if not all(math.isfinite(v) for v in grid):
        raise ValueError(f"grid {text!r} has a non-finite value")
    return grid


def parse_float_grid(text: str) -> list[float]:
    return parse_grid(text, parser=float)


def parse_noise(text: str | None) -> NoiseModel:
    if not text or text == "off":
        return NoiseModel()
    params = {}
    for item in text.split(","):
        key, _, val = item.partition("=")
        if key.strip() in params:
            raise ValueError(f"noise parameter {key.strip()!r} repeats in {text!r}")
        params[key.strip()] = val.strip()
    if set(params) != {"pqnd"}:
        raise ValueError(f"unknown noise parameters in {text!r} (expected pqnd=...)")
    return NoiseModel(p_qnd=float(params["pqnd"]), mode="depolarizing_per_qubit")


def load_config_defaults(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    defaults = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"config line is not key=value: {raw!r}")
            key = key.strip().replace("-", "_")
            if key in defaults:
                raise ValueError(f"config key {key!r} repeats in {path}")
            defaults[key] = val.strip()
    return defaults


class _Fail(click.ClickException):
    exit_code = EXIT_CONFIG


def _load_config(ctx: click.Context, _param, path: str | None) -> None:
    """Make the config file's values the command's defaults.

    The option is eager, so this runs before any other option is read:
    click then converts each value with its option's own type, and an
    explicitly passed flag still wins.
    """
    try:
        defaults = load_config_defaults(path)
    except (OSError, ValueError) as exc:
        raise _Fail(str(exc))
    names = {p.name for p in ctx.command.params if p.expose_value}
    for key in defaults:
        if key not in names:
            raise _Fail(f"unknown config key {key!r}")
    ctx.default_map = {**(ctx.default_map or {}), **defaults}


config_option = click.option("--config", type=click.Path(exists=True), default=None,
                             is_eager=True, expose_value=False, callback=_load_config,
                             help="key=value file of option defaults")


def _run_size(n: int, key: str) -> int:
    """The shot or sample count ``n`` of option ``key``, rejected above `MAX_SHOTS`."""
    if n > MAX_SHOTS:
        raise ValueError(f"{key} {n} exceeds {MAX_SHOTS}")
    return n


def _run(fn):
    try:
        fn()
    except (ValueError, OSError, OverflowError, EmptyBranchError, ZeroDivisionError) as exc:
        raise _Fail(str(exc))
    except (ConsistencyError, ContractViolation, AssertionError) as exc:
        click.echo(f"internal invariant violation: {exc}", err=True)
        sys.exit(EXIT_INVARIANT)


@click.group()
@click.option("--seed", type=int, envvar="QLOSS_SEED", default=0, show_default=True,
              help="master seed (env: QLOSS_SEED)")
@click.pass_context
def main(ctx: click.Context, seed: int) -> None:
    """Loss detection/correction experiments on the simulated ion register."""
    ctx.ensure_object(dict)
    ctx.obj["seed"] = seed


@main.command("detect-sweep")
@click.option("--phi-grid", default="0:pi:21", show_default=True)
@click.option("--shots", type=int, default=200, show_default=True)
@click.option("--register", type=click.Choice(["2", "5"]), default="5", show_default=True)
@click.option("--addressing-error", type=float, default=0.0, show_default=True)
@click.option("--hiding", type=click.Choice(["mask", "explicit"]), default="mask",
              show_default=True,
              help="ideal support mask or explicit five-level hiding pulses")
@click.option("--analytic", is_flag=True, help="exact probabilities, no sampling")
@config_option
@click.option("--out", default="detect_sweep.csv", show_default=True)
@click.pass_context
def cmd_detect_sweep(ctx, phi_grid, shots, register, addressing_error, hiding,
                     analytic, out):
    """Detected vs directly measured loss over a loss-rotation grid."""

    def go():
        shots_n = _run_size(shots, "shots")
        if shots_n <= 0 and not analytic:
            raise ValueError("shots must be positive (or pass --analytic)")
        res = detection_sweep(parse_grid(phi_grid), shots_n, seed=ctx.obj["seed"],
                              register=int(register), addressing_error=addressing_error,
                              analytic=analytic, hiding=hiding)
        # the default hiding is not echoed, so default runs keep their header
        shown = {k: v for k, v in ctx.params.items() if (k, v) != ("hiding", "mask")}
        header = header_lines(shown, ctx.obj["seed"])
        header.append(f"# detection-efficiency: {fmt(res.efficiency)}")
        write_csv(out, header,
                  ["phi", "direct_loss", "detected_loss", "false_positive_rate",
                   "false_negative_rate", "shots"],
                  [(r.phi, r.direct_loss, r.detected_loss, r.false_positive_rate,
                    r.false_negative_rate, r.shots) for r in res.rows])
        click.echo(f"wrote {out} (efficiency {fmt(res.efficiency)})")

    _run(go)


@main.command("protocol")
@click.option("--alpha", default="pi/2", show_default=True)
@click.option("--phi", default=None, help="single loss angle")
@click.option("--phi-grid", default=None, help="overrides --phi")
@click.option("--shots", type=int, default=0, show_default=True,
              help="trajectory shots (0: analytic only)")
@click.option("--paper-shots", is_flag=True,
              help="use the 1000/600/200 cycle presets per loss rate")
@click.option("--noise", default="off", show_default=True, help="off or pqnd=0.033")
@click.option("--ideal", is_flag=True, help="force the noise model off")
@click.option("--shrunk-mode", type=click.Choice(["exact", "toolbox"]),
              default="exact", show_default=True)
@config_option
@click.option("--out", default="protocol", show_default=True, help="output prefix")
@click.pass_context
def cmd_protocol(ctx, alpha, phi, phi_grid, shots, paper_shots, noise, ideal,
                 shrunk_mode, out):
    """Full encode/detect/correct run: branch records and observable tables."""

    def go():
        shots_n = _run_size(shots, "shots")
        alpha_v = parse_angle(alpha)
        if phi_grid:
            phis = parse_grid(phi_grid)
        elif phi:
            phis = [parse_angle(phi)]
        else:
            raise ValueError("pass --phi or --phi-grid")
        # the density files of a grid run are named by each loss angle
        tags = [""] if len(phis) == 1 else [f"_phi{fmt(p / math.pi)}pi" for p in phis]
        if len(set(tags)) < len(tags):
            raise ValueError(f"phi grid {phi_grid!r} repeats a value at 12 significant "
                             "digits, so two runs would write the same density files")
        model = NoiseModel() if ideal else parse_noise(noise)
        seed = ctx.obj["seed"]
        header = header_lines(ctx.params, seed)

        records = []
        rows = []
        outputs = []
        for phi_v, tag in zip(phis, tags):
            n_shots = preset_shots(phi_v) if paper_shots else shots_n
            res = run_protocol(alpha_v, phi_v, shots=n_shots, noise=model,
                               seed=seed, shrunk_mode=shrunk_mode)
            records.extend(res.records)
            for section, summary in (("no_loss", res.no_loss), ("loss", res.loss)):
                if not summary.observables:
                    continue
                vals = summary.observables
                rows.append([section, phi_v, summary.probability,
                             summary.fidelity] +
                            [vals.get(c) for c in TABLE_COLUMNS])
            for label, rho in (("no_loss", res.rho_no_loss), ("loss", res.rho_loss)):
                if rho is not None:
                    outputs.append(f"{out}_rho_{label}{tag}.json")
                    write_json(outputs[-1], header,
                               matrix_to_json_dict(rho.mat, "density",
                                                   "ions msb-first; levels 0,1,2"))
        write_csv(f"{out}_tables.csv", header,
                  ["branch", "phi", "probability", "fidelity", *TABLE_COLUMNS], rows)
        outputs.append(f"{out}_tables.csv")
        if records:
            with open(f"{out}_records.jsonl", "w") as fh:
                fh.write(records_to_jsonl(records))
            outputs.append(f"{out}_records.jsonl")
        click.echo("wrote " + ", ".join(outputs))

    _run(go)


@main.command("choi")
@click.option("--phi-grid", default="0.10pi,0.53pi,0.81pi", show_default=True)
@click.option("--shots", type=int, default=0, show_default=True,
              help="cycles per input and setting (0: exact)")
@click.option("--post-select", type=click.Choice(["0", "1"]), default="0",
              show_default=True)
@config_option
@click.option("--out", default="choi.json", show_default=True)
@click.pass_context
def cmd_choi(ctx, phi_grid, shots, post_select, out):
    """Process tomography of the detection unit against the ideal branch maps.

    It runs on the probed ion and the ancilla: the hidden spectators never
    enter the detection circuit, so a five-ion register gives the same result.
    """

    def go():
        shots_n = _run_size(shots, "shots")
        seed = ctx.obj["seed"]
        branch = int(post_select)
        entries = []
        for phi_v in parse_grid(phi_grid):
            try:
                choi, details = process_tomography(phi_v, branch, shots=shots_n, seed=seed)
            except EmptyBranchError as exc:
                entries.append({"phi": phi_v, "flag": str(exc)})
                continue
            ideal = ideal_branch_choi(phi_v, branch)
            empty = [lbl for lbl, d in details["inputs"].items()
                     if d["branch_probability"] <= ATOL_TRACE]
            entry = {
                "phi": phi_v,
                "choi": matrix_to_json_dict(choi.matrix, "choi", CHOI_BASIS_ORDER),
                "ideal": matrix_to_json_dict(ideal.matrix, "choi", CHOI_BASIS_ORDER),
                "process_fidelity_vs_ideal": process_fidelity(choi, ideal),
                "trace": choi.trace(),
            }
            if empty:
                entry["flag"] = f"empty post-selected branch for inputs {empty}"
            entries.append(entry)
        write_json(out, header_lines(ctx.params, seed),
                   {"post_select": branch, "results": entries})
        click.echo(f"wrote {out}")

    _run(go)


@main.command("percolation")
@click.option("--l", "--L", "l", default="16,32", show_default=True)
@click.option("--p", "p", default="0.40:0.60:21", show_default=True)
@click.option("--samples", type=int, default=2000, show_default=True)
@config_option
@click.option("--out", default="percolation.csv", show_default=True)
@click.pass_context
def cmd_percolation(ctx, l, p, samples, out):  # noqa: E741 (the --l option)
    """Monte Carlo loss-survival curves and the two-size threshold crossing."""

    def go():
        samples_n = _run_size(samples, "samples")
        seed = ctx.obj["seed"]
        sizes = [int(x) for x in l.split(",")]
        if not all(2 <= s <= MAX_LATTICE_SIZE for s in sizes):
            raise ValueError(f"lattice sizes must lie in [2, {MAX_LATTICE_SIZE}]")
        res = percolation_threshold(sizes, samples_n, parse_float_grid(p), seed=seed)
        header = header_lines(ctx.params, seed)
        thr = "none" if res.threshold is None else fmt(res.threshold)
        header.append(f"# threshold-estimate: {thr}")
        write_csv(out, header,
                  ["L", "p", "samples", "survivors", "fraction", "binom_std"],
                  [(pt.L, pt.p, pt.samples, pt.survivors, pt.fraction, pt.binom_std)
                   for pt in res.points])
        click.echo(f"wrote {out} (threshold estimate {thr})")

    _run(go)


@main.command("stabilizer-sweep")
@click.option("--alpha", default="pi/2", show_default=True)
@click.option("--phi-grid", default="0.1pi:pi:10", show_default=True)
@click.option("--shots", type=int, default=200, show_default=True)
@config_option
@click.option("--out", default="stabilizer_sweep.csv", show_default=True)
@click.pass_context
def cmd_stabilizer_sweep(ctx, alpha, phi_grid, shots, out):
    """No-loss-branch stabilizer expectations vs loss rate (analytic + sampled)."""

    def go():
        shots_n = _run_size(shots, "shots")
        seed = ctx.obj["seed"]
        alpha_v = parse_angle(alpha)
        rows = []
        for phi_v in parse_grid(phi_grid):
            s1x_law = 4 * math.cos(phi_v / 2) / (3 + math.cos(phi_v))
            res = run_protocol(alpha_v, phi_v, shots=shots_n, seed=seed)
            sampled = res.sampled_means("no_loss")
            rows.append((phi_v, s1x_law,
                         res.no_loss.observables["S1X"], sampled.get("S1X"),
                         res.no_loss.observables["S1Z"], sampled.get("S1Z"),
                         res.no_loss.observables["S2Z"], sampled.get("S2Z")))
        write_csv(out, header_lines(ctx.params, seed),
                  ["phi", "S1X_law", "S1X_analytic", "S1X_sampled",
                   "S1Z_analytic", "S1Z_sampled", "S2Z_analytic", "S2Z_sampled"],
                  rows)
        click.echo(f"wrote {out}")

    _run(go)


if __name__ == "__main__":
    main()
