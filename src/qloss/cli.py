"""Batch experiment runner: one subcommand per figure/table-style experiment.

All angles on the command line are written in units of pi ("0.5pi", "pi/2",
or a bare number that is read as a multiple of pi).  Grids are either
comma lists ("0.1pi,0.2pi,0.5pi") or ranges "start:stop:count" (inclusive).
Exit codes: 0 success, 2 configuration error, 3 internal invariant
violation.  The seed comes from --seed or the QLOSS_SEED variable.  A
subcommand's --config names a key=value file that supplies defaults for that
subcommand's own options; an option given on the command line still wins.
Each command prints one ``wrote`` line naming its files in write order.
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from .channels import CHOI_BASIS_ORDER, NoiseModel
from .lattice import ConsistencyError, percolation_threshold
from .protocol import (ProtocolError, detection_sweep, preset_shots, records_to_jsonl,
                       run_protocol)
from .qudit import ContractViolation
from .serialize import (WRITTEN, fmt, header_lines, matrix_to_json_dict, write_csv,
                        write_json, write_text)
from .tomography import (EmptyBranchError, ideal_branch_choi, process_fidelity,
                         process_tomography, TABLE_COLUMNS)

EXIT_CONFIG = 2
EXIT_INVARIANT = 3

#: most points a start:stop:count grid may have, checked before the grid is built
MAX_GRID_POINTS = 10_000
#: largest percolation lattice size, checked before any lattice is built (building
#: L=256, 130,561 edges, takes about 0.6 s and peaks at about 220 MB RSS, 190 MB of
#: it above the bare interpreter; the built lattice holds about 130 MB, 87 MB of it
#: the adjacency, and stays in `build_lattice`'s cache until exit)
MAX_LATTICE_SIZE = 256
#: most shots or samples a run may ask for (a protocol grid: in total), checked before
#: any work
#: (`protocol --phi 0.5pi --shots 100000` takes 1.9-2.4 s and peaks at 165 MB
#: RSS, against 0.29-0.40 s and 54 MB at 0 shots on a 2-vCPU host: about 18 us
#: and 1.1 KB per shot, 278 B of it written as JSONL)
MAX_SHOTS = 100_000
#: most loss angles a protocol grid may have, checked before any work: each writes
#: two density files (one at phi = 0) of 41 KB on average, so at most 1,000 files,
#: about 41 MB (`protocol --phi-grid 0:pi:100` writes 199 files, 8.2 MB, in
#: 1.2-1.6 s on a 2-vCPU host: about 7 ms per file)
MAX_PROTOCOL_GRID = 500

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


def _run_size(n: int, key: str) -> int:
    """The shot or sample count ``n`` of option ``key``, rejected outside [0, `MAX_SHOTS`]."""
    if n < 0:
        raise ValueError(f"{key} must be >= 0, got {n}")
    if n > MAX_SHOTS:
        raise ValueError(f"{key} {n} exceeds {MAX_SHOTS}")
    return n


class _Command(click.Command):
    """A subcommand: it takes ``--config`` and maps its errors to exit 2 or 3."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params.append(click.Option(
            ["--config"], type=click.Path(exists=True), default=None, is_eager=True,
            expose_value=False, callback=_load_config,
            help="key=value file of option defaults"))

    def invoke(self, ctx: click.Context) -> None:
        WRITTEN.clear()
        try:
            suffix = super().invoke(ctx)
        except (ConsistencyError, ContractViolation, ProtocolError, AssertionError) as exc:
            # caught before the config errors, because ContractViolation is a ValueError
            click.echo(f"internal invariant violation: {exc}", err=True)
            sys.exit(EXIT_INVARIANT)
        except (ValueError, OSError, OverflowError, EmptyBranchError,
                ZeroDivisionError) as exc:
            raise _Fail(str(exc))
        click.echo("wrote " + ", ".join(path for path, _, _ in WRITTEN) + (suffix or ""))


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
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
@click.option("--out", default="detect_sweep.csv", show_default=True)
@click.pass_context
def cmd_detect_sweep(ctx, phi_grid, shots, register, addressing_error, hiding,
                     analytic, out):
    """Detected vs directly measured loss over a loss-rotation grid."""
    res = detection_sweep(parse_grid(phi_grid), _run_size(shots, "shots"),
                          seed=ctx.obj["seed"], register=int(register),
                          addressing_error=addressing_error, analytic=analytic,
                          hiding=hiding)
    # the default hiding is not echoed, so default runs keep their header
    shown = {k: v for k, v in ctx.params.items() if (k, v) != ("hiding", "mask")}
    header = header_lines(shown, ctx.obj["seed"])
    header.append(f"# detection-efficiency: {fmt(res.efficiency)}")
    write_csv(out, header,
              ["phi", "direct_loss", "detected_loss", "false_positive_rate",
               "false_negative_rate", "shots"],
              [(r.phi, r.direct_loss, r.detected_loss, r.false_positive_rate,
                r.false_negative_rate, r.shots) for r in res.rows])
    return f" (efficiency {fmt(res.efficiency)})"


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
@click.option("--out", default="protocol", show_default=True, help="output prefix")
@click.pass_context
def cmd_protocol(ctx, alpha, phi, phi_grid, shots, paper_shots, noise, ideal,
                 shrunk_mode, out):
    """Full encode/detect/correct run: branch records and observable tables."""
    shots_n = _run_size(shots, "shots")
    alpha_v = parse_angle(alpha)
    if phi_grid:
        phis = parse_grid(phi_grid)
    elif phi:
        phis = [parse_angle(phi)]
    else:
        raise ValueError("pass --phi or --phi-grid")
    if len(phis) > MAX_PROTOCOL_GRID:
        raise ValueError(f"phi grid has {len(phis)} points, more than {MAX_PROTOCOL_GRID}")
    # the density files of a grid run are named by each loss angle
    tags = [""] if len(phis) == 1 else [f"_phi{fmt(p / math.pi)}pi" for p in phis]
    if len(set(tags)) < len(tags):
        raise ValueError(f"phi grid {phi_grid!r} repeats a value at 12 significant "
                         "digits, so two runs would write the same density files")
    # every run's records are kept until the end, so the cap is on their total
    counts = [preset_shots(p) if paper_shots else shots_n for p in phis]
    _run_size(sum(counts), "total shots")
    model = NoiseModel() if ideal else parse_noise(noise)
    seed = ctx.obj["seed"]
    header = header_lines(ctx.params, seed)

    records = []
    rows = []
    for phi_v, tag, n_shots in zip(phis, tags, counts):
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
                write_json(f"{out}_rho_{label}{tag}.json", header,
                           matrix_to_json_dict(rho.mat, "density",
                                               "ions msb-first; levels 0,1,2"))
    write_csv(f"{out}_tables.csv", header,
              ["branch", "phi", "probability", "fidelity", *TABLE_COLUMNS], rows)
    if records:
        write_text(f"{out}_records.jsonl", records_to_jsonl(records))


@main.command("choi")
@click.option("--phi-grid", default="0.10pi,0.53pi,0.81pi", show_default=True)
@click.option("--shots", type=int, default=0, show_default=True,
              help="cycles per input and setting (0: exact)")
@click.option("--post-select", type=click.Choice(["0", "1"]), default="0",
              show_default=True)
@click.option("--out", default="choi.json", show_default=True)
@click.pass_context
def cmd_choi(ctx, phi_grid, shots, post_select, out):
    """Process tomography of the detection unit against the ideal branch maps.

    It runs on the probed ion and the ancilla: the hidden spectators never
    enter the detection circuit, so a five-ion register gives the same result.
    """
    shots_n = _run_size(shots, "shots")
    seed = ctx.obj["seed"]
    branch = int(post_select)
    entries = []
    for phi_v in parse_grid(phi_grid):
        try:
            choi, _ = process_tomography(phi_v, branch, shots=shots_n, seed=seed)
        except EmptyBranchError as exc:
            entries.append({"phi": phi_v, "flag": str(exc)})
            continue
        ideal = ideal_branch_choi(phi_v, branch)
        entries.append({
            "phi": phi_v,
            "choi": matrix_to_json_dict(choi.matrix, "choi", CHOI_BASIS_ORDER),
            "ideal": matrix_to_json_dict(ideal.matrix, "choi", CHOI_BASIS_ORDER),
            "process_fidelity_vs_ideal": process_fidelity(choi, ideal),
            "trace": choi.trace(),
        })
    write_json(out, header_lines(ctx.params, seed),
               {"post_select": branch, "results": entries})


@main.command("percolation")
@click.option("--l", "--L", "l", default="16,32", show_default=True)
@click.option("--p", "p", default="0.40:0.60:21", show_default=True)
@click.option("--samples", type=int, default=2000, show_default=True)
@click.option("--out", default="percolation.csv", show_default=True)
@click.pass_context
def cmd_percolation(ctx, l, p, samples, out):  # noqa: E741 (the --l option)
    """Monte Carlo loss-survival curves and the two-size threshold crossing."""
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
    return f" (threshold estimate {thr})"


@main.command("stabilizer-sweep")
@click.option("--alpha", default="pi/2", show_default=True)
@click.option("--phi-grid", default="0.1pi:pi:10", show_default=True)
@click.option("--shots", type=int, default=200, show_default=True)
@click.option("--out", default="stabilizer_sweep.csv", show_default=True)
@click.pass_context
def cmd_stabilizer_sweep(ctx, alpha, phi_grid, shots, out):
    """No-loss-branch stabilizer expectations vs loss rate (analytic + sampled)."""
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


if __name__ == "__main__":
    main()
