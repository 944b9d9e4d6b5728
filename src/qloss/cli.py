"""Batch experiment runner: one subcommand per figure/table-style experiment.

All angles on the command line are written in units of pi ("0.5pi", "pi/2",
or a bare number that is read as a multiple of pi).  Grids are either
comma lists ("0.1pi,0.2pi,0.5pi") or ranges "start:stop:count" (inclusive).
Exit codes: 0 success, 2 configuration error, 3 internal invariant
violation.  The default seed comes from --seed or the QLOSS_SEED variable;
a key=value config file can supply any long option's default.
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from .channels import CHOI_BASIS_ORDER, NoiseModel
from .lattice import ConsistencyError, percolation_threshold
from .protocol import SHOT_PRESETS, detection_sweep, run_protocol, records_to_jsonl
from .qudit import ContractViolation
from .serialize import (fmt, header_lines, matrix_to_json_dict, write_csv,
                        write_json)
from .tomography import (EmptyBranchError, ideal_branch_choi, process_fidelity,
                         process_tomography, TABLE_COLUMNS)

EXIT_CONFIG = 2
EXIT_INVARIANT = 3

#: most points a start:stop:count grid may have, checked before the grid is built
MAX_GRID_POINTS = 10_000
#: largest percolation lattice size, checked before any lattice is built (L=256
#: takes about 2 s and 190 MB to build, about 1 KB per edge)
MAX_LATTICE_SIZE = 256
#: most shots or samples a run may ask for, checked before any work (a protocol
#: shot costs about 0.13 ms and 0.9 KB of records)
MAX_SHOTS = 100_000

ALPHA_ALIASES = {"0": 0.0, "0L": 0.0, "pi": math.pi, "1L": math.pi,
                 "pi/2": math.pi / 2, "+iL": math.pi / 2}


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
            defaults[key.strip().replace("-", "_")] = val.strip()
    return defaults


class _Fail(click.ClickException):
    exit_code = EXIT_CONFIG


def _effective(ctx: click.Context, config_path: str | None, **cli_values):
    """Merge config-file defaults under explicitly passed CLI options."""
    try:
        defaults = load_config_defaults(config_path)
    except (OSError, ValueError) as exc:
        raise _Fail(str(exc))
    merged = dict(cli_values)
    for key, raw in defaults.items():
        if key not in merged:
            raise _Fail(f"unknown config key {key!r}")
        src = ctx.get_parameter_source(key)
        if src is not None and src.name != "DEFAULT":
            continue  # explicit flag wins
        merged[key] = raw
    return merged


def _run_size(opts: dict, key: str) -> int:
    """The shot or sample count ``opts[key]``, rejected above `MAX_SHOTS`."""
    n = int(opts[key])
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
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default="detect_sweep.csv", show_default=True)
@click.pass_context
def cmd_detect_sweep(ctx, phi_grid, shots, register, addressing_error, hiding,
                     analytic, config_path, out):
    """Detected vs directly measured loss over a loss-rotation grid."""
    opts = _effective(ctx, config_path, phi_grid=phi_grid, shots=shots,
                      register=register, addressing_error=addressing_error,
                      hiding=hiding, analytic=analytic, out=out)

    def go():
        shots_n = _run_size(opts, "shots")
        if shots_n <= 0 and not opts["analytic"]:
            raise ValueError("shots must be positive (or pass --analytic)")
        grid = parse_grid(str(opts["phi_grid"]))
        res = detection_sweep(grid, shots_n, seed=ctx.obj["seed"],
                              register=int(opts["register"]),
                              addressing_error=float(opts["addressing_error"]),
                              analytic=bool(opts["analytic"]),
                              hiding=str(opts["hiding"]))
        # the default hiding is not echoed, so default runs keep their header
        shown = {k: v for k, v in opts.items() if (k, v) != ("hiding", "mask")}
        header = header_lines(shown, ctx.obj["seed"])
        header.append(f"# detection-efficiency: {fmt(res.efficiency)}")
        write_csv(str(opts["out"]), header,
                  ["phi", "direct_loss", "detected_loss", "false_positive_rate",
                   "false_negative_rate", "shots"],
                  [(r.phi, r.direct_loss, r.detected_loss, r.false_positive_rate,
                    r.false_negative_rate, r.shots) for r in res.rows])
        click.echo(f"wrote {opts['out']} (efficiency {fmt(res.efficiency)})")

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
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default="protocol", show_default=True, help="output prefix")
@click.pass_context
def cmd_protocol(ctx, alpha, phi, phi_grid, shots, paper_shots, noise, ideal,
                 shrunk_mode, config_path, out):
    """Full encode/detect/correct run: branch records and observable tables."""
    opts = _effective(ctx, config_path, alpha=alpha, phi=phi, phi_grid=phi_grid,
                      shots=shots, paper_shots=paper_shots, noise=noise,
                      ideal=ideal, shrunk_mode=shrunk_mode, out=out)

    def go():
        shots_n = _run_size(opts, "shots")
        alpha_v = parse_angle(str(opts["alpha"]))
        if opts["phi_grid"]:
            phis = parse_grid(str(opts["phi_grid"]))
        elif opts["phi"]:
            phis = [parse_angle(str(opts["phi"]))]
        else:
            raise ValueError("pass --phi or --phi-grid")
        model = NoiseModel() if opts["ideal"] else parse_noise(str(opts["noise"]))
        seed = ctx.obj["seed"]
        prefix = str(opts["out"])
        header = header_lines(opts, seed)

        records = []
        rows = []
        for phi_v in phis:
            n_shots = _closest_preset(phi_v) if opts["paper_shots"] else shots_n
            res = run_protocol(alpha_v, phi_v, shots=n_shots, noise=model,
                               seed=seed, shrunk_mode=str(opts["shrunk_mode"]))
            records.extend(res.records)
            for section, summary in (("no_loss", res.no_loss), ("loss", res.loss)):
                if not summary.observables:
                    continue
                vals = summary.observables
                rows.append([section, phi_v, summary.probability,
                             summary.fidelity] +
                            [vals.get(c) for c in TABLE_COLUMNS])
            tag = "" if len(phis) == 1 else f"_phi{fmt(phi_v / math.pi)}pi"
            for label, rho in (("no_loss", res.rho_no_loss), ("loss", res.rho_loss)):
                if rho is not None:
                    write_json(f"{prefix}_rho_{label}{tag}.json", header,
                               matrix_to_json_dict(rho.mat, "density",
                                                   "ions msb-first; levels 0,1,2"))
        write_csv(f"{prefix}_tables.csv", header,
                  ["branch", "phi", "probability", "fidelity", *TABLE_COLUMNS], rows)
        outputs = [f"{prefix}_tables.csv"]
        if records:
            with open(f"{prefix}_records.jsonl", "w") as fh:
                fh.write(records_to_jsonl(records))
            outputs.append(f"{prefix}_records.jsonl")
        click.echo("wrote " + ", ".join(outputs))

    _run(go)


def _closest_preset(phi: float) -> int:
    return min(SHOT_PRESETS.items(), key=lambda kv: abs(kv[0] - phi))[1]


@main.command("choi")
@click.option("--phi-grid", default="0.10pi,0.53pi,0.81pi", show_default=True)
@click.option("--shots", type=int, default=0, show_default=True,
              help="cycles per input and setting (0: exact)")
@click.option("--post-select", type=click.Choice(["0", "1"]), default="0",
              show_default=True)
@click.option("--register", type=click.Choice(["2", "5"]), default="2", show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default="choi.json", show_default=True)
@click.pass_context
def cmd_choi(ctx, phi_grid, shots, post_select, register, config_path, out):
    """Process tomography of the detection unit against the ideal branch maps."""
    opts = _effective(ctx, config_path, phi_grid=phi_grid, shots=shots,
                      post_select=post_select, register=register, out=out)

    def go():
        shots_n = _run_size(opts, "shots")
        seed = ctx.obj["seed"]
        branch = int(opts["post_select"])
        entries = []
        for phi_v in parse_grid(str(opts["phi_grid"])):
            try:
                choi, details = process_tomography(
                    phi_v, branch, shots=shots_n, seed=seed,
                    register=int(opts["register"]))
            except EmptyBranchError as exc:
                entries.append({"phi": phi_v, "flag": str(exc)})
                continue
            ideal = ideal_branch_choi(phi_v, branch)
            empty = [lbl for lbl, d in details["inputs"].items()
                     if d["branch_probability"] <= 1e-15]
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
        write_json(str(opts["out"]), header_lines(opts, seed),
                   {"post_select": branch, "results": entries})
        click.echo(f"wrote {opts['out']}")

    _run(go)


@main.command("percolation")
@click.option("--l", "--L", "l_grid", default="16,32", show_default=True)
@click.option("--p", "p_grid", default="0.40:0.60:21", show_default=True)
@click.option("--samples", type=int, default=2000, show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default="percolation.csv", show_default=True)
@click.pass_context
def cmd_percolation(ctx, l_grid, p_grid, samples, config_path, out):
    """Monte Carlo loss-survival curves and the two-size threshold crossing."""
    opts = _effective(ctx, config_path, l=l_grid, p=p_grid, samples=samples, out=out)

    def go():
        samples_n = _run_size(opts, "samples")
        seed = ctx.obj["seed"]
        sizes = [int(x) for x in str(opts["l"]).split(",")]
        if not all(2 <= s <= MAX_LATTICE_SIZE for s in sizes):
            raise ValueError(f"lattice sizes must lie in [2, {MAX_LATTICE_SIZE}]")
        grid = parse_float_grid(str(opts["p"]))
        res = percolation_threshold(sizes, samples_n, grid, seed=seed)
        header = header_lines(opts, seed)
        thr = "none" if res.threshold is None else fmt(res.threshold)
        header.append(f"# threshold-estimate: {thr}")
        write_csv(str(opts["out"]), header,
                  ["L", "p", "samples", "survivors", "fraction", "binom_std"],
                  [(pt.L, pt.p, pt.samples, pt.survivors, pt.fraction, pt.binom_std)
                   for pt in res.points])
        click.echo(f"wrote {opts['out']} (threshold estimate {thr})")

    _run(go)


@main.command("stabilizer-sweep")
@click.option("--alpha", default="pi/2", show_default=True)
@click.option("--phi-grid", default="0.1pi:pi:10", show_default=True)
@click.option("--shots", type=int, default=200, show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default="stabilizer_sweep.csv", show_default=True)
@click.pass_context
def cmd_stabilizer_sweep(ctx, alpha, phi_grid, shots, config_path, out):
    """No-loss-branch stabilizer expectations vs loss rate (analytic + sampled)."""
    opts = _effective(ctx, config_path, alpha=alpha, phi_grid=phi_grid,
                      shots=shots, out=out)

    def go():
        shots_n = _run_size(opts, "shots")
        seed = ctx.obj["seed"]
        alpha_v = parse_angle(str(opts["alpha"]))
        rows = []
        for phi_v in parse_grid(str(opts["phi_grid"])):
            s1x_law = 4 * math.cos(phi_v / 2) / (3 + math.cos(phi_v))
            res = run_protocol(alpha_v, phi_v, shots=shots_n, seed=seed)
            sampled = res.sampled_means("no_loss")
            rows.append((phi_v, s1x_law,
                         res.no_loss.observables["S1X"], sampled.get("S1X"),
                         res.no_loss.observables["S1Z"], sampled.get("S1Z"),
                         res.no_loss.observables["S2Z"], sampled.get("S2Z")))
        write_csv(str(opts["out"]), header_lines(opts, seed),
                  ["phi", "S1X_law", "S1X_analytic", "S1X_sampled",
                   "S1Z_analytic", "S1Z_sampled", "S2Z_analytic", "S2Z_sampled"],
                  rows)
        click.echo(f"wrote {opts['out']}")

    _run(go)


if __name__ == "__main__":
    main()
