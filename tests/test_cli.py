"""Command-line interface: parsing, outputs, headers, determinism, exit codes."""

import json
import math
import os

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from qloss import cli, tomography
from qloss.cli import (MAX_GRID_POINTS, MAX_LATTICE_SIZE, MAX_SHOTS, main,
                       parse_angle, parse_float_grid, parse_grid, parse_noise)
from qloss.lattice import PercolationResult
from qloss.serialize import write_json


@pytest.fixture
def runner():
    return CliRunner()


class TestParsing:
    @pytest.mark.parametrize("text,value", [
        ("0.5pi", 0.5 * math.pi),
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("-0.25pi", -0.25 * math.pi),
        ("0.1", 0.1 * math.pi),
        ("0", 0.0),
        ("0L", 0.0),
        ("1L", math.pi),
        ("+iL", math.pi / 2),
        (" +IL ", math.pi / 2),
    ])
    def test_angles(self, text, value):
        assert parse_angle(text) == pytest.approx(value)

    def test_angle_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("one.five")

    def test_grid_range(self):
        grid = parse_grid("0:pi:21")
        assert len(grid) == 21
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(math.pi)

    def test_grid_count_is_bounded(self):
        assert len(parse_grid(f"0:1:{MAX_GRID_POINTS}")) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="exceeds"):
            parse_grid("0:1:10000000")

    @pytest.mark.parametrize("text", ["", ",", " , ,"])
    def test_grid_without_points_is_rejected(self, text):
        with pytest.raises(ValueError, match="no points"):
            parse_grid(text)

    def test_grid_list(self):
        grid = parse_grid("0.1pi,0.2pi,0.5pi")
        assert grid == pytest.approx([0.1 * math.pi, 0.2 * math.pi, 0.5 * math.pi])

    def test_noise(self):
        model = parse_noise("pqnd=0.033")
        assert model.p_qnd == 0.033 and model.mode == "depolarizing_per_qubit"
        assert not parse_noise("off").enabled
        with pytest.raises(ValueError):
            parse_noise("gamma=1")


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


class TestDetectSweep:
    def test_writes_grid_rows(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        res = runner.invoke(main, ["--seed", "3", "detect-sweep",
                                   "--phi-grid", "0:pi:21", "--shots", "20",
                                   "--register", "5", "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = read_lines(out)
        data = [l for l in lines if not l.startswith("#") and "," in l]
        assert len(data) == 22  # header row + 21 points

    def test_zero_shots_is_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["detect-sweep", "--shots", "0",
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2

    def test_analytic_detected_equals_direct(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        res = runner.invoke(main, ["detect-sweep", "--analytic", "--shots", "0",
                                   "--phi-grid", "0:pi:5", "--out", str(out)])
        assert res.exit_code == 0, res.output
        for line in read_lines(out):
            if line.startswith(("#", "phi")):
                continue
            cells = line.split(",")
            assert cells[1] == cells[2]
            assert cells[3] == "0" and cells[4] == "0"

    def test_explicit_hiding_with_addressing_error(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        res = runner.invoke(main, ["detect-sweep", "--register", "5", "--hiding", "explicit",
                                   "--addressing-error", "0.05", "--phi-grid", "0:pi:3",
                                   "--shots", "10", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "hiding=explicit" in read_lines(out)[1]

    def test_empty_grid_is_config_error(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        res = runner.invoke(main, ["detect-sweep", "--phi-grid", ",", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    def test_unknown_hiding_is_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["detect-sweep", "--hiding", "partial",
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2
        assert not (tmp_path / "x.csv").exists()


class TestProtocolCommand:
    def test_ideal_values(self, runner, tmp_path):
        prefix = str(tmp_path / "run")
        res = runner.invoke(main, ["protocol", "--alpha", "pi/2", "--phi",
                                   "0.5pi", "--ideal", "--out", prefix])
        assert res.exit_code == 0, res.output
        lines = read_lines(prefix + "_tables.csv")
        rows = {l.split(",")[0]: l.split(",") for l in lines
                if l and not l.startswith("#") and not l.startswith("branch")}
        s1x = float(rows["no_loss"][5])
        assert s1x == pytest.approx(4 * math.cos(math.pi / 4) / 3, abs=1e-9)
        assert float(rows["loss"][3]) == pytest.approx(1.0, abs=1e-9)  # fidelity

    def test_paper_shots_match_the_table_preset(self, runner, tmp_path, monkeypatch):
        # 0.2pi to 8 digits (--phi is in units of pi) is off the preset grid;
        # both callers take the nearest preset, 600 (the table used to fall
        # back to 200)
        arg = repr(0.62831853 / math.pi)
        phi = parse_angle(arg)
        drawn = []
        run_protocol, sample_counts = cli.run_protocol, tomography.sample_counts

        def recording_run(*args, shots, **kwargs):
            drawn.append(("protocol", shots))
            return run_protocol(*args, shots=shots, **kwargs)

        def recording_counts(rho2, shots, rng):
            drawn.append(("table", shots))
            return sample_counts(rho2, shots, rng)

        monkeypatch.setattr(cli, "run_protocol", recording_run)
        monkeypatch.setattr(tomography, "sample_counts", recording_counts)
        res = runner.invoke(main, ["protocol", "--phi", arg, "--paper-shots",
                                   "--out", str(tmp_path / "run")])
        assert res.exit_code == 0, res.output
        tomography.table_report(alphas=(0.0,), phis=(phi,), sampled=True)
        assert drawn == [("protocol", 600), ("table", 600), ("table", 600)]

    def test_single_branch_at_zero_loss(self, runner, tmp_path):
        prefix = str(tmp_path / "zero")
        res = runner.invoke(main, ["protocol", "--alpha", "0", "--phi", "0",
                                   "--out", prefix])
        assert res.exit_code == 0, res.output
        lines = [l for l in read_lines(prefix + "_tables.csv")
                 if l.startswith(("no_loss", "loss"))]
        assert len(lines) == 1 and lines[0].startswith("no_loss")
        cells = lines[0].split(",")
        assert float(cells[2]) == pytest.approx(1.0)  # branch probability

    def test_unknown_alpha_alias_is_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["protocol", "--alpha", "half", "--phi", "0",
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("alias,angle", [("0L", "0"), ("1L", "pi"), ("+iL", "pi/2")])
    def test_logical_alias_writes_what_its_angle_writes(self, runner, tmp_path, alias, angle):
        bodies = []
        for i, alpha in enumerate((alias, angle)):
            prefix = str(tmp_path / f"run{i}")
            res = runner.invoke(main, ["protocol", "--alpha", alpha, "--phi", "0.5pi",
                                       "--shots", "10", "--out", prefix])
            assert res.exit_code == 0, res.output
            bodies.append([l for l in read_lines(prefix + "_tables.csv")
                           if not l.startswith("#")])
        assert bodies[0] == bodies[1]

    def test_echo_names_every_written_file(self, runner, tmp_path):
        prefix = str(tmp_path / "run")
        res = runner.invoke(main, ["protocol", "--phi-grid", "0.1pi,0.5pi", "--shots", "3",
                                   "--out", prefix])
        assert res.exit_code == 0, res.output
        echoed = res.output.strip().removeprefix("wrote ").split(", ")
        # in write order: each angle's density files, then the table and the records
        assert echoed == [f"{prefix}_{name}" for name in (
            "rho_no_loss_phi0.1pi.json", "rho_loss_phi0.1pi.json",
            "rho_no_loss_phi0.5pi.json", "rho_loss_phi0.5pi.json",
            "tables.csv", "records.jsonl")]
        assert sorted(echoed) == sorted(str(f) for f in tmp_path.iterdir())

    def test_records_and_noise_grid(self, runner, tmp_path):
        prefix = str(tmp_path / "noisy")
        res = runner.invoke(main, ["--seed", "5", "protocol", "--alpha", "pi",
                                   "--phi-grid", "0.1pi,0.2pi,0.5pi",
                                   "--noise", "pqnd=0.033", "--shots", "20",
                                   "--out", prefix])
        assert res.exit_code == 0, res.output
        recs = [json.loads(l) for l in read_lines(prefix + "_records.jsonl") if l]
        assert len(recs) == 60
        pcs = {}
        for line in read_lines(prefix + "_tables.csv"):
            if line.startswith("loss"):
                cells = line.split(",")
                pcs[float(cells[1])] = float(cells[4])
        ordered = [pcs[k] for k in sorted(pcs)]
        assert ordered[0] < ordered[1] < ordered[2]


class TestChoiCommand:
    def test_exact_grid(self, runner, tmp_path):
        out = tmp_path / "choi.json"
        res = runner.invoke(main, ["choi", "--phi-grid", "0.10pi,0.53pi,0.81pi",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads("\n".join(l for l in read_lines(out)
                                       if not l.startswith("#")))
        assert len(payload["results"]) == 3
        for entry in payload["results"]:
            assert entry["process_fidelity_vs_ideal"] == pytest.approx(1.0, abs=1e-9)

    def test_empty_branch_is_flagged_not_crashed(self, runner, tmp_path):
        out = tmp_path / "choi0.json"
        res = runner.invoke(main, ["choi", "--phi-grid", "pi", "--post-select",
                                   "0", "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads("\n".join(l for l in read_lines(out)
                                       if not l.startswith("#")))
        entry = payload["results"][0]
        assert "flag" in entry and "0" in entry["flag"]

    @pytest.mark.parametrize("grid,flagged", [("0.025pi", 1), ("0:pi:41", 2)])
    def test_sampled_branch_without_a_retained_shot_is_flagged(self, runner, tmp_path,
                                                              grid, flagged):
        # at phi = 0 the loss branch is empty; at 0.025pi it keeps no shot of 100
        out = tmp_path / "choi1.json"
        res = runner.invoke(main, ["choi", "--phi-grid", grid, "--post-select", "1",
                                   "--shots", "100", "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads("\n".join(l for l in read_lines(out)
                                       if not l.startswith("#")))
        assert len(payload["results"]) == len(parse_grid(grid))
        flags = [e["flag"] for e in payload["results"] if "choi" not in e]
        assert len(flags) == flagged and "retained no shot" in flags[-1]

    def test_finite_shots(self, runner, tmp_path):
        out = tmp_path / "chois.json"
        res = runner.invoke(main, ["--seed", "2", "choi", "--phi-grid", "0.3pi",
                                   "--shots", "500", "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads("\n".join(l for l in read_lines(out)
                                       if not l.startswith("#")))
        assert payload["results"][0]["process_fidelity_vs_ideal"] > 0.8


class TestPercolationCommand:
    def test_extremes(self, runner, tmp_path):
        out = tmp_path / "perc.csv"
        res = runner.invoke(main, ["percolation", "--L", "4", "--p", "0,1",
                                   "--samples", "100", "--out", str(out)])
        assert res.exit_code == 0, res.output
        data = [l.split(",") for l in read_lines(out)
                if l and not l.startswith(("#", "L"))]
        assert float(data[0][4]) == 1.0 and float(data[1][4]) == 0.0

    def test_largest_size_is_accepted(self, runner, tmp_path, monkeypatch):
        # the sweep is stubbed: only the size bound is under test here
        seen = []

        def sweep(sizes, samples, grid, seed):
            seen.append(sizes)
            return PercolationResult([], None)

        monkeypatch.setattr(cli, "percolation_threshold", sweep)
        res = runner.invoke(main, ["percolation", "--L", str(MAX_LATTICE_SIZE),
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 0, res.output
        assert seen == [[MAX_LATTICE_SIZE]]

    def test_largest_sample_count_is_accepted(self, runner, tmp_path, monkeypatch):
        # the sweep is stubbed: only the run-size bound is under test here
        seen = []

        def sweep(sizes, samples, grid, seed):
            seen.append(samples)
            return PercolationResult([], None)

        monkeypatch.setattr(cli, "percolation_threshold", sweep)
        res = runner.invoke(main, ["percolation", "--samples", str(MAX_SHOTS),
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 0, res.output
        assert seen == [MAX_SHOTS]

    def test_empty_grid_is_config_error(self, runner, tmp_path):
        out = tmp_path / "perc.csv"
        res = runner.invoke(main, ["percolation", "--L", "4", "--p", "", "--samples", "100",
                                   "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    def test_small_size_is_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["percolation", "--L", "1", "--p", "0.5",
                                   "--samples", "100",
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2


class TestStabilizerSweep:
    def test_law_column(self, runner, tmp_path):
        out = tmp_path / "stab.csv"
        res = runner.invoke(main, ["--seed", "1", "stabilizer-sweep",
                                   "--phi-grid", "0.1pi,pi", "--shots", "50",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = [l.split(",") for l in read_lines(out)
                if l and not l.startswith(("#", "phi"))]
        assert float(rows[0][1]) == pytest.approx(0.99994, abs=1e-4)
        assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-12)
        for row in rows:
            assert float(row[4]) == pytest.approx(1.0, abs=1e-10)  # S1Z analytic
            assert float(row[6]) == pytest.approx(1.0, abs=1e-10)  # S2Z analytic

    def test_sampled_column_within_four_sigma(self, runner, tmp_path):
        out = tmp_path / "stab.csv"
        shots = 200
        res = runner.invoke(main, ["--seed", "4", "stabilizer-sweep",
                                   "--phi-grid", "0.5pi", "--shots", str(shots),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        row = next(l.split(",") for l in read_lines(out)
                   if l and not l.startswith(("#", "phi")))
        law, sampled = float(row[1]), float(row[3])
        sigma = math.sqrt((1 - law**2) / (shots * (1 - 0.25)))  # no-loss share
        assert abs(sampled - law) <= 4 * sigma + 0.05


class TestHeadersAndDeterminism:
    def test_header_contract(self, runner, tmp_path):
        out = tmp_path / "perc.csv"
        runner.invoke(main, ["--seed", "9", "percolation", "--L", "4", "--p",
                             "0.5", "--samples", "100", "--out", str(out)])
        lines = read_lines(out)
        assert lines[0].startswith("# qloss ")
        assert lines[1].startswith("# config: ")
        assert lines[2].startswith("# config-sha1: ")
        assert lines[3] == "# seed: 9"

    @pytest.mark.parametrize("args", [
        ["detect-sweep", "--phi-grid", "0:pi:5", "--shots", "10"],
        ["protocol", "--alpha", "pi/2", "--phi", "0.5pi", "--shots", "15"],
        ["choi", "--phi-grid", "0.3pi", "--shots", "50"],
        ["percolation", "--L", "4,6", "--p", "0.45,0.5", "--samples", "100"],
        ["stabilizer-sweep", "--phi-grid", "0.5pi", "--shots", "20"],
    ])
    def test_byte_identical_reruns(self, runner, tmp_path, args):
        if args[0] == "protocol":
            out = str(tmp_path / "run")
            check = out + "_tables.csv"
        else:
            out = str(tmp_path / "file.out")
            check = out
        blobs = []
        for _ in range(2):
            res = runner.invoke(main, ["--seed", "11"] + args + ["--out", out])
            assert res.exit_code == 0, res.output
            with open(check, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]

    def test_env_var_seed(self, runner, tmp_path):
        out = tmp_path / "perc.csv"
        res = runner.invoke(main, ["percolation", "--L", "4", "--p", "0.5",
                                   "--samples", "100", "--out", str(out)],
                            env={"QLOSS_SEED": "123"})
        assert res.exit_code == 0
        assert "# seed: 123" in read_lines(out)

    def test_config_file_defaults_and_override(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=100\np=0.5\n")
        out = tmp_path / "perc.csv"
        res = runner.invoke(main, ["percolation", "--L", "4",
                                   "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        data = [l for l in read_lines(out) if not l.startswith(("#", "L"))]
        assert len(data) == 1 and data[0].split(",")[2] == "100"
        # explicit flag beats the config file
        res = runner.invoke(main, ["percolation", "--L", "4", "--samples", "120",
                                   "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0
        data = [l for l in read_lines(out) if not l.startswith(("#", "L"))]
        assert data[0].split(",")[2] == "120"

    @pytest.mark.parametrize("on", [True, False])
    @pytest.mark.parametrize("flag,args", [
        ("analytic", ["detect-sweep", "--phi-grid", "0:pi:3", "--shots", "3"]),
        ("paper-shots", ["protocol", "--phi", "0.5pi", "--shots", "3"]),
        ("ideal", ["protocol", "--phi", "0.5pi", "--noise", "pqnd=0.033"]),
    ])
    def test_config_flag_writes_what_the_flag_writes(self, runner, tmp_path, flag, args, on):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag}={'true' if on else 'false'}\n")
        out = tmp_path / "out"
        out.mkdir()
        written = []
        for extra in (["--config", str(cfg)], [f"--{flag}"] if on else []):
            res = runner.invoke(main, args + extra + ["--out", str(out / "run")])
            assert res.exit_code == 0, res.output
            written.append({f.name: f.read_bytes() for f in out.iterdir()})
            for f in out.iterdir():
                f.unlink()
        assert written[0] == written[1]

    def test_unknown_config_key_is_config_error(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble=3\n")
        res = runner.invoke(main, ["percolation", "--config", str(cfg),
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2


class TestNonFiniteInputs:
    """Non-finite, undefined or out-of-range inputs end in exit 2 and write nothing."""

    @pytest.mark.parametrize("args,written", [
        (["protocol", "--phi", "nan"], "run_tables.csv"),
        (["protocol", "--phi", "pi/0"], "run_tables.csv"),
        (["choi", "--phi-grid", "nan"], "run"),
        (["percolation", "--p", "nan", "--L", "4", "--samples", "100"], "run"),
        (["detect-sweep", "--addressing-error", "nan", "--shots", "2"], "run"),
        (["detect-sweep", "--addressing-error", "3", "--shots", "2"], "run"),
        (["detect-sweep", "--addressing-error", "-0.5", "--shots", "2"], "run"),
        (["percolation", "--p", "0:1:1000000000000", "--L", "4", "--samples", "100"], "run"),
        (["choi", "--shots", "100000000000000000000"], "run"),
        (["percolation", "--p", "1.5", "--L", "4", "--samples", "100"], "run"),
        (["percolation", "--p", "-0.1,0.5", "--L", "4", "--samples", "100"], "run"),
        (["percolation", "--L", f"4,{MAX_LATTICE_SIZE + 1}", "--samples", "100"], "run"),
        (["protocol", "--phi", "0.5pi", "--shots", "-3"], "run_tables.csv"),
        (["stabilizer-sweep", "--phi-grid", "0.5pi", "--shots", "-1"], "run"),
        (["percolation", "--L", "8,8", "--p", "0.5", "--samples", "100"], "run"),
        (["protocol", "--phi", "0.5pi", "--shots", str(MAX_SHOTS + 1)], "run_tables.csv"),
        (["percolation", "--L", "4", "--samples", str(MAX_SHOTS + 1)], "run"),
        (["detect-sweep", "--shots", str(MAX_SHOTS + 1)], "run"),
        # grid values whose density-file tags coincide
        (["protocol", "--phi-grid", "0.5pi,0.5000000000001pi,0.2pi"],
         "run_rho_no_loss_phi0.5pi.json"),
        (["protocol", "--phi-grid", "0.5pi,0.5pi"], "run_rho_no_loss_phi0.5pi.json"),
        (["protocol", "--phi", "0.5pi", "--noise", "pqnd=0.5,pqnd=0.033"], "run_tables.csv"),
        # config keys that repeat, before or after the - to _ mapping
        (["protocol", "--phi", "0.5pi", "--config", "shots=10\nshots=20\n"], "run_tables.csv"),
        (["choi", "--config", "phi-grid=0.1pi\nphi_grid=0.5pi\n"], "run"),
    ])
    def test_config_error_and_no_output(self, runner, tmp_path, args, written):
        if "--config" in args:  # the argument after it is the file's text
            at = args.index("--config") + 1
            cfg = tmp_path / "run.cfg"
            cfg.write_text(args[at])
            args = args[:at] + [str(cfg)] + args[at + 1:]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "run")])
        assert res.exit_code == 2, res.output
        assert not (tmp_path / written).exists()

    @pytest.mark.parametrize("args", [["protocol", "--phi", "0.5pi", "--shots", "3"],
                                      ["detect-sweep"],
                                      ["percolation", "--samples", "100"]])
    @pytest.mark.parametrize("source", ["option", "env"])
    def test_negative_seed_is_config_error(self, runner, tmp_path, args, source):
        seed = ["--seed", "-1"] if source == "option" else []
        env = {"QLOSS_SEED": "-1"} if source == "env" else {}
        res = runner.invoke(main, seed + args + ["--out", str(tmp_path / "run")], env=env)
        assert res.exit_code == 2, res.output
        assert "expected non-negative integer" in res.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["protocol", "stabilizer-sweep", "choi"])
    def test_run_size_cap_reads_config_files(self, runner, tmp_path, command):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"shots={MAX_SHOTS + 1}\n")
        res = runner.invoke(main, [command, "--phi-grid", "0.5pi", "--config", str(cfg),
                                   "--out", str(tmp_path / "run")])
        assert res.exit_code == 2, res.output
        assert "exceeds" in res.output
        assert list(tmp_path.iterdir()) == [cfg]

    def test_json_writer_refuses_nan(self, tmp_path):
        out = tmp_path / "x.json"
        with pytest.raises(ValueError):
            write_json(str(out), [], {"value": float("nan")})
        assert not out.exists()


#: the errors a parser can raise that ``_run`` turns into exit 2
CONFIG_ERRORS = (ValueError, OSError, ZeroDivisionError)

_TOKEN = st.one_of(st.text(alphabet="0123456789.+-eE_ pPiI/nNaAfFtTyY", max_size=12),
                   st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.sampled_from(["pi", "pi/2", "+iL", "0L", "1L", "-pi", "pi/0", "1e400"]))
_GRID_TEXT = st.one_of(
    st.text(),
    _TOKEN,
    st.lists(_TOKEN, max_size=4).map(",".join),
    st.tuples(_TOKEN, _TOKEN, st.one_of(st.integers(-3, 40).map(str), _TOKEN)).map(":".join))


def _small_count(text: str) -> bool:
    """A start:stop:count grid is built in full, so fuzz only small counts."""
    parts = text.strip().split(":")
    try:
        return len(parts) != 3 or int(parts[2]) <= 1000
    except ValueError:
        return True


class TestParserFuzz:
    """Any text either parses to finite floats or raises a config error."""

    @given(_GRID_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_parse_angle(self, text):
        try:
            value = parse_angle(text)
        except CONFIG_ERRORS:
            return
        assert isinstance(value, float) and math.isfinite(value)

    @pytest.mark.parametrize("parser", [parse_grid, parse_float_grid])
    @given(text=_GRID_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_grids(self, parser, text):
        assume(_small_count(text))
        try:
            grid = parser(text)
        except CONFIG_ERRORS:
            return
        assert all(isinstance(v, float) and math.isfinite(v) for v in grid)
