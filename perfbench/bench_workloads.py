"""The benchmark's three workloads: fixed task lists over the qloss public API.

A workload makes its inputs from the seed alone, names a warm-up task (the
set-up every CLI call pays: caches filled, codes and lattices built) and a
list of tasks.  Every task returns its output; the oracle check and the
canonical bytes that feed the output digest run outside the timed region.

Why these three: ``trajectories`` keeps the pure-state qudit kernels and the
per-shot branch tree busy with no tomography or lattice work;
``tomography`` is dominated by linear inversion and resampling;
``percolation`` spends everything in the lattice layer, split between a
survival sweep and a loss-correction mix that reforms every pattern.  A
change aimed at one of them predicts no change on the others.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from qloss import channels, lattice, protocol, tomography

PI = math.pi

#: multiple of the oracle's standard deviation a sampled value may stray by;
#: every tolerance also allows one count, since the normal approximation
#: fails for outcomes so rare that a handful of shots sees none or one
N_SIGMA = 5.0


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    canonical: Callable[[Any], bytes]


@dataclass
class Check:
    """An oracle-only task: run once per benchmark run, outside the timed passes."""

    name: str
    run: Callable[[], list[str]]


def _binomial_problems(label: str, hits: int, n: int, p: float) -> list[str]:
    """``hits`` out of ``n`` must lie within N_SIGMA binomial sigma (+1) of ``n p``."""
    sigma = math.sqrt(max(n * p * (1.0 - p), 0.0))
    if not abs(hits - n * p) <= N_SIGMA * sigma + 1.0:
        return [f"{label}: {hits}/{n} vs expected probability {p:.6g} "
                f"(> {N_SIGMA:g} sigma)"]
    return []


def _mean_problems(label: str, mean: float, n: int, mu: float, var: float,
                   step: float) -> list[str]:
    """A mean of ``n`` draws must lie within N_SIGMA sigma (+ one ``step``/n) of ``mu``."""
    sigma = math.sqrt(max(var, 0.0) / n)
    if not abs(mean - mu) <= N_SIGMA * sigma + step / n:
        return [f"{label}: sampled mean {mean:.6g} vs exact {mu:.6g} "
                f"(sigma {sigma:.3g}, n={n})"]
    return []


def _json_bytes(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, allow_nan=True).encode()


class Workload:
    name = ""
    #: the calibration block of ``bench_speed`` whose mix of work is this workload's
    speed_block = "interpreted"

    def __init__(self, seed: int, size: str = "full"):
        if size not in ("full", "tiny"):
            raise ValueError(f"unknown size {size!r}")
        self.seed = seed
        self.size = size

    def warmup(self) -> None:
        raise NotImplementedError

    def tasks(self) -> list[Task]:
        raise NotImplementedError

    def checks(self) -> list[Check]:
        return []

    def layer_counts(self, outputs: dict[str, Any]) -> dict[str, float]:
        """Work counts of one pass, derived from the outputs of its successful tasks."""
        return {}


# ---------------------------------------------------------------------------
# trajectories


class Trajectories(Workload):
    name = "trajectories"
    speed_block = "dense"

    NOISE_PQND = 0.033
    ADDRESSING_ERROR = 0.05

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        tiny = size == "tiny"
        # the paper presets: loss angle and cycles per cell
        self.presets = ((0.1 * PI, 1000), (0.2 * PI, 600), (0.5 * PI, 200))
        if tiny:
            self.presets = tuple((phi, n // 50) for phi, n in self.presets)
        self.sweep_grid = list(np.linspace(0.0, PI, 3 if tiny else 11))
        self.mask_shots = 4 if tiny else 60
        self.explicit_shots = 4 if tiny else 24
        self.noise = channels.NoiseModel(p_qnd=self.NOISE_PQND,
                                         mode="depolarizing_per_qubit")

    def warmup(self) -> None:
        for phi, _ in self.presets:
            protocol.run_protocol(PI / 2, phi, shots=2, seed=self.seed)
            protocol.run_protocol(PI / 2, phi, shots=2, noise=self.noise,
                                  seed=self.seed, shrunk_mode="toolbox")
        # two shots may miss the loss branch: drive both shrunk outcomes once
        lost = protocol.qnd_detect(protocol.apply_loss(protocol.encode(PI / 2), PI / 2),
                                   force_branch="loss").state
        for mode in ("exact", "toolbox"):
            for outcome in (+1, -1):
                protocol.measure_shrunk_stabilizer(lost, mode, force_outcome=outcome)
        protocol.detection_sweep([PI / 2], 2, seed=self.seed, register=5)
        protocol.detection_sweep([PI / 2], 2, seed=self.seed, register=5,
                                 hiding="explicit",
                                 addressing_error=self.ADDRESSING_ERROR)

    def tasks(self) -> list[Task]:
        out = []
        for mode, noise in (("exact", None), ("toolbox", self.noise)):
            for phi, shots in self.presets:
                out.append(Task(
                    f"protocol.{mode}.{phi / PI:.1f}pi",
                    lambda phi=phi, shots=shots, mode=mode, noise=noise:
                        protocol.run_protocol(PI / 2, phi, shots=shots, noise=noise,
                                              seed=self.seed, shrunk_mode=mode),
                    lambda res, phi=phi, shots=shots, noise=noise:
                        self._check_protocol(res, phi, shots, noise),
                    self._canonical_protocol))
        out.append(Task(
            "sweep.mask",
            lambda: protocol.detection_sweep(self.sweep_grid, self.mask_shots,
                                             seed=self.seed, register=5,
                                             hiding="mask"),
            self._check_mask_sweep, self._canonical_sweep))
        out.append(Task(
            "sweep.explicit",
            lambda: protocol.detection_sweep(self.sweep_grid, self.explicit_shots,
                                             seed=self.seed, register=5,
                                             hiding="explicit",
                                             addressing_error=self.ADDRESSING_ERROR),
            lambda res: self._check_sweep_shape(res, self.explicit_shots),
            self._canonical_sweep))
        return out

    @staticmethod
    def _check_protocol(res, phi: float, shots: int, noise) -> list[str]:
        """Records against an exact density-mode run of the same cell."""
        exact = protocol.analytic_run(PI / 2, phi, noise)
        problems = []
        if len(res.records) != shots:
            problems.append(f"{len(res.records)} records for {shots} shots")
        counts = res.branch_counts()
        problems += _binomial_problems("loss-branch shots", counts["loss"], shots,
                                       exact.loss.probability)
        for branch, summary in (("loss", exact.loss), ("no_loss", exact.no_loss)):
            n = counts[branch]
            if n == 0:
                continue
            for key, mean in res.sampled_means(branch).items():
                mu = summary.observables[key]
                # +-1 outcomes have variance 1 - mu^2; the 0/1 P_CS flag mu (1 - mu)
                if key == "P_CS":
                    var, step = mu * (1.0 - mu), 1.0
                else:
                    var, step = 1.0 - mu * mu, 2.0
                problems += _mean_problems(f"{branch} {key}", mean, n, mu, var, step)
        return problems

    @staticmethod
    def _canonical_protocol(res) -> bytes:
        summaries = {b: {"p": s.probability, "obs": s.observables, "fid": s.fidelity}
                     for b, s in (("loss", res.loss), ("no_loss", res.no_loss))}
        return (_json_bytes(summaries)
                + protocol.records_to_jsonl(res.records).encode())

    def _check_sweep_shape(self, res, shots: int) -> list[str]:
        problems = []
        if len(res.rows) != len(self.sweep_grid):
            problems.append(f"{len(res.rows)} sweep rows for {len(self.sweep_grid)} angles")
        for row in res.rows:
            if row.shots != shots:
                problems.append(f"row at phi={row.phi:.4g} has {row.shots} shots")
            for key in ("direct_loss", "detected_loss", "false_positive_rate",
                        "false_negative_rate"):
                val = getattr(row, key)
                if not 0.0 <= val <= 1.0:
                    problems.append(f"{key}={val} outside [0, 1] at phi={row.phi:.4g}")
        if not 0.0 <= res.efficiency <= 1.0:
            problems.append(f"efficiency {res.efficiency} outside [0, 1]")
        return problems

    def _check_mask_sweep(self, res) -> list[str]:
        """Ideal hiding: every flag is right and the flag rate is sin^2(phi/2)."""
        problems = self._check_sweep_shape(res, self.mask_shots)
        if res.efficiency != 1.0:
            problems.append(f"mask-mode efficiency {res.efficiency} != 1")
        for row in res.rows:
            if row.false_positive_rate != 0.0 or row.false_negative_rate != 0.0:
                problems.append(f"nonzero false rates at phi={row.phi:.4g}")
            problems += _binomial_problems(
                f"detected loss at phi={row.phi:.4g}",
                round(row.detected_loss * row.shots), row.shots,
                math.sin(row.phi / 2) ** 2)
        return problems

    @staticmethod
    def _canonical_sweep(res) -> bytes:
        return _json_bytes({"efficiency": res.efficiency,
                            "rows": [vars(r) for r in res.rows]})

    def layer_counts(self, outputs):
        records = [r for name, res in outputs.items() if name.startswith("protocol.")
                   for r in res.records]
        sweep_shots = sum(row.shots for name, res in outputs.items()
                          if name.startswith("sweep.") for row in res.rows)
        loss = sum(r.branch == "loss" for r in records)
        return {"protocol.shots": len(records) + sweep_shots,
                "protocol.loss_branch_frac": loss / len(records) if records else 0.0}


# ---------------------------------------------------------------------------
# tomography


class Tomography(Workload):
    name = "tomography"

    CHOI_SHOTS = 1000

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        tiny = size == "tiny"
        # (label, alpha, phi, shots per setting) of each sampled table cell,
        # at the paper's cycle presets
        self.cells = (("0L", 0.0, 0.1 * PI, 1000),) if tiny else \
            (("+iL", PI / 2, 0.5 * PI, 200), ("0L", 0.0, 0.1 * PI, 1000))
        self.choi_phis = (0.53 * PI,) if tiny else (0.10 * PI, 0.53 * PI, 0.81 * PI)
        self.choi_shots = 100 if tiny else self.CHOI_SHOTS
        self._exact_rows: dict[tuple, dict] = {}

    def warmup(self) -> None:
        for _, alpha, phi, _ in self.cells:
            tomography.table_report((alpha,), (phi,), seed=self.seed)
        # one sampled reconstruction, with a short resampling
        _, alpha, phi, _ = self.cells[-1]
        rho = protocol.analytic_run(alpha, phi).rho_no_loss
        _, counts = tomography.state_tomography(rho, (0, 1, 2, 3), shots_per_setting=10,
                                                seed=self.seed)
        tomography.resample_errors(
            counts, lambda c: {"p00": tomography.invert_counts(c)[0, 0].real},
            iterations=2, seed=self.seed)
        for post in (0, 1):
            tomography.process_tomography(self.choi_phis[0], post, shots=0)

    def tasks(self) -> list[Task]:
        out = []
        for label, alpha, phi, shots in self.cells:
            out.append(Task(
                f"table.{label}.{phi / PI:.1f}pi",
                lambda alpha=alpha, phi=phi, shots=shots: tomography.table_report(
                    (alpha,), (phi,), seed=self.seed, sampled=True,
                    shots_per_setting={phi: shots}),
                lambda rows, alpha=alpha, phi=phi, shots=shots:
                    self._check_table(rows, alpha, phi, shots),
                self._canonical_table))
        for post in (0, 1):
            for phi in self.choi_phis:
                out.append(Task(
                    f"choi.{post}.{phi / PI:.2f}pi",
                    lambda phi=phi, post=post: tomography.process_tomography(
                        phi, post, shots=self.choi_shots, seed=self.seed),
                    lambda res, phi=phi, post=post: self._check_choi(res, phi, post),
                    lambda res: res[0].matrix.tobytes()))
        return out

    def checks(self) -> list[Check]:
        def exact_choi(phi, post):
            choi, _ = tomography.process_tomography(phi, post, shots=0)
            dev = float(np.max(np.abs(choi.matrix
                                      - tomography.ideal_branch_choi(phi, post).matrix)))
            return [] if dev <= 1e-12 else [f"exact Choi deviates by {dev:.3g}"]
        return [Check(f"choi.exact.{post}.{phi / PI:.2f}pi",
                      lambda phi=phi, post=post: exact_choi(phi, post))
                for post in (0, 1) for phi in self.choi_phis]

    def _exact(self, alpha: float, phi: float) -> dict:
        key = (alpha, phi)
        if key not in self._exact_rows:
            rows = tomography.table_report((alpha,), (phi,), seed=self.seed)
            self._exact_rows[key] = {(r.section, r.phi): r.values for r in rows}
        return self._exact_rows[key]

    def _check_table(self, rows, alpha: float, phi: float, shots: int) -> list[str]:
        """Sampled values within N_SIGMA resampled sigma of the exact table.

        The tolerance adds one count per setting (1/shots): resampling gives
        sigma = 0 when an outcome of small probability was never drawn.
        """
        exact = self._exact(alpha, phi)
        problems = []
        if {(r.section, r.phi) for r in rows} != set(exact):
            problems.append("sampled table has other rows than the exact table")
        for row in rows:
            ref = exact.get((row.section, row.phi), {})
            for col, val in row.values.items():
                mu = ref.get(col, float("nan"))
                if math.isnan(mu) and math.isnan(val):
                    continue  # column not defined for this code
                if row.errors is None:  # analytic row: must equal the exact table
                    if val != mu:
                        problems.append(f"{row.section} {col}: {val} != exact {mu}")
                    continue
                sigma = row.errors.get(col, float("nan"))
                if not math.isfinite(sigma):
                    problems.append(f"{row.section} {col}: resampled sigma {sigma}")
                elif not abs(val - mu) <= N_SIGMA * sigma + 1.0 / shots:
                    problems.append(f"{row.section} {col}: {val:.6g} vs exact {mu:.6g} "
                                    f"(sigma {sigma:.3g})")
        return problems

    def _check_choi(self, res, phi: float, post: int) -> list[str]:
        """Sampled Choi entries within N_SIGMA sigma of the ideal branch map.

        Each entry is half a combination, with weights summing to at most 4,
        of single-qubit Pauli estimates whose sigma is at most 1/sqrt(shots),
        so its own sigma is at most 2/sqrt(shots).
        """
        choi, _ = res
        if not np.all(np.isfinite(choi.matrix)):
            return ["sampled Choi matrix is not finite"]
        tol = N_SIGMA * 2.0 / math.sqrt(self.choi_shots)
        dev = float(np.max(np.abs(choi.matrix
                                  - tomography.ideal_branch_choi(phi, post).matrix)))
        return [] if dev <= tol else [f"sampled Choi deviates by {dev:.3g} (> {tol:.3g})"]

    @staticmethod
    def _canonical_table(rows) -> bytes:
        return _json_bytes([[r.section, r.alpha, r.phi, r.values, r.errors] for r in rows])

    def layer_counts(self, outputs):
        tables = sum(1 for name, rows in outputs.items() if name.startswith("table.")
                     for r in rows if r.errors is not None)
        chois = sum(1 for name in outputs if name.startswith("choi."))
        return {"tomography.reconstructions": tables + chois}


# ---------------------------------------------------------------------------
# percolation


class Percolation(Workload):
    name = "percolation"

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        tiny = size == "tiny"
        self.sizes = (4, 6) if tiny else (16, 32)
        self.p_grid = list(np.linspace(0.40, 0.60, 3 if tiny else 21))
        self.samples = 100 if tiny else 200
        self.correction_L = 5 if tiny else 12
        self.correction_ps = (0.1, 0.3, 0.45)
        self.patterns = 5 if tiny else 60
        # (L, p index) of the independent survival estimates, and their mask count
        mid = len(self.p_grid) // 2
        self.cross_points = ((self.sizes[0], mid),) if tiny else \
            ((16, 5), (16, 10), (16, 15), (32, 10))
        self.cross_masks = 100 if tiny else 300
        self._sweep_result = None

    def warmup(self) -> None:
        for L in self.sizes:
            lattice.build_lattice(L)
        self._correct(self.correction_ps[-1], 1)
        lattice.percolation_threshold(self.sizes[:1], 100, self.p_grid[:1], seed=self.seed)

    def _correct(self, p: float, patterns: int):
        base = lattice.build_lattice(self.correction_L)
        p_idx = self.correction_ps.index(p)
        out = []
        for s in range(patterns):
            rng = np.random.default_rng(
                np.random.SeedSequence((self.seed, self.correction_L, p_idx, s)))
            lossy = lattice.apply_losses(base, p, rng)
            found = lattice.find_logical(lattice.reform_stabilizers(lossy))
            out.append((lossy, found))
        return out

    def tasks(self) -> list[Task]:
        out = [Task("survival",
                    lambda: lattice.percolation_threshold(self.sizes, self.samples,
                                                          self.p_grid, seed=self.seed),
                    self._check_survival, self._canonical_survival)]
        for p in self.correction_ps:
            out.append(Task(f"correct.p{p:g}",
                            lambda p=p: self._correct(p, self.patterns),
                            self._check_correct, self._canonical_correct))
        return out

    def _check_survival(self, res) -> list[str]:
        self._sweep_result = res  # compared with the independent estimates in checks()
        problems = []
        expected = [(L, p) for L in self.sizes for p in self.p_grid]
        if [(pt.L, pt.p) for pt in res.points] != expected:
            problems.append("survival points do not follow the (L, p) grid")
        for pt in res.points:
            if pt.samples != self.samples or not 0 <= pt.survivors <= pt.samples:
                problems.append(f"L={pt.L} p={pt.p:.3f}: {pt.survivors}/{pt.samples}")
        return problems

    @staticmethod
    def _check_correct(patterns) -> list[str]:
        """``find_logical`` succeeds exactly when the fast survival test does."""
        problems = []
        for lossy, found in patterns:
            mask = np.zeros(lossy.n_edges, dtype=bool)
            mask[list(lossy.lost)] = True
            if found.correctable != lattice.survival_check(lossy, mask):
                problems.append(f"find_logical and survival_check disagree on "
                                f"{len(lossy.lost)} lost edges")
            for op in (found.t_z, found.t_x):
                if op is not None and set(op.support) & lossy.lost:
                    problems.append("deformed logical touches a lost edge")
        return problems

    def checks(self) -> list[Check]:
        return [Check(f"survival.independent.L{L}.p{self.p_grid[i]:.2f}",
                      lambda L=L, i=i: self._independent(L, i))
                for L, i in self.cross_points]

    def _independent(self, L: int, p_idx: int) -> list[str]:
        """Compare the sweep's survival fraction with one from the benchmark's own masks."""
        if self._sweep_result is None:
            return ["no survival sweep to compare with"]
        p = self.p_grid[p_idx]
        point = next(pt for pt in self._sweep_result.points if pt.L == L and pt.p == p)
        lat = lattice.build_lattice(L)
        n = self.cross_masks
        alive = 0
        for k in range(n):
            # a stream of the benchmark's own, disjoint from the program's seeds
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, 7919, L, p_idx, k)))
            alive += lattice.survival_check(lat, rng.random(lat.n_edges) < p)
        pooled = (alive + point.survivors) / (n + point.samples)
        sigma = math.sqrt(max(pooled * (1 - pooled), 0.0) * (1 / n + 1 / point.samples))
        diff = alive / n - point.fraction
        if not abs(diff) <= N_SIGMA * sigma + 1 / n + 1 / point.samples:
            return [f"L={L} p={p:.3f}: sweep {point.fraction:.3f} vs independent "
                    f"{alive / n:.3f} (sigma {sigma:.3g})"]
        return []

    @staticmethod
    def _canonical_survival(res) -> bytes:
        return _json_bytes({"threshold": res.threshold,
                            "points": [[pt.L, pt.p, pt.samples, pt.survivors]
                                       for pt in res.points]})

    @staticmethod
    def _canonical_correct(patterns) -> bytes:
        return _json_bytes([[sorted(lossy.lost), found.correctable,
                             None if found.t_z is None else list(found.t_z.support),
                             None if found.t_x is None else list(found.t_x.support)]
                            for lossy, found in patterns])

    def layer_counts(self, outputs):
        res = outputs.get("survival")
        samples = sum(pt.samples for pt in res.points) if res is not None else 0
        found = [f.correctable for name, pats in outputs.items()
                 if name.startswith("correct.") for _, f in pats]
        return {"lattice.survival_samples": samples,
                "lattice.correctable_frac": sum(found) / len(found) if found else 0.0}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Trajectories, Tomography, Percolation)}
