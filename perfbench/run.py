"""Benchmark of the qloss paper artifacts: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload trajectories --seed 0 --seconds 30 --trace 0

Each run is a single-client closed loop: the workload's fixed task list is
called one public API call at a time, in passes, until ``--seconds`` have
elapsed; the benchmark adds no threads or processes to the measured work and
BLAS keeps its default thread count.  Every task's output is checked against
an oracle outside the timed region; a task that raises or fails its check
counts as failed and the run goes on.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (the time of one pass
in the warmed process, from per-task medians), ``setup_s`` (median over fresh
interpreters of import plus the warm-up task), ``peak_rss_mb`` and
``pass_frac`` (1 - fail_frac).  Both times are given at a fixed host speed,
measured with a calibration block around and during every timed interval
(see ``bench_speed.py``); the times as measured are printed too.
``--trace 1`` wraps the public functions of every layer from outside (see
``bench_trace.py``), prints per-layer call counts and self times per pass,
and reports the traced pass time beside the untraced one.  The last line of
standard output is always the JSON result; a run record, and the spans of a
traced run, are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import bench_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

#: fresh interpreters timed per run for setup_s
SETUP_PROBES = {"full": 5, "tiny": 1}
#: failures listed on standard output (all of them go to the run record)
SHOWN_FAILURES = 20


def require_source() -> None:
    """Put the checkout's ``src`` first on the path, or stop: there is nothing to measure."""
    if not (SRC / "qloss" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qloss sources at {SRC}; run from a qloss checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# run header


def _git_sha() -> str:
    """Commit of the checkout, or "unknown" outside a git work tree."""
    # the ceiling keeps git from taking the sha of a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes
    import glob

    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _openblas_version() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def run_header(workload: str, seed: int, trace: bool, size: str) -> dict:
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"workload": workload, "seed": seed, "trace": int(trace), "size": size,
            "git_sha": _git_sha(), "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _openblas_version(),
            "blas_threads": _blas_threads(), "machine": platform.machine()}


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    """Each task's time in one pass: as measured, and at calibration speed."""

    raw: dict[str, float]
    scaled: dict[str, float]


class PassRunner:
    """Runs the task list in passes and keeps the oracle verdicts.

    The first pass of a task is checked by its oracle; a later pass whose
    output is byte-identical inherits that verdict, and one that differs
    fails as non-deterministic (and is checked again).
    """

    def __init__(self, tasks, speed_block: str):
        self.tasks = tasks
        self.speed_block = speed_block
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_labels: set[str] = set()
        self.first_outputs: dict[str, object] = {}
        self.first_digests: dict[str, str] = {}
        self._verdicts: dict[str, list[str]] = {}

    def fail(self, label: str, problems: list[str]) -> None:
        """Record the problems of one attempted task; none means it passed."""
        if problems:
            self.failed_labels.add(label)
            self.failures.extend(f"{label}: {p}" for p in problems)

    @property
    def failed(self) -> int:
        return len(self.failed_labels)

    def attempt(self, label: str, fn) -> object:
        """Call ``fn`` as one attempted task; a raise is recorded, not propagated."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a failing task must not end the run
            self.fail(label, [f"raised {type(exc).__name__}: {exc}"])
            return exc

    def run_checks(self, checks) -> None:
        """Run the workload's oracle-only checks, each one attempted task."""
        for check in checks:
            problems = self.attempt(check.name, check.run)
            if isinstance(problems, list):
                self.fail(check.name, problems)

    def run_pass(self, tag: str, tracer=None) -> Pass:
        """One pass over the task list, each task timed with the host speed.

        Untraced tasks also sample the host speed while they run; traced ones
        do not, so that no calibration block lands in a span's self time.
        """
        outputs: dict[str, object] = {}
        times = Pass({}, {})
        for task in self.tasks:
            with bench_speed.timed(self.speed_block, inside=tracer is None) as interval:
                try:
                    if tracer is None:
                        outputs[task.name] = task.run()
                    else:
                        with tracer.span(f"task.{task.name}", f"{tag}:{task.name}"):
                            outputs[task.name] = task.run()
                except Exception as exc:  # a failing task must not end the run
                    outputs[task.name] = exc
            times.raw[task.name] = interval.raw
            times.scaled[task.name] = interval.scaled
        if tracer is not None:
            tracer.task = "check"  # oracle calls are traced but kept out of the passes
        for task in self.tasks:
            self._judge(f"{tag} {task.name}", task, outputs[task.name])
        return times

    def _judge(self, label: str, task, out) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            self.fail(label, [f"raised {type(out).__name__}: {out}"])
            return
        first = task.name not in self.first_digests
        digest = None
        try:
            digest = hashlib.sha1(task.canonical(out)).hexdigest()
            if first:
                problems = task.check(out)
            elif digest == self.first_digests[task.name]:
                problems = self._verdicts[task.name]
            else:
                problems = ["output differs from the first pass"] + task.check(out)
        except Exception as exc:  # a broken output can break its check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if first:
            self.first_digests[task.name] = digest
            self.first_outputs[task.name] = out
            self._verdicts[task.name] = problems
        self.fail(label, problems)

    def loop(self, prefix: str, seconds: float, tracer=None, first: int = 0,
             min_passes: int = 1) -> list[Pass]:
        """Passes for ``seconds``, and at least ``min_passes`` of them.

        A further pass starts only while less than half a pass would run past
        the window, so a run measures close to ``seconds`` whatever the pass
        length.
        """
        passes: list[Pass] = []
        end = time.perf_counter() + seconds
        last = 0.0
        while len(passes) < min_passes or time.perf_counter() + 0.5 * last < end:
            t0 = time.perf_counter()
            passes.append(self.run_pass(f"{prefix}{first + len(passes)}", tracer))
            last = time.perf_counter() - t0
        return passes

    def digest(self) -> str:
        h = hashlib.sha1()
        for task in self.tasks:
            h.update(f"{task.name}={self.first_digests.get(task.name, 'failed')}\n".encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# measurements


def _probe_setup(workload: str, seed: int, size: str) -> tuple[float, int]:
    """Seconds from starting a fresh interpreter to the end of its warm-up task.

    The child prints the system-wide monotonic clock when its warm-up ends, so
    the time is exact instead of rounded up to the parent's wait-poll interval.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--size", size]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        return time.monotonic() - start, -1
    try:
        end = float(proc.stdout.split()[-1])
    except (IndexError, ValueError):
        return time.monotonic() - start, proc.returncode or -1
    return end - start, proc.returncode


def _cache_counters() -> dict[str, float | None]:
    """Cache sizes and hit counts read from outside; None where the target is gone."""
    from qloss import gates, protocol, qudit, tomography
    out: dict[str, float | None] = {}

    def size_of(name, module, attr):
        target = getattr(module, attr, None)
        out[name] = float(len(target)) if isinstance(target, dict) else None

    def lru(prefix, fn):
        info = getattr(fn, "cache_info", None)
        info = info() if info is not None else None
        out[f"{prefix}.hits"] = None if info is None else float(info.hits)
        out[f"{prefix}.misses"] = None if info is None else float(info.misses)

    size_of("gates.compile_cache.entries", gates, "_COMPILE_CACHE")
    size_of("tomography.projector_cache.entries", tomography, "_PROJECTOR_CACHE")
    lru("qudit.embed_cache", getattr(qudit, "_embedded_cached", None))
    lru("protocol.code_cache", getattr(protocol, "four_qubit_code", None))
    return out


def typical_pass(passes: list[Pass], scaled: bool = True) -> float:
    """Time of one pass: the sum over tasks of each task's median time.

    Medians per task rather than of whole passes: on a shared host a slow
    stretch hits a few tasks of a pass, and this keeps it out of the rest.
    """
    times = [p.scaled if scaled else p.raw for p in passes]
    return sum(statistics.median(t[name] for t in times) for name in times[0])


def _peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return kib / 1024.0


def _layer_metrics(tracer, runner, workload, n_passes: int, cold_before: dict,
                   cold_after: dict, traced_wall: float,
                   untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the reason for each missing one.

    A missing metric is None, never a number that could read as a valid value.
    """
    from bench_trace import TRACED
    missing = dict(tracer.missing)
    steady = tracer.aggregate(lambda task: task.startswith("t"))
    cold = tracer.aggregate(lambda task: task == "warmup" or task.startswith("t0:"))
    metrics: dict[str, float | None] = {}
    for mod_name, path in TRACED:
        name = f"{mod_name}.{path}"
        calls, self_s = steady.get(name, (0, 0.0))
        gone = name in missing
        metrics[f"{name}.calls"] = None if gone else calls / n_passes
        metrics[f"{name}.self_s"] = None if gone else self_s / n_passes

    calls, self_s = cold.get("gates.compile_gate", (0, 0.0))
    metrics["gates.compile_gate.cold_calls"] = float(calls)
    metrics["gates.compile_gate.cold_self_s"] = self_s
    for key, value in cold_after.items():
        if value is None:
            missing[key] = "cache no longer exists under its old name"
        metrics[key] = value
    before, after = cold_before["gates.compile_cache.entries"], \
        cold_after["gates.compile_cache.entries"]
    if before is None or after is None or "gates.compile_gate" in tracer.missing:
        missing["gates.compile_cache.hit_ratio"] = "compile cache or compile_gate is gone"
        metrics["gates.compile_cache.hit_ratio"] = None
    else:
        # every miss adds one entry; calls counted over the warm-up and first pass
        metrics["gates.compile_cache.hit_ratio"] = 1.0 - (after - before) / calls \
            if calls else 0.0

    # work counts of one pass; zero on the workloads that do not do that work
    counts = workload.layer_counts(runner.first_outputs)
    for key in ("protocol.shots", "protocol.loss_branch_frac", "tomography.reconstructions",
                "lattice.survival_samples", "lattice.correctable_frac"):
        metrics[key] = float(counts.get(key, 0))
    survival_s = metrics["lattice.percolation_threshold.self_s"]
    if survival_s is None:
        missing["lattice.survival_samples_per_s"] = "lattice.percolation_threshold is gone"
        metrics["lattice.survival_samples_per_s"] = None
    else:
        metrics["lattice.survival_samples_per_s"] = \
            metrics["lattice.survival_samples"] / survival_s if survival_s > 0 else 0.0
    metrics["trace.spans"] = sum(1 for s in tracer.spans
                                 if s is not None and s[4].startswith("t")) / n_passes
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return metrics, missing


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
            out_dir: Path = OUT) -> dict:
    """One benchmark run in this process; returns the result record."""
    require_source()
    from bench_workloads import WORKLOADS
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    header = run_header(workload, seed, trace, size)
    wl = WORKLOADS[workload](seed, size)
    runner = PassRunner(wl.tasks(), wl.speed_block)
    missing: dict[str, str] = {}
    record: dict = {"header": header}

    if not trace:
        probes: list[float] = []
        raw_probes: list[float] = []

        def probe(count: int) -> None:
            for _ in range(count):
                # the child's own clock gives the time, and the parent the host
                # speed just before and after it, with the block of interpreted
                # work that importing is; blocks run while the child does would
                # compete with it for the host
                with bench_speed.timed("interpreted", inside=False) as interval:
                    elapsed, code = _probe_setup(workload, seed, size)
                runner.attempted += 1
                runner.fail(f"setup probe {len(probes)}",
                            [f"exited with code {code}"] if code else [])
                raw_probes.append(elapsed)
                probes.append(elapsed * interval.speed)

        for block in {"interpreted", wl.speed_block}:
            bench_speed.warm_up(block)
        # half the probes before the passes and half after, so that a slow
        # stretch of the machine at either end moves the median less
        n_probes = SETUP_PROBES[size]
        probe((n_probes + 1) // 2)
        runner.attempt("warmup", wl.warmup)
        passes = runner.loop("u", seconds)
        runner.run_checks(wl.checks())
        probe(n_probes // 2)
        metrics = {"wall_s": typical_pass(passes),
                   "setup_s": statistics.median(probes),
                   "peak_rss_mb": _peak_rss_mb()}
        record.update(passes=[asdict(p) for p in passes], setup_times=probes,
                      raw={"wall_s": typical_pass(passes, scaled=False),
                           "setup_s": statistics.median(raw_probes)})
    else:
        from bench_trace import Tracer
        tracer = Tracer()
        cold_before = _cache_counters()
        tracer.install()
        try:
            with tracer.span("task.warmup", "warmup"):
                runner.attempt("warmup", wl.warmup)
            first = runner.run_pass("t0", tracer)
            cold_after = _cache_counters()
            traced = [first] + runner.loop("t", seconds / 2 - sum(first.raw.values()),
                                           tracer, first=1, min_passes=0)
        finally:
            tracer.restore()
        runner.run_checks(wl.checks())
        untraced = runner.loop("u", seconds / 2)
        metrics, missing = _layer_metrics(
            tracer, runner, wl, len(traced), cold_before, cold_after,
            typical_pass(traced), typical_pass(untraced))
        record.update(passes=[asdict(p) for p in untraced],
                      traced_passes=[asdict(p) for p in traced],
                      raw={"trace.wall_s": typical_pass(traced, scaled=False),
                           "trace.untraced_wall_s": typical_pass(untraced, scaled=False)})
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"{workload}-seed{seed}-spans.tsv",
                     [json.dumps(header, sort_keys=True)])
        record["spans"] = len(tracer.spans)

    attempted, failed = runner.attempted, runner.failed
    if not trace:
        metrics["pass_frac"] = (attempted - failed) / attempted
    record.update(attempted=attempted, failed=failed, failures=runner.failures,
                  metrics=metrics, missing=missing, digest=runner.digest())
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(record: dict) -> str:
    """Human-readable lines before the JSON result, then the result line."""
    header = record["header"]
    units = declared_metrics(bool(header["trace"]))
    if set(units) != set(record["metrics"]):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(record['metrics']))}")
    lines = ["# " + " ".join(f"{k}={v}" for k, v in header.items()),
             f"# output digest (sha1): {record['digest']}"]
    attempted, failed = record["attempted"], record["failed"]
    lines.append(f"# fail_frac {failed / attempted:.6g} ({failed} of {attempted} tasks)")
    lines += [f"# failure: {f}" for f in record["failures"][:SHOWN_FAILURES]]
    for name, reason in sorted(record["missing"].items()):
        lines.append(f"# missing: {name} ({reason}); reported as null")
    for name in units:
        value = record["metrics"][name]
        lines.append(f"# {name} {'null' if value is None else f'{value:.6g}'} {units[name]}")
    for name, value in record["raw"].items():
        lines.append(f"# {name} as measured, before calibration: {value:.6g} s")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": record["metrics"][name], "unit": units[name]}
                          for name in units}}
    lines.append(json.dumps(result))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every task for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import qloss, run the warm-up task and exit")
    args = parser.parse_args(argv)
    require_source()
    if args.setup_probe:
        from bench_workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed, args.size).warmup()
        print(time.monotonic())
        return 0
    if not SPEC.is_file():
        sys.exit(f"perfbench: {SPEC} not found")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(report(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
