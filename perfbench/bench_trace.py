"""Outside-in span tracer for the qloss benchmark.

Each traced function is replaced by a timing wrapper in its defining module
and in every loaded ``qloss`` module that imported it by name, so calls made
through either binding are seen; ``Register.apply`` is wrapped on the class.
Nothing inside the package is edited: :meth:`Tracer.restore` puts every
original object back.

Spans live in memory as ``(name, start, end, parent, task)`` tuples, where
``parent`` is the index of the enclosing span (-1 at the top) and ``task``
the identifier shared by all spans of one benchmark task.  A span's self
time is its duration minus the durations of its direct children; calls are
synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

PACKAGE = "qloss"

#: (module, attribute path) of every traced public function, grouped by layer
TRACED = (
    ("qudit", "apply_unitary"),
    ("qudit", "measure_projective"),
    ("qudit", "pure_expectation"),
    ("qudit", "expectation"),
    ("qudit", "partial_trace"),
    ("gates", "compile_gate"),
    ("gates", "Register.apply"),
    ("channels", "qnd_noise_mixture"),
    ("protocol", "analytic_run"),
    ("protocol", "run_protocol"),
    ("protocol", "qnd_detect"),
    ("protocol", "measure_shrunk_stabilizer"),
    ("protocol", "detection_sweep"),
    ("protocol", "seed_for"),
    ("protocol", "detection_process"),
    ("tomography", "invert_counts"),
    ("tomography", "setting_probabilities"),
    ("tomography", "resample_errors"),
    ("tomography", "record_density"),
    ("tomography", "state_tomography"),
    ("tomography", "process_tomography"),
    ("tomography", "table_report"),
    ("lattice", "percolation_threshold"),
    ("lattice", "build_lattice"),
    ("lattice", "apply_losses"),
    ("lattice", "reform_stabilizers"),
    ("lattice", "find_logical"),
)

Span = tuple[str, float, float, int, str]


class Tracer:
    """Installs span wrappers around the traced functions and aggregates them."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.task = ""
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self) -> tuple[int, int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _close(self, name: str, idx: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.task)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, idx, parent, start)
        return traced

    @contextmanager
    def span(self, name: str, task: str) -> Iterator[None]:
        """Root span of one benchmark task; spans opened inside share ``task``."""
        self.task = task
        idx, parent, start = self._open()
        try:
            yield
        finally:
            self._close(name, idx, parent, start)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, path in TRACED:
            name = f"{mod_name}.{path}"
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if module is None:
                self.missing[name] = f"module {PACKAGE}.{mod_name} is not loaded"
                continue
            owner = module
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing[name] = f"{PACKAGE}.{name} does not exist"
                continue
            wrapper = self._wrap(name, original)
            if owner is not module:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- aggregation -----------------------------------------------------

    def aggregate(self, keep: Callable[[str], bool] = lambda task: True
                  ) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self time) over spans whose task passes ``keep``."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is None:
                continue
            _, start, end, parent, _ = span
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, task = span
            if not keep(task):
                continue
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child[idx])
        return out

    def write(self, path, extra_header: Iterable[str] = ()) -> None:
        """Write the spans as tab-separated lines (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans and self.spans[0] else 0.0
        with open(path, "w") as fh:
            for line in extra_header:
                fh.write(f"# {line}\n")
            fh.write("index\tname\tstart_s\tend_s\tparent\ttask\n")
            for idx, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, task = span
                fh.write(f"{idx}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{task}\n")
