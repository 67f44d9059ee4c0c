"""Wrap crackdyn's public functions by name, from outside the package.

Two probe sets exist.  ``e2e_probes`` installs the three thin wrappers
the end-to-end metrics need (set-up start and end, and one timestamp per
``on_record`` callback).  ``trace_probes`` adds a span around every
layer boundary listed in ``LAYER_TARGETS``.  Nothing under ``src/`` is
edited: each probe replaces a module or class attribute and puts the
original back on exit, so callers that look the name up at call time
(all of crackdyn's internal calls do) go through the wrapper.

A target that no longer exists (a later change may delete
``Operators.pin`` or ``fem.solve_spd``) is skipped with a note; the
metrics built on it are then left out instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time

# (span name, module, attribute path, extra call counter or None).
# Several attributes may share one span name; their time and calls are
# summed.  Newton iterations are counted where they happen: one contact
# tangent per iteration, whether or not its substep is later bisected.
LAYER_TARGETS = [
    ("cli.main", "crackdyn.cli", "main", None),
    ("config.parse_config", "crackdyn.config", "parse_config", None),
    ("config.build_problem", "crackdyn.config", "build_problem", None),
    ("meshing.generate", "crackdyn.meshing", "generate_rect_crack", None),
    ("fem.assemble", "crackdyn.fem", "assemble_mass", None),
    ("fem.assemble", "crackdyn.fem", "assemble_stiffness", None),
    ("fem.assemble_load", "crackdyn.fem", "assemble_load", None),
    ("fem.solve_spd", "crackdyn.fem", "solve_spd", None),
    ("exprlang.evaluate", "crackdyn.exprlang", "evaluate", None),
    ("interface.residual", "crackdyn.interface", "contact_residual", None),
    ("interface.residual", "crackdyn.interface", "friction_residual", None),
    ("interface.tangent", "crackdyn.interface", "contact_tangent",
     "timestepper.newton_iters_attempted"),
    ("interface.tangent", "crackdyn.interface", "friction_tangent", None),
    ("timestepper.pin", "crackdyn.timestepper", "Operators.pin", None),
    ("timestepper.step", "crackdyn.timestepper", "step", None),
    ("diagnostics.record", "crackdyn.diagnostics", "record", None),
    ("vtkio.write", "crackdyn.vtkio", "write_fields", None),
]


def resolve(module_name: str, path: str):
    """(owner, attribute name, current value), or None if any part of
    the dotted path is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, leaf):
        return None
    return owner, leaf, getattr(owner, leaf)


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, name, value) triples, restoring the old values on exit."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class RunClock:
    """End-to-end timestamps of the current ``crackdyn run``."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.setup_start = None
        self.setup_end = None
        self.record_times = []     # one perf_counter per on_record callback
        self.infos = []            # StepInfo of every accepted step


@contextlib.contextmanager
def e2e_probes(clock: RunClock, notes: list, tracer=None):
    """Timestamps for setup_s, solve_s and step_ms.

    Set-up runs from the entry of ``config.parse_config`` to the return
    of ``config.build_problem``.  The single ``run_with_records`` call
    gets its ``on_record`` callback wrapped so that a timestamp is taken
    after each row is written.  With a tracer, that callback is also a
    span (``cli.on_record``), so CSV formatting counts as cli self time.
    """
    reps = []
    found = resolve("crackdyn.config", "parse_config")
    if found:
        owner, name, orig_parse = found

        @functools.wraps(orig_parse)
        def parse_config(*args, **kwargs):
            clock.setup_start = time.perf_counter()
            return orig_parse(*args, **kwargs)
        reps.append((owner, name, parse_config))
    else:
        notes.append("missing crackdyn.config.parse_config: setup_s unavailable")

    found = resolve("crackdyn.config", "build_problem")
    if found:
        owner, name, orig_build = found

        @functools.wraps(orig_build)
        def build_problem(*args, **kwargs):
            result = orig_build(*args, **kwargs)
            clock.setup_end = time.perf_counter()
            return result
        reps.append((owner, name, build_problem))
    else:
        notes.append("missing crackdyn.config.build_problem: setup_s unavailable")

    found = resolve("crackdyn.diagnostics", "run_with_records")
    if found:
        owner, name, orig_run = found

        @functools.wraps(orig_run)
        def run_with_records(problem, on_record=None, **kwargs):
            def timed(state, rec, info):
                if on_record is not None:
                    on_record(state, rec, info)
                if info is not None:
                    clock.infos.append(info)
                clock.record_times.append(time.perf_counter())
            if tracer is not None:
                timed = tracer.wrap("cli.on_record", timed)
            return orig_run(problem, on_record=timed, **kwargs)
        reps.append((owner, name, run_with_records))
    else:
        notes.append("missing crackdyn.diagnostics.run_with_records: "
                     "solve_s and step_ms unavailable")
    with patched(reps):
        yield


class CountingMatrix:
    """Forwards ``a @ x`` and ``a.diagonal()`` and counts the products,
    which inside ``fem.solve_spd`` are the CG iterations."""

    def __init__(self, a, tracer):
        self._a = a
        self._tracer = tracer

    def diagonal(self):
        return self._a.diagonal()

    def __matmul__(self, x):
        self._tracer.count("fem.cg_iters")
        return self._a @ x

    def __getattr__(self, name):
        return getattr(self._a, name)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def clear(self):
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, span_name, fn, counter=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.count(counter)
            span = [span_name, time.perf_counter(), None,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, t0, t1, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += t1 - t0
            entry["self"] += t1 - t0 - covered
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent}\n")


@contextlib.contextmanager
def trace_probes(tracer: Tracer, notes: list):
    """Install a span on every resolvable ``LAYER_TARGETS`` entry; yields
    the names of the spans and counters that were installed."""
    reps = []
    installed = set()
    for span_name, module_name, path, counter in LAYER_TARGETS:
        found = resolve(module_name, path)
        if found is None:
            notes.append(f"missing {module_name}.{path}: "
                         f"{span_name} metrics dropped")
            continue
        owner, name, fn = found
        if span_name in _MEASURED:
            measure, measured = _MEASURED[span_name]
            fn = measure(fn, tracer)
            installed.add(measured)
        reps.append((owner, name, tracer.wrap(span_name, fn, counter)))
        installed.update(n for n in (span_name, counter) if n)
    with patched(reps):
        yield installed


def _count_matvecs(solve, tracer):
    @functools.wraps(solve)
    def solve_spd(a, *args, **kwargs):
        return solve(CountingMatrix(a, tracer), *args, **kwargs)
    return solve_spd


def _count_bytes(write, tracer):
    @functools.wraps(write)
    def write_fields(path, *args, **kwargs):
        result = write(path, *args, **kwargs)
        tracer.count("vtkio.bytes", os.path.getsize(path))
        return result
    return write_fields


# Spans whose calls are also measured inside: (decorator, counter).
_MEASURED = {
    "fem.solve_spd": (_count_matvecs, "fem.cg_iters"),
    "vtkio.write": (_count_bytes, "vtkio.bytes"),
}
