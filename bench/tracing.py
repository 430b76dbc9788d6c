"""Spans and counters recorded from outside the package, by rebinding names.

A hook replaces a function with a wrapper for the length of a ``with``
block and restores it afterwards. ``from .x import y`` copies the function
object into every consumer module, so a layer hook rebinds the name in every
``thuwb`` module that holds that same object; a stage hook rebinds only the
name in ``thuwb.experiment``, so it fires a few times per sweep point.

Coarse calls record a span (name, wall-clock start and end, CPU clock at
the start, CPU seconds, parent, run id); helpers called ~1e5 times per run only bump a counter and a
summed CPU time. Durations are CPU time, of every thread and of any child
process the call waited for, because on a shared virtual machine the wall
clock also counts the time the hypervisor gives the CPU to someone else.
"""

from __future__ import annotations

import contextlib
import importlib
import resource
import sys
import time
from collections import defaultdict


def cpu_now() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


PACKAGE = "thuwb"


class HookError(RuntimeError):
    """A name the benchmark wraps no longer exists in the package."""


class Recorder:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **detail):
        idx = len(self.spans)
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            **detail,
        }
        self.spans.append(record)
        self._stack.append(idx)
        cpu = record["cpu_start"] = cpu_now()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu"] = cpu_now() - cpu
            self._stack.pop()

    def span_wrapper(self, fn, name, detail=None, result_detail=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's arguments;
        ``detail`` adds fields from the arguments, ``result_detail`` from
        the return value.
        """

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            extra = detail(*args, **kwargs) if detail else {}
            with self.span(label, **extra) as record:
                out = fn(*args, **kwargs)
                if result_detail:
                    record.update(result_detail(out))
                return out

        return wrapper

    def counter_wrapper(self, fn, name, amount=None):
        """Wrap ``fn`` so each call bumps ``<name>.calls`` and adds its time.

        ``amount`` maps the call's arguments to a number added to
        ``<name>.points``.
        """
        calls, seconds = self.calls, self.seconds
        points = name + ".points"
        clock = time.process_time

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if amount is not None:
                calls[points] += amount(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start

        return wrapper


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


class Hooks:
    """Installs wrappers and restores every original on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _target(self, owner: str, attr: str):
        try:
            obj = importlib.import_module(f"{PACKAGE}.{owner}")
            for part in attr.split(".")[:-1]:
                obj = getattr(obj, part)
            leaf = attr.split(".")[-1]
            return obj, leaf, getattr(obj, leaf)
        except (ImportError, AttributeError):
            raise HookError(f"broken hook: {PACKAGE}.{owner}.{attr} no longer exists") from None

    def _set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def stage(self, owner: str, attr: str, make_wrapper) -> None:
        """Rebind ``attr`` in module ``owner`` only."""
        obj, leaf, current = self._target(owner, attr)
        self._set(obj, leaf, make_wrapper(current))

    def layer(self, owner: str, attr: str, make_wrapper) -> None:
        """Rebind ``attr`` wherever the package holds the object it names.

        A dotted ``attr`` such as ``PulseShape.autocorrelation`` is patched
        on its class, which every caller reaches through.
        """
        obj, leaf, original = self._target(owner, attr)
        wrapped = make_wrapper(original)
        if "." in attr:
            self._set(obj, leaf, wrapped)
            return
        for module in _package_modules():
            if getattr(module, leaf, None) is original:
                self._set(module, leaf, wrapped)

    def restore(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans: list[dict]) -> list[float]:
    """Each span's CPU time minus the CPU time of its direct children."""
    out = [s["cpu"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["cpu"]
    return out
