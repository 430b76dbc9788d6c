"""thuwb benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout; the package is imported from
``src/``. A run repeats one workload's ``experiment.run`` (``workers=1``) for
about ``--seconds`` seconds, checks every report with the correctness gate,
prints each metric as ``name value unit`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` gives the end-to-end metrics. The only timers are three stage
timers on names bound in ``thuwb.experiment``, which fire a few times per
sweep point; per drop and per analytic realization a hook only reads a
clock to decide when the calibration kernels run next. ``--trace 1`` alternates untraced repeats with repeats traced at
every layer boundary and gives the per-layer metrics, including the tracing
overhead; the spans are written to ``bench/out/``.

Exit codes: 0 with a result line; 2 when there is no package to measure;
3 when a wrapped name is gone or a layer the workload exercises reads zero.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import workloads
from tracing import Hooks, HookError, Recorder, cpu_now, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(BENCH, "out")

SETUP_REPEATS = 5
PARSE_REPEATS = 20

# Size of the two calibration kernels, and the CPU seconds each takes at
# the reference speed to which every reported time is scaled.
KERNEL_DROPS = 4
KERNEL_DOTS = 8000
REFERENCE_DROP_KERNEL_S = 0.028
REFERENCE_DOT_KERNEL_S = 0.021
# In an untraced repeat both kernels run at the next stage, drop or
# realization boundary once this many CPU seconds of work have passed since
# they last ran.
MIN_SEGMENT_S = 0.5
# glibc malloc thresholds fixed for the run (mallopt parameters M_MMAP_THRESHOLD
# and M_TRIM_THRESHOLD): the largest threshold glibc would pick by itself, and
# twice it, as glibc does.
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
BEP_MODES = ("sync", "async_sga", "async_exact", "awgn_sync", "awgn_async")

# End-to-end metrics in the result line, with units (BENCHMARK.json lists
# the same names). Every one is non-zero on every workload.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "analytic_ms": "ms",
    "peak_rss_mb": "MB",
}

CODE_SPANS = ("model.gen_th_codes", "model.gen_polarity_codes", "model.gen_bits")

# Per-layer counts that must be non-zero on each workload: the mapping from
# layer to the end-to-end metric it moves (bench/README.md gives the
# reasoning). Every other count is expected to read zero.
_SIM = (
    "model.codes.calls",
    "channel.decompose_delay.calls",
    "rake.cross_correlation_table.calls",
    "simulator.run_drop.calls",
    "simulator.errors",
    "simulator.trials",
)
_ALWAYS = (
    "model.substream.calls",
    "model.autocorrelation.calls",
    "rake.correlation_sequence.calls",
    "rake.lag_dot.calls",
)
EXERCISED = {
    workloads.AWGN_REF_COMPARE: _ALWAYS
    + _SIM
    + ("analytic.bep.awgn_sync.calls", "analytic.bep.awgn_async.calls"),
    workloads.FADING_SRAKE_COMPARE: _ALWAYS
    + _SIM
    + (
        "channel.gen_lognormal_channel.calls",
        "analytic.bep.async_sga.calls",
        "analytic.mai_variance_jitter.calls",
        "analytic.mai_variance_jitter.points",
    ),
    workloads.FADING_EXACT_ANALYZE: _ALWAYS
    + (
        "channel.gen_lognormal_channel.calls",
        "analytic.bep.sync.calls",
        "analytic.bep.async_sga.calls",
        "analytic.bep.async_exact.calls",
        "analytic.bep_async_exact.quad.calls",
        "analytic.bep_async_exact.mc.calls",
        "analytic.mai_variance_jitter.calls",
        "analytic.mai_variance_jitter.points",
    ),
}

# Per-layer metrics in the result line of a traced run, with units.
PER_LAYER = {
    "model.codes_s": "s",
    "model.codes.calls": "count",
    "model.substream.calls": "count",
    "model.autocorrelation.calls": "count",
    "channel.gen_lognormal_channel.calls": "count",
    "channel.gen_lognormal_channel_s": "s",
    "channel.decompose_delay.calls": "count",
    "rake.cross_correlation_table.calls": "count",
    "rake.cross_correlation_table_s": "s",
    "rake.correlation_sequence.calls": "count",
    "rake.correlation_sequence_s": "s",
    "rake.lag_dot.calls": "count",
    "simulator.run_drop.calls": "count",
    "simulator.run_drop.self_s": "s",
    "simulator.drop_ms_p50": "ms",
    "simulator.drop_ms_p90": "ms",
    "simulator.errors": "count",
    "simulator.trials": "count",
    **{f"analytic.bep.{m}.calls": "count" for m in BEP_MODES},
    **{f"analytic.bep.{m}.ms_per_call": "ms" for m in BEP_MODES},
    "analytic.bep_async_exact.quad.calls": "count",
    "analytic.bep_async_exact.quad_ms_per_call": "ms",
    "analytic.bep_async_exact.mc.calls": "count",
    "analytic.bep_async_exact.mc_ms_per_call": "ms",
    "analytic.mai_variance_jitter.calls": "count",
    "analytic.mai_variance_jitter.points": "count",
    "experiment.parse_spec_s": "s",
    "experiment.simulate_s": "s",
    "experiment.analytic_s": "s",
    "experiment.write_s": "s",
    "trace.cpu_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout; the message says why."""


def load_package():
    """Import ``thuwb`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "thuwb", "__init__.py")):
        raise BenchError(f"no thuwb package under {SRC}")
    sys.path.insert(0, SRC)
    import thuwb
    from thuwb import experiment

    if not os.path.abspath(thuwb.__file__).startswith(SRC + os.sep):
        raise BenchError(f"thuwb imported from {thuwb.__file__}, not from {SRC}")
    return experiment


# -- environment -------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "thuwb")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def steal_seconds() -> float | None:
    """Machine-wide CPU time the hypervisor gave to other guests, if known."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def fix_malloc_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds; False where that is not possible.

    By default glibc raises both thresholds as large blocks are freed, so
    where the simulator's 0.6 MB arrays come from depends on the allocation
    history. The same repeats then run in one of two modes: on
    ``awgn_ref_compare`` 40 thousand minor page faults and 3.3 CPU seconds,
    or 1.4 million faults and 4.0 s. Fixed thresholds give one mode, the one
    glibc itself settles in once a 32 MB block has been freed.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, MMAP_THRESHOLD)) and bool(
        libc.mallopt(m_trim_threshold, TRIM_THRESHOLD)
    )


def disable_numpy_hugepages() -> bool | None:
    """Stop numpy asking for huge pages; returns numpy's setting afterwards.

    numpy marks arrays of 4 MB and more with ``madvise(MADV_HUGEPAGE)``. How
    many huge pages the kernel grants depends on how fragmented the host's
    memory is at that moment. ``fading_exact_analyze``'s Monte Carlo stage
    works on 16 MB arrays; one process got 46 MB of huge pages and ran that
    stage 8% faster than a process with none. Without the hint every run
    uses 4 KB pages.
    """
    # read when numpy is imported: here and in the set-up's interpreters
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    import numpy

    multiarray = getattr(getattr(numpy, "_core", numpy), "multiarray", None)
    setter = getattr(multiarray, "_set_madvise_hugepage", None)
    if setter is not None:
        setter(False)
    getter = getattr(multiarray, "_get_madvise_hugepage", None)
    return getter() if getter is not None else None


def anon_huge_pages_kb() -> int | None:
    """Anonymous memory of this process backed by huge pages, if known."""
    try:
        with open("/proc/self/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("AnonHugePages:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# -- hooks -------------------------------------------------------------------


def _mode(query) -> str:
    return getattr(query.mode, "value", query.mode)


def install_stage_hooks(hooks: Hooks, rec: Recorder, cal: "Calibration | None" = None) -> None:
    """Stage timers at experiment's calls into the simulate and analytic stages.

    With ``cal``, the calibration kernels also run at the boundaries of
    stage calls, simulated drops and analytic realizations once
    ``MIN_SEGMENT_S`` of work has passed, so that no long call goes
    uncalibrated. Those hooks check a clock and record nothing.
    """

    def bracketed(wrapper):
        if cal is None:
            return wrapper

        def call(*args, **kwargs):
            cal.mark_if_due()
            out = wrapper(*args, **kwargs)
            cal.mark_if_due()
            return out

        return call

    if cal is not None:
        for owner, attr in (("simulator", "run_drop"), ("analytic", "bep")):
            hooks.stage(owner, attr, bracketed)
    hooks.stage(
        "experiment",
        "estimate_bep",
        lambda fn: bracketed(
            rec.span_wrapper(
                fn,
                "experiment.simulate",
                result_detail=lambda est: {"trials": est.trials, "errors": est.errors},
            )
        ),
    )
    hooks.stage(
        "experiment",
        "bep",
        lambda fn: bracketed(
            rec.span_wrapper(
                fn, "experiment.analytic", detail=lambda q, *a, **k: {"mode": _mode(q), "units": 1}
            )
        ),
    )
    hooks.stage(
        "experiment",
        "average_bep",
        lambda fn: bracketed(
            rec.span_wrapper(
                fn,
                "experiment.analytic",
                detail=lambda qs, *a, **k: {"mode": _mode(qs[0]), "units": len(qs)},
                result_detail=lambda out: {"se": out[1]},
            )
        ),
    )


def _exact_branch(query, *args, **kwargs) -> str:
    branch = "quad" if query.params.n_users <= query.exact_quad_max_users else "mc"
    return f"analytic.bep_async_exact.{branch}"


def _jitter_points(taps, weights, jitter, *args, **kwargs) -> int:
    import numpy

    return int(numpy.size(jitter))


def install_layer_hooks(hooks: Hooks, rec: Recorder) -> None:
    """Spans and counters at every layer boundary the metrics need."""
    spans = {
        ("simulator", "run_drop"): "simulator.run_drop",
        ("model", "gen_th_codes"): "model.gen_th_codes",
        ("model", "gen_polarity_codes"): "model.gen_polarity_codes",
        ("model", "gen_bits"): "model.gen_bits",
        ("channel", "gen_lognormal_channel"): "channel.gen_lognormal_channel",
        ("rake", "cross_correlation_table"): "rake.cross_correlation_table",
        ("analytic", "bep"): lambda q, *a, **k: f"analytic.bep.{_mode(q)}",
        ("analytic", "average_bep"): "analytic.average_bep",
        ("analytic", "bep_async_exact"): _exact_branch,
        ("experiment", "parse_spec"): "experiment.parse_spec",
    }
    for (owner, attr), name in spans.items():
        hooks.layer(owner, attr, lambda fn, name=name: rec.span_wrapper(fn, name))
    counters = {
        ("rake", "correlation_sequence"): ("rake.correlation_sequence", None),
        ("rake", "lag_dot"): ("rake.lag_dot", None),
        ("channel", "decompose_delay"): ("channel.decompose_delay", None),
        ("model", "substream"): ("model.substream", None),
        ("model", "PulseShape.autocorrelation"): ("model.autocorrelation", None),
        ("analytic", "mai_variance_jitter"): ("analytic.mai_variance_jitter", _jitter_points),
    }
    for (owner, attr), (name, amount) in counters.items():
        hooks.layer(owner, attr, lambda fn, name=name, amount=amount: rec.counter_wrapper(fn, name, amount))


# -- metrics -----------------------------------------------------------------


def _by_run(spans: list[dict], selfs: list[float]) -> dict[str, list[tuple[dict, float]]]:
    out: dict[str, list[tuple[dict, float]]] = defaultdict(list)
    for span, own in zip(spans, selfs):
        out[span["run_id"]].append((span, own))
    return out


def _dur(span: dict) -> float:
    return span["cpu"]


def stage_metrics(run_spans: list[tuple[dict, float]], cal: "Calibration") -> dict:
    """End-to-end figures of one repeat, from its root and stage spans.

    CPU times are calibrated segment by segment and leave out the
    calibration kernels that ran inside the repeat.
    """
    root = next(s for s, _ in run_spans if s["name"] == "experiment.run")
    analytic = [s for s, _ in run_spans if s["name"] == "experiment.analytic"]
    simulate = [s for s, _ in run_spans if s["name"] == "experiment.simulate"]
    wall = root["end"] - root["start"] - cal.kernel_wall(root)
    # (mode, realizations, calibrated CPU seconds) of each analytic call
    out = {"wall_s": wall, "analytic_calls": [(s["mode"], s["units"], cal.scaled(s, dots=True)) for s in analytic]}
    # the analytic stage is scaled by the dot kernel, everything else by the drop kernel
    out["cpu_s"] = (
        cal.scaled(root) - sum(cal.scaled(s) for s in analytic) + sum(c[2] for c in out["analytic_calls"])
    )
    if simulate:
        out["sim_symbols_per_s"] = sum(s["trials"] for s in simulate) / sum(cal.scaled(s) for s in simulate)
    return out


def layer_metrics(run_spans: list[tuple[dict, float]], calls: dict, seconds: dict) -> dict:
    """Per-layer figures of one traced repeat."""
    durs: dict[str, list[float]] = defaultdict(list)
    own: dict[str, float] = defaultdict(float)
    for span, self_s in run_spans:
        durs[span["name"]].append(_dur(span))
        own[span["name"]] += self_s
    simulate = [s for s, _ in run_spans if s["name"] == "experiment.simulate"]

    def ms_per_call(name):
        return 1e3 * statistics.fmean(durs[name]) if durs[name] else 0.0

    codes = [d for n in CODE_SPANS for d in durs[n]]
    m = {
        "model.codes_s": sum(codes),
        "model.codes.calls": len(codes),
        "model.substream.calls": calls.get("model.substream", 0),
        "model.autocorrelation.calls": calls.get("model.autocorrelation", 0),
        "channel.gen_lognormal_channel.calls": len(durs["channel.gen_lognormal_channel"]),
        "channel.gen_lognormal_channel_s": sum(durs["channel.gen_lognormal_channel"]),
        "channel.decompose_delay.calls": calls.get("channel.decompose_delay", 0),
        "rake.cross_correlation_table.calls": len(durs["rake.cross_correlation_table"]),
        "rake.cross_correlation_table_s": sum(durs["rake.cross_correlation_table"]),
        "rake.correlation_sequence.calls": calls.get("rake.correlation_sequence", 0),
        "rake.correlation_sequence_s": seconds.get("rake.correlation_sequence", 0.0),
        "rake.lag_dot.calls": calls.get("rake.lag_dot", 0),
        "simulator.run_drop.calls": len(durs["simulator.run_drop"]),
        "simulator.run_drop.self_s": own["simulator.run_drop"],
        "simulator.errors": sum(s["errors"] for s in simulate),
        "simulator.trials": sum(s["trials"] for s in simulate),
        "analytic.bep_async_exact.quad.calls": len(durs["analytic.bep_async_exact.quad"]),
        "analytic.bep_async_exact.quad_ms_per_call": ms_per_call("analytic.bep_async_exact.quad"),
        "analytic.bep_async_exact.mc.calls": len(durs["analytic.bep_async_exact.mc"]),
        "analytic.bep_async_exact.mc_ms_per_call": ms_per_call("analytic.bep_async_exact.mc"),
        "analytic.mai_variance_jitter.calls": calls.get("analytic.mai_variance_jitter", 0),
        "analytic.mai_variance_jitter.points": calls.get("analytic.mai_variance_jitter.points", 0),
        "experiment.simulate_s": sum(durs["experiment.simulate"]),
        "experiment.analytic_s": sum(durs["experiment.analytic"]),
        "experiment.write_s": own["experiment.run"],
        "trace.cpu_s": sum(durs["experiment.run"]),
        "trace.spans": len(run_spans),
    }
    for mode in BEP_MODES:
        m[f"analytic.bep.{mode}.calls"] = len(durs[f"analytic.bep.{mode}"])
        m[f"analytic.bep.{mode}.ms_per_call"] = ms_per_call(f"analytic.bep.{mode}")
    return m


def mapping_problems(workload: str, metrics: dict) -> tuple[list[str], list[str]]:
    """Counts that read zero where the workload exercises them, and the reverse."""
    exercised = set(EXERCISED[workload])
    counts = [n for n, unit in PER_LAYER.items() if unit == "count" and not n.startswith("trace.")]
    silent = [n for n in counts if n in exercised and not metrics[n]]
    unexpected = [n for n in counts if n not in exercised and metrics[n]]
    return silent, unexpected


def _median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def analytic_ms(stages: list[dict], mode: str | None = None) -> float:
    """Analytic-stage ms per realization, of every mode or of one.

    The i-th analytic call of a repeat (one sweep point and mode) is the
    same work in every repeat. Its ms per realization is the median over
    the repeats, and the calls are averaged weighted by their realizations,
    so a noisy moment spoils one call of one repeat, not the figure.
    """
    repeats = [[c for c in s["analytic_calls"] if mode in (None, c[0])] for s in stages]
    units = [u for _, u, _ in repeats[0]]
    if not units:
        return 0.0
    medians = [statistics.median(1e3 * calls[i][2] / u for calls in repeats) for i, u in enumerate(units)]
    return sum(u * m for u, m in zip(units, medians)) / sum(units)


def drop_kernel() -> float:
    """Fixed numpy and interpreter work, like a simulator drop, without thuwb.

    Seeded substreams, integer code draws, a gather over 7500 frames,
    small-array calls and dict updates. Returns its CPU seconds.
    """
    import numpy as np

    start = cpu_now()
    frames = np.arange(15, 7515)
    total = 0.0
    for drop in range(KERNEL_DROPS):
        rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(drop,)))
        codes = rng.integers(0, 5, size=(10, 7530))
        amps = (2 * rng.integers(0, 2, size=(10, 7530), dtype=np.int8) - 1).astype(np.float64)
        table = rng.standard_normal(64)
        acc = np.zeros(frames.size)
        for k in range(10):
            for shift in range(-2, 2):
                jj = frames + shift
                acc += table[codes[k, jj] - codes[0, frames] + 5 * shift + 32] * amps[k, jj]
            small = np.arange(20) * 0.5
            total += float(small @ small)
        total += float(acc.sum())
        counts: dict[int, int] = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + 1
    return cpu_now() - start


def dot_kernel() -> float:
    """Fixed interpreter-bound work, like the analytic stage, without thuwb.

    Many dot products of short slices, each behind a few small numpy calls,
    as in a chip-lag correlation sequence. Returns its CPU seconds.
    """
    import numpy as np

    x = np.linspace(-1.0, 1.0, 20)
    y = np.cos(np.arange(20.0))
    start = cpu_now()
    total = 0.0
    for i in range(KERNEL_DOTS):
        lag = i % 20
        a = np.asarray(x, dtype=float)
        b = np.asarray(y, dtype=float)
        total += float(a[: 20 - lag] @ b[lag:])
    return cpu_now() - start


def measure_setup(workload: str, seed: int) -> float:
    """CPU seconds of a fresh interpreter that imports thuwb and parses the spec."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{SRC!r}, {BENCH!r}]\n"
        "from thuwb import experiment\n"
        "import workloads\n"
        f"experiment.parse_spec(workloads.make_spec({workload!r}, {seed}, 'unused.csv'))\n"
    )
    before = cpu_now()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"set-up failed: {done.stderr.strip()}")
    return cpu_now() - before


# -- the run -----------------------------------------------------------------


class Calibration:
    """Calibration kernels between measured work.

    A mark runs both kernels. The work between two consecutive marks is a
    segment. Its CPU time is scaled by a reference kernel time over the
    mean of the two marks' kernel times, which removes most of the host's
    drift in CPU speed from it. The host does not slow all code alike: at
    times interpreter-bound code slows by 20% while array code does not.
    So the analytic stage, which is interpreter-bound, is scaled by the dot
    kernel and all other work by the drop kernel.

    Marks run after every set-up and repeat and, in untraced repeats, at
    the stage boundaries inside ``run``, so a stage is scaled by the speed
    of the host within a fraction of a second of it.
    """

    def __init__(self):
        drop_kernel()  # warm-up
        dot_kernel()
        # per mark: CPU clock at start and end, wall seconds, drop and dot kernel seconds
        self.marks: list[tuple[float, float, float, float, float]] = []
        self.mark()

    def mark(self) -> None:
        wall = time.perf_counter()
        start = cpu_now()
        drops = drop_kernel()
        dots = dot_kernel()
        self.marks.append((start, cpu_now(), time.perf_counter() - wall, drops, dots))

    def mark_if_due(self) -> None:
        if cpu_now() - self.marks[-1][1] >= MIN_SEGMENT_S:
            self.mark()

    def scaled(self, span: dict, dots: bool = False) -> float:
        """Calibrated CPU seconds of ``span``, without the kernels inside it.

        Scaled by the drop kernel, or by the dot kernel if ``dots``.
        """
        start, end = span["cpu_start"], span["cpu_start"] + span["cpu"]
        ref, col = (REFERENCE_DOT_KERNEL_S, 4) if dots else (REFERENCE_DROP_KERNEL_S, 3)
        total = 0.0
        for m0, m1 in zip(self.marks, self.marks[1:]):
            overlap = min(end, m1[0]) - max(start, m0[1])
            if overlap > 0:
                total += overlap * 2.0 * ref / (m0[col] + m1[col])
        return total

    def kernel_wall(self, span: dict) -> float:
        """Wall seconds of the kernels that ran inside ``span``."""
        start, end = span["cpu_start"], span["cpu_start"] + span["cpu"]
        return sum(wall for s, e, wall, *_ in self.marks if start <= s and e <= end)


def _scaled(metrics: dict, factor: float) -> dict:
    return {k: v * factor if PER_LAYER[k] in ("s", "ms") else v for k, v in metrics.items()}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; returns the result line plus the full record."""
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {list(workloads.WORKLOADS)}")
    malloc_fixed = fix_malloc_thresholds()
    hugepage_hint = disable_numpy_hugepages()
    experiment = load_package()
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    env["malloc_thresholds_fixed"] = malloc_fixed
    env["numpy_madvise_hugepage"] = hugepage_hint
    env["loadavg_start"] = os.getloadavg()
    steal_start = steal_seconds()
    cal = Calibration()
    setup = []
    for _ in range(0 if trace else SETUP_REPEATS):
        start = cpu_now()
        measure_setup(workload, seed)
        interval = {"cpu_start": start, "cpu": cpu_now() - start}
        cal.mark()
        setup.append(cal.scaled(interval))

    csv_path = os.path.join(OUT, f"{workload}.csv")
    spec = workloads.make_spec(workload, seed, csv_path, tiny=tiny)
    compare = workloads.is_compare(workload)
    rec = Recorder()
    checks: list[tuple[str, bool]] = []
    digests: list[str] = []
    untraced, traced = [], []  # run id per repeat
    counters = []

    def repeat(traced_run: bool) -> str:
        rec.run_id = f"{workload}-{seed}-{len(digests)}"
        with Hooks() as hooks:
            if traced_run:
                install_layer_hooks(hooks, rec)
            install_stage_hooks(hooks, rec, None if traced_run else cal)
            parsed = experiment.parse_spec(spec)
            first = len(rec.spans)
            with rec.span("experiment.run"):
                experiment.run(parsed, workers=1, compare=compare)
        ensemble_se = [s.get("se") for s in rec.spans[first:] if s["name"] == "experiment.analytic"]
        if traced_run:
            counters.append((dict(rec.calls), dict(rec.seconds)))
            rec.calls.clear()
            rec.seconds.clear()
        checks.extend(workloads.gate(spec, workloads.read_report(csv_path), ensemble_se))
        digests.append(workloads.sha256_of(csv_path))
        if len(digests) > 1:
            checks.append((f"repeat {len(digests) - 1}: csv byte-identical", digests[-1] == digests[0]))
        return rec.run_id

    started = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        traced_run = trace and len(untraced) > len(traced)
        (traced if traced_run else untraced).append(repeat(traced_run))
        cal.mark()
        durations.append(time.perf_counter() - t0)
        enough = len(untraced) >= 1 and (len(traced) >= 1 or not trace) and len(digests) >= 2
        # start another repeat if it should end within half a repeat of the
        # deadline, so that ~10 s repeats give three samples in 30 s, not two
        if enough and time.perf_counter() - started + 0.5 * statistics.median(durations[-2:]) > seconds:
            break
    # one scale for figures that are not tied to a single repeat
    scale = REFERENCE_DROP_KERNEL_S / statistics.median(m[3] for m in cal.marks)

    runs = _by_run(rec.spans, self_times(rec.spans))
    stages = [stage_metrics(runs[run_id], cal) for run_id in untraced]
    failed = sum(1 for _, ok in checks if not ok)
    report = {
        "cpu_s": _median_of(stages, "cpu_s"),
        "analytic_ms": analytic_ms(stages),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": failed / len(checks),
        "wall_s": _median_of(stages, "wall_s"),
        "calibration_drop_s": statistics.median(m[3] for m in cal.marks),
        "calibration_dot_s": statistics.median(m[4] for m in cal.marks),
    }
    if setup:
        report["setup_s"] = statistics.median(setup)
    for mode in sorted({c[0] for c in stages[0]["analytic_calls"]}):
        report[f"analytic_ms.{mode}"] = analytic_ms(stages, mode)
    if "sim_symbols_per_s" in stages[0]:
        report["sim_symbols_per_s"] = _median_of(stages, "sim_symbols_per_s")

    layers = {}
    if trace:
        # a traced repeat has no kernel inside it, so one factor scales it
        factors = {}
        for run_id in traced:
            root = next(s for s, _ in runs[run_id] if s["name"] == "experiment.run")
            factors[run_id] = cal.scaled(root) / root["cpu"]
        per_run = [
            _scaled(layer_metrics(runs[run_id], c, s), factors[run_id])
            for run_id, (c, s) in zip(traced, counters)
        ]
        layers = {
            name: (statistics.median_low if PER_LAYER[name] == "count" else statistics.median)(
                r[name] for r in per_run
            )
            for name in per_run[0]
        }
        drops = sorted(
            1e3 * factors[run_id] * _dur(s)
            for run_id in traced
            for s, _ in runs[run_id]
            if s["name"] == "simulator.run_drop"
        )
        q = statistics.quantiles(drops, n=10, method="inclusive") if len(drops) > 1 else [0.0] * 9
        layers["simulator.drop_ms_p50"] = statistics.median(drops) if drops else 0.0
        layers["simulator.drop_ms_p90"] = q[8]
        with Hooks() as hooks:
            install_layer_hooks(hooks, rec)
            rec.run_id = f"{workload}-{seed}-parse"
            for _ in range(PARSE_REPEATS):
                experiment.parse_spec(spec)
        parse_s = [_dur(s) for s in rec.spans if s["run_id"] == rec.run_id]
        layers["experiment.parse_spec_s"] = scale * statistics.median(parse_s)
        layers["trace.overhead_share"] = layers["trace.cpu_s"] / report["cpu_s"] - 1.0
        silent, _ = mapping_problems(workload, layers)
        if silent:
            raise HookError(f"{workload}: exercised per-layer metrics read zero: {', '.join(silent)}")
        if workload == workloads.FADING_EXACT_ANALYZE and layers["simulator.run_drop.calls"] != 0:
            raise HookError(f"{workload}: simulator.run_drop.calls must be 0")

    env["loadavg_end"] = os.getloadavg()
    env["anon_huge_pages_kb"] = anon_huge_pages_kb()
    steal_end = steal_seconds()
    env["steal_s"] = None if steal_start is None or steal_end is None else steal_end - steal_start
    wanted = PER_LAYER if trace else END_TO_END
    source = layers if trace else report
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": source[name], "unit": unit} for name, unit in wanted.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": env,
        "repeats": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {
            "kernel_s": [(m[3], m[4]) for m in cal.marks],  # drop, dot
            "setup_s": setup,
            "cpu_s": [s["cpu_s"] for s in stages],
            "analytic_calls": [s["analytic_calls"] for s in stages],
        },
        "csv_sha256": digests[0],
        "failed_checks": [name for name, ok in checks if not ok],
        "report": report,
        "layers": layers,
        "result": result,
    }
    suffix = "trace" if trace else "e2e"
    with open(os.path.join(OUT, f"{workload}-seed{seed}-{suffix}.json"), "w") as fh:
        json.dump({**record, "spans": rec.spans if trace else []}, fh)
        fh.write("\n")
    return record


def _print_record(record: dict) -> None:
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(
        f"workload {record['workload']} seed {record['seed']} repeats {record['repeats']} "
        f"csv_sha256 {record['csv_sha256']}"
    )
    for name in record["failed_checks"]:
        print(f"FAILED check: {name}")
    units = {
        **END_TO_END,
        "wall_s": "s",
        "calibration_drop_s": "s",
        "calibration_dot_s": "s",
        "failed_share": "ratio",
        "sim_symbols_per_s": "1/s",
    }
    for name, value in record["report"].items():
        unit = units.get(name, "ms" if name.startswith("analytic_ms.") else "")
        print(f"{name} {value!r} {unit}")
    for name, value in record["layers"].items():
        print(f"{name} {value!r} {PER_LAYER[name]}")
    print(json.dumps(record["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    except HookError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    _print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
