"""Shared pieces of the end-to-end benchmark: the result line and the
allocation view it checks, the process table, set-up timing, the
machine-speed reference and the span ledger.

Everything here runs in the benchmark's own process and reaches the
program only through its public API (``repro.*``) or as a subprocess.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import subprocess
import sys
import time
from statistics import median

#: Root of the checkout: this file lives in ``<root>/e2ebench/``.
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Each layer of one allocation, as the allocator names its spans.  Their
#: self times plus ``regalloc.other_ms`` make up the traced op time.
REGALLOC_LAYERS = ("renumber", "coalesce", "liveness", "interference",
                   "spill_costs", "simplify", "select", "spill")

#: Most of the traced op time that ``regalloc.other_ms`` may hold.  The
#: spans outside ``REGALLOC_LAYERS`` (color, build, pass, function,
#: module) and the time outside every span hold about 4% of it on both
#: workloads.
OTHER_SHARE_LIMIT = 0.10


def program_env() -> dict:
    """Environment for a subprocess that runs the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# The result line
# ----------------------------------------------------------------------


class Report:
    """Collects one run's verdict and metrics; :meth:`line` renders the
    JSON object the benchmark prints last."""

    def __init__(self):
        self.metrics: dict = {}
        self.attempted = 0
        self.failed = 0
        #: reasons the run is not correct; empty means correct.
        self.problems: list = []
        #: what the run saw of the machine, for standard error.
        self.notes: list = []

    def metric(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def note_speed(self, references, seconds, scaled_seconds) -> None:
        """Note the reference loop's median and the mean op time as
        measured and as scaled."""
        self.notes.append(
            f"reference loop: median {1000 * median(references):.2f} ms "
            f"over {len(references)} passes; mean op "
            f"{1000 * sum(seconds) / len(seconds):.2f} ms as measured, "
            f"{1000 * sum(scaled_seconds) / len(scaled_seconds):.2f} ms "
            "scaled")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }, sort_keys=True)


def allocation_view(allocation) -> tuple:
    """``(assignment, stats)`` of a module allocation, shaped exactly like
    a server reply: what must repeat for an op to count as correct."""
    from repro.service.protocol import flat_assignment

    return (flat_assignment(allocation), {
        name: {"passes": result.stats.pass_count,
               "registers_spilled": result.stats.registers_spilled,
               "spill_cost": result.stats.spill_cost}
        for name, result in sorted(allocation.results.items())
    })


# ----------------------------------------------------------------------
# Process table (Linux /proc)
# ----------------------------------------------------------------------


def _stat_fields(pid: int):
    """Fields of ``/proc/<pid>/stat`` after the command name, or None
    when the process is gone."""
    try:
        raw = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return raw.rsplit(")", 1)[1].split()


def process_identity(pid: int):
    """``(pid, start time in clock ticks)`` — stable against pid reuse."""
    fields = _stat_fields(pid)
    return None if fields is None else (pid, int(fields[19]))


def is_running(identity) -> bool:
    """True while the process named by :func:`process_identity` exists
    and is not a zombie (a zombie holds no CPU and no memory)."""
    pid, started = identity
    fields = _stat_fields(pid)
    return (fields is not None and int(fields[19]) == started
            and fields[0] != "Z")


def descendants(pid: int) -> list:
    """Identities of every live descendant of ``pid``, from the process
    table."""
    children: dict = {}
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name))
        if fields is None or fields[0] == "Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            identity = process_identity(child)
            if identity is not None:
                found.append(identity)
                frontier.append(child)
    return found


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one live process, in MB."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def wait_gone(identities, timeout: float = 10.0) -> list:
    """Wait until every process in ``identities`` has ended; returns the
    ones still running at ``timeout``."""
    deadline = time.monotonic() + timeout
    alive = [identity for identity in identities if is_running(identity)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [identity for identity in alive if is_running(identity)]
    return alive


def kill_all(identities) -> None:
    """Last resort for processes that outlived their shutdown."""
    import signal

    for pid, _started in identities:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)


# ----------------------------------------------------------------------
# Set-up timing
# ----------------------------------------------------------------------


#: What a library user pays before the first allocation: interpreter
#: start, the imports of every layer the workloads call, and one small
#: allocation, which loads what the allocator imports lazily.  Then the
#: fresh interpreter times the reference loop and prints ``<seconds spent
#: on it, import and warm-up pass included> <timed pass>``.
SETUP_PROGRAM = (
    "from repro.machine import rt_pc, run_module\n"
    "from repro.regalloc import allocate_module\n"
    "from repro.workloads import get_workload\n"
    "allocate_module(get_workload('quicksort').compile(), rt_pc(),\n"
    "                'briggs', jobs=1)\n"
    "import time\n"
    "begin = time.perf_counter()\n"
    "from common import reference_loop, reference_seconds\n"
    "reference_loop()\n"
    "timed = reference_seconds()\n"
    "print(time.perf_counter() - begin, timed)\n"
)


def library_setup_seconds() -> float:
    """Scaled wall time of one fresh interpreter importing the program
    and making its first allocation: the child's wall time less its own
    reference-loop passes, scaled by its timed pass."""
    env = program_env()
    env["PYTHONPATH"] += os.pathsep + str(ROOT / "e2ebench")
    started = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms, which
    # would round every sample to that grid.
    child = subprocess.run([sys.executable, "-c", SETUP_PROGRAM], cwd=ROOT,
                           env=env, check=True, capture_output=True,
                           text=True)
    wall = time.perf_counter() - started
    looped, reference = map(float, child.stdout.split())
    return scaled(wall - looped, reference)


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------


#: The reference loop's time on the machine every reported time is scaled
#: to; about its time on a 2-core x86-64 virtual machine at its faster
#: speed.
REFERENCE_S = 0.010


def reference_loop() -> int:
    """Fixed pure-Python work of the allocator's kind: dict and set
    inserts, a keyed sort and membership tests.  It calls nothing of the
    program, so no change to the program can move its time."""
    table: dict = {}
    seen = set()
    for key in range(20_000):
        table[key] = key * 7 % 1013
        seen.add(table[key])
    total = 0
    for key, value in sorted(table.items(), key=lambda item: item[1]):
        if value in seen:
            total += key
    return total


def reference_seconds() -> float:
    """Wall time of one pass of :func:`reference_loop`."""
    begin = time.perf_counter()
    reference_loop()
    return time.perf_counter() - begin


def idle_reference_seconds() -> float:
    """:func:`reference_seconds` after the process was idle: one untimed
    pass first, so the timed one does not read a cold core as a slow
    one."""
    reference_loop()
    return reference_seconds()


#: Every CPU the benchmark may use, before :func:`pin_one_cpu`.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def pin_one_cpu() -> None:
    """Run this process, and every process it starts from now on, on one
    CPU, so the reference loop always reads the CPU the work runs on."""
    os.sched_setaffinity(0, {max(ALL_CPUS)})


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference loop took ``reference``,
    scaled to a machine on which it takes ``REFERENCE_S``.

    The machine this benchmark was written on changes speed by up to 1.8
    times, for seconds to minutes at a time, and the program slows down
    with the reference loop (see README.md); scaling by a reference timed
    on the same CPU next to the work takes that out of the figures.
    """
    return seconds * REFERENCE_S / reference


# ----------------------------------------------------------------------
# The span ledger
# ----------------------------------------------------------------------


def span_self_times(tracer) -> tuple:
    """``(self seconds per span name, summed root-span seconds)`` from
    one tracer's begin/end events.

    A span's self time is its duration minus the durations of its direct
    children.  ``module:x``/``function:x``/``pass:n`` collapse to their
    prefix.  Raises ``ValueError`` when the events do not nest.
    """
    selfs: dict = {}
    stack: list = []
    roots = 0.0
    for event in tracer.events:
        phase = event["ph"]
        if phase == "B":
            stack.append([event["name"], event["ts"], 0.0])
        elif phase == "E":
            if not stack or stack[-1][0] != event["name"]:
                raise ValueError(f"span {event['name']!r} closes out of order")
            name, started, children = stack.pop()
            duration = event["ts"] - started
            own = duration - children
            if own < -1e-9:
                raise ValueError(f"span {name!r} is shorter than its children")
            key = name.split(":", 1)[0]
            selfs[key] = selfs.get(key, 0.0) + own
            if stack:
                stack[-1][2] += duration
            else:
                roots += duration
    if stack:
        raise ValueError(f"span {stack[-1][0]!r} never closed")
    return selfs, roots


class LayerLedger:
    """Sums the self time of the allocator's layers over traced ops.

    Every op adds its own benchmark-side wall time; the part of it that no
    named layer covers is ``other``.  :meth:`check` is the layer-sum
    check: every named layer ran with time of its own, and together they
    explain all but ``OTHER_SHARE_LIMIT`` of the summed op time.  A span
    the allocator renames or drops moves its time into ``other`` and
    fails the check instead of reading 0 unnoticed.
    """

    def __init__(self):
        self.layers = {name: 0.0 for name in REGALLOC_LAYERS}
        self.other = 0.0
        self.op_seconds = 0.0
        self.ops = 0
        #: traces that could not be read as nested spans.
        self.problems: list = []

    def add(self, tracer, op_seconds: float) -> None:
        try:
            selfs, roots = span_self_times(tracer)
        except ValueError as error:
            self.problems.append(str(error))
            return
        # Time inside the call but outside every span (argument checks,
        # method lookup) also belongs to no layer.
        outside = op_seconds - roots
        if outside < -1e-6:
            self.problems.append("spans outlast the op that contains them")
            return
        for name, seconds in selfs.items():
            if name in self.layers:
                self.layers[name] += seconds
            else:
                self.other += seconds
        self.other += outside
        self.op_seconds += op_seconds
        self.ops += 1

    def check(self) -> list:
        """What failed the layer-sum check; empty when it passes."""
        problems = list(self.problems)
        absent = [name for name, seconds in self.layers.items()
                  if seconds <= 0]
        if absent:
            problems.append(f"layers with no time in the trace: {absent}")
        if self.other > OTHER_SHARE_LIMIT * self.op_seconds:
            problems.append(
                f"named layers explain only "
                f"{1 - self.other / self.op_seconds:.1%} of the traced op "
                f"time")
        return problems

    def report(self, report: Report) -> None:
        per_op = 1000.0 / max(1, self.ops)
        for name, seconds in self.layers.items():
            report.metric(f"regalloc.{name}_ms", seconds * per_op, "ms")
        report.metric("regalloc.other_ms", self.other * per_op, "ms")
        report.metric("regalloc.op_ms", self.op_seconds * per_op, "ms")
        for problem in self.check():
            report.problem(f"layer-sum check: {problem}")


def add_counts(counts: dict, tracer) -> None:
    """Fold one traced allocation's exact work counts into ``counts``."""
    for key in ("coalesced", "live_ranges", "edges"):
        counts[key] = counts.get(key, 0) + tracer.counters.get(key, 0)
    counts["passes"] = counts.get("passes", 0) + sum(
        1 for event in tracer.events
        if event["ph"] == "B" and event["cat"] == "pass")


def report_counts(counts: dict, report: Report) -> None:
    """The exact allocator work counts, summed over one fixed op list."""
    for key in ("passes", "graph_builds", "liveness_builds", "coalesced",
                "live_ranges", "edges"):
        report.metric(f"regalloc.{key}", counts[key], "count")
    report.metric("regalloc.builds_per_pass",
                  counts["graph_builds"] / counts["passes"], "count")


@contextlib.contextmanager
def counting_builds(counts: dict):
    """Count interference-graph and liveness builds by wrapping the public
    ``build_interference_graphs`` function and ``Liveness`` class in every
    loaded ``repro`` module that imported them, for the duration of the
    block."""
    import repro.analysis.liveness as liveness_module
    import repro.regalloc.interference as interference_module

    original_build = interference_module.build_interference_graphs
    original_liveness = liveness_module.Liveness
    counts.setdefault("graph_builds", 0)
    counts.setdefault("liveness_builds", 0)

    def build_interference_graphs(*args, **kwargs):
        counts["graph_builds"] += 1
        return original_build(*args, **kwargs)

    class Liveness(original_liveness):
        def __init__(self, *args, **kwargs):
            counts["liveness_builds"] += 1
            super().__init__(*args, **kwargs)

    replacements = {
        "build_interference_graphs": (original_build,
                                      build_interference_graphs),
        "Liveness": (original_liveness, Liveness),
    }
    patched = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attribute, (original, wrapper) in replacements.items():
            if getattr(module, attribute, None) is original:
                setattr(module, attribute, wrapper)
                patched.append((module, attribute, original))
    try:
        yield counts
    finally:
        for module, attribute, original in patched:
            setattr(module, attribute, original)
