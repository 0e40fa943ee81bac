"""``alloc-batch``: a closed loop of serial ``allocate_module`` calls over
the seven registry programs on the paper's RT/PC target.

One op allocates one freshly compiled module with ``jobs=1``.  The
compile happens before the timer starts, so no frontend, pool, cache or
protocol work is inside the timed call: a change to the allocator core
shows here undiluted.  The reference loop is timed before every op and
after the last, and each op's time is scaled by the mean of the two
passes around it.
"""

from __future__ import annotations

import gc
import random
import time
from statistics import geometric_mean, median, quantiles

from common import (
    LayerLedger,
    Report,
    add_counts,
    allocation_view,
    counting_builds,
    library_setup_seconds,
    reference_seconds,
    report_counts,
    scaled,
    self_peak_rss_mb,
)

#: Allocation strategies compared by the paper (Figures 5-7).
METHODS = ("briggs", "chaitin")

#: Lowest int-register count at which each registry program still
#: allocates on the RT/PC float file; below it ``AllocationError`` means
#: "unspillable", a legal limit and not a failure.  The workload runs at
#: 16, above every floor.
INT_REG_FLOORS = {"svd": 7, "linpack": 6, "simplex": 5, "euler": 12,
                  "cedeta": 5, "quicksort": 3, "intsuite": 3}

#: An op slower than this counts against ``good_share``.  The slowest
#: op (cedeta) takes under 1 s on a 2-core x86 box.
LATENCY_LIMIT_S = 10.0

#: Fresh interpreters timed per run, before and after the timed loop so
#: they sample more than one moment of it; ``setup_s`` is their median.
SETUP_BEFORE, SETUP_AFTER = 5, 4

#: Each pair's p90 needs ten samples of its own, so a run goes on past
#: ``--seconds`` until it has made this many passes (140 ops).
MIN_PASSES = 10


def op_list(seed: int) -> list:
    """Every (program, method) pair once, in a seeded order.  The set is
    the same for every seed, so the quality counts are too."""
    from repro.workloads import all_workloads

    ops = [(name, method) for name in sorted(all_workloads())
           for method in METHODS]
    random.Random(seed).shuffle(ops)
    return ops


def reference(ops, target, report: Report) -> dict:
    """Allocate, simulate and check every pair once, outside the timed
    phase.  Returns ``{(program, method): (view, cycles, spilled,
    spill_cost)}``."""
    from repro.machine import run_module
    from repro.regalloc import allocate_module
    from repro.workloads import get_workload

    refs = {}
    for name, method in ops:
        workload = get_workload(name)
        module = workload.compile()
        allocation = allocate_module(module, target, method, jobs=1)
        result = run_module(module, entry=workload.entry, target=target,
                            assignment=allocation.assignment)
        try:
            workload.verify_outputs(result.outputs)
        except AssertionError as error:
            report.problem(f"{name}/{method}: wrong output: {error}")
        stats = [r.stats for r in allocation.results.values()]
        refs[(name, method)] = (
            allocation_view(allocation), result.cycles,
            sum(s.registers_spilled for s in stats),
            sum(s.spill_cost for s in stats),
        )
    return refs


def run(seed: int, seconds: float, traced: bool) -> Report:
    from repro.machine import rt_pc
    from repro.regalloc import allocate_module
    from repro.workloads import get_workload

    report = Report()
    target = rt_pc()
    ops = op_list(seed)
    for name, floor in INT_REG_FLOORS.items():
        if target.int_regs < floor:
            report.problem(f"{name}: {target.int_regs} int registers is "
                           f"below its floor {floor}")
    if traced:
        refs = reference(ops, target, report)
        _traced_loop(ops, refs, target, seconds, report)
        from graph_probe import probe

        probe(report)
        return report

    setup = [library_setup_seconds() for _ in range(SETUP_BEFORE)]
    # The same first allocation in this process, untimed here, so the
    # timed loop starts with the lazy imports loaded.
    allocate_module(get_workload("quicksort").compile(), target, "briggs",
                    jobs=1)
    latencies, firsts = _timed_loop(ops, target, seconds, report)
    # Read before the reference phase, whose simulations would set it.
    rss = self_peak_rss_mb()
    setup += [library_setup_seconds() for _ in range(SETUP_AFTER)]
    refs = reference(ops, target, report)
    for op, (first, agreeing) in firsts.items():
        if first != refs[op][0]:
            report.failed += agreeing
            report.problem(f"{op[0]}/{op[1]}: allocation differs from the "
                           "reference")

    report.metric("setup_s", median(setup), "s")
    report.metric("peak_rss_mb", rss, "MB")
    report.metric("good_share",
                  (report.attempted - report.failed) / report.attempted,
                  "share")
    every = [latency for times in latencies.values() for latency in times]
    report.metric("ops_per_s", len(every) / sum(every), "1/s")
    # Each pair's mean and p90 over its own ops, then the geometric mean
    # over the pairs, so each program weighs the same: pooled quantiles of
    # 14 ops that differ 50-fold fall between groups of programs and jump
    # when a group's copies shift.
    timed = [times for times in latencies.values() if len(times) > 1]
    report.metric("mean_ms", 1000 * geometric_mean(
        sum(times) / len(times) for times in timed), "ms")
    report.metric("p90_ms", 1000 * geometric_mean(
        quantiles(times, n=10, method="inclusive")[-1]
        for times in timed), "ms")
    report.metric("spilled", sum(refs[op][2] for op in ops), "count")
    report.metric("spill_cost", sum(refs[op][3] for op in ops), "weighted")
    report.metric("dyn_cycles", sum(refs[op][1] for op in ops), "cycles")
    return report


def _timed_loop(ops, target, seconds, report: Report) -> tuple:
    """Whole passes over ``ops`` until ``seconds`` have elapsed and at
    least ``MIN_PASSES`` passes ran, so every run weighs each program the
    same.

    Returns the scaled latencies of each pair's ops and, per pair, the
    first op's view with the number of good ops that reproduced it; the
    caller checks that view against the reference.
    """
    from repro.regalloc import allocate_module
    from repro.workloads import get_workload

    workloads = {name: get_workload(name) for name, _method in ops}
    # Per op: its pair, its seconds, the reference passes before and
    # after it.
    raw: list = []
    firsts: dict = {}
    passes = 0
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or passes < MIN_PASSES):
        passes += 1
        for name, method in ops:
            module = workloads[name].compile()
            # Each op starts from a collected heap, so no op pays for the
            # garbage of the one before it, whatever the seeded order.
            gc.collect()
            reference = reference_seconds()
            if raw and raw[-1][3] is None:
                raw[-1][3] = reference
            report.attempted += 1
            begin = time.perf_counter()
            try:
                allocation = allocate_module(module, target, method, jobs=1)
            except Exception as error:  # noqa: BLE001 — count, keep going
                report.failed += 1
                report.problem(f"{name}/{method}: {error!r}")
                continue
            elapsed = time.perf_counter() - begin
            raw.append([(name, method), elapsed, reference, None])
            produced = allocation_view(allocation)
            # Free this op's module before the next compile, so the peak
            # RSS is one op's and not two neighbours' in seeded order.
            del module, allocation
            first, agreeing = firsts.setdefault((name, method),
                                                (produced, 0))
            if produced != first:
                report.failed += 1
                report.problem(f"{name}/{method}: allocation differs "
                               "between ops")
            elif elapsed > LATENCY_LIMIT_S:
                report.failed += 1
            else:
                firsts[(name, method)] = (first, agreeing + 1)
    if raw:
        raw[-1][3] = reference_seconds()
    latencies: dict = {op: [] for op in ops}
    for op, elapsed, before, after in raw:
        latencies[op].append(scaled(elapsed, (before + after) / 2))
    report.note_speed([entry[2] for entry in raw],
                      [entry[1] for entry in raw],
                      [time_ for times in latencies.values()
                       for time_ in times])
    return latencies, firsts


def _traced_loop(ops, refs, target, seconds, report: Report) -> None:
    """Per-layer ledger: whole passes, each op allocated once untraced
    and once traced, so the overhead of tracing is measured on the same
    inputs."""
    from repro.frontend import compile_source
    from repro.observability.trace import Tracer
    from repro.regalloc import allocate_module
    from repro.workloads import get_workload

    workloads = {name: get_workload(name) for name, _method in ops}
    ledger = LayerLedger()
    counts: dict = {}
    untraced = traced = compile_seconds = 0.0
    compiles = passes = 0
    started = time.perf_counter()
    while passes == 0 or time.perf_counter() - started < seconds:
        passes += 1
        first = passes == 1
        for name, method in ops:
            workload = workloads[name]
            begin = time.perf_counter()
            module = compile_source(workload.source, workload.name)
            compile_seconds += time.perf_counter() - begin
            compiles += 1
            gc.collect()
            begin = time.perf_counter()
            allocate_module(module, target, method, jobs=1)
            untraced += time.perf_counter() - begin

            module = workload.compile()
            tracer = Tracer()
            gc.collect()
            report.attempted += 1
            with counting_builds(counts if first else {}):
                begin = time.perf_counter()
                allocation = allocate_module(module, target, method,
                                             jobs=1, tracer=tracer)
                elapsed = time.perf_counter() - begin
            traced += elapsed
            ledger.add(tracer, elapsed)
            if allocation_view(allocation) != refs[(name, method)][0]:
                report.failed += 1
                report.problem(f"{name}/{method}: traced allocation "
                               "differs from the reference")
            if first:
                add_counts(counts, tracer)
    ledger.report(report)
    report.metric("trace.overhead_share", traced / untraced - 1, "share")
    report.metric("frontend.compile_ms", 1000 * compile_seconds / compiles,
                  "ms")
    report_counts(counts, report)
