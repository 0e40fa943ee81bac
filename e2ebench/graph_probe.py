"""Graph-scale coloring layers, measured in the traced ``alloc-batch``
run: Matula-Beck ordering and greedy coloring as the sequential
baseline, and parallel conflict-repair (``repair_color(jobs=2)``) on the
same seeded 10^5-vertex graph.

The graph is generated before any timer starts.  The repair call runs on
a pool that is warmed first, so the op time holds no worker start-up,
and the pool is shut down afterwards and checked gone from the process
table.
"""

from __future__ import annotations

import os
import time

from common import ALL_CPUS, Report, kill_all, process_identity, wait_gone

#: Vertices and average degree of the graph (the ROADMAP's scaling row).
GRAPH_N = 100_000
GRAPH_DENSITY = 8.0
#: Fixed, so the repair counts repeat across runs and seeds.
GRAPH_SEED = 12
#: Greedy needs 6 colors on these graphs; at 5 both the settling sweep
#: and the spill path run (about 3,200 vertices stay uncolored).
COLORS = 5
JOBS = 2


def probe(report: Report) -> None:
    from repro.observability.trace import Tracer
    from repro.regalloc.matula import greedy_color, smallest_last_order
    from repro.regalloc.pool import get_pool, shutdown_pools
    from repro.regalloc.repair import repair_color, verify_coloring
    from repro.workloads.synth import generate_graph

    adjacency = generate_graph(GRAPH_N, GRAPH_DENSITY, GRAPH_SEED).adjacency

    begin = time.perf_counter()
    removal = smallest_last_order(adjacency)
    order_seconds = time.perf_counter() - begin
    begin = time.perf_counter()
    greedy = greedy_color(adjacency, removal)
    greedy_seconds = time.perf_counter() - begin
    verify_coloring(adjacency, greedy, max(greedy) + 1)

    # Parallel repair is what this probe measures: its pool gets every
    # CPU, not the one the workloads are pinned to.
    os.sched_setaffinity(0, ALL_CPUS)
    pool = get_pool(JOBS)
    pool.submit_call(len, ((),)).get()
    workers = [identity for identity in map(process_identity,
                                            pool.worker_pids()) if identity]
    tracer = Tracer()
    report.attempted += 1
    try:
        begin = time.perf_counter()
        outcome = repair_color(adjacency, COLORS, jobs=JOBS, tracer=tracer)
        op_seconds = time.perf_counter() - begin
    finally:
        shutdown_pools()
        leaked = wait_gone(workers)
        if leaked:
            kill_all(leaked)
            report.problem(f"pool workers outlived shutdown: {leaked}")
    try:
        verify_coloring(adjacency, outcome.colors, COLORS, outcome.spilled)
    except Exception as error:  # noqa: BLE001 — InvariantError and kin
        report.failed += 1
        report.problem(f"repair coloring invalid: {error}")

    rounds = sweep = 0.0
    begun = {}
    for event in tracer.events:
        if event["name"] in ("repair-round", "repair-sweep"):
            if event["ph"] == "B":
                begun[event["name"]] = event["ts"]
            elif event["ph"] == "E":
                spent = event["ts"] - begun.pop(event["name"])
                if event["name"] == "repair-round":
                    rounds += spent
                else:
                    sweep += spent
    for name, spent in (("repair-round", rounds), ("repair-sweep", sweep)):
        if spent <= 0:
            report.problem(f"graph probe: no {name} span in the trace")
    finalized = tracer.counters.get("repair.finalized", 0)
    conflicts = tracer.counters.get("repair.conflicts", 0)

    report.metric("matula.order_ms", 1000 * order_seconds, "ms")
    report.metric("matula.greedy_ms", 1000 * greedy_seconds, "ms")
    report.metric("repair.op_ms", 1000 * op_seconds, "ms")
    report.metric("repair.prelude_ms", 1000 * (op_seconds - rounds - sweep),
                  "ms")
    report.metric("repair.round_ms", 1000 * rounds, "ms")
    report.metric("repair.sweep_ms", 1000 * sweep, "ms")
    report.metric("repair.rounds", outcome.rounds, "count")
    report.metric("repair.parallel_rounds", outcome.parallel_rounds, "count")
    report.metric("repair.conflicts", outcome.conflicts, "count")
    report.metric("repair.spilled", len(outcome.spilled), "count")
    report.metric("repair.useful_share",
                  finalized / max(1, finalized + conflicts), "share")
