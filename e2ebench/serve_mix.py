"""``serve-mix``: an open loop at one fixed rate against a fresh
``repro serve --port 0 --jobs 2``.

The stream mixes unique synthetic programs at tight register files
(4-8 int registers; every one a response-cache miss, spill-heavy and
multi-pass) with repeats of small registry programs at 16 registers
(cache hits after their first occurrence, still paying the server-side
compile).  Requests are due on a fixed schedule; one connection carries
them, and a request waits in the client while the one before it is in
flight, so its latency is measured from when it was due.  The client,
the server and its pool workers share one CPU, and each latency is
scaled by the reference loop timed on it in the idle gaps before and
after the request.

Every 200 reply is compared with a serial in-process ``allocate_module``
reference for the same request, computed before the server starts.
"""

from __future__ import annotations

import gc
import json
import queue
import random
import socket
import subprocess
import sys
import threading
import time
from statistics import median, quantiles

from common import (
    ROOT,
    LayerLedger,
    Report,
    add_counts,
    allocation_view,
    counting_builds,
    descendants,
    idle_reference_seconds,
    kill_all,
    peak_rss_mb,
    process_identity,
    program_env,
    report_counts,
    scaled,
    wait_gone,
)

HOST = "127.0.0.1"
#: Requests per second.  On one CPU of a 2-core x86 box a request of
#: this mix takes 110-200 ms as measured, depending on the machine's
#: speed, so requests due 400 ms apart seldom wait for the one before
#: them, and the gaps leave time to time the reference loop.  A p90
#: needs 100 requests, so a run needs 40 s.
RATE = 2.5
#: Share of the stream that repeats a registry program.
REPEAT_SHARE = 0.3
#: Registry programs that repeat, at the paper's 16 int / 8 float
#: registers.  Their compile is short enough that a hit stays well
#: below a miss (cedeta's compile alone costs as much as a miss), and
#: their simulation is cheap (euler's takes 2 s per reference).
REPEATS = ("quicksort", "intsuite", "simplex", "linpack", "svd")
#: Unique programs: seeds, 8-20 statements, 4-8 int registers.  The
#: synthetic generator's programs allocate at 4 int registers for every
#: seed tried (200 of 200), so no request is below its floor.
UNIQUE_SEED_BASE = 100_000
STATEMENTS = (8, 20)
INT_REGS = (4, 8)
#: Seeds of the pool warm-up requests, outside the timed stream.
WARMUP_SEED_BASE = 900_000
WARMUP_REQUESTS = 4
#: A request slower than this, from when it was due, is not good.
LATENCY_LIMIT_S = 5.0
REQUEST_TIMEOUT_S = 60.0
#: Server starts timed per run, before and after the stream so they
#: sample more than one moment of it; ``setup_s`` is their median.  The
#: last start before the stream serves it.
SETUP_BEFORE, SETUP_AFTER = 3, 2


# ----------------------------------------------------------------------
# The stream
# ----------------------------------------------------------------------


class Request:
    __slots__ = ("key", "name", "source", "int_regs", "entry", "check")

    def __init__(self, key, name, source, int_regs, entry=None, check=None):
        self.key = key
        self.name = name
        self.source = source
        self.int_regs = int_regs
        self.entry = entry
        self.check = check

    def message(self, request_id) -> dict:
        return {"op": "allocate", "id": request_id, "name": self.name,
                "source": self.source, "method": "briggs",
                "int_regs": self.int_regs, "float_regs": 8}


def unique_request(index: int) -> Request:
    from repro.workloads.synth import generate_program

    low, high = STATEMENTS
    statements = low + (index * 5) % (high - low + 1)
    int_regs = INT_REGS[0] + index % (INT_REGS[1] - INT_REGS[0] + 1)
    source = generate_program(seed=UNIQUE_SEED_BASE + index,
                              statements=statements)
    return Request(("unique", index), f"u{index}", source, int_regs)


def warmup_request(index: int) -> Request:
    from repro.workloads.synth import generate_program

    source = generate_program(seed=WARMUP_SEED_BASE + index, statements=8)
    return Request(("warm", index), f"w{index}", source, 6)


def registry_request(name: str) -> Request:
    from repro.workloads import get_workload

    workload = get_workload(name)
    return Request(("registry", name), name, workload.source, 16,
                   workload.entry, workload.verify_outputs)


def stream(seed: int, seconds: float) -> list:
    """The fixed op list: ``seconds * RATE`` requests, the same set for
    every seed; the seed only orders them."""
    total = max(2 * len(REPEATS), round(seconds * RATE))
    repeats = round(total * REPEAT_SHARE)
    ops = [unique_request(index) for index in range(total - repeats)]
    registry = {name: registry_request(name) for name in REPEATS}
    ops += [registry[REPEATS[index % len(REPEATS)]]
            for index in range(repeats)]
    random.Random(seed).shuffle(ops)
    return ops


def distinct(ops) -> list:
    seen = {}
    for request in ops:
        seen.setdefault(request.key, request)
    return list(seen.values())


def target_for(request):
    from repro.machine import rt_pc

    return rt_pc().with_int_regs(request.int_regs)


def references(requests, report: Report) -> dict:
    """Serial allocation, simulation and output check of every distinct
    request.  Returns ``key -> (assignment, stats, cycles)``."""
    from repro.frontend import compile_source
    from repro.machine import run_module
    from repro.regalloc import allocate_module

    refs = {}
    for request in requests:
        target = target_for(request)
        module = compile_source(request.source, request.name)
        expected = None
        if request.check is None:
            expected = run_module(module).outputs
        allocation = allocate_module(module, target, "briggs", jobs=1)
        result = run_module(module, entry=request.entry, target=target,
                            assignment=allocation.assignment)
        if request.check is not None:
            try:
                request.check(result.outputs)
            except AssertionError as error:
                report.problem(f"{request.name}: wrong output: {error}")
        elif result.outputs != expected:
            report.problem(f"{request.name}: allocated output differs "
                           "from the unallocated program")
        assignment, stats = allocation_view(allocation)
        refs[request.key] = (assignment, stats, result.cycles)
    return refs


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------


def call(port: int, message: dict, timeout: float = REQUEST_TIMEOUT_S):
    """One NDJSON request on a fresh connection."""
    with socket.create_connection((HOST, port), timeout=timeout) as sock:
        sock.sendall((json.dumps(message) + "\n").encode())
        with sock.makefile("rb") as lines:
            return json.loads(lines.readline())


class Server:
    """One ``repro serve`` subprocess, started until it answers and
    stopped until it and every process it started are gone."""

    def __init__(self):
        self.proc = None
        self.port = None
        self._lines = queue.Queue()
        self._drainer = None

    def start(self) -> float:
        """Start, ping, and warm the pool with one small request; returns
        the seconds that took (one ``setup_s`` sample)."""
        begin = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2"],
            cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self._drainer = threading.Thread(target=self._drain, daemon=True)
        self._drainer.start()
        while self.port is None:
            line = self._lines.get(timeout=60)
            if line is None:
                raise RuntimeError("repro serve exited before listening")
            if "listening on" in line:
                self.port = int(line.split("listening on ", 1)[1]
                                .split()[0].rsplit(":", 1)[1])
        if not call(self.port, {"op": "ping"}).get("ok"):
            raise RuntimeError("repro serve did not answer ping")
        warm = warmup_request(0)
        if call(self.port, warm.message(0)).get("status") != 200:
            raise RuntimeError("warm-up request failed")
        return time.perf_counter() - begin

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def processes(self) -> list:
        server = process_identity(self.proc.pid)
        return ([server] if server else []) + descendants(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid, _ in self.processes())

    def stop(self, report: Report) -> None:
        """Shut down over the protocol and assert from the process table
        that the server and all its workers are gone."""
        tree = self.processes()
        try:
            if self.port is None:
                raise OSError("the server never listened")
            call(self.port, {"op": "shutdown"}, timeout=10)
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired) as error:
            report.problem(f"server did not shut down cleanly: {error!r}")
            self.proc.kill()
            self.proc.wait(timeout=30)
        leaked = wait_gone(tree)
        if leaked:
            kill_all(leaked)
            report.problem(f"processes outlived the server: {leaked}")
        self._drainer.join(timeout=10)
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# The open loop
# ----------------------------------------------------------------------


class Connection:
    """One NDJSON connection to the server, opened again after a request
    that timed out or broke it."""

    def __init__(self, port: int):
        self.port = port
        self.sock = self.lines = None

    def request(self, payload: bytes):
        """Send one request; returns its reply line, or None when no reply
        came within ``REQUEST_TIMEOUT_S``."""
        try:
            if self.sock is None:
                self.sock = socket.create_connection(
                    (HOST, self.port), timeout=REQUEST_TIMEOUT_S)
                self.lines = self.sock.makefile("rb")
            self.sock.sendall(payload)
            line = self.lines.readline()
            if line:
                return line
        except OSError:
            pass
        self.close()
        return None

    def close(self) -> None:
        if self.sock is not None:
            self.lines.close()
            self.sock.close()
        self.sock = self.lines = None


def run_stream(port: int, ops: list) -> tuple:
    """Send ``ops`` on a fixed schedule over one connection.  Before each
    request, while the server is idle and the request is not yet due, the
    client times the reference loop, and once more after the last
    reply.

    Returns per request ``(due, sent, done, reply line, reference
    seconds)`` (``done``/line are None on a timeout), the reference being
    the mean of the last one timed before the request and the first one
    after it; and how late the client itself sent each request: after it
    was due and the connection was free.
    """
    payloads = [(json.dumps(request.message(index)) + "\n").encode()
                for index, request in enumerate(ops)]
    results, lateness = [], []
    connection = Connection(port)
    # A collection of the client's heap (the serial reference
    # allocations) would stall the client and read as server latency.
    gc.collect()
    gc.disable()
    try:
        reference = idle_reference_seconds()
        start = time.perf_counter() + 2 * reference_budget(reference)
        for index, payload in enumerate(payloads):
            due = start + index / RATE
            free = time.perf_counter()
            if due - free > reference_budget(reference):
                reference = idle_reference_seconds()
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            lateness.append(max(0.0, sent - max(due, free)))
            line = connection.request(payload)
            done = None if line is None else time.perf_counter()
            results.append([due, sent, done, line, reference])
        afters = [result[4] for result in results[1:]]
        afters.append(idle_reference_seconds())
        for result, after in zip(results, afters):
            result[4] = (result[4] + after) / 2
    finally:
        connection.close()
        gc.enable()
    return results, lateness


def reference_budget(reference: float) -> float:
    """Time to leave before a due request for :func:`idle_reference_seconds`
    to finish: its two passes at the last reference, doubled."""
    return 4 * reference


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


def timed_start(server: Server) -> float:
    """One ``setup_s`` sample: the server's start, scaled by the mean of
    the reference loop timed before and after it."""
    before = idle_reference_seconds()
    seconds = server.start()
    return scaled(seconds, (before + idle_reference_seconds()) / 2)


def run(seed: int, seconds: float, traced: bool) -> Report:
    report = Report()
    ops = stream(seed, seconds)
    requests = distinct(ops)
    refs = references(requests, report)

    samples = []
    server = None
    try:
        for _ in range(1 if traced else SETUP_BEFORE):
            if server is not None:
                server.stop(report)
            server = Server()
            samples.append(timed_start(server))
        for index in range(1, WARMUP_REQUESTS + 1):
            reply = call(server.port, warmup_request(index).message(-index))
            if reply.get("status") != 200:
                report.problem(f"warm-up request failed: {reply}")
        before = call(server.port, {"op": "stats"})["service"]
        results, lateness = run_stream(server.port, ops)
        after = call(server.port, {"op": "stats"})["service"]
        rss = server.peak_rss_mb()
    finally:
        if server is not None and server.proc is not None:
            server.stop(report)
    for _ in range(0 if traced else SETUP_AFTER):
        server = Server()
        try:
            samples.append(timed_start(server))
        finally:
            if server.proc is not None:
                server.stop(report)

    latencies, transports, served = _verify(ops, refs, results, report)
    if traced:
        _service_layers(before, after, transports, lateness, report)
        _ledger(requests, refs, report)
        return report

    first_due = min(result[0] for result in results)
    last_done = max(result[2] for result in results if result[2])
    report.metric("setup_s", median(samples), "s")
    report.metric("peak_rss_mb", rss, "MB")
    report.metric("good_share",
                  (report.attempted - report.failed) / report.attempted,
                  "share")
    report.metric("ops_per_s", len(served) / (last_done - first_due), "1/s")
    report.metric("mean_ms", 1000 * sum(latencies) / len(latencies), "ms")
    report.metric("p90_ms", 1000 * quantiles(latencies, n=10,
                                             method="inclusive")[-1], "ms")
    report.metric("spilled", sum(
        stats["registers_spilled"] for reply in served
        for stats in reply["stats"].values()), "count")
    report.metric("spill_cost", sum(
        stats["spill_cost"] for reply in served
        for stats in reply["stats"].values()), "weighted")
    report.metric("dyn_cycles", sum(refs[request.key][2] for request in ops),
                  "cycles")
    return report


def _verify(ops, refs, results, report: Report) -> tuple:
    """Check every reply against its reference.  Returns latencies from
    due time, scaled by the reference timed around the request; each good
    reply's round trip minus the server's own ``elapsed``, as measured;
    and the decoded good replies."""
    latencies, transports, served = [], [], []
    measured, references = [], []
    for request, (due, sent, done, line, reference) in zip(ops, results):
        report.attempted += 1
        if line is None:
            report.failed += 1
            report.problem(f"{request.name}: no reply within "
                           f"{REQUEST_TIMEOUT_S} s")
            continue
        measured.append(done - due)
        references.append(reference)
        latencies.append(scaled(done - due, reference))
        reply = json.loads(line)
        assignment, stats, _cycles = refs[request.key]
        if reply.get("status") != 200 or reply.get("degraded"):
            report.failed += 1
            report.problem(f"{request.name}: status {reply.get('status')} "
                           f"{reply.get('error', '')}".strip())
            continue
        served.append(reply)
        transports.append(done - sent - reply["elapsed"])
        if reply["assignment"] != assignment or reply["stats"] != stats:
            report.failed += 1
            report.problem(f"{request.name}: reply differs from the serial "
                           "reference")
        elif done - due > LATENCY_LIMIT_S:
            report.failed += 1
    if latencies:
        report.note_speed(references, measured, latencies)
    return latencies, transports, served


def _service_layers(before, after, transports, lateness,
                    report: Report) -> None:
    """The server's own telemetry (``stats`` op, no tracing) and the
    client's share of the latency."""
    latency = after["latency"]
    report.metric("service.queue_wait_ms_p95",
                  1000 * latency["queue_wait"]["p95"], "ms")
    report.metric("service.dispatch_ms_p50",
                  1000 * latency["dispatch"]["p50"], "ms")
    report.metric("service.dispatch_ms_p95",
                  1000 * latency["dispatch"]["p95"], "ms")
    report.metric("service.e2e_ms_p50", 1000 * latency["e2e"]["p50"], "ms")
    report.metric("service.shed", after["shed"] - before["shed"], "count")
    hits = (after["response_cache"]["hits"]
            - before["response_cache"]["hits"])
    misses = (after["response_cache"]["misses"]
              - before["response_cache"]["misses"])
    report.metric("pool.cache_hit_share", hits / max(1, hits + misses),
                  "share")
    report.metric("client.transport_ms_p50", 1000 * median(transports), "ms")
    late_p90 = quantiles(lateness, n=10, method="inclusive")[-1]
    report.metric("client.late_ms_p90", 1000 * late_p90, "ms")


def _ledger(requests, refs, report: Report) -> None:
    """In-process ledger over the stream's distinct requests: compile,
    wire round trip, and an untraced then a traced allocation of two
    decoded copies, so tracing overhead is measured on the same inputs."""
    from repro.frontend import compile_source
    from repro.ir.wire import decode_module, encode_module
    from repro.observability.trace import Tracer
    from repro.regalloc import allocate_module

    ledger = LayerLedger()
    counts: dict = {}
    compile_s = encode_s = decode_s = untraced = 0.0
    for request in requests:
        target = target_for(request)
        begin = time.perf_counter()
        module = compile_source(request.source, request.name)
        compile_s += time.perf_counter() - begin
        begin = time.perf_counter()
        text = encode_module(module)
        encode_s += time.perf_counter() - begin
        begin = time.perf_counter()
        module = decode_module(text)
        decode_s += time.perf_counter() - begin

        gc.collect()
        begin = time.perf_counter()
        allocate_module(module, target, "briggs", jobs=1)
        untraced += time.perf_counter() - begin

        module = decode_module(text)
        tracer = Tracer()
        gc.collect()
        with counting_builds(counts):
            begin = time.perf_counter()
            allocation = allocate_module(module, target, "briggs", jobs=1,
                                         tracer=tracer)
            elapsed = time.perf_counter() - begin
        ledger.add(tracer, elapsed)
        if allocation_view(allocation) != refs[request.key][:2]:
            report.problem(f"{request.name}: traced allocation differs "
                           "from the reference")
        add_counts(counts, tracer)
    per_op = 1000.0 / len(requests)
    ledger.report(report)
    report_counts(counts, report)
    report.metric("frontend.compile_ms", compile_s * per_op, "ms")
    report.metric("wire.encode_ms", encode_s * per_op, "ms")
    report.metric("wire.decode_ms", decode_s * per_op, "ms")
    report.metric("trace.overhead_share",
                  ledger.op_seconds / untraced - 1, "share")
