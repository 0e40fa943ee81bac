"""The layer-sum check fails on the traces it cannot explain.

Run from the root of a checkout::

    python -m pytest e2ebench/test_ledger.py
"""

from __future__ import annotations

from types import SimpleNamespace

from common import REGALLOC_LAYERS, LayerLedger


def trace(events) -> SimpleNamespace:
    """A tracer stand-in holding ``(phase, name, ts)`` events."""
    return SimpleNamespace(events=[
        {"ph": phase, "name": name, "ts": ts, "cat": "span"}
        for phase, name, ts in events])


def allocation(layers=REGALLOC_LAYERS, root_self: float = 0.0):
    """One module span holding one unit-long span per layer, plus
    ``root_self`` of its own; returns the trace and its duration."""
    events = [("B", "module:m", 0.0)]
    ts = 0.0
    for name in layers:
        events += [("B", name, ts), ("E", name, ts + 1.0)]
        ts += 1.0
    ts += root_self
    events.append(("E", "module:m", ts))
    return trace(events), ts


def test_full_trace_passes():
    ledger = LayerLedger()
    ledger.add(*allocation())
    assert ledger.check() == []
    assert ledger.layers["coalesce"] == 1.0


def test_missing_layer_fails():
    ledger = LayerLedger()
    layers = [name for name in REGALLOC_LAYERS if name != "coalesce"]
    ledger.add(*allocation(layers, root_self=1.0))
    assert any("coalesce" in problem for problem in ledger.check())


def test_unexplained_time_fails():
    ledger = LayerLedger()
    ledger.add(*allocation(root_self=len(REGALLOC_LAYERS)))
    assert any("explain only" in problem for problem in ledger.check())


def test_broken_nesting_is_a_problem_not_a_crash():
    ledger = LayerLedger()
    ledger.add(trace([("B", "module:m", 0.0), ("B", "coalesce", 0.0),
                      ("E", "module:m", 1.0)]), 1.0)
    assert any("out of order" in problem for problem in ledger.check())
