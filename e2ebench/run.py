"""End-to-end benchmark of the allocator: one command, every workload.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload alloc-batch --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the untraced program and prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` runs the traced ledger and
prints every per-layer metric (0 for a layer that is not on the
workload's path; a layer on it that reads nothing fails the run).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output was correct.  The benchmark, and every process it starts,
runs on one CPU; see ``README.md`` here for why, and for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ROOT, SRC, pin_one_cpu

def declared_metrics(traced: bool) -> dict:
    """name -> unit of the metrics ``BENCHMARK.json`` promises."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if traced else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


#: Per-layer metric prefixes that are not on a workload's path; they read
#: 0 there.  Every other declared metric must be measured.
OFF_PATH = {
    "alloc-batch": ("wire.", "service.", "pool.", "client."),
    "serve-mix": ("matula.", "repair."),
}


def complete(report, workload: str, traced: bool) -> None:
    """Hold the report to the declared metric set: a metric the run did
    not declare, or a unit that differs, is a benchmark bug; a declared
    metric the run did not measure makes it incorrect, unless it is a
    per-layer metric off the workload's path, which reads 0."""
    declared = declared_metrics(traced)
    for name, entry in report.metrics.items():
        if name not in declared:
            raise RuntimeError(f"undeclared metric {name!r}")
        if entry["unit"] != declared[name]:
            raise RuntimeError(f"{name}: unit {entry['unit']!r}, declared "
                               f"{declared[name]!r}")
    for name, unit in declared.items():
        if name in report.metrics:
            continue
        if traced and name.startswith(OFF_PATH[workload]):
            report.metric(name, 0, unit)
        else:
            report.problem(f"declared metric {name!r} was not measured")
            report.metric(name, 0, unit)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OFF_PATH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_one_cpu()

    if args.workload == "alloc-batch":
        import alloc_batch as workload
    else:
        import serve_mix as workload
    report = workload.run(args.seed, args.seconds, bool(args.trace))
    complete(report, args.workload, bool(args.trace))
    for note in report.notes:
        print(note, file=sys.stderr)
    for problem in report.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(report.line(), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
