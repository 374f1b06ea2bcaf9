#!/usr/bin/env python3
"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer metrics of a traced run and writes its spans to
``.perfbench/<workload>.spans.npz``. Every metric is printed on its own
line with unit and clock, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The
command exits non-zero when an operation raises, a final answer differs
from its row-wise recomputation, the invariant audit finds a violation,
the simulated metrics do not repeat for the seed, or the watchdog stops
the run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The whole command must end within 180 s; the watchdog leaves margin.
WATCHDOG_S = 170


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source under {src}")
    sys.path[:0] = [src, ROOT]


def _clock(name: str, unit: str, traced: bool) -> str:
    """Clock of a printed metric: traced self times are raw wall-clock."""
    if "sim" in unit:
        return "simulated"
    if unit in ("s", "ms", "1/s"):
        raw = traced or name.startswith("wall_")
        return "host wall-clock" if raw else "host, normalised"
    return "host" if unit == "MiB" else "-"


def _watchdog(signum, frame):
    raise TimeoutError(f"watchdog: run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _use_checkout_source()
    from perfbench.measure import Outcome, measure, measure_traced
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    try:
        if args.trace:
            spans_out = os.path.join(ROOT, ".perfbench", f"{workload.name}.spans.npz")
            outcome = measure_traced(workload, args.seed, args.seconds, spans_out)
        else:
            outcome = measure(workload, args.seed, args.seconds)
    except TimeoutError as exc:
        outcome = Outcome(attempted=1)
        outcome.fail(str(exc))
    finally:
        signal.alarm(0)

    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in {**outcome.metrics, **outcome.extra}.items():
        gated = "" if name in outcome.metrics else "  (not in result line)"
        print(f"{name:32s} {value:>18.6f} {unit:12s} {_clock(name, unit, bool(args.trace))}{gated}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
