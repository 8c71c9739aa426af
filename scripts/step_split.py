"""Per-part timing of the lockstep training step.

    PYTHONPATH=src python3 scripts/step_split.py --workload baseline --seed 0

Trains one benchmark workload (its config from ``bench/workload.py``, driven
as the benchmark drives it) with timers wrapped around the parts of a step
and around the training process's pipe traffic with its evaluator:

- ``step``: ``distrib._Stack.step``, one whole stacked step;
- ``teacher``: each call of the teacher fn ``distrib._mean_teacher`` returns;
- ``update``: ``optim.step``, the optimizer update;
- ``eval_recv``/``eval_send``: ``Connection.recv``/``send`` in the training
  process, i.e. the wait for an evaluation point's records and the handoff.

Prints one JSON object: per part its calls, minimum and median in us, and
total in ms. Point ``PYTHONPATH`` at another tree's ``src`` to time that
tree; the script only patches names both sides of a comparison share. Run it
with one BLAS thread (``OPENBLAS_NUM_THREADS=1``), as the benchmark does.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing.connection
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from workload import RUN_VIA, spec_for  # noqa: E402

from codistill import distrib, optim  # noqa: E402

TIMES: dict[str, list[float]] = defaultdict(list)


def timed(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            TIMES[name].append(time.perf_counter() - t0)

    return wrapper


def instrument() -> None:
    distrib._Stack.step = timed("step", distrib._Stack.step)
    optim.step = timed("update", optim.step)
    make_teacher = distrib._mean_teacher
    distrib._mean_teacher = lambda *a, **k: timed("teacher", make_teacher(*a, **k))
    conn = multiprocessing.connection.Connection
    conn.recv = timed("eval_recv", conn.recv)
    conn.send = timed("eval_send", conn.send)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="baseline",
                    choices=["baseline", "codistill2", "codistill4-lm-file"])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    spec = spec_for(args.workload)
    instrument()
    with tempfile.TemporaryDirectory() as out_dir:
        t0 = time.perf_counter()
        RUN_VIA[spec["via"]](spec, args.seed, out_dir)
        wall = time.perf_counter() - t0
    parts = {name: {"calls": len(ts), "min_us": round(min(ts) * 1e6, 1),
                    "median_us": round(statistics.median(ts) * 1e6, 1),
                    "total_ms": round(sum(ts) * 1e3, 2)}
             for name, ts in sorted(TIMES.items()) if ts}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "wall_s": round(wall, 3), "parts": parts}))


if __name__ == "__main__":
    main()
