"""Per-part timing of the lockstep training step.

    PYTHONPATH=src python3 scripts/step_split.py --workload codistill2 --seed 0

Trains one benchmark workload (its config from ``bench/workload.py``, driven
as the benchmark drives it) with timers wrapped around the parts of a step
and around the training process's pipe traffic with its evaluator:

- ``step``: ``distrib._Stack.step``, one whole stacked step;
- ``batch``: the batch gather, ``distrib._Stack._feed`` (each group's
  ``step_batches``: its W workers' index draws and their rows gathered
  from the source straight into the step's input and label buffers);
- ``pass``: the forward, ``nn.Pass.forward`` (over the teacher rows too,
  in the teacher phase);
- ``teacher``: the teacher mean, ``distrib._teacher_mean``;
- ``loss``: ``distrib.combined_loss``;
- ``gradient``: ``nn.Pass.backward``;
- ``update``: ``optim.step``, the optimizer update;
- ``eval_recv``/``eval_send``: ``Connection.recv``/``send`` in the training
  process, i.e. the wait for an evaluation point's records and the handoff.

and around the checkpoint exchange of a codistillation run, which runs
between steps:

- ``reload``: ``distrib._PeerTeachers.__call__`` on every step, the whole
  teacher source (a reload boundary's publishes, loads and teacher rows);
- ``publish``/``load``: the stores' ``publish``/``load_latest``;
- ``teacher_rows``: ``distrib._Stack.set_teachers``, the copy of the loaded
  checkpoints into the stack's teacher rows.

Only calls made inside a step count towards its parts, so an inline
validation pass (one CPU) adds nothing to ``pass``. Prints one JSON object:
per part its calls, minimum and median in us, and total in ms. Point
``PYTHONPATH`` at another tree's ``src`` to time that tree; it must have
every name above. Run it with one BLAS thread (``OPENBLAS_NUM_THREADS=1``),
as the benchmark does.

It exits nonzero, naming each one, when a part it must time read no call,
so a renamed method cannot leave it printing zeros: ``step``, ``batch``,
``pass``, ``loss``, ``gradient`` and ``update`` on every workload; the
exchange parts and ``teacher`` on the codistillation workloads; and
``eval_recv``/``eval_send`` when the process may use at least 2 CPUs, where
the loop forks its evaluator.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing.connection
import os
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from workload import RUN_VIA, spec_for  # noqa: E402

from codistill import distrib, nn, optim  # noqa: E402

TIMES: dict[str, list[float]] = defaultdict(list)
IN_STEP = [False]

# part -> the (module or class, attribute) it times
PARTS = {
    "batch": (distrib._Stack, "_feed"),
    "pass": (nn.Pass, "forward"),
    "teacher": (distrib, "_teacher_mean"),
    "loss": (distrib, "combined_loss"),
    "gradient": (nn.Pass, "backward"),
    "update": (optim, "step"),
}
# parts timed on every call: the exchange runs between steps
EXCHANGE = {
    "reload": (distrib._PeerTeachers, "__call__"),
    "publish": (distrib._CheckpointStore, "publish"),
    "load": (distrib._CheckpointStore, "load_latest"),
    "teacher_rows": (distrib._Stack, "set_teachers"),
}


# parts every run of a workload calls; the codistillation workloads' too
STEP_PARTS = ("step", "batch", "pass", "loss", "gradient", "update")
CODISTILL_PARTS = ("teacher", *EXCHANGE)


def timed(name: str, fn, in_step: bool = True):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if in_step and not IN_STEP[0]:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            TIMES[name].append(time.perf_counter() - t0)

    return wrapper


def instrument() -> None:
    """Patch the step and each part's name."""
    step = distrib._Stack.step

    @functools.wraps(step)
    def stepping(*args, **kwargs):
        IN_STEP[0] = True
        try:
            return step(*args, **kwargs)
        finally:
            IN_STEP[0] = False

    distrib._Stack.step = timed("step", stepping, in_step=False)
    for parts, in_step in ((PARTS, True), (EXCHANGE, False)):
        for part, (owner, attr) in parts.items():
            setattr(owner, attr, timed(part, getattr(owner, attr), in_step))
    conn = multiprocessing.connection.Connection
    conn.recv = timed("eval_recv", conn.recv, in_step=False)
    conn.send = timed("eval_send", conn.send, in_step=False)


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
    required = STEP_PARTS + (CODISTILL_PARTS if spec["cfg"]["kind"] == "codistill" else ())
    if len(os.sched_getaffinity(0)) >= 2:
        required += ("eval_recv", "eval_send")
    blind = [part for part in required if part not in parts]
    if blind:
        sys.exit(f"step_split: no call timed for {', '.join(blind)}")


if __name__ == "__main__":
    main()
