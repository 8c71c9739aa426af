"""Resident memory of one benchmark run, phase by phase.

    PYTHONPATH=src python3 scripts/rss_split.py --workload codistill2 --seed 0

Trains one benchmark workload (its config from ``bench/workload.py``, driven
as the benchmark drives it) and reads the training process's memory at five
points:

- ``imports``: once numpy, the package and the workload module are imported;
- ``build_env``: when ``experiments.build_env`` returns, i.e. the dataset is
  generated or read, split, and the validation batch built;
- ``shards``: when the last ``ShardPlan.shard`` call returns (absent where one
  model trains on the whole training set);
- ``teacher_phase``: when the first ``distrib._Stack.step`` given a loss spec
  returns, i.e. the first step toward a teacher, which sets a lockstep
  codistillation run's peak (absent where no teacher step runs in this
  process);
- ``train``: when the run returns, its training loop done and outputs written.

At each point it prints the resident set (``rss_mb``, from
``/proc/self/statm``) and the peak so far (``peak_mb``, ``getrusage``'s
``ru_maxrss``, which the benchmark reports as ``peak_rss_mb``), in MiB, and
at the end the largest peak of the forked children (the lockstep evaluator,
concurrent-mode groups). Wrappers around those three functions and around
``distrib._fork`` are all it adds; point ``PYTHONPATH`` at another tree's
``src`` to measure that tree. Run it with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``), as the benchmark does.

It exits nonzero when a phase it must read is missing (``shards`` is
required on the codistillation workloads, and ``teacher_phase`` on those
that train in lockstep, in this process), or when the run forked a process
but no child's peak was read, so a renamed function cannot leave it
printing nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from workload import RUN_VIA, WORKLOADS, spec_for  # noqa: E402

from codistill import data, distrib, experiments  # noqa: E402

PAGE = os.sysconf("SC_PAGE_SIZE")
PHASES: dict[str, dict[str, float]] = {}
FORKS: list[str] = []


def reading() -> dict[str, float]:
    with open("/proc/self/statm") as f:
        resident = int(f.read().split()[1]) * PAGE
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rss_mb": round(resident / 2**20, 2), "peak_mb": round(peak_kb / 1024, 2)}


def read_after(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        PHASES[name] = reading()
        return out

    return wrapper


def read_after_first_teacher_step(step):
    @functools.wraps(step)
    def wrapper(self, spec=None):
        out = step(self, spec)
        if spec is not None and "teacher_phase" not in PHASES:
            PHASES["teacher_phase"] = reading()
        return out

    return wrapper


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="codistill2", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    spec = spec_for(args.workload)
    PHASES["imports"] = reading()
    experiments.build_env = read_after("build_env", experiments.build_env)
    data.ShardPlan.shard = read_after("shards", data.ShardPlan.shard)
    distrib._Stack.step = read_after_first_teacher_step(distrib._Stack.step)
    fork = distrib._fork

    @functools.wraps(fork)
    def counted_fork(name, *args):
        FORKS.append(name)
        return fork(name, *args)

    distrib._fork = counted_fork
    with tempfile.TemporaryDirectory() as out_dir:
        RUN_VIA[spec["via"]](spec, args.seed, out_dir)
        PHASES["train"] = reading()
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"workload": args.workload, "seed": args.seed, "phases": PHASES,
                      "children_peak_mb": round(children_kb / 1024, 2)}))
    required = ["imports", "build_env", "train"]
    if spec["cfg"]["kind"] == "codistill":
        required.append("shards")
        if spec["mode"] == "lockstep":
            required.append("teacher_phase")
    missing = [phase for phase in required if phase not in PHASES]
    if missing:
        sys.exit(f"rss_split: phase {', '.join(missing)} not read")
    if FORKS and children_kb == 0:
        sys.exit(f"rss_split: forked {len(FORKS)} processes but read no child's peak")


if __name__ == "__main__":
    main()
