"""Benchmark command for the codistill package.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Every repetition trains the workload once in a
fresh process (``workload.py``) with one BLAS/OpenMP thread, so set-up time and
peak memory belong to that repetition alone. With ``--trace 0`` the command
reports the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer metrics,
including the tracing overhead. Either way it first re-runs the workload's
short fixed-seed golden configuration and compares its output hashes with
golden.json (lockstep workloads). Timings are reported scaled by a reference
kernel timed around each repetition, because the host's speed drifts (see
REFERENCE_S below).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results, with machine
information, are also written to ``.bench_out/results/``.

``--write-golden`` re-records golden.json; do that only for a change that is
meant to alter training outputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SEED = 0
RUN_LIMIT_S = 170.0  # the whole command must end within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from workload import SRC, WORKLOADS, reference_s, spec_for  # noqa: E402

# The host's speed drifts by tens of percent within a minute on a shared
# machine, which swamps run-to-run comparisons of wall-clock timings. A fixed
# reference kernel is therefore timed just before each repetition (here) and
# just after its training (in the repetition's process), and the
# repetition's timings are reported scaled to a machine on which that kernel
# takes REFERENCE_S. The unscaled wall-clock values stay in the results file.
REFERENCE_S = 0.09
SCALED = {"samples_per_s": -1, "time_to_target_s": 1, "setup_s": 1}  # power of the slowdown

# How one run folds its repetitions into a reported value. Throughput is
# all samples over all training time (the harmonic mean: every repetition
# trains the same number of samples), which moves smoothly when the machine's
# speed drifts during a run where a median jumps. The metrics that depend on
# the training seed take the mean over the run's training seeds, each seed
# counted once however often it ran. The rest take the median.
RUN_TOTAL = ("samples_per_s",)
SEED_MEAN = ("time_to_target_s", "steps_to_target", "final_val_loss")


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "thread_env": dict(THREAD_ENV),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


class Runner:
    """Spawns repetitions for one benchmark invocation and keeps them."""

    def __init__(self, workload: str, work_dir: Path, started: float, tiny: bool):
        self.workload = workload
        self.work_dir = work_dir
        self.started = started
        self.tiny = tiny
        self.reps: list[dict] = []

    def rep(self, seed: int, trace: bool, variant: str | None = None) -> dict:
        out_dir = self.work_dir / f"rep{len(self.reps)}-s{seed}{'-traced' if trace else ''}"
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        reference_before = reference_s()
        args = {"workload": self.workload, "seed": seed, "trace": int(trace),
                "variant": variant or ("tiny" if self.tiny else None),
                "out_dir": str(out_dir), "spawn_t": time.monotonic()}
        try:
            proc = subprocess.run([sys.executable, str(HERE / "workload.py"), json.dumps(args)],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            result = {"ok": False, "errors": [f"repetition exceeded {timeout:.0f} s"]}
        else:
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"ok": False,
                          "errors": [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
        result.update({"seed": seed, "traced": trace, "variant": args["variant"]})
        if result["ok"]:
            scale(result, reference_before)
        self.reps.append(result)
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def scale(rep: dict, reference_before: float) -> None:
    """Put the repetition's timings on the reference machine's scale."""
    rep["reference_s"] = (reference_before + rep["reference_s"]) / 2
    slowdown = rep["reference_s"] / REFERENCE_S
    rep["wall_clock"] = {name: rep["metrics"][name] for name in SCALED}
    for name, power in SCALED.items():
        rep["metrics"][name] /= slowdown ** power


def fail(rep: dict, message: str) -> None:
    rep["ok"] = False
    rep.setdefault("errors", []).append(message)


def golden_check(runner: Runner, golden: dict) -> None:
    expected = golden.get(runner.workload, {})
    rep = runner.rep(GOLDEN_SEED, False, "golden")
    for key in ("metrics_sha256", "summary_sha256"):
        if rep["ok"] and rep[key] != expected.get(key):
            fail(rep, f"golden {key} {rep[key]} != committed {expected.get(key)}")


def timed_reps(runner: Runner, sub_seeds: list[int], seconds: float, lockstep: bool) -> None:
    """Whole cycles over the training seeds until the next would overrun."""
    first_hash: dict[int, str] = {}
    cycles = 0
    while True:
        for s in sub_seeds:
            rep = runner.rep(s, False)
            if lockstep and rep["ok"]:
                if first_hash.setdefault(s, rep["metrics_sha256"]) != rep["metrics_sha256"]:
                    fail(rep, f"seed {s} repeated with different outputs")
        cycles += 1
        if runner.elapsed() * (cycles + 1) / cycles > seconds:
            return


def traced_reps(runner: Runner, sub_seeds: list[int], seconds: float, lockstep: bool) -> None:
    """Pairs of an untraced and a traced repetition on the same seed."""
    for i, s in enumerate(itertools.cycle(sub_seeds)):
        plain = runner.rep(s, False)
        traced = runner.rep(s, True)
        if traced["ok"]:
            for thread, self_s in traced["thread_self_s"].items():
                if self_s > traced["wall_s"]:
                    fail(traced, f"span self time {self_s} s on {thread} exceeds the "
                                 f"repetition's wall time {traced['wall_s']} s")
        if plain["ok"] and traced["ok"]:
            traced["overhead_pct"] = 100.0 * (traced["train_s"] / plain["train_s"] - 1.0)
            if lockstep and plain["metrics_sha256"] != traced["metrics_sha256"]:
                fail(traced, "tracing changed the training outputs")
        if runner.elapsed() * (i + 2) / (i + 1) > seconds:
            return


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "min": values[0], "max": values[-1]}


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    """Reported value and spread of each end-to-end metric over repetitions."""
    values, spread = {}, {}
    for name in reps[0]["metrics"]:
        samples = [r["metrics"][name] for r in reps]
        spread[name] = quartiles(samples)
        if name in RUN_TOTAL:
            values[name] = statistics.harmonic_mean(samples)
        elif name in SEED_MEAN:
            by_seed: dict[int, list[float]] = {}
            for r in reps:
                by_seed.setdefault(r["seed"], []).append(r["metrics"][name])
            values[name] = statistics.fmean(statistics.fmean(v) for v in by_seed.values())
        else:
            values[name] = spread[name]["median"]
    return values, spread


def per_layer(traced: list[dict]) -> tuple[dict, dict]:
    """Mean of each per-layer metric over the traced repetitions, plus the
    median tracing overhead against the untraced repetition of each pair."""
    values = {name: statistics.fmean(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    overhead = [r["overhead_pct"] for r in traced if "overhead_pct" in r]
    spread = {"trace.overhead_pct": quartiles(overhead)} if overhead else {}
    if overhead:
        values["trace.overhead_pct"] = spread["trace.overhead_pct"]["median"]
    values["trace.spans"] = statistics.fmean(r["spans_written"] for r in traced)
    return values, spread


def write_golden() -> int:
    golden = {}
    for name, spec in WORKLOADS.items():
        if spec["mode"] != "lockstep":
            continue
        runner = Runner(name, OUT / name / "golden", time.monotonic(), tiny=False)
        rep = runner.rep(GOLDEN_SEED, False, "golden")
        if not rep["ok"]:
            print(f"{name}: golden run failed: {rep['errors']}", file=sys.stderr)
            return 1
        settings = spec_for(name, "golden")
        golden[name] = {"seed": GOLDEN_SEED, "target_loss": settings["target"],
                        "settings": settings["cfg"], "corpus_chars": settings.get("corpus_chars"),
                        "metrics_sha256": rep["metrics_sha256"],
                        "summary_sha256": rep["summary_sha256"]}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunk workloads, for the smoke tests")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "codistill" / "__init__.py").is_file():
        print(f"error: the codistill sources are missing under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # for the repetitions, and here before numpy loads
    if args.write_golden:
        return write_golden()
    if args.workload is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    started = time.monotonic()
    machine = machine_info()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = spec_for(args.workload, "tiny" if args.tiny else None)
    lockstep = spec["mode"] == "lockstep"
    label = f"seed{args.seed}.trace{args.trace}{'.tiny' if args.tiny else ''}"
    work_dir = OUT / args.workload / label
    shutil.rmtree(work_dir, ignore_errors=True)
    runner = Runner(args.workload, work_dir, started, args.tiny)

    if lockstep:
        golden_check(runner, json.loads(GOLDEN_PATH.read_text(encoding="utf-8")))
    sub_seeds = [1000 * args.seed + k for k in range(spec["sub_seeds"])]
    if args.trace:
        traced_reps(runner, sub_seeds, args.seconds, lockstep)
    else:
        timed_reps(runner, sub_seeds, args.seconds, lockstep)

    measured = [r for r in runner.reps if r["variant"] != "golden"]
    ok_plain = [r for r in measured if r["ok"] and not r["traced"]]
    ok_traced = [r for r in measured if r["ok"] and r["traced"]]
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    values, spread = {}, {}
    if args.trace and ok_traced:
        values, spread = per_layer(ok_traced)
    elif not args.trace and ok_plain:
        values, spread = end_to_end(ok_plain)
    failed = sum(1 for r in runner.reps if not r["ok"])
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    correct = failed == 0 and not missing
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values.get(m["name"]) is not None}

    for name, entry in metrics.items():
        s = spread.get(name)
        extra = (f"  (over {s['n']} repetitions: median {s['median']:.6g}, "
                 f"quartiles {s['q1']:.6g}..{s['q3']:.6g})" if s else "")
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}{extra}")
    for r in runner.reps:
        for err in r.get("errors", []):
            print(f"FAILED seed {r['seed']} ({r['variant'] or 'timed'}): {err}", file=sys.stderr)
    if missing:
        print(f"not measured: {', '.join(missing)}", file=sys.stderr)
    speeds = [REFERENCE_S / r["reference_s"] for r in measured if r["ok"]]
    if speeds:
        print(f"{args.workload} machine speed = {statistics.median(speeds):.3g} x reference "
              "(timings are scaled to the reference; wall-clock values are in the results)")
    print(f"{args.workload} error_rate = {failed}/{len(runner.reps)} repetitions failed")

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    numpy_info = next(({"numpy": r["numpy"], "blas": r["blas"]} for r in runner.reps
                       if "numpy" in r), {})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "machine": {**machine, **numpy_info},
              "elapsed_s": runner.elapsed(), "correct": correct, "attempted": len(runner.reps),
              "failed": failed, "error_rate": failed / len(runner.reps),
              "metrics": metrics, "spread": spread,
              "repetitions": runner.reps}
    (results_dir / f"{args.workload}.{label}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": len(runner.reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
