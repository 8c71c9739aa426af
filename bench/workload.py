"""The benchmark's workloads, and one repetition of one of them.

A repetition trains one workload once, in a fresh process, and prints one
JSON line with its measurements and checks. ``run.py`` spawns it as

    python3 bench/workload.py '{"workload": "baseline", "seed": 0, ...}'

and that is the only supported way to call it: the timings it reports assume
the process did nothing else first.

The package is driven only through public entry points
(``experiments.resolve``/``build_env``/``run``, ``distrib.codistill_train``
and the two checkpoint stores).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The desk classification task and optimizer of configs/codistill.cfg.
DESK = {
    "data.kind": "classification", "data.seed": 7, "data.n": 50000, "data.dim": 32,
    "data.classes": 10, "data.difficulty": 0.5, "model.hidden": [64, 32],
    "group.n_workers": 1, "group.batch": 32, "opt.kind": "adagrad", "opt.lr": 0.1,
}
CODISTILL = {
    "kind": "codistill", "loss.distill": "soft_cross_entropy", "loss.distill_weight": 1.0,
    "codistill.data_mode": "disjoint",
}

# Each workload: the config it trains, how it is driven, the validation loss
# that defines steps_to_target/time_to_target_s, how many training seeds one
# benchmark run averages over, and the short fixed-seed run whose output
# hashes are committed in golden.json (lockstep workloads only). ``tiny``
# overrides shrink a workload for the smoke tests. Why each workload exists
# and which layers it should show are in BENCHMARK.json and README.md.
WORKLOADS = {
    "baseline": {
        "via": "experiments", "mode": "lockstep",
        "cfg": {**DESK, "kind": "baseline", "steps": 1000, "eval_every": 25},
        "target": 1.50, "sub_seeds": 22, "golden": {"steps": 300, "target": 1.7},
        "tiny": {"steps": 40, "eval_every": 10, "target": 3.0, "sub_seeds": 1},
    },
    "codistill2": {
        "via": "experiments", "mode": "lockstep",
        "cfg": {**DESK, **CODISTILL, "steps": 1000, "eval_every": 25, "codistill.n_models": 2,
                "codistill.burn_in": 400, "codistill.reload_interval": 50},
        "target": 1.45, "sub_seeds": 11, "golden": {"steps": 500, "target": 1.6},
        "tiny": {"steps": 60, "eval_every": 10, "codistill.burn_in": 20,
                 "codistill.reload_interval": 10, "target": 3.0, "sub_seeds": 1},
    },
    "codistill4-lm-file": {
        "via": "lm_file", "mode": "lockstep", "corpus_chars": 100000,
        "cfg": {**CODISTILL, "data.kind": "lm", "data.window": 8, "model.embedding_dim": 16,
                "model.hidden": [64, 32], "group.n_workers": 2, "group.batch": 32,
                "opt.kind": "adagrad", "opt.lr": 0.1, "data.val_fraction": 0.03,
                "steps": 150, "eval_every": 10, "codistill.n_models": 4,
                "codistill.burn_in": 50, "codistill.reload_interval": 5},
        "target": 1.55, "sub_seeds": 14, "golden": {"steps": 60, "target": 2.2},
        "tiny": {"steps": 20, "eval_every": 5, "codistill.burn_in": 5, "corpus_chars": 5000,
                 "target": 3.2, "sub_seeds": 1},
    },
    "concurrent2-file": {
        "via": "experiments", "mode": "concurrent",
        "cfg": {**DESK, **CODISTILL, "steps": 1000, "eval_every": 25, "codistill.n_models": 2,
                "codistill.burn_in": 400, "codistill.reload_interval": 10},
        "target": 1.45, "sub_seeds": 10, "band": [1.30, 1.45],
        "tiny": {"steps": 60, "eval_every": 10, "codistill.burn_in": 20, "target": 3.0,
                 "band": [0.0, 3.0], "sub_seeds": 1},
    },
}

SPEC_KEYS = ("target", "sub_seeds", "band", "corpus_chars")
REFERENCE_ITERS = 9000


def spec_for(name: str, variant: str | None = None) -> dict:
    """The workload's settings, with the ``tiny`` or ``golden`` overrides
    applied when ``variant`` names them."""
    spec = WORKLOADS[name]
    out = {k: v for k, v in spec.items() if k not in ("cfg", "tiny", "golden")}
    cfg = dict(spec["cfg"])
    for key, value in (spec[variant] if variant else {}).items():
        if key in SPEC_KEYS:
            out[key] = value
        else:
            cfg[key] = value
    out["cfg"] = cfg
    return out


def sha256_metrics_csv(path) -> str:
    """Hash of metrics.csv with the wall_seconds column dropped."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("wall_seconds")
    kept = [",".join(c for i, c in enumerate(line.split(",")) if i != col) for line in lines]
    return hashlib.sha256(("\n".join(kept) + "\n").encode()).hexdigest()


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _drive_experiments(spec, seed, out_dir):
    """The workload through ``experiments.run``: it writes metrics.csv and
    summary.json, exactly as the ``codistill run`` command does."""
    from codistill import experiments

    cfg = dict(spec["cfg"], seeds=[seed], target_loss=spec["target"])
    summary = experiments.run(cfg, out_dir, mode=spec["mode"])
    records = experiments.read_metrics_csv(Path(out_dir) / "metrics.csv")
    return records, summary["comm"][str(seed)]


def _drive_lm_file(spec, seed, out_dir):
    """Lockstep codistillation on a generated corpus with a file-backed store.

    ``experiments.run`` pairs lockstep with the in-memory store, so this
    workload assembles the run from the public pieces instead and writes the
    same metrics.csv plus a summary.json of the communication report.
    """
    from codistill import data, distrib, experiments, nn
    from codistill.losses import CombinedLossSpec
    from codistill.optim import OptimizerConfig

    from corpus import synthetic_corpus

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus = out / "corpus.txt"
    corpus.write_text(synthetic_corpus(seed, spec["corpus_chars"]), encoding="utf-8")
    res = experiments.resolve(dict(spec["cfg"], seeds=[seed], **{"data.corpus": str(corpus)}))
    env = experiments.build_env(res)
    n = res["codistill.n_models"]
    plan = data.make_shards(env.train, res["codistill.data_mode"], n, seed)
    shards = [plan.shard(env.train, i) for i in range(n)]
    opt = OptimizerConfig(res["opt.kind"], res["opt.lr"], res["opt.beta1"], res["opt.beta2"],
                          res["opt.eps"], res["opt.adagrad_eps"])
    groups = [distrib.GroupConfig(res["group.n_workers"], res["group.batch"], opt,
                                  CombinedLossSpec(), 1000 * seed + i) for i in range(n)]
    ccfg = distrib.CodistillConfig(n_models=n, n_burn_in=res["codistill.burn_in"],
                                   reload_interval=res["codistill.reload_interval"],
                                   distill=res["loss.distill"],
                                   distill_weight=res["loss.distill_weight"],
                                   data_mode=res["codistill.data_mode"])
    ledger = distrib.CommLedger()
    store = distrib.FileCheckpointStore(out / "ckpt", env.arch, ledger)
    result = distrib.codistill_train(env.arch, ccfg, groups, shards, res["steps"], store,
                                     env.val, res["eval_every"], ledger=ledger,
                                     run_id_prefix=f"lm.s{seed}.m")
    comm = distrib.comm_report(ledger, nn.param_count(env.arch), res["steps"], groups[0],
                               ccfg).as_dict()
    experiments.write_metrics_csv(out / "metrics.csv", result.records)
    summary = {"comm": comm, "max_teacher_lag": result.max_teacher_lag}
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return result.records, comm


RUN_VIA = {"experiments": _drive_experiments, "lm_file": _drive_lm_file}


def _check_records(records, cfg, n_models) -> list[str]:
    """Every model has a record at step 0, each eval point and the last step."""
    steps, every = cfg["steps"], cfg["eval_every"]
    expected = sorted({0, steps, *range(every, steps + 1, every)})
    by_run: dict[str, list[int]] = {}
    for r in records:
        by_run.setdefault(r.run_id, []).append(r.step)
    problems = []
    if len(by_run) != n_models:
        problems.append(f"expected {n_models} runs in the records, found {len(by_run)}")
    for run_id, got in by_run.items():
        if sorted(got) != expected:
            problems.append(f"{run_id}: records at steps {sorted(got)[:5]}..., expected {expected[:5]}...")
    return problems


def _check_comm(comm) -> list[str]:
    problems = []
    for kind in ("sync", "checkpoint"):
        exp, act = comm[f"expected_{kind}_total"], comm[f"actual_{kind}_total"]
        if exp != act:
            problems.append(f"ledger {kind} bytes {act} differ from the closed form {exp}")
    return problems


def per_layer(tracer, train_s: float):
    """The per-layer metrics of one traced repetition, by name, and each
    thread's summed span self time."""
    summ = tracer.summary()
    spans = summ["spans"]
    out = {}

    def get(name):
        return spans.get(name, {"calls": 0, "failed": 0, "bytes": 0, "total": 0.0, "self": 0.0})

    def per_call(name, key):
        s = get(name)
        return 1e6 * s[key] / s["calls"] if s["calls"] else 0.0

    for name in ("data.next_batch", "nn.forward", "nn.backward", "nn.params_new",
                 "losses.combined_loss", "optim.step", "distrib.step", "distrib.teacher",
                 "distrib.publish", "distrib.load", "nn.serialize", "nn.deserialize",
                 "metrics.evaluate"):
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.us"] = per_call(name, "total")
    for name in ("nn.backward", "nn.deserialize", "distrib.step", "distrib.teacher",
                 "distrib.publish", "distrib.load"):
        out[f"{name}.self_us"] = per_call(name, "self")
    for name in ("distrib.publish", "distrib.load"):
        out[f"{name}.bytes"] = get(name)["bytes"]
        out[f"{name}.failed"] = get(name)["failed"]
    teacher_calls = get("distrib.teacher")["calls"]
    out["distrib.teacher.forwards_per_call"] = (summ["teacher_forwards"] / teacher_calls
                                                if teacher_calls else 0.0)
    out["distrib.stall_share"] = (get("distrib.publish")["total"]
                                  + get("distrib.load")["total"]) / train_s
    out["metrics.eval_share"] = get("metrics.evaluate")["total"] / train_s
    out["experiments.build_env.s"] = get("experiments.build_env")["total"]
    return out, summ["thread_self_s"]


def reference_s() -> float:
    """Duration of a fixed reference kernel on this machine, now: the same
    kind of work as a training step (small float64 matmuls driven from
    Python), so it tracks how fast the host runs the workloads."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((32, 64)), rng.random((64, 32))
    t0 = time.monotonic()
    for _ in range(REFERENCE_ITERS):
        np.maximum(a @ b, 0.0).sum()
    return time.monotonic() - t0


def run_repetition(args: dict) -> dict:
    """Train the workload once and return its measurements and checks."""
    spawn_t = args["spawn_t"]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from tracer import TRAIN, Tracer, clock, instrument

    import numpy as np

    spec = spec_for(args["workload"], args.get("variant"))
    cfg = spec["cfg"]
    out_dir = Path(args["out_dir"])
    tracer = Tracer()
    instrument(tracer, full=bool(args["trace"]))
    start = clock()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {"ok": False, "errors": [], "numpy": np.__version__,
              "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}
    try:
        records, comm = RUN_VIA[spec["via"]](spec, args["seed"], out_dir)
    except Exception as err:  # DivergenceError, SerializationError, ...: a failed repetition
        result["errors"].append(f"{type(err).__name__}: {err}")
        result["traceback"] = traceback.format_exc()
        return result
    end = clock()
    train = tracer.spans(TRAIN)
    if len(train) != 1:
        result["errors"].append(f"expected one training-loop call, saw {len(train)}")
        return result
    train_t0, train_t1 = train[0][1], train[0][2]
    train_s = train_t1 - train_t0
    n_models = cfg["codistill.n_models"] if cfg["kind"] == "codistill" else 1
    errors = _check_records(records, cfg, n_models) + _check_comm(comm)

    first = next((r for r in sorted(records, key=lambda r: r.wall_seconds)
                  if r.validation_loss <= spec["target"]), None)
    if first is None:
        errors.append(f"no record reached the target validation loss {spec['target']}")
    finals = [r.validation_loss for r in records if r.step == cfg["steps"]]
    final_val_loss = float(np.mean(finals)) if finals else None
    band = spec.get("band")
    if band and final_val_loss is not None and not band[0] <= final_val_loss <= band[1]:
        errors.append(f"final_val_loss {final_val_loss} outside the band {band}")

    steps = cfg["steps"]
    samples = n_models * cfg["group.n_workers"] * cfg["group.batch"] * steps
    sync = comm["actual_sync_total"] / steps
    ckpt = comm["actual_checkpoint_total"] / steps
    result.update({
        "ok": not errors,
        "errors": errors,
        "train_s": train_s,
        "wall_s": end - start,
        "metrics": {
            "samples_per_s": samples / train_s,
            "time_to_target_s": first.wall_seconds if first else None,
            "steps_to_target": first.step if first else None,
            "final_val_loss": final_val_loss,
            "sync_bytes_per_step": sync,
            "comm_bytes_per_step": sync + ckpt,
            "setup_s": train_t0 - spawn_t,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "reference_s": reference_s(),
        "metrics_sha256": sha256_metrics_csv(out_dir / "metrics.csv"),
        "summary_sha256": _sha256_file(out_dir / "summary.json"),
    })
    if args["trace"]:
        layers, thread_self = per_layer(tracer, train_s)
        layers["distrib.ckpt_bytes_per_step"] = ckpt
        result["layers"] = layers
        result["thread_self_s"] = thread_self
        result["spans_written"] = tracer.write(out_dir / "spans.jsonl")
    return result


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: workload.py '<json arguments>' (spawned by run.py)", file=sys.stderr)
        return 2
    print(json.dumps(run_repetition(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
