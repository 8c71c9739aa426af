"""Experiment configuration, runner, and sweep machinery.

Configs are flat dotted-key text files (``group.n_workers=4``), chosen over
nested formats for diff-friendliness and unambiguous parsing. Every run
writes three files into its output directory:

  metrics.csv      one metric record per row, fixed column order
  summary.json     final/best losses, steps-to-target, communication report,
                   churn reports where applicable, dataset provenance
  config.resolved  the full configuration including defaults; feeding it back
                   to ``run`` reproduces the same outputs

In lockstep mode identical config + seeds produce byte-identical metrics.csv
(apart from the wall_seconds column, which is recorded but never asserted on)
and byte-identical summary.json.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (SHARD_MODES, _read_corpus, _validation_size, check_classification,
                   check_split, gen_classification, ingest_text, make_shards, split_train_val,
                   unigram)
from .distrib import (MAX_GROUP_PROCESSES, CodistillConfig, CommLedger, DivergenceError,
                      FileCheckpointStore, GroupConfig, GroupRunner, InMemoryCheckpointStore,
                      _StaticTeachers, _train_loop, codistill_train,
                      codistill_train_concurrent, comm_report, offline_distill, train_baseline)
from .losses import DISTILL_KINDS, CombinedLossSpec
from .metrics import (CSV_COLUMNS, MetricRecord, churn_experiment, ensemble_predict,
                      format_cell, format_row, parse_row, probs_nll, steps_to_target)
from .nn import Architecture, Batch, param_count
from .optim import OPTIMIZER_KINDS, OptimizerConfig

EXPERIMENT_KINDS = ("baseline", "codistill", "same_data_ablation", "smoothing_baseline",
                    "ensemble_baseline", "offline_distill", "churn")

# kinds that run codistillation and so read the codistill.* keys
_CODISTILL_KINDS = ("codistill", "same_data_ablation", "churn")

MODES = ("lockstep", "concurrent")


class ConfigError(ValueError):
    """Config parse/validation failure; the message names the offending key."""


# key -> (type tag, default). None defaults mean "optional, omitted when unset".
SCHEMA = {
    "kind": ("str", None),
    "seeds": ("int_list", [0, 1, 2, 3, 4]),
    "steps": ("int", 4000),
    "eval_every": ("int", 100),
    "target_loss": ("float", None),
    "data.kind": ("str", "classification"),
    "data.seed": ("int", 7),
    "data.n": ("int", 50000),
    "data.dim": ("int", 32),
    "data.classes": ("int", 10),
    "data.difficulty": ("float", 0.5),
    "data.val_fraction": ("float", 0.1),
    "data.corpus": ("str", None),
    "data.window": ("int", 8),
    "model.hidden": ("int_list", [64, 32]),
    "model.embedding_dim": ("int", 16),
    "group.n_workers": ("int", 1),
    "group.batch": ("int", 32),
    "opt.kind": ("str", "adagrad"),
    "opt.lr": ("float", 0.1),
    "opt.beta1": ("float", 0.9),
    "opt.beta2": ("float", 0.999),
    "opt.eps": ("float", 1e-8),
    "opt.adagrad_eps": ("float", 1e-10),
    "loss.distill": ("str", "soft_cross_entropy"),
    "loss.distill_weight": ("float", 1.0),
    "loss.smoothing": ("str", "uniform"),
    "loss.smoothing_weight": ("float", 0.1),
    "codistill.n_models": ("int", 2),
    "codistill.burn_in": ("int", 400),
    "codistill.reload_interval": ("int", 50),
    "codistill.data_mode": ("str", "disjoint"),
    "codistill.float32_payload": ("bool", False),
    "offline.phase1_steps": ("int", 2000),
    "offline.phase2_steps": ("int", 2000),
    "churn.repeats": ("int", 5),
}

_ENUMS = {
    "kind": EXPERIMENT_KINDS,
    "data.kind": ("classification", "lm"),
    "opt.kind": OPTIMIZER_KINDS,
    "loss.distill": DISTILL_KINDS,
    "loss.smoothing": ("uniform", "unigram"),
    "codistill.data_mode": SHARD_MODES,
}


def _parse_value(key: str, raw: str):
    typ = SCHEMA[key][0]
    raw = raw.strip()
    try:
        if typ == "int":
            return int(raw)
        if typ == "float":
            return float(raw)
        if typ == "bool":
            if raw not in ("true", "false"):
                raise ValueError
            return raw == "true"
        if typ == "int_list":
            return [int(v) for v in raw.split(",") if v.strip() != ""]
        return raw
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {typ}") from None


def parse_config_text(text: str) -> dict:
    """Parse ``key=value`` lines; ``#`` starts a comment."""
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        cfg[key] = _parse_value(key, raw)
    return cfg


def parse_config_file(path) -> dict:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def resolve(cfg: dict, mode: str = "lockstep") -> dict:
    """Fill defaults and validate for a run in ``mode``; returns the complete
    key->value mapping."""
    if mode not in MODES:
        raise ConfigError(f"mode: unknown mode {mode!r}")
    for key in cfg:
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
    res = {key: cfg.get(key, default) for key, (_, default) in SCHEMA.items()}
    if res["kind"] is None:
        raise ConfigError("kind: experiment kind is required")
    for key, allowed in _ENUMS.items():
        if res[key] is not None and res[key] not in allowed:
            raise ConfigError(f"{key}: unknown value {res[key]!r} (expected one of {allowed})")
    if mode == "concurrent" and res["kind"] not in _CODISTILL_KINDS:
        raise ConfigError(f"mode: kind {res['kind']} trains in lockstep only")
    if not res["seeds"]:
        raise ConfigError("seeds: must be non-empty")
    if any(s < 0 for s in res["seeds"]):
        raise ConfigError("seeds: must be non-negative")
    if len(set(res["seeds"])) != len(res["seeds"]):
        raise ConfigError("seeds: must be distinct")
    if res["data.kind"] == "lm" and not res["data.corpus"]:
        raise ConfigError("data.corpus: required for lm datasets")
    for key, least in (("steps", 0), ("eval_every", 1), ("data.seed", 0),
                       ("offline.phase1_steps", 0), ("offline.phase2_steps", 0),
                       ("churn.repeats", 2), ("loss.distill_weight", 0),
                       ("loss.smoothing_weight", 0)):
        if not least <= res[key] < np.inf:  # a NaN weight too
            raise ConfigError(f"{key}: must be finite and at least {least}")
    try:
        if res["data.kind"] == "classification":
            check_classification(res["data.n"], res["data.dim"], res["data.classes"],
                                 res["data.difficulty"])
        check_split(res["data.val_fraction"])
        _architecture(res, n_classes=1)  # an lm's vocabulary is known once its corpus is read
        _group(res, res["seeds"][0])
        if res["kind"] in _CODISTILL_KINDS:
            _codistill_cfg(res)
    except ValueError as err:
        raise ConfigError(f"{_FIELD_KEYS[str(err).split()[0]]}: {err}") from None
    if res["kind"] == "churn" and len(res["seeds"]) > 1:
        raise ConfigError("seeds: kind churn takes one seed; its retrains use seeds[0] onward")
    if res["kind"] in ("ensemble_baseline", "offline_distill") and res["codistill.n_models"] < 1:
        raise ConfigError("codistill.n_models: must be at least 1")
    if mode == "concurrent" and res["codistill.n_models"] > MAX_GROUP_PROCESSES:
        raise ConfigError(f"codistill.n_models: concurrent mode runs one process per "
                          f"model, at most {MAX_GROUP_PROCESSES}")
    n = res["data.n"]
    if res["data.kind"] == "lm":  # one example per corpus character after the first window
        try:
            n = len(_read_corpus(res["data.corpus"], res["data.window"])) - res["data.window"]
        except (OSError, ValueError) as err:
            raise ConfigError(f"data.corpus: {err}") from None
    _check_batch(res, n - _validation_size(n, res["data.val_fraction"]))
    return res


def format_resolved(res: dict) -> str:
    lines = []
    for key in sorted(res):
        value = res[key]
        if value is None:
            continue
        typ = SCHEMA[key][0]
        if typ == "bool":
            text = "true" if value else "false"
        elif typ == "int_list":
            text = ",".join(str(v) for v in value)
        elif typ == "float":
            text = repr(float(value))
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"


@dataclass
class Env:
    """Resolved dataset, architecture, and split shared by one experiment.

    ``val`` is the validation view's ``Dataset.as_batch``: its inputs are
    gathered in the process that first reads them, the one that validates.
    """

    res: dict
    arch: Architecture
    train: object
    val: Batch
    provenance: dict


def _architecture(res: dict, n_classes: int) -> Architecture:
    if res["data.kind"] == "lm":
        return Architecture(res["data.window"] * res["model.embedding_dim"],
                            tuple(res["model.hidden"]), n_classes,
                            task="lm_fixed_context", context_window=res["data.window"],
                            vocab_size=n_classes, embedding_dim=res["model.embedding_dim"])
    return Architecture(res["data.dim"], tuple(res["model.hidden"]), res["data.classes"])


def _check_batch(res: dict, n_train: int) -> None:
    """A worker's batch must fit in the smallest shard a group trains on; the
    kinds that split the training set split it ``codistill.n_models`` ways."""
    split = res["kind"] == "same_data_ablation" or (
        res["kind"] in (*_CODISTILL_KINDS, "offline_distill")
        and res["codistill.data_mode"] == "disjoint")
    smallest = n_train // res["codistill.n_models"] if split else n_train
    if res["group.batch"] > smallest:
        raise ConfigError(f"group.batch: {res['group.batch']} is more than the {smallest} "
                          f"training examples of the smallest shard")


def build_env(res: dict) -> Env:
    if res["data.kind"] == "lm":
        ds = ingest_text(res["data.corpus"], res["data.window"])
    else:
        ds = gen_classification(res["data.seed"], res["data.n"], res["data.dim"],
                                res["data.classes"], res["data.difficulty"])
    train, val = split_train_val(ds, res["data.val_fraction"], res["data.seed"])
    return Env(res, _architecture(res, ds.n_classes), train, val.as_batch(),
               dict(ds.provenance))


def group_seed(seed: int, model_index: int) -> int:
    """Model i of any experiment derives its group seed the same way, so a
    codistilled replica 0 and a baseline with the same seed match exactly."""
    return 1000 * seed + model_index


def _optimizer(res: dict) -> OptimizerConfig:
    return OptimizerConfig(**{field: res[key] for field, key in _OPTIMIZER_KEYS.items()})


def _smoothing_teachers(kind: str, train, weight: float):
    """Label smoothing as distillation from a constant teacher (Yuan et al.,
    CVPR 2020): soft cross entropy toward the uniform distribution, or the
    training labels' unigram distribution, for every example."""
    target = (unigram(train) if kind == "unigram"
              else np.full(train.n_classes, 1.0 / train.n_classes))
    return _StaticTeachers(target, "soft_cross_entropy", weight)


def _group(res: dict, seed: int, model_index: int = 0) -> GroupConfig:
    return GroupConfig(res["group.n_workers"], res["group.batch"], _optimizer(res),
                       CombinedLossSpec(), group_seed(seed, model_index))


# Dataclass field or data-check parameter -> the config key it is read from.
# Each check's ValueError names it first, which resolve() turns into the key.
_OPTIMIZER_KEYS = {"kind": "opt.kind", "learning_rate": "opt.lr", "beta1": "opt.beta1",
                   "beta2": "opt.beta2", "eps": "opt.eps", "adagrad_eps": "opt.adagrad_eps"}
_CODISTILL_KEYS = {"n_models": "codistill.n_models", "n_burn_in": "codistill.burn_in",
                   "reload_interval": "codistill.reload_interval", "distill": "loss.distill",
                   "distill_weight": "loss.distill_weight",
                   "data_mode": "codistill.data_mode",
                   "float32_payload": "codistill.float32_payload"}
_FIELD_KEYS = {**_OPTIMIZER_KEYS, **_CODISTILL_KEYS,
               "n_workers": "group.n_workers", "batch_size": "group.batch",
               "input_dim": "data.dim", "output_dim": "data.classes",
               "hidden_dims": "model.hidden", "context_window": "data.window",
               "embedding_dim": "model.embedding_dim", "n_examples": "data.n",
               "n_classes": "data.classes", "difficulty": "data.difficulty",
               "val_fraction": "data.val_fraction"}


def _codistill_cfg(res: dict) -> CodistillConfig:
    return CodistillConfig(**{field: res[key] for field, key in _CODISTILL_KEYS.items()})


def _run_codistill_once(env: Env, seed: int, run_prefix: str, mode: str, out_dir,
                        shards=None):
    """One codistillation run: shard plan, N groups, shared store and ledger."""
    res = env.res
    cfg = _codistill_cfg(res)
    if shards is None:
        plan = make_shards(env.train, cfg.data_mode, cfg.n_models, seed)
        shards = [plan.shard(env.train, i) for i in range(cfg.n_models)]
    groups = [_group(res, seed, i) for i in range(cfg.n_models)]
    ledger = CommLedger()
    if mode == "concurrent":
        store = FileCheckpointStore(Path(out_dir) / f"ckpt.s{seed}", env.arch, ledger)
        result = codistill_train_concurrent(env.arch, cfg, groups, shards, res["steps"],
                                            store, env.val, res["eval_every"],
                                            ledger=ledger, run_id_prefix=run_prefix)
    else:
        store = InMemoryCheckpointStore(env.arch, ledger)
        result = codistill_train(env.arch, cfg, groups, shards, res["steps"], store,
                                 env.val, res["eval_every"], ledger=ledger,
                                 run_id_prefix=run_prefix)
    report = comm_report(ledger, param_count(env.arch), res["steps"], groups[0], cfg)
    return result, report


def _summarize_runs(records, target_loss):
    """Per-run final/best statistics from the record stream."""
    by_run: dict[str, list[MetricRecord]] = {}
    for r in records:
        by_run.setdefault(r.run_id, []).append(r)
    out = {}
    for run_id, recs in by_run.items():
        recs = sorted(recs, key=lambda r: r.step)
        stats = {
            "final_step": recs[-1].step,
            "final_val_loss": recs[-1].validation_loss,
            "final_val_accuracy": recs[-1].validation_accuracy,
            "best_val_loss": min(r.validation_loss for r in recs),
        }
        if target_loss is not None:
            stats["steps_to_target"] = steps_to_target(recs, target_loss)
        out[run_id] = stats
    return out


def _seed_mean(runs: dict, key: str, match: str = "") -> float:
    vals = [s[key] for rid, s in runs.items() if match in rid]
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# experiment kinds


def _kind_baseline(env: Env, mode: str, out_dir, records):
    res = env.res
    comm = {}
    for seed in res["seeds"]:
        ledger = CommLedger()
        _, recs = train_baseline(env.arch, _group(res, seed), env.train, res["steps"],
                                 env.val, res["eval_every"], ledger=ledger,
                                 run_id=f"baseline.s{seed}")
        records.extend(recs)
        comm[str(seed)] = comm_report(ledger, param_count(env.arch), res["steps"],
                                      _group(res, seed)).as_dict()
    return {"comm": comm}


def _kind_codistill(env: Env, mode: str, out_dir, records):
    res = env.res
    comm = {}
    for seed in res["seeds"]:
        result, report = _run_codistill_once(env, seed, f"codistill.s{seed}.m", mode, out_dir)
        records.extend(result.records)
        comm[str(seed)] = report.as_dict()
        comm[str(seed)]["max_teacher_lag"] = result.max_teacher_lag
    return {"comm": comm}


def _kind_same_data_ablation(env: Env, mode: str, out_dir, records):
    """Baseline vs partitioned codistillation vs same-data codistillation.

    The same-data arm trains both groups on one half-sized subset, so each
    group's data volume matches the partitioned arm and stream overlap is the
    only difference between the two codistillation arms (a finite dataset
    would otherwise hand the same-data arm twice the unique data per group).
    """
    res = env.res
    n = res["codistill.n_models"]
    for seed in res["seeds"]:
        _, recs = train_baseline(env.arch, _group(res, seed), env.train, res["steps"],
                                 env.val, res["eval_every"],
                                 run_id=f"ablation.s{seed}.baseline")
        records.extend(recs)
        plan = make_shards(env.train, "disjoint", n, seed)
        disjoint_shards = [plan.shard(env.train, i) for i in range(n)]
        result, _ = _run_codistill_once(env, seed, f"ablation.s{seed}.disjoint.m", mode,
                                        out_dir, shards=disjoint_shards)
        records.extend(result.records)
        subset = disjoint_shards[0]
        shared_plan = make_shards(subset, "shared", n, seed)
        shared_shards = [shared_plan.shard(subset, i) for i in range(n)]
        result, _ = _run_codistill_once(env, seed, f"ablation.s{seed}.shared.m", mode,
                                        out_dir, shards=shared_shards)
        records.extend(result.records)
    runs = _summarize_runs(records, res["target_loss"])
    means = {name: _seed_mean(runs, "final_val_loss", match=f".{name}")
             for name in ("baseline", "disjoint", "shared")}
    return {"mean_final_val_loss": means,
            "ordering_holds": bool(means["disjoint"] <= means["shared"] <= means["baseline"])}


def _kind_smoothing_baseline(env: Env, mode: str, out_dir, records):
    res = env.res
    kind = res["loss.smoothing"]
    teachers = _smoothing_teachers(kind, env.train, res["loss.smoothing_weight"])
    for seed in res["seeds"]:
        runner = GroupRunner(env.arch, _group(res, seed), env.train,
                             entity=f"smoothing_{kind}.s{seed}")
        seed_records = []
        _train_loop([runner], res["steps"], env.val, res["eval_every"], seed_records, teachers)
        records.extend(seed_records)
    return {"smoothing": kind, "smoothing_weight": res["loss.smoothing_weight"]}


def _kind_ensemble_baseline(env: Env, mode: str, out_dir, records):
    """Independent co-trained models evaluated jointly as an ensemble."""
    res = env.res
    n = res["codistill.n_models"]
    for seed in res["seeds"]:
        runners = [GroupRunner(env.arch, _group(res, seed, i), env.train,
                               entity=f"ensemble.s{seed}.m{i}")
                   for i in range(n)]

        def joint_record(step, members, params, t0):
            probs = ensemble_predict(params, env.val)
            return MetricRecord(f"ensemble.s{seed}.ens", step, time.perf_counter() - t0, None,
                                float(probs_nll(probs, env.val.labels).mean()),
                                float((probs.argmax(axis=1) == env.val.labels).mean()),
                                sum(m.bytes_grad_exchange for m in members), 0)

        seed_records = []
        _train_loop(runners, res["steps"], env.val, res["eval_every"], seed_records,
                    after_eval=joint_record)
        records.extend(seed_records)
    return {"n_models": n}


def _kind_offline_distill(env: Env, mode: str, out_dir, records):
    """Step accounting treats each phase's models as running in parallel, so
    the total is phase1_steps + phase2_steps."""
    res = env.res
    n = res["codistill.n_models"]
    p1, p2 = res["offline.phase1_steps"], res["offline.phase2_steps"]
    for seed in res["seeds"]:
        plan = make_shards(env.train, res["codistill.data_mode"], n, seed)
        shards = [plan.shard(env.train, i) for i in range(n)]
        groups = [_group(res, seed, i) for i in range(n)]
        student = _group(res, seed, n)  # fresh model, distinct seed
        result = offline_distill(env.arch, groups, student, shards, env.train, p1, p2,
                                 env.val, distill=res["loss.distill"],
                                 distill_weight=res["loss.distill_weight"],
                                 eval_every=res["eval_every"],
                                 run_id_prefix=f"offline.s{seed}.")
        records.extend(result.records)
    totals = {"phase1_steps": p1, "phase2_steps": p2, "total_steps": p1 + p2}
    return {"step_accounting": {str(seed): totals for seed in res["seeds"]}}


def _kind_churn(env: Env, mode: str, out_dir, records):
    """Prediction-difference comparison: independent retrains vs codistilled."""
    res = env.res
    repeats = res["churn.repeats"]
    base_seed = res["seeds"][0]

    def train_independent(seed):
        params, recs = train_baseline(env.arch, _group(res, seed), env.train,
                                      res["steps"], env.val, res["eval_every"],
                                      run_id=f"churn.independent.r{seed}")
        records.extend(recs)
        return params

    def train_codistilled(seed):
        result, _ = _run_codistill_once(env, seed, f"churn.codistilled.r{seed}.m",
                                        mode, out_dir)
        records.extend(result.records)
        return result.params[0]  # one copy picked arbitrarily

    independent = churn_experiment(train_independent, repeats, env.val, base_seed=base_seed)
    codistilled = churn_experiment(train_codistilled, repeats, env.val, base_seed=base_seed)
    reduction = 1.0 - codistilled.churn_mean / independent.churn_mean
    return {"independent": independent.as_dict(),
            "codistilled": codistilled.as_dict(),
            "churn_reduction": reduction}


_KIND_FNS = {
    "baseline": _kind_baseline,
    "codistill": _kind_codistill,
    "same_data_ablation": _kind_same_data_ablation,
    "smoothing_baseline": _kind_smoothing_baseline,
    "ensemble_baseline": _kind_ensemble_baseline,
    "offline_distill": _kind_offline_distill,
    "churn": _kind_churn,
}


# ---------------------------------------------------------------------------
# output files


def write_metrics_csv(path, records) -> None:
    lines = [",".join(CSV_COLUMNS)] + [format_row(r) for r in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_metrics_csv(path) -> list[MetricRecord]:
    return [parse_row(line) for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]]


def _write_outputs(out_dir, res, records, summary) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out / "metrics.csv", records)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    (out / "config.resolved").write_text(format_resolved(res), encoding="utf-8")


def run(cfg: dict, out_dir, mode: str = "lockstep") -> dict:
    """Execute one experiment and write metrics.csv / summary.json /
    config.resolved into ``out_dir``.

    If training fails (divergence or any other error), the records of every
    finished run plus the failing run's partial records are written, with
    the exception's class in summary.json, and the exception is re-raised
    for the caller to turn into a nonzero exit.
    """
    return _run(resolve(cfg, mode), out_dir, mode)


def _run(res: dict, out_dir, mode: str) -> dict:
    """``run`` of a config ``resolve`` has already resolved for ``mode``."""
    env = build_env(res)
    summary = {"kind": res["kind"], "seeds": res["seeds"], "mode": mode,
               "provenance": env.provenance, "param_count": param_count(env.arch)}
    records: list[MetricRecord] = []
    try:
        extra = _KIND_FNS[res["kind"]](env, mode, out_dir, records)
    except Exception as err:
        records.extend(getattr(err, "records", []))
        summary.update({"diverged": isinstance(err, DivergenceError),
                        "error": type(err).__name__,
                        "runs": _summarize_runs(records, res["target_loss"])})
        if isinstance(err, DivergenceError):
            summary["diverged_at_step"] = err.step
        _write_outputs(out_dir, res, records, summary)
        raise
    summary["diverged"] = False
    summary["runs"] = _summarize_runs(records, res["target_loss"])
    summary.update(extra)
    _write_outputs(out_dir, res, records, summary)
    return summary


_SWEEPABLE_TYPES = ("int", "float", "bool", "str")


def sweep(cfg: dict, axis: str, values, out_dir, mode: str = "lockstep") -> list[dict]:
    """Run one experiment per axis value (shared seeds) and write sweep.csv.

    Every value's config is resolved before the first value runs, so a bad
    value is a config error before any training. Each value runs in its own
    subdirectory ``<axis>=<value>``; sweep.csv holds one summary row per value.
    """
    if axis not in SCHEMA or axis == "kind":
        raise ConfigError(f"sweep axis: unknown or unsupported key {axis!r}")
    if SCHEMA[axis][0] not in _SWEEPABLE_TYPES:
        raise ConfigError(f"sweep axis: {axis} is not a scalar key")
    if not values:
        raise ConfigError("sweep values: must be non-empty")
    sub_cfgs = [{**cfg, axis: _parse_value(axis, str(v))} for v in values]
    resolved = [resolve(sub_cfg, mode) for sub_cfg in sub_cfgs]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    summaries = []
    for sub_cfg, res in zip(sub_cfgs, resolved):
        value = sub_cfg[axis]
        summary = _run(res, out / f"{axis}={value}", mode)
        summaries.append(summary)
        runs = summary["runs"]
        finals = [s["final_val_loss"] for s in runs.values()]
        bests = [s["best_val_loss"] for s in runs.values()]
        row = {"axis": axis, "value": value,
               "mean_final_val_loss": float(np.mean(finals)),
               "mean_best_val_loss": float(np.mean(bests))}
        if res["target_loss"] is not None:
            reached = [s.get("steps_to_target") for s in runs.values()]
            reached = [v for v in reached if v is not None]
            row["mean_steps_to_target"] = float(np.mean(reached)) if reached else None
        rows.append(row)
    columns = ["axis", "value", "mean_final_val_loss", "mean_best_val_loss"]
    if any("mean_steps_to_target" in r for r in rows):
        columns.append("mean_steps_to_target")
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_cell(row.get(c)) for c in columns))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return summaries
