"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with:  pytest tests/test_acceptance.py -v -s

Criteria 4-10 share a five-seed experiment battery on the desk-scale
classification task (50k examples, 32 features, 10 classes, cluster overlap
0.5), computed once per session by the fixtures below. Everything runs in
lockstep mode, so the battery is deterministic: identical numbers on every
invocation.
"""

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from codistill import distrib
from codistill.data import gen_classification, make_shards, split_train_val
from codistill.distrib import (Checkpoint, CodistillConfig, CommLedger, FileCheckpointStore,
                               GroupConfig, GroupRunner, InMemoryCheckpointStore, _train_loop,
                               codistill_train, comm_report, offline_distill, train_baseline,
                               worker_streams)
from codistill.experiments import _smoothing_teachers, parse_config_text, run, sweep
from codistill.losses import CombinedLossSpec, combined_loss
from codistill.metrics import churn_experiment, ensemble_predict, probs_nll, steps_to_target
from codistill.nn import (Architecture, Batch, backward, forward, init_params,
                          param_count, predict_proba)
from codistill.optim import OptimizerConfig
from helpers import fd_param_grad, interleave, rel_err

SEEDS = (0, 1, 2, 3, 4)
STEPS = 4000
EVAL_EVERY = 100
BURN_IN = 400
RELOAD = 50
CHURN_STEPS = 2500


def report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    sys.stdout.flush()
    assert ok, line


@dataclass
class Battery:
    arch: Architecture
    train: object
    val: Batch
    base_records: dict = field(default_factory=dict)
    base_best: dict = field(default_factory=dict)
    dis_records: dict = field(default_factory=dict)      # model0 records per seed
    dis_records_m1: dict = field(default_factory=dict)   # model1 records per seed
    dis_final_both: dict = field(default_factory=dict)   # mean final loss of both replicas
    dis_params: dict = field(default_factory=dict)       # both replicas per seed
    shared_records: dict = field(default_factory=dict)   # budget-matched same-data arm
    smooth_records: dict = field(default_factory=dict)   # (kind, seed) -> records
    build_seconds: float = 0.0

    def group(self, seed: int) -> GroupConfig:
        return GroupConfig(1, 32, OptimizerConfig("adagrad", 0.1), CombinedLossSpec(), seed)

    def codistill(self, seed: int, *, shards, reload_interval=RELOAD, steps=STEPS,
                  data_mode="disjoint", run_id_prefix="model"):
        cfg = CodistillConfig(2, max(BURN_IN, reload_interval), reload_interval,
                              data_mode=data_mode)
        groups = [self.group(1000 * seed), self.group(1000 * seed + 1)]
        return codistill_train(self.arch, cfg, groups, shards, steps,
                               InMemoryCheckpointStore(self.arch), self.val, EVAL_EVERY,
                               run_id_prefix=run_id_prefix)

    def disjoint_shards(self, seed: int):
        plan = make_shards(self.train, "disjoint", 2, seed)
        return [plan.shard(self.train, i) for i in range(2)]


@pytest.fixture(scope="session")
def battery():
    """Baseline, partitioned codistillation, budget-matched same-data
    codistillation, and both smoothing baselines, for each of five seeds."""
    t0 = time.perf_counter()
    ds = gen_classification(7, 50_000, 32, 10, 0.5)
    train, valset = split_train_val(ds, 0.1, 7)
    b = Battery(Architecture(32, (64, 32), 10), train, valset.as_batch())
    for seed in SEEDS:
        _, recs = train_baseline(b.arch, b.group(1000 * seed), train, STEPS, b.val,
                                 EVAL_EVERY, run_id=f"base.s{seed}")
        b.base_records[seed] = recs
        b.base_best[seed] = min(r.validation_loss for r in recs)
        result = b.codistill(seed, shards=b.disjoint_shards(seed))
        b.dis_records[seed] = [r for r in result.records if r.run_id == "model0"]
        b.dis_records_m1[seed] = [r for r in result.records if r.run_id == "model1"]
        b.dis_final_both[seed] = float(np.mean([r.validation_loss for r in result.records
                                                if r.step == STEPS]))
        b.dis_params[seed] = result.params
        subset = b.disjoint_shards(seed)[0]
        shared_plan = make_shards(subset, "shared", 2, seed)
        shared = b.codistill(seed, shards=[shared_plan.shard(subset, i) for i in range(2)],
                             data_mode="shared")
        b.shared_records[seed] = [r for r in shared.records if r.run_id == "model0"]
        for kind in ("uniform", "unigram"):
            runner = GroupRunner(b.arch, b.group(1000 * seed), train,
                                 entity=f"smooth.{kind}.s{seed}")
            b.smooth_records[(kind, seed)] = recs = []
            _train_loop([runner], STEPS, b.val, EVAL_EVERY, recs,
                        _smoothing_teachers(kind, train, 0.1))
    b.build_seconds = time.perf_counter() - t0
    return b


def final_loss(records):
    return max(records, key=lambda r: r.step).validation_loss


def mean_final(records_by_seed):
    return float(np.mean([final_loss(records_by_seed[s]) for s in SEEDS]))


def test_criterion_01_gradient_correctness():
    """Analytic gradients vs central finite differences (h=1e-5), ten random
    (architecture, seed) pairs, all loss kinds, max rel err < 1e-4."""
    t0 = time.perf_counter()
    archs = [
        Architecture(4, (), 3),
        Architecture(5, (8,), 4),
        Architecture(6, (8, 5), 4),
        Architecture(3, (12,), 2),
        Architecture(8, (6, 6), 5),
        Architecture(4, (10, 8, 6), 3),
        Architecture(7, (5,), 6),
        Architecture(2, (16,), 3),
        Architecture(12, (8,), 8, task="lm_fixed_context", context_window=3,
                     vocab_size=8, embedding_dim=4),
        Architecture(10, (), 6, task="lm_fixed_context", context_window=2,
                     vocab_size=6, embedding_dim=5),
    ]
    specs = [
        CombinedLossSpec(),
        CombinedLossSpec(distill="soft_cross_entropy", distill_weight=0.7),
        CombinedLossSpec(distill="kl_divergence", distill_weight=1.3),
        CombinedLossSpec(distill="logit_mse", distill_weight=0.5),
    ]
    worst = 0.0
    for seed, arch in enumerate(archs):
        rng = np.random.default_rng(100 + seed)
        params = init_params(arch, seed)
        if arch.task == "lm_fixed_context":
            inputs = rng.integers(0, arch.vocab_size, size=(5, arch.context_window))
        else:
            inputs = rng.standard_normal((5, arch.input_dim))
        batch = Batch(inputs, rng.integers(0, arch.output_dim, size=5))
        for spec in specs:
            if spec.distill == "logit_mse":
                teacher = rng.standard_normal((5, arch.output_dim))
            elif spec.distill != "none":
                t = rng.random((5, arch.output_dim)) + 0.1
                teacher = t / t.sum(axis=1, keepdims=True)
            else:
                teacher = None

            def loss_of(z):
                return combined_loss(spec, batch.labels, z, teacher)[0]

            _, dlogits = combined_loss(spec, batch.labels, forward(params, batch), teacher)
            analytic = backward(params, batch, dlogits)
            fd = fd_param_grad(params, batch, loss_of)
            worst = max(worst, float(rel_err(analytic, fd).max()))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-4 and elapsed < 60,
           "analytic gradients match finite differences for 10 archs x 4 loss kinds",
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_big_batch_equivalence(monkeypatch):
    """Sync group (W=4, B=8) vs single worker B=32 on the interleaved stream,
    500 steps, every parameter within 1e-12."""
    t0 = time.perf_counter()
    ds = gen_classification(7, 4_000, 16, 6, 0.4)
    train, valset = split_train_val(ds, 0.1, 7)
    val = valset.as_batch()
    arch = Architecture(16, (24, 12), 6)
    opt = OptimizerConfig("sgd", 0.1)
    group4 = GroupConfig(4, 8, opt, CombinedLossSpec(), seed=3)
    group1 = GroupConfig(1, 32, opt, CombinedLossSpec(), seed=3)
    p4, _ = train_baseline(arch, group4, train, 500, val, eval_every=250)
    merged = interleave(worker_streams(train, group4))
    monkeypatch.setattr(distrib, "worker_streams", lambda shard, group: [merged])
    p1, _ = train_baseline(arch, group1, train, 500, val, eval_every=250)
    diff = float(np.abs(p4.values - p1.values).max())
    elapsed = time.perf_counter() - t0
    report(2, diff < 1e-12 and elapsed < 60,
           "sync group (W=4,B=8) equals single worker B=32 over 500 steps",
           f"max |delta| {diff:.1e}, {elapsed:.1f}s")


def test_criterion_03_zero_weight_collapse():
    """Codistillation with weight 0 is bit-identical per group to independent
    baselines over 500 steps."""
    ds = gen_classification(7, 4_000, 16, 6, 0.4)
    train, valset = split_train_val(ds, 0.1, 7)
    val = valset.as_batch()
    arch = Architecture(16, (24, 12), 6)
    groups = [GroupConfig(1, 16, OptimizerConfig("sgd", 0.1), CombinedLossSpec(), s)
              for s in (21, 22)]
    plan = make_shards(train, "disjoint", 2, 0)
    shards = [plan.shard(train, i) for i in range(2)]
    cfg = CodistillConfig(2, 50, 50, distill_weight=0.0)
    result = codistill_train(arch, cfg, groups, shards, 500,
                             InMemoryCheckpointStore(arch), val, eval_every=250)
    worst = 0.0
    for i in range(2):
        expect, _ = train_baseline(arch, groups[i], shards[i], 500, val, eval_every=250)
        worst = max(worst, float(np.abs(result.params[i].values - expect.values).max()))
    report(3, worst == 0.0,
           "zero-weight codistillation is bit-identical to independent baselines",
           f"max |delta| {worst:.1e}")


def test_criterion_04_codistillation_benefit(battery):
    """Against the baseline's best validation loss: the codistilled model
    needs <= 0.9x the steps and a strictly lower final loss, >= 4 of 5 seeds."""
    wins = 0
    details = []
    for seed in SEEDS:
        target = battery.base_best[seed]
        sb = steps_to_target(battery.base_records[seed], target)
        sc = steps_to_target(battery.dis_records[seed], target)
        bf = final_loss(battery.base_records[seed])
        cf = final_loss(battery.dis_records[seed])
        ok = sc is not None and sc <= 0.9 * sb and cf < bf
        wins += ok
        details.append(f"s{seed}:{sb}->{sc},{bf:.4f}->{cf:.4f}")
    ok = wins >= 4 and battery.build_seconds < 15 * 60
    report(4, ok, "codistillation reaches the baseline's best sooner and ends lower",
           f"{wins}/5 seeds, battery {battery.build_seconds:.0f}s; " + " ".join(details))


def test_derived_both_replicas_reach_target_sooner(battery):
    """Stronger form of criterion 4: each of the two codistilled replicas,
    not just one, reaches the baseline's best loss in fewer steps."""
    wins = 0
    for seed in SEEDS:
        target = battery.base_best[seed]
        sb = steps_to_target(battery.base_records[seed], target)
        boths = [steps_to_target(battery.dis_records[seed], target),
                 steps_to_target(battery.dis_records_m1[seed], target)]
        wins += all(s is not None and s < sb for s in boths)
    print(f"derived check PASS: both replicas beat the baseline's steps in {wins}/5 seeds")
    assert wins >= 4


def test_criterion_05_partitioning_ablation(battery):
    """Seed-averaged final losses order disjoint <= same-data <= baseline."""
    md = mean_final(battery.dis_records)
    ms = mean_final(battery.shared_records)
    mb = mean_final(battery.base_records)
    report(5, md <= ms <= mb, "partitioned data beats same-data beats baseline",
           f"disjoint {md:.4f} <= shared {ms:.4f} <= baseline {mb:.4f}")


def test_criterion_06_smoothing_baselines(battery):
    """Uniform and unigram smoothing improve on the baseline by less than half
    of what codistillation gains (seed-averaged final losses)."""
    mb = mean_final(battery.base_records)
    gap_codist = mb - mean_final(battery.dis_records)
    gaps = {}
    for kind in ("uniform", "unigram"):
        recs = {s: battery.smooth_records[(kind, s)] for s in SEEDS}
        gaps[kind] = mb - mean_final(recs)
    ok = all(gaps[k] <= gap_codist / 2 for k in gaps) and gap_codist > 0
    report(6, ok, "label smoothing explains less than half the codistillation gain",
           f"codist gap {gap_codist:.4f}, uniform {gaps['uniform']:.4f}, "
           f"unigram {gaps['unigram']:.4f}")


def test_criterion_07_staleness_tolerance(battery):
    """Reload interval 50 lands within 2% of fresh teachers; 250 degrades more
    than 50 yet stays better than the independent baseline."""
    finals = {}
    for interval in (1, 250):
        vals = []
        for seed in SEEDS:
            result = battery.codistill(seed, shards=battery.disjoint_shards(seed),
                                       reload_interval=interval)
            vals.append(np.mean([r.validation_loss for r in result.records
                                 if r.step == STEPS]))
        finals[interval] = float(np.mean(vals))
    finals[50] = float(np.mean([battery.dis_final_both[s] for s in SEEDS]))
    mb = mean_final(battery.base_records)
    within = abs(finals[50] - finals[1]) / finals[1]
    ok = within <= 0.02 and finals[250] > finals[50] and finals[250] < mb
    report(7, ok, "stale teachers at R=50 are nearly free; R=250 degrades but still helps",
           f"R1 {finals[1]:.4f}, R50 {finals[50]:.4f} ({within:.2%}), "
           f"R250 {finals[250]:.4f}, base {mb:.4f}")


def test_criterion_08_offline_vs_online(battery):
    """Offline two-phase distillation needs more total steps than online
    codistillation to reach the baseline's best loss, 5-seed majority."""
    phase1, phase2 = 2000, 2000
    wins = 0
    details = []
    for seed in SEEDS:
        target = battery.base_best[seed]
        result = offline_distill(battery.arch,
                                 [battery.group(1000 * seed), battery.group(1000 * seed + 1)],
                                 battery.group(1000 * seed + 2),
                                 battery.disjoint_shards(seed), battery.train,
                                 phase1, phase2, battery.val, eval_every=EVAL_EVERY)
        student = [r for r in result.records if r.run_id == "phase2.student"]
        s_student = steps_to_target(student, target)
        offline_total = phase1 + s_student if s_student is not None else None
        s_codist = steps_to_target(battery.dis_records[seed], target)
        ok = offline_total is not None and s_codist is not None and offline_total > s_codist
        wins += ok
        details.append(f"s{seed}:{offline_total} vs {s_codist}")
    report(8, wins >= 3, "offline distillation costs more total steps than online",
           f"{wins}/5 majority; " + " ".join(details))


def test_criterion_09_churn_reduction(battery):
    """Across five retrains each: codistilled models churn >= 15% less than
    independent retrains with no worsening of mean validation log loss."""
    t0 = time.perf_counter()

    def train_independent(seed):
        params, _ = train_baseline(battery.arch, battery.group(1000 * seed), battery.train,
                                   CHURN_STEPS, battery.val, eval_every=CHURN_STEPS)
        return params

    def train_codistilled(seed):
        result = battery.codistill(seed, shards=battery.disjoint_shards(seed),
                                   steps=CHURN_STEPS)
        return result.params[0]  # one copy picked arbitrarily

    independent = churn_experiment(train_independent, 5, battery.val, base_seed=0)
    codistilled = churn_experiment(train_codistilled, 5, battery.val, base_seed=0)
    reduction = 1.0 - codistilled.churn_mean / independent.churn_mean
    elapsed = time.perf_counter() - t0
    ok = (reduction >= 0.15
          and codistilled.val_loss_mean <= independent.val_loss_mean
          and elapsed < 20 * 60)
    report(9, ok, "codistillation reduces prediction churn without hurting log loss",
           f"churn {independent.churn_mean:.4f}->{codistilled.churn_mean:.4f} "
           f"({reduction:.1%}), val {independent.val_loss_mean:.4f}->"
           f"{codistilled.val_loss_mean:.4f}, {elapsed:.0f}s")


def test_criterion_10_jensen_ensemble_bound(battery):
    """Ensemble NLL <= mean member NLL on every validation example, for the
    two-replica ensembles from the codistillation runs."""
    worst_violation = -np.inf
    for seed in SEEDS:
        members = battery.dis_params[seed]
        ens = probs_nll(ensemble_predict(members, battery.val), battery.val.labels)
        mem = np.mean([probs_nll(predict_proba(m, battery.val), battery.val.labels)
                       for m in members], axis=0)
        worst_violation = max(worst_violation, float((ens - mem).max()))
    report(10, worst_violation <= 1e-12,
           "ensemble NLL never exceeds mean member NLL on any validation example",
           f"max(ens - mean member) {worst_violation:.2e}")


def test_criterion_11_communication_accounting():
    """Ledger totals equal the closed-form cost model exactly, and the
    (W=4, N=2, R=50, 64-bit) sync-to-overlay ratio is 200:1."""
    ds = gen_classification(3, 2_000, 8, 4, 0.3)
    train, valset = split_train_val(ds, 0.1, 3)
    arch = Architecture(8, (10,), 4)
    ledger = CommLedger()
    store = InMemoryCheckpointStore(arch, ledger)
    groups = [GroupConfig(2, 8, OptimizerConfig("sgd", 0.1), CombinedLossSpec(), s)
              for s in (1, 2)]
    plan = make_shards(train, "disjoint", 2, 0)
    cfg = CodistillConfig(2, 20, 20)
    n_steps = 230  # not a multiple of the reload interval, exercises the ceil
    codistill_train(arch, cfg, groups, [plan.shard(train, i) for i in range(2)],
                    n_steps, store, valset.as_batch(), eval_every=115, ledger=ledger)
    got = comm_report(ledger, param_count(arch), n_steps, groups[0], cfg)
    exact = (got.actual_sync_total == got.expected_sync_total
             and got.actual_checkpoint_total == got.expected_checkpoint_total)
    ratio = comm_report(CommLedger(), 1_000_000, 1,
                        GroupConfig(4, 128, OptimizerConfig("sgd", 0.1),
                                    CombinedLossSpec(), 0),
                        CodistillConfig(2, 50, 50)).sync_to_overlay_ratio
    report(11, exact and ratio == 200.0,
           "ledger matches the closed-form cost model; W=4/N=2/R=50 ratio is 200:1",
           f"sync {got.actual_sync_total}B, checkpoints {got.actual_checkpoint_total}B, "
           f"ratio {ratio}")


def test_criterion_12_checkpoint_store_atomicity(tmp_path):
    """One publisher on a 1 ms cadence and four concurrent loaders for 10 s:
    zero torn reads, monotone step numbers."""
    arch = Architecture(16, (32,), 8)
    store = FileCheckpointStore(tmp_path, arch)
    params = init_params(arch, 0)
    stop = time.monotonic() + 10.0
    failures: list[str] = []
    load_counts = [0] * 4

    def publisher():
        step = 1
        while time.monotonic() < stop:
            store.publish(Checkpoint(0, step, params))
            step += 1
            time.sleep(0.001)

    def loader(i):
        last = -1
        while time.monotonic() < stop:
            try:
                ck = store.load_latest(0)
            except Exception as err:  # torn/corrupt read
                failures.append(f"loader {i}: {err!r}")
                return
            if ck is None:
                continue
            if ck.step < last:
                failures.append(f"loader {i}: step {ck.step} after {last}")
                return
            last = ck.step
            load_counts[i] += 1

    import threading
    threads = [threading.Thread(target=publisher)] + \
              [threading.Thread(target=loader, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total_loads = sum(load_counts)
    ok = not failures and total_loads > 1000
    report(12, ok, "no torn reads and monotone steps under concurrent publish/load",
           f"{total_loads} loads, failures: {failures[:2]}")


TINY_CONFIG = """
seeds=0,1
steps=40
eval_every=20
data.n=500
data.dim=6
data.classes=3
data.difficulty=0.4
data.seed=11
model.hidden=10,6
opt.kind=adagrad
opt.lr=0.1
codistill.burn_in=10
codistill.reload_interval=10
offline.phase1_steps=30
offline.phase2_steps=30
churn.repeats=2
"""

ALL_KINDS = ("baseline", "codistill", "same_data_ablation", "smoothing_baseline",
             "ensemble_baseline", "offline_distill", "churn")

# the paper's two scaling sweeps: (kind, axis, values)
SWEEPS = (("baseline", "group.n_workers", [1, 2]),
          ("codistill", "codistill.reload_interval", [1, 10]))


def _csv_without_wall(path: Path) -> str:
    out = []
    for line in path.read_text().splitlines():
        cells = line.split(",")
        del cells[2]
        out.append(",".join(cells))
    return "\n".join(out)


def _outputs(root: Path) -> dict:
    """metrics.csv (wall_seconds excluded), summary.json and sweep.csv of one
    run or sweep, keyed by path relative to ``root``."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.name == "metrics.csv":
            out[str(path.relative_to(root))] = _csv_without_wall(path)
        elif path.name in ("summary.json", "sweep.csv"):
            out[str(path.relative_to(root))] = path.read_text()
    return out


def test_criterion_13_end_to_end_reproducibility(tmp_path):
    """Identical config + seeds in lockstep mode give byte-identical
    metrics.csv (wall_seconds excluded) and summary.json for one run of every
    experiment kind, and for one sweep along each of the paper's two axes."""
    mismatches = []
    for kind in ALL_KINDS:
        cfg = parse_config_text(TINY_CONFIG)
        cfg["kind"] = kind
        run(dict(cfg), tmp_path / kind / "a")
        run(dict(cfg), tmp_path / kind / "b")
        if _outputs(tmp_path / kind / "a") != _outputs(tmp_path / kind / "b"):
            mismatches.append(kind)
    for kind, axis, values in SWEEPS:
        cfg = parse_config_text(TINY_CONFIG)
        cfg["kind"] = kind
        sweep(dict(cfg), axis, values, tmp_path / axis / "a")
        sweep(dict(cfg), axis, values, tmp_path / axis / "b")
        a, b = _outputs(tmp_path / axis / "a"), _outputs(tmp_path / axis / "b")
        if len(a) != 2 * len(values) + 1 or a != b:
            mismatches.append(axis)
    report(13, not mismatches, "every experiment kind and sweep reproduces byte-identically",
           f"kinds checked: {len(ALL_KINDS)}, sweeps: {len(SWEEPS)}, "
           f"mismatches: {mismatches or 'none'}")
