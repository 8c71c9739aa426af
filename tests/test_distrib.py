import builtins
import dataclasses
import io
import itertools
import multiprocessing.connection
import os
import pickle
import signal
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from codistill.data import (Dataset, gen_classification, ingest_text, make_shards,
                            split_train_val)
from codistill import distrib, experiments
from codistill.distrib import (Checkpoint, CodistillConfig, CommLedger, DivergenceError,
                               FileCheckpointStore, GroupConfig, GroupRunner,
                               InMemoryCheckpointStore, codistill_train,
                               codistill_train_concurrent, comm_report, mean_teacher_fn,
                               offline_distill, train_baseline, worker_streams)
from codistill import optim
from codistill.nn import (Plan, backward, deserialize_checkpoint, forward, predict_proba,
                         serialize_params)
from codistill.losses import CombinedLossSpec, combined_loss
from codistill.nn import (Architecture, Batch, CorruptHeaderError, FingerprintMismatchError,
                          Parameters, SerializationError, TruncatedPayloadError, init_params,
                          param_count)
from codistill.optim import OptimizerConfig
from helpers import int64_stream, interleave


ARCH = Architecture(6, (12, 8), 4)


def make_task(n=600, seed=1, difficulty=0.3):
    ds = gen_classification(seed, n, ARCH.input_dim, ARCH.output_dim, difficulty)
    train, val = split_train_val(ds, 0.1, seed)
    return train, val.as_batch()


def sgd_group(seed, n_workers=1, batch=16, lr=0.2):
    return GroupConfig(n_workers, batch, OptimizerConfig("sgd", lr), CombinedLossSpec(), seed)


def run_in_thread(fn, timeout=60.0):
    """Run ``fn`` on a helper thread; return its result or the exception it
    raised, and how long it took."""
    out = {}

    def target():
        try:
            out["result"] = fn()
        except BaseException as err:  # handed back to the test
            out["error"] = err

    t0 = time.monotonic()
    t = threading.Thread(target=target)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "run did not finish"
    out["seconds"] = time.monotonic() - t0
    assert multiprocessing.active_children() == []
    return out


def process_ended(pid: int) -> bool:
    """Whether ``pid`` is gone, or a zombie its parent has not reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def await_end(pids, what: str, seconds: float = 10.0) -> None:
    """Wait up to ``seconds`` for every process in ``pids`` to end; kill any
    left, so that a failed assertion leaves no orphan behind."""
    deadline = time.monotonic() + seconds
    try:
        while not all(process_ended(pid) for pid in pids):
            assert time.monotonic() < deadline, what
            time.sleep(0.05)
    finally:
        for pid in pids:
            if not process_ended(pid):
                os.kill(pid, signal.SIGKILL)


class EvaluationFailed(Exception):
    """An evaluation error that crosses ``pickle``."""


class UnpicklableEvaluationError(Exception):
    """An evaluation error that does not cross ``pickle``: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def make_store(backing, tmp_path, ledger=None):
    return (InMemoryCheckpointStore(ARCH, ledger) if backing == "memory"
            else FileCheckpointStore(tmp_path, ARCH, ledger))


def inject_streams(monkeypatch, *streams):
    """Make the next runners built draw ``streams``, index streams of source
    rows, instead of their own ``worker_streams``."""
    monkeypatch.setattr(distrib, "worker_streams", lambda shard, group: list(streams))


class TestSyncGroupStep:
    def test_two_workers_equal_one_big_worker(self, monkeypatch):
        """W=2, B=1 on {e1, e2} matches W=1, B=2 on the concatenated batch."""
        train, val = make_task()
        e1, e2 = (train.rows[i:i + 1].astype(np.intp) for i in (0, 1))
        inject_streams(monkeypatch, iter([e1]), iter([e2]))
        a, _ = train_baseline(ARCH, sgd_group(3, n_workers=2, batch=1), train, 1, val)
        inject_streams(monkeypatch, iter([np.concatenate([e1, e2])]))
        b, _ = train_baseline(ARCH, sgd_group(3, n_workers=1, batch=2), train, 1, val)
        assert np.array_equal(a.values, b.values)

    def test_w1_degenerates_to_single_worker(self):
        train, val = make_task()
        p1, _ = train_baseline(ARCH, sgd_group(3), train, 50, val, eval_every=25)
        p2, _ = train_baseline(ARCH, sgd_group(3), train, 50, val, eval_every=25)
        assert np.array_equal(p1.values, p2.values)

    @pytest.mark.parametrize("n_workers", [1, 2, 4, 8])
    def test_big_batch_equivalence(self, n_workers, monkeypatch):
        """Group (W, B) is bit-identical to one worker with batch W*B consuming
        the interleaved stream; with eval_every=1 each record's train loss is
        that one step's loss."""
        train, val = make_task()
        group = sgd_group(5, n_workers=n_workers, batch=4)
        pg, rg = train_baseline(ARCH, group, train, 120, val, eval_every=1)
        big = sgd_group(5, n_workers=1, batch=4 * n_workers)
        inject_streams(monkeypatch, interleave(worker_streams(train, group)))
        pb, rb = train_baseline(ARCH, big, train, 120, val, eval_every=1)
        assert len(rg) == 121
        assert [r.train_loss for r in rg] == [r.train_loss for r in rb]
        assert np.array_equal(pg.values, pb.values)


class TestUnfitShard:
    """A shard that cannot feed its group is refused when the group's runner
    is built: before the evaluator's fork, the step-0 evaluation or any
    concurrent group's fork, so the error carries no records."""

    @staticmethod
    def unfit(case):
        """(arch, group, the two shards, message) of one unfit case; in the
        batch-size case only the second shard is too small."""
        train, _ = make_task()
        shards = [make_shards(train, "disjoint", 2, 0).shard(train, i) for i in range(2)]
        if case == "batch_size":
            return ARCH, sgd_group(1, batch=shards[1].n + 1), [train, shards[1]], "batch_size"
        if case == "width":
            arch = Architecture(ARCH.input_dim + 1, ARCH.hidden_dims, ARCH.output_dim)
            return arch, sgd_group(1), shards, "input_dim"
        if case == "complex":
            shards = [Dataset(sh.inputs.astype(complex), sh.labels, sh.kind, sh.n_classes)
                      for sh in shards]
            return ARCH, sgd_group(1), shards, "real numbers"
        lm = Architecture(ARCH.input_dim * 2, (8,), ARCH.output_dim, task="lm_fixed_context",
                          context_window=ARCH.input_dim, vocab_size=ARCH.output_dim,
                          embedding_dim=2)
        return lm, sgd_group(1), shards, "integer token ids"

    @pytest.mark.parametrize("case", ["batch_size", "width", "complex", "dtype"])
    def test_runner_refuses_the_shard(self, case):
        arch, group, shards, match = self.unfit(case)
        with pytest.raises(ValueError, match=match):
            GroupRunner(arch, group, shards[1])

    @pytest.mark.parametrize("mode", ["baseline", "lockstep", "concurrent"])
    @pytest.mark.parametrize("case", ["batch_size", "width", "complex", "dtype"])
    def test_refused_before_training(self, case, mode, monkeypatch, tmp_path):
        arch, group, shards, match = self.unfit(case)
        _, val = make_task()
        started = []
        monkeypatch.setattr(distrib, "_fork", lambda *args: started.append(args[0]))
        monkeypatch.setattr(distrib, "_point_records", lambda *args: started.append(args))
        groups = [dataclasses.replace(group, seed=s) for s in (1, 2)]
        with pytest.raises(ValueError, match=match) as err:
            if mode == "baseline":
                train_baseline(arch, group, shards[1], 5, val)
            else:
                train = codistill_train if mode == "lockstep" else codistill_train_concurrent
                train(arch, CodistillConfig(2, 2, 2), groups, shards, 5,
                      FileCheckpointStore(tmp_path, arch), val)
        assert started == [] and not hasattr(err.value, "records")


class TestTrainBaseline:
    def test_zero_steps_returns_init(self):
        train, val = make_task()
        params, records = train_baseline(ARCH, sgd_group(7), train, 0, val)
        assert np.array_equal(params.values, init_params(ARCH, 7).values)
        assert len(records) == 1 and records[0].step == 0

    def test_same_seed_bit_identical(self):
        train, val = make_task()
        a, _ = train_baseline(ARCH, sgd_group(9), train, 80, val)
        b, _ = train_baseline(ARCH, sgd_group(9), train, 80, val)
        assert np.array_equal(a.values, b.values)

    def test_separable_task_learns(self):
        ds = gen_classification(4, 800, ARCH.input_dim, ARCH.output_dim, 0.0)
        train, val = split_train_val(ds, 0.1, 4)
        _, records = train_baseline(ARCH, sgd_group(1), train, 400, val.as_batch(),
                                    eval_every=100)
        assert records[-1].validation_accuracy > 0.99

    def test_divergence_detected(self):
        train, val = make_task()
        with pytest.raises(DivergenceError) as err:
            train_baseline(ARCH, sgd_group(1, lr=1e9), train, 200, val, eval_every=50)
        assert err.value.step >= 0
        assert len(err.value.records) >= 1  # partial records retained


class TestCheckpointStores:
    @pytest.mark.parametrize("backing", ["memory", "file"])
    def test_publish_then_load(self, backing, tmp_path):
        store = make_store(backing, tmp_path)
        assert store.load_latest(0) is None
        p10 = init_params(ARCH, 10)
        p20 = init_params(ARCH, 20)
        store.publish(Checkpoint(0, 10, p10))
        store.publish(Checkpoint(0, 20, p20))
        ck = store.load_latest(0)
        assert ck.step == 20
        assert np.array_equal(ck.params.values, p20.values)

    @pytest.mark.parametrize("backing", ["memory", "file"])
    def test_step_must_increase(self, backing, tmp_path):
        store = make_store(backing, tmp_path)
        store.publish(Checkpoint(0, 10, init_params(ARCH, 0)))
        with pytest.raises(ValueError, match="increase"):
            store.publish(Checkpoint(0, 10, init_params(ARCH, 1)))

    def test_fingerprint_mismatch_on_load(self, tmp_path):
        FileCheckpointStore(tmp_path, ARCH).publish(Checkpoint(0, 1, init_params(ARCH, 0)))
        other = FileCheckpointStore(tmp_path, Architecture(6, (12, 9), 4))
        with pytest.raises(FingerprintMismatchError):
            other.load_latest(0)

    def test_float32_payload_round_trip(self, tmp_path):
        store = FileCheckpointStore(tmp_path, ARCH)
        p = init_params(ARCH, 3)
        store.publish(Checkpoint(0, 1, p, float32=True))
        ck = store.load_latest(0)
        assert ck.float32
        assert np.abs(ck.params.values - p.values).max() < 1e-6

    def test_ledger_charges_logical_payload_bytes(self, tmp_path):
        ledger = CommLedger()
        store = FileCheckpointStore(tmp_path, ARCH, ledger)
        store.publish(Checkpoint(0, 1, init_params(ARCH, 0)), entity="g0")
        store.load_latest(0, entity="g1")
        pb = param_count(ARCH) * 8
        assert ledger.total("checkpoint_publish") == pb
        assert ledger.total("checkpoint_load") == pb

    def test_concurrent_publish_load_never_torn(self, tmp_path):
        """Short version of the store stress test: loads observe only complete
        checkpoints with monotone step numbers."""
        store = FileCheckpointStore(tmp_path, ARCH)
        params = init_params(ARCH, 0)
        stop = threading.Event()
        failures = []

        def publisher():
            step = 1
            while not stop.is_set():
                store.publish(Checkpoint(0, step, params))
                step += 1

        def loader():
            last = -1
            while not stop.is_set():
                ck = store.load_latest(0)
                if ck is None:
                    continue
                if ck.step < last:
                    failures.append(f"step went backwards: {ck.step} < {last}")
                last = ck.step

        threads = [threading.Thread(target=publisher)] + \
                  [threading.Thread(target=loader) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(1.0)
        stop.set()
        for t in threads:
            t.join()
        assert not failures


    @pytest.mark.parametrize("backing", ["memory", "file"])
    def test_racing_publishers_never_regress(self, backing, tmp_path):
        """Publishers of one model id race with globally increasing steps:
        the slot ends on the largest accepted step, never an older one."""
        store = make_store(backing, tmp_path)
        params = init_params(ARCH, 0)
        steps = itertools.count(1)
        accepted = []

        def publisher():
            for _ in range(100):
                step = next(steps)
                try:
                    store.publish(Checkpoint(0, step, params))
                    accepted.append(step)
                except ValueError:  # a later step got there first
                    pass

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=publisher) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert store.load_latest(0).step == max(accepted)


class TestCodistill:
    def setup_method(self):
        self.train, self.val = make_task(n=800)
        self.plan = make_shards(self.train, "disjoint", 2, 11)
        self.shards = [self.plan.shard(self.train, i) for i in range(2)]
        self.groups = [sgd_group(100 + i) for i in range(2)]

    def run_codistill(self, cfg, n_steps=120, **kw):
        store = InMemoryCheckpointStore(ARCH)
        return codistill_train(ARCH, cfg, self.groups, self.shards, n_steps, store,
                               self.val, eval_every=60, **kw)

    def test_zero_weight_collapses_to_baselines(self):
        cfg = CodistillConfig(2, 20, 20, distill_weight=0.0)
        result = self.run_codistill(cfg)
        for i in range(2):
            expect, _ = train_baseline(ARCH, self.groups[i], self.shards[i], 120,
                                       self.val, eval_every=60)
            assert np.array_equal(result.params[i].values, expect.values)

    @pytest.mark.parametrize("field, second", [
        ("n_workers", sgd_group(101, n_workers=2)),
        ("batch_size", sgd_group(101, batch=8)),
        ("batch_size", sgd_group(101, batch=8, lr=0.1)),  # the first of two that differ
        ("optimizer", sgd_group(101, lr=0.1)),
    ])
    def test_lockstep_groups_must_agree(self, field, second):
        """One stacked step trains every group, so lockstep names the first
        field that differs and trains nothing. Concurrent mode, a stack of
        one per process, accepts such groups (see
        test_concurrent_divergence_stops_peers_and_keeps_records)."""
        store = InMemoryCheckpointStore(ARCH)
        with pytest.raises(ValueError, match=f"^{field} must be equal across lockstep groups"):
            codistill_train(ARCH, CodistillConfig(2, 20, 20), [self.groups[0], second],
                            self.shards, 40, store, self.val)
        assert store.load_latest(0) is None

    @pytest.mark.parametrize("distill", ["soft_cross_entropy", "kl_divergence", "logit_mse"])
    def test_group_loss_is_the_hard_loss(self, distill):
        """A distillation term is its teacher source's, never a group's own:
        a group carrying one is refused where it is built."""
        with pytest.raises(ValueError, match=f"^loss must be the plain hard loss, not '{distill}'"):
            GroupConfig(1, 16, OptimizerConfig("sgd", 0.2), CombinedLossSpec(distill), 1)

    @pytest.mark.parametrize("n_groups, n_shards", [(1, 2), (2, 1), (3, 3)])
    def test_one_group_and_shard_per_model(self, n_groups, n_shards):
        groups = [sgd_group(100 + i) for i in range(n_groups)]
        shards = (self.shards * 2)[:n_shards]
        with pytest.raises(ValueError, match="need one group config and one shard per model"):
            codistill_train(ARCH, CodistillConfig(2, 20, 20), groups, shards, 10,
                            InMemoryCheckpointStore(ARCH), self.val)

    def test_deterministic(self):
        cfg = CodistillConfig(2, 20, 10)
        a = self.run_codistill(cfg)
        b = self.run_codistill(cfg)
        for x, y in zip(a.params, b.params):
            assert np.array_equal(x.values, y.values)

    def test_staleness_bound(self):
        cfg = CodistillConfig(2, 30, 30)
        result = self.run_codistill(cfg, n_steps=200)
        assert 0 <= result.max_teacher_lag <= 2 * cfg.reload_interval

    def test_burn_in_must_cover_reload_interval(self):
        with pytest.raises(ValueError, match="burn_in"):
            CodistillConfig(2, 10, 50)

    def test_distinct_seeds_required(self):
        cfg = CodistillConfig(2, 20, 20)
        with pytest.raises(ValueError, match="distinct"):
            codistill_train(ARCH, cfg, [sgd_group(1), sgd_group(1)], self.shards, 10,
                            InMemoryCheckpointStore(ARCH), self.val)

    def test_ledger_identity(self):
        """Ledger totals equal the closed-form cost model exactly."""
        ledger = CommLedger()
        store = InMemoryCheckpointStore(ARCH, ledger)
        cfg = CodistillConfig(2, 20, 20)
        n_steps = 130  # deliberately not a multiple of the reload interval
        codistill_train(ARCH, cfg, self.groups, self.shards, n_steps, store, self.val,
                        eval_every=65, ledger=ledger)
        report = comm_report(ledger, param_count(ARCH), n_steps, self.groups[0], cfg)
        assert report.actual_sync_total == report.expected_sync_total
        assert report.actual_checkpoint_total == report.expected_checkpoint_total

    def test_float32_payload_halves_checkpoint_bytes(self):
        ledger = CommLedger()
        store = InMemoryCheckpointStore(ARCH, ledger)
        cfg = CodistillConfig(2, 20, 20, float32_payload=True)
        codistill_train(ARCH, cfg, self.groups, self.shards, 60, store, self.val,
                        eval_every=30, ledger=ledger)
        report = comm_report(ledger, param_count(ARCH), 60, self.groups[0], cfg)
        assert report.actual_checkpoint_total == report.expected_checkpoint_total
        # 3 exchange rounds, 2 groups, (1 publish + 1 load) each, 4-byte payload
        assert report.actual_checkpoint_total == 3 * 2 * 2 * param_count(ARCH) * 4

    def test_concurrent_mode_runs_protocol(self, tmp_path):
        ledger = CommLedger()
        store = FileCheckpointStore(tmp_path, ARCH, ledger)
        cfg = CodistillConfig(2, 20, 20)
        result = codistill_train_concurrent(ARCH, cfg, self.groups, self.shards, 100,
                                            store, self.val, eval_every=50, ledger=ledger)
        assert len(result.params) == 2
        for p in result.params:
            assert np.all(np.isfinite(p.values))
        assert ledger.total("checkpoint_publish") > 0
        assert ledger.total("checkpoint_load") > 0
        final = [r for r in result.records if r.step == 100]
        assert len(final) == 2

    def test_concurrent_mode_reports_teacher_lag(self, tmp_path):
        store = FileCheckpointStore(tmp_path, ARCH)
        result = codistill_train_concurrent(ARCH, CodistillConfig(2, 20, 20), self.groups,
                                            self.shards, 100, store, self.val, eval_every=50)
        assert isinstance(result.max_teacher_lag, int)
        assert result.max_teacher_lag >= 0

    def test_concurrent_divergence_stops_peers_and_keeps_records(self, tmp_path):
        """Group 0 diverges at once; group 1 would train stably to n_steps.
        The peer stops early and both groups' records reach the error."""
        ledger = CommLedger()
        store = FileCheckpointStore(tmp_path, ARCH, ledger)
        groups = [sgd_group(100, lr=1e9), self.groups[1]]
        n_steps = 5000
        with pytest.raises(DivergenceError) as err:
            codistill_train_concurrent(ARCH, CodistillConfig(2, 20, 20), groups, self.shards,
                                       n_steps, store, self.val, eval_every=50,
                                       ledger=ledger)
        assert [(r.run_id, r.step) for r in err.value.records if r.step == 0] == \
            [("model0", 0), ("model1", 0)]
        # a model id's records come before the next model id's
        run_ids = [r.run_id for r in err.value.records]
        assert run_ids == sorted(run_ids)
        peer_steps = ledger.total("gradient_exchange", "model1") // (param_count(ARCH) * 8)
        assert peer_steps < n_steps
        assert multiprocessing.active_children() == []


class TestDivergenceError:
    def test_pickle_round_trip(self):
        """A group process's divergence reaches the parent through pickle."""
        err = pickle.loads(pickle.dumps(DivergenceError(7, "loss nan at step 7")))
        assert str(err) == "loss nan at step 7"
        assert err.step == 7
        assert str(pickle.loads(pickle.dumps(DivergenceError(3)))) == "training diverged at step 3"


class TestConcurrentGroups:
    def two_groups(self, seed=11):
        train, val = make_task(n=400)
        plan = make_shards(train, "disjoint", 2, seed)
        return [sgd_group(1), sgd_group(2)], [plan.shard(train, i) for i in range(2)], val

    def test_four_group_processes_on_two_cores(self, tmp_path):
        """More processes than cores: every exchange is charged exactly once,
        in the caller's ledger, and every group keeps its full record set."""
        train, val = make_task(n=800)
        plan = make_shards(train, "disjoint", 4, 5)
        shards = [plan.shard(train, i) for i in range(4)]
        groups = [sgd_group(400 + i) for i in range(4)]
        ledger = CommLedger()
        store = FileCheckpointStore(tmp_path, ARCH, ledger)
        cfg = CodistillConfig(4, 10, 5)
        out = run_in_thread(lambda: codistill_train_concurrent(
            ARCH, cfg, groups, shards, 40, store, val, eval_every=20, ledger=ledger))
        result = out["result"]
        report = comm_report(ledger, param_count(ARCH), 40, groups[0], cfg)
        assert report.actual_checkpoint_total == report.expected_checkpoint_total
        assert report.actual_sync_total == report.expected_sync_total
        assert [(r.run_id, r.step) for r in result.records] == \
            [(f"model{i}", step) for i in range(4) for step in (0, 20, 40)]

    def test_killed_process_stops_peer_and_keeps_its_records(self, tmp_path, monkeypatch):
        """Group 1's process is killed at step 35; the parent names it, stops
        group 0 long before its n_steps (group 0 ends on the stop message and
        reports its ledger counts, rather than being killed), and keeps
        group 1's records up to its last evaluation."""
        step_batches = GroupRunner.step_batches

        def dying_step(runner, *args):
            if runner.entity == "model1" and runner.step_index == 35:
                os.kill(os.getpid(), signal.SIGKILL)
            return step_batches(runner, *args)

        monkeypatch.setattr(GroupRunner, "step_batches", dying_step)
        groups, shards, val = self.two_groups()
        n_steps = 10**6
        ledger = CommLedger()
        out = run_in_thread(lambda: codistill_train_concurrent(
            ARCH, CodistillConfig(2, 10, 10), groups, shards, n_steps,
            FileCheckpointStore(tmp_path, ARCH), val, eval_every=10, ledger=ledger))
        err = out["error"]
        assert isinstance(err, RuntimeError)
        assert "model 1" in str(err) and "exit code -9" in str(err)
        assert [r.step for r in err.records if r.run_id == "model1"] == [0, 10, 20, 30]
        assert max(r.step for r in err.records if r.run_id == "model0") < n_steps
        assert 0 < ledger.total("gradient_exchange", "model0") < n_steps * param_count(ARCH) * 8
        assert ledger.total(entity="model1") == 0  # a killed group reports nothing
        assert out["seconds"] < distrib.START_TIMEOUT_S + 5

    def test_peer_without_first_checkpoint_times_out(self, tmp_path, monkeypatch):
        """Group 0 never publishes: group 1 gives up waiting after the
        start-up timeout, and group 0 is stopped."""
        monkeypatch.setattr(distrib, "START_TIMEOUT_S", 1.0)
        store = FileCheckpointStore(tmp_path, ARCH)
        publish = store.publish
        store.publish = lambda ckpt, entity=None: (None if ckpt.model_id == 0
                                                   else publish(ckpt, entity))
        groups, shards, val = self.two_groups()
        out = run_in_thread(lambda: codistill_train_concurrent(
            ARCH, CodistillConfig(2, 10, 10), groups, shards, 10**6, store, val))
        err = out["error"]
        assert isinstance(err, RuntimeError)
        assert "model 0 published no first checkpoint within 1.0 s" in str(err)
        assert out["seconds"] < 1.0 + 10

    def test_leftover_files_do_not_affect_a_new_run(self, tmp_path):
        """A stop file, records and a checkpoint left by an earlier run in the
        same directory neither stop nor leak into the next run."""
        groups, shards, val = self.two_groups()
        (tmp_path / "stop").touch()
        (tmp_path / "records_0.csv").write_text("not a record\n")
        FileCheckpointStore(tmp_path, ARCH).publish(Checkpoint(1, 500, init_params(ARCH, 9)))
        out = run_in_thread(lambda: codistill_train_concurrent(
            ARCH, CodistillConfig(2, 10, 10), groups, shards, 30,
            FileCheckpointStore(tmp_path, ARCH), val, eval_every=10))
        assert [(r.run_id, r.step) for r in out["result"].records] == \
            [(f"model{i}", step) for i in range(2) for step in (0, 10, 20, 30)]
        assert FileCheckpointStore(tmp_path, ARCH).load_latest(1).step == 20

    def test_start_clears_every_file_of_the_run(self, tmp_path):
        """Orphan checkpoint files, temp files and stale temp links of the
        run's models are gone after a new run, and the run leaves nothing
        but checkpoints: each model keeps exactly its link and the one file
        it names."""
        groups, shards, val = self.two_groups()
        for i in range(2):
            (tmp_path / f"ckpt_{i}.90.orphan.bin").write_bytes(b"old")
            (tmp_path / f".ckpt_{i}.abc123.tmp").write_bytes(b"torn")
            os.symlink(f"ckpt_{i}.91.gone.bin", tmp_path / f".ckpt_{i}.91.gone.tmp")
        (tmp_path / "unrelated.txt").write_text("kept")
        out = run_in_thread(lambda: codistill_train_concurrent(
            ARCH, CodistillConfig(2, 10, 10), groups, shards, 20,
            FileCheckpointStore(tmp_path, ARCH), val, eval_every=10))
        assert "error" not in out
        want = ["unrelated.txt"]
        for i in range(2):
            target = os.readlink(tmp_path / f"ckpt_{i}.bin")
            assert target.startswith(f"ckpt_{i}.10.")  # the last publish, at step 10
            want += [f"ckpt_{i}.bin", target]
        assert sorted(os.listdir(tmp_path)) == sorted(want)

    def test_interrupted_parent_leaves_no_process(self, tmp_path, monkeypatch):
        """A KeyboardInterrupt in the parent stops and reaps every group."""
        wait = multiprocessing.connection.wait
        calls = []

        def interrupted_wait(*args, **kwargs):
            if not calls:
                calls.append(1)
                raise KeyboardInterrupt
            return wait(*args, **kwargs)

        monkeypatch.setattr(multiprocessing.connection, "wait", interrupted_wait)
        groups, shards, val = self.two_groups()
        out = run_in_thread(lambda: codistill_train_concurrent(
            ARCH, CodistillConfig(2, 10, 10), groups, shards, 10**6,
            FileCheckpointStore(tmp_path, ARCH), val))
        assert isinstance(out["error"], KeyboardInterrupt)
        assert out["seconds"] < distrib.START_TIMEOUT_S + 5

    def test_killed_parent_leaves_no_group_process(self, tmp_path, monkeypatch):
        """The parent of a concurrent run dies by SIGKILL mid-run: each group
        reads end of file, stops before its next step and exits quietly,
        printing no traceback."""
        pids, log = tmp_path / "pids", tmp_path / "stderr"
        step_batches = GroupRunner.step_batches

        def recording(runner, *args):
            if runner.step_index == 1:
                with open(pids, "a") as f:
                    f.write(f"{os.getpid()}\n")
            return step_batches(runner, *args)

        monkeypatch.setattr(GroupRunner, "step_batches", recording)
        groups, shards, val = self.two_groups()

        def parent():
            os.dup2(os.open(log, os.O_WRONLY | os.O_CREAT), 2)
            codistill_train_concurrent(ARCH, CodistillConfig(2, 10, 10), groups, shards, 10**6,
                                       FileCheckpointStore(tmp_path / "store", ARCH), val,
                                       eval_every=10)

        proc = multiprocessing.get_context("fork").Process(target=parent)
        proc.start()
        deadline = time.monotonic() + 30
        try:
            while not pids.exists() or len(pids.read_text().split()) < 2:
                assert time.monotonic() < deadline and proc.is_alive(), "the groups never trained"
                time.sleep(0.01)
            time.sleep(0.2)  # both groups are training
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.join()
        await_end([int(pid) for pid in pids.read_text().split()],
                  "a group process outlived its parent")
        assert "Traceback" not in log.read_text()

    @pytest.mark.parametrize("case", ["memory_store", "over_cap"])
    def test_rejected_before_forking(self, tmp_path, case):
        groups, shards, val = self.two_groups()
        cfg, store = CodistillConfig(2, 10, 10), FileCheckpointStore(tmp_path, ARCH)
        if case == "memory_store":
            store = InMemoryCheckpointStore(ARCH)
        else:
            n = distrib.MAX_GROUP_PROCESSES + 1
            cfg = CodistillConfig(n, 10, 10)
            groups, shards = [sgd_group(i) for i in range(n)], shards[:1] * n
        with pytest.raises(ValueError):
            codistill_train_concurrent(ARCH, cfg, groups, shards, 10, store, val)
        assert multiprocessing.active_children() == []

    def test_failed_first_publish_releases_waiting_peers(self, tmp_path):
        """Group 0 cannot publish its first checkpoint; the peer waiting for
        it stops too, and the caller sees group 0's error, not the peer's."""
        groups, shards, val = self.two_groups()
        store = FileCheckpointStore(tmp_path, ARCH)
        publish = store.publish

        def failing_publish(ckpt, entity=None):
            if ckpt.model_id == 0:
                raise OSError("disk full")
            publish(ckpt, entity)

        store.publish = failing_publish
        out = run_in_thread(lambda: codistill_train_concurrent(
            ARCH, CodistillConfig(2, 10, 10), groups, shards, 50, store, val))
        err = out["error"]
        assert isinstance(err, OSError) and "disk full" in str(err)
        assert [(r.run_id, r.step) for r in err.records] == [("model0", 0), ("model1", 0)]


class TestConcurrentLedgerParity:
    """Lockstep and concurrent runs count the same checkpoint bytes: a run
    charges one ledger, ``ledger=`` or else its store's, and a store with
    no ledger counts none, in either mode."""

    TRAIN = {"lockstep": codistill_train, "concurrent": codistill_train_concurrent}

    def run(self, mode, store, ledger):
        train, val = make_task(n=400)
        plan = make_shards(train, "disjoint", 2, 11)
        return run_in_thread(lambda: self.TRAIN[mode](
            ARCH, CodistillConfig(2, 10, 10), [sgd_group(1), sgd_group(2)],
            [plan.shard(train, i) for i in range(2)], 20, store, val, eval_every=10,
            ledger=ledger))

    @pytest.mark.parametrize("mode", ["lockstep", "concurrent"])
    @pytest.mark.parametrize("charged", ["run_and_store", "run_only", "store_only"])
    def test_records_and_ledger_agree(self, mode, charged, tmp_path):
        ledger, pb = CommLedger(), param_count(ARCH) * 8
        store = FileCheckpointStore(tmp_path, ARCH, None if charged == "run_only" else ledger)
        result = self.run(mode, store, None if charged == "store_only" else ledger)["result"]
        # each model publishes and loads its peer at steps 0 and 10
        ckpt = 0 if charged == "run_only" else 4 * pb
        assert [r.bytes_checkpoint for r in result.records if r.step == 20] == [ckpt, ckpt]
        assert ledger.total("checkpoint_publish") + ledger.total("checkpoint_load") == 2 * ckpt
        assert ledger.total("gradient_exchange") == 2 * 20 * pb

    @pytest.mark.parametrize("mode", ["lockstep", "concurrent"])
    def test_store_charging_another_ledger_is_refused(self, mode, tmp_path):
        store = FileCheckpointStore(tmp_path, ARCH, CommLedger())
        err = self.run(mode, store, CommLedger())["error"]
        assert isinstance(err, ValueError) and "another ledger" in str(err)


def token_dataset(arch, n, seed):
    """A seeded lm dataset of ``n`` random windows and next tokens."""
    rng = np.random.default_rng(seed)
    return Dataset(rng.integers(0, arch.vocab_size, size=(n, arch.context_window)),
                   rng.integers(0, arch.output_dim, size=n), "lm", arch.output_dim)


def next_batch(runner):
    """The runner's next step batch, gathered by ``step_batches`` into
    buffers of the stack's types."""
    arch, rows = runner.arch, runner.group.n_workers * runner.group.batch_size
    x, y = Plan(arch, 1, rows, n_grad=0).inputs[0], np.empty(rows, np.int64)
    runner.step_batches(x, y)
    return Batch(x, y)


LM_ARCH = Architecture(3 * 4, (10, 6), 9, task="lm_fixed_context", context_window=3,
                       vocab_size=9, embedding_dim=4)


class TestStackBuffers:
    """The stacked step writes into buffers it reuses: one parameter buffer,
    the teacher rows after the students', a plan for its pass, a loss plan,
    the optimizer's in-place buffer form. Its numbers stay those of
    each group alone and of the pure forms, with or without a teacher, and
    what it hands out stays valid."""

    @staticmethod
    def runners(arch, kind, seeds, rows=8, n_workers=1):
        group = lambda seed: GroupConfig(n_workers, rows, OptimizerConfig(kind, 0.05),  # noqa: E731
                                         CombinedLossSpec(), seed)
        if arch.task == "lm_fixed_context":
            return [GroupRunner(arch, group(s), token_dataset(arch, 64, s)) for s in seeds]
        train, _ = make_task()
        return [GroupRunner(arch, group(s), train) for s in seeds]

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("task", ["classification", "lm"])
    def test_feed_gathers_the_reference_batches(self, task, n_workers, tmp_path):
        """After ``_feed`` each group's rows of the input and label buffers
        hold the worker-order concatenation of its W reference batches
        (``int64_stream``: int64 ids and indices, ``rng.permutation``
        orders), over two epochs of two disjoint shards; the lm's source is
        its corpus's strided window view."""
        if task == "lm":
            path = tmp_path / "corpus.txt"
            path.write_text("the quick brown fox jumps over the lazy dog; " * 8,
                            encoding="utf-8")
            ds = ingest_text(path, 3)
            arch = Architecture(3 * 2, (5,), ds.n_classes, task="lm_fixed_context",
                                context_window=3, vocab_size=ds.n_classes, embedding_dim=2)
        else:
            ds, arch = gen_classification(2, 150, ARCH.input_dim, ARCH.output_dim, 0.3), ARCH
        train, _ = split_train_val(ds, 0.2, 1)
        plan = make_shards(train, "disjoint", 2, 4)
        shards = [plan.shard(train, i) for i in range(2)]
        groups = [sgd_group(10 + i, n_workers=n_workers, batch=5) for i in range(2)]
        stack = distrib._Stack([GroupRunner(arch, g, sh) for g, sh in zip(groups, shards)])
        refs = [[int64_stream(sh, 5, np.random.SeedSequence([g.seed, w]))
                 for w in range(n_workers)] for g, sh in zip(groups, shards)]
        for _ in range(2 * (min(sh.n for sh in shards) // 5)):
            stack._feed()
            for i, streams in enumerate(refs):
                parts = [next(s) for s in streams]
                assert np.array_equal(stack._x[i], np.concatenate([p.inputs for p in parts]))
                assert np.array_equal(stack._labels[i],
                                      np.concatenate([p.labels for p in parts]))

    def test_lm_head_narrower_than_its_vocabulary(self):
        """The embedding and the token range are the vocabulary's, the output
        layer and the labels the head's: 2 outputs over 9 tokens train, each
        model equal to its row of a stack, and its checkpoint round-trips."""
        arch = Architecture(3 * 4, (10,), 2, task="lm_fixed_context", context_window=3,
                            vocab_size=9, embedding_dim=4)
        seeds = [3, 4]
        stack = distrib._Stack(self.runners(arch, "adagrad", seeds))
        alone = [distrib._Stack(self.runners(arch, "adagrad", [s])) for s in seeds]
        for _ in range(4):
            losses = stack.step()
            for row, one in enumerate(alone):
                assert one.step() == [losses[row]]
                assert np.array_equal(one.values[0], stack.values[row])
        trained = stack.params(1)
        assert not np.array_equal(trained.values, init_params(arch, 4).values)
        back, step, model_id, _ = deserialize_checkpoint(
            serialize_params(trained, step=4, model_id=1), arch)
        assert (step, model_id) == (4, 1) and np.array_equal(back.values, trained.values)

    def test_token_ids_are_range_checked_at_every_step(self):
        """A source token at the vocabulary's size fails the step's forward,
        before any group is updated."""
        ds = token_dataset(LM_ARCH, 64, 3)
        inputs = np.array(ds.source_inputs)
        inputs[:, 1] = LM_ARCH.vocab_size
        bad = Dataset(inputs, ds.source_labels, "lm", LM_ARCH.output_dim)
        group = GroupConfig(1, 8, OptimizerConfig("sgd", 0.05), CombinedLossSpec(), 3)
        stack = distrib._Stack([GroupRunner(LM_ARCH, group, bad)])
        before = stack.values.copy()
        with pytest.raises(ValueError, match="token id out of range"):
            stack.step()
        assert np.array_equal(stack.values, before)

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adagrad"])
    @pytest.mark.parametrize("arch", [ARCH, LM_ARCH], ids=["classification", "lm"])
    def test_stack_of_n_equals_n_stacks_of_one(self, kind, arch):
        """Student s's one teacher is row s of ``teachers``, on every other step."""
        seeds = [3, 4, 5]
        teachers = np.stack([init_params(arch, 50 + s).values for s in seeds])
        spec = CombinedLossSpec("soft_cross_entropy", 0.5)
        stack = distrib._Stack(self.runners(arch, kind, seeds), 1)
        stack.set_teachers(teachers)
        alone = [distrib._Stack(self.runners(arch, kind, [s]), 1) for s in seeds]
        for row, one in enumerate(alone):
            one.set_teachers(teachers[row:row + 1])
        for k in range(4):
            losses = stack.step(spec if k % 2 else None)
            for row, one in enumerate(alone):
                assert one.step(spec if k % 2 else None) == [losses[row]]
                assert np.array_equal(one.values[0], stack.values[row])
                for name in ("m", "v", "acc"):
                    mine = getattr(stack.opt_state, name)
                    if mine is not None:
                        assert np.array_equal(getattr(one.opt_state, name)[0], mine[row])

    @pytest.mark.parametrize("distill", ["soft_cross_entropy", "kl_divergence", "logit_mse"])
    @pytest.mark.parametrize("kind", ["sgd", "adam", "adagrad"])
    @pytest.mark.parametrize("arch", [ARCH, LM_ARCH], ids=["classification", "lm"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("n_models", [1, 2, 3])
    def test_teacher_rows_equal_stacks_of_one_and_pure_forms(self, n_models, n_workers, arch,
                                                            kind, distill):
        """Each student's 2 teachers run in the students' forward; every step
        of the stack equals a stack of one per group and the pure forms
        (``forward``, ``mean_teacher_fn``, ``combined_loss``, ``backward``,
        ``optim.step`` without buffers), through burn-in, teacher steps, steps
        toward a constant signal, and a reload of new teacher rows after it."""
        k, seeds = 2, [3, 4, 5][:n_models]
        spec = CombinedLossSpec(distill, 0.5)
        target = np.full(arch.output_dim, 1.0 / arch.output_dim)
        if distill == "logit_mse":
            target -= 0.5
        stack = distrib._Stack(self.runners(arch, kind, seeds, n_workers=n_workers), k)
        alone = [distrib._Stack(self.runners(arch, kind, [s], n_workers=n_workers), k)
                 for s in seeds]
        pure = self.runners(arch, kind, seeds, n_workers=n_workers)  # draws the same batches
        opt = pure[0].group.optimizer
        values = [r.params.values[None] for r in pure]
        states = [optim.init_state(opt, v.shape) for v in values]
        for s, step in enumerate(["none", "rows", "signal", "signal", "rows", "none"]):
            if s in (0, 4):  # the stacks' first teacher rows, then a reload of new ones
                rows = np.stack([init_params(arch, 100 * s + j).values
                                 for j in range(k * n_models)])
                stack.set_teachers(rows)
                for i, one in enumerate(alone):
                    one.set_teachers(rows[k * i:k * (i + 1)])
            if s == 2:
                for one in [stack] + alone:
                    one.set_signal(target)
            losses = stack.step(None if step == "none" else spec)
            for i, (one, runner) in enumerate(zip(alone, pure)):
                assert one.step(None if step == "none" else spec) == [losses[i]]
                assert np.array_equal(one.values[0], stack.values[i])
                batch = next_batch(runner)
                teacher = None
                if step == "rows":
                    members = [Parameters(arch, v) for v in rows[k * i:k * (i + 1)]]
                    teacher = mean_teacher_fn(members, distill)(batch)[None]
                elif step == "signal":
                    teacher = np.tile(target, (1, batch.size, 1))
                params = Parameters(arch, values[i][0])
                loss, dlogits = combined_loss(CombinedLossSpec() if step == "none" else spec,
                                              batch.labels[None], forward(params, batch)[None],
                                              teacher)
                assert loss.tolist() == [losses[i]]
                grad = backward(params, batch, dlogits[0])[None]
                values[i], states[i] = optim.step(opt, states[i], values[i], grad)
                assert np.array_equal(values[i][0], stack.values[i])
                for name in ("m", "v", "acc"):
                    mine = getattr(stack.opt_state, name)
                    if mine is not None:
                        assert np.array_equal(getattr(one.opt_state, name)[0], mine[i])
                        assert np.array_equal(getattr(states[i], name)[0], mine[i])

    def test_four_model_lm_stack_equals_stacks_of_one(self):
        """The lm workload's stack shape: 4 students with 3 teacher rows each,
        so its backward buffers all live in the teacher rows. Through burn-in,
        teacher steps and a reload of new teacher rows, each student equals a
        stack of one bit for bit."""
        k, seeds = 3, [3, 4, 5, 6]
        spec = CombinedLossSpec("soft_cross_entropy", 1.0)
        stack = distrib._Stack(self.runners(LM_ARCH, "adagrad", seeds, n_workers=2), k)
        alone = [distrib._Stack(self.runners(LM_ARCH, "adagrad", [s], n_workers=2), k)
                 for s in seeds]
        spent = stack._whole_pass.acts[0][len(seeds):]  # the teacher rows' embeddings
        assert np.shares_memory(stack._pass.flat, spent)
        assert np.shares_memory(stack._pass.dinput, spent)
        for s in range(7):
            if s in (2, 5):  # first teacher rows, then a reload
                rows = np.stack([init_params(LM_ARCH, 10 * s + j).values
                                 for j in range(k * len(seeds))])
                stack.set_teachers(rows)
                for i, one in enumerate(alone):
                    one.set_teachers(rows[k * i:k * (i + 1)])
            losses = stack.step(None if s < 2 else spec)
            for i, one in enumerate(alone):
                assert one.step(None if s < 2 else spec) == [losses[i]]
                assert np.array_equal(one.values[0], stack.values[i])
                assert np.array_equal(one.opt_state.acc[0], stack.opt_state.acc[i])

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_handed_out_parameters_stay_valid(self, n_cpus, monkeypatch):
        """A published checkpoint, an ``after_eval`` member (checked where
        after_eval runs, which may be the evaluator process) and a runner's
        parameters after the loop are bit-unchanged 3 or more steps later."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        train, val = make_task()
        shards = [make_shards(train, "disjoint", 2, 11).shard(train, i) for i in range(2)]
        groups = [sgd_group(100 + i) for i in range(2)]
        published = []

        class KeepingStore(InMemoryCheckpointStore):
            def publish(self, ckpt, entity=None):
                super().publish(ckpt, entity)
                published.append((self.load_latest(ckpt.model_id), ckpt.params.values.copy()))

        kept = []

        def after_eval(step, members, params, t0):
            """Keeps each point's params; 1.0 while every kept one is unchanged."""
            kept.extend((p, p.values.copy()) for p in params)
            same = all(np.array_equal(p.values, copy) for p, copy in kept)
            return distrib.MetricRecord("kept", step, 0.0, None, float(same), 0.0)

        store = KeepingStore(ARCH)
        runners = distrib._peer_runners(ARCH, CodistillConfig(2, 2, 2), groups, shards,
                                        store, None, "m")
        records = []
        distrib._train_loop(runners, 12, val, 1, records,
                            distrib._PeerTeachers(CodistillConfig(2, 2, 2), runners, store),
                            after_eval=after_eval)
        assert [r.validation_loss for r in records if r.run_id == "kept"] == [1.0] * 13
        assert len(published) == 12 and all(np.array_equal(ck.params.values, copy)
                                            for ck, copy in published)
        final = [(r.params, r.params.values.copy()) for r in runners]
        distrib._train_loop(runners, 4, val, 2, [])
        assert all(np.array_equal(p.values, copy) for p, copy in final)

    def test_teacher_rows_are_held_once(self):
        """A 4-model codistillation stack (T = 12 teacher rows) holds N + T
        parameter rows and an (N, P) scratch array besides its plan, not two
        (N + T, P) buffers: the most it allocates, less what its plan
        allocates alone, stays within 2N + T rows (36 KB each here) and
        64 KiB of small buffers."""
        arch, n, k, rows = Architecture(32, (64, 32), 10), 4, 3, 8
        shard = gen_classification(0, 20, 32, 10, 0.3)
        runners = [GroupRunner(arch, GroupConfig(1, rows, OptimizerConfig("sgd", 0.1),
                                                 CombinedLossSpec(), s), shard)
                   for s in range(n)]
        row_bytes = param_count(arch) * 8

        def peak_of(build) -> int:
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        plan = peak_of(lambda: Plan(arch, n * (1 + k), rows, n_grad=n))
        stack = peak_of(lambda: distrib._Stack(runners, k))
        assert stack - plan <= (2 * n + n * k) * row_bytes + 64 * 1024, (
            f"{(stack - plan) / row_bytes:.1f} parameter rows")


class TestCallBudget:
    """Python-level calls per lockstep step on the desk task, counted as
    ``sys.setprofile`` "call" events over 10 steps: a step whose views,
    buffers and index arrays are bound once per loop leaves one call per
    group's batch and one per part of the step. Each budget is a third of
    the count before the step was bound: 874 calls over teacher-phase steps
    51-60 of a 2-model codistillation stack, the teacher source's calls
    included (one of the steps starts an epoch), and 400 over baseline steps
    51-60. A label-smoothing step, whose constant teacher the stack holds
    from step 0, stays within 20 calls: 30 before the stack held it."""

    ARCH = Architecture(32, (64, 32), 10)
    WINDOW = range(51, 61)  # after burn-in, between the reloads at 50 and 100

    def count(self, monkeypatch, run) -> int:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # validation inline
        window, calls = self.WINDOW, [0]
        step, source = distrib._Stack.step, distrib._PeerTeachers.__call__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is not counted_step.__code__:
                calls[0] += 1

        def counted_source(teachers, s, stack):
            if s in window:
                sys.setprofile(profile)
            return source(teachers, s, stack)

        def counted_step(stack, spec=None):
            if stack.runners[0].step_index in window:
                sys.setprofile(profile)
            try:
                return step(stack, spec)
            finally:
                sys.setprofile(None)

        monkeypatch.setattr(distrib._Stack, "step", counted_step)
        monkeypatch.setattr(distrib._PeerTeachers, "__call__", counted_source)
        ds = gen_classification(7, 4000, 32, 10, 0.5)
        train, val = split_train_val(ds, 0.1, 7)
        run(train, val.as_batch())
        return calls[0]

    def group(self, i):
        return GroupConfig(1, 32, OptimizerConfig("adagrad", 0.1), CombinedLossSpec(), 100 + i)

    def test_codistillation_teacher_phase(self, monkeypatch):
        def run(train, val):
            plan = make_shards(train, "disjoint", 2, 7)
            codistill_train(self.ARCH, CodistillConfig(2, 50, 50), [self.group(0), self.group(1)],
                            [plan.shard(train, i) for i in range(2)], 61,
                            InMemoryCheckpointStore(self.ARCH), val, eval_every=100)

        calls = self.count(monkeypatch, run)
        assert calls <= 874 / 3, f"{calls / 10} calls per step"

    def test_baseline(self, monkeypatch):
        def run(train, val):
            train_baseline(self.ARCH, self.group(0), train, 61, val, eval_every=100)

        calls = self.count(monkeypatch, run)
        assert calls <= 400 / 3, f"{calls / 10} calls per step"

    @pytest.mark.parametrize("kind", ["uniform", "unigram"])
    def test_label_smoothing(self, kind, monkeypatch):
        def run(train, val):
            runner = GroupRunner(self.ARCH, self.group(0), train)
            distrib._train_loop([runner], 61, val, 100, [],
                                experiments._smoothing_teachers(kind, train, 0.1))

        calls = self.count(monkeypatch, run)
        assert calls <= 20 * 10, f"{calls / 10} calls per step"


class TestMeanTeacher:
    def test_needs_a_teacher(self):
        with pytest.raises(ValueError, match="need at least one teacher"):
            mean_teacher_fn([], "soft_cross_entropy")

    def test_probability_form_is_member_mean(self):
        train, _ = make_task()
        models = [init_params(ARCH, s) for s in (1, 2, 3)]
        batch = Batch(train.inputs[:6], train.labels[:6])
        got = mean_teacher_fn(models, "soft_cross_entropy")(batch)
        want = sum(predict_proba(m, batch) for m in models) / 3
        assert np.abs(got - want).max() < 1e-15
        assert np.abs(got.sum(axis=1) - 1.0).max() < 1e-12

    def test_logit_form_for_mse(self):
        train, _ = make_task()
        models = [init_params(ARCH, s) for s in (4, 5)]
        batch = Batch(train.inputs[:6], train.labels[:6])
        got = mean_teacher_fn(models, "logit_mse")(batch)
        want = (forward(models[0], batch) + forward(models[1], batch)) / 2
        assert np.abs(got - want).max() < 1e-15

    def test_checks_the_batch_width(self):
        fn = mean_teacher_fn([init_params(ARCH, 1)], "soft_cross_entropy")
        with pytest.raises(ValueError, match="input_dim"):
            fn(Batch(np.zeros((3, ARCH.input_dim + 1)), np.zeros(3, dtype=int)))


class TestThreeModelCodistill:
    @pytest.mark.parametrize("backing", ["memory", "file"])
    def test_runs_and_ledger_matches(self, backing, tmp_path, monkeypatch):
        """Each published version is decoded once, though two peers load it;
        the ledger still charges every load."""
        decodes = []
        decode = distrib.deserialize_checkpoint

        def counting(data, arch):
            decodes.append(1)
            return decode(data, arch)

        monkeypatch.setattr(distrib, "deserialize_checkpoint", counting)
        train, val = make_task(n=600)
        plan = make_shards(train, "disjoint", 3, 2)
        shards = [plan.shard(train, i) for i in range(3)]
        groups = [sgd_group(200 + i) for i in range(3)]
        ledger = CommLedger()
        store = make_store(backing, tmp_path, ledger)
        cfg = CodistillConfig(3, 20, 20)
        result = codistill_train(ARCH, cfg, groups, shards, 90, store, val,
                                 eval_every=45, ledger=ledger)
        assert len(result.params) == 3
        report = comm_report(ledger, param_count(ARCH), 90, groups[0], cfg)
        # 5 exchange rounds per group: 1 publish + 2 loads each
        assert report.actual_checkpoint_total == report.expected_checkpoint_total
        assert report.actual_checkpoint_total == 3 * 5 * 3 * param_count(ARCH) * 8
        # 30 loads of 15 published versions (3 models, steps 0, 20, 40, 60, 80)
        assert len(decodes) == 15
        assert store.load_latest(0).step == 80 and len(decodes) == 15
        store.publish(Checkpoint(0, 90, result.params[0]))
        assert store.load_latest(0).step == 90 and len(decodes) == 16
        assert store.load_latest(0).step == 90 and len(decodes) == 16

    def test_lockstep_loads_read_no_file(self, tmp_path, monkeypatch):
        """A store decodes what it publishes, so the loads of a lockstep run
        over a file store open no checkpoint file for reading; a fresh
        store's load of the same directory does."""
        reads = []

        def counting(open_fn, reads_only):
            def opening(path, *args, **kwargs):
                if (not isinstance(path, int) and "ckpt_" in os.fspath(path)
                        and reads_only(*args, **kwargs)):
                    reads.append(os.fspath(path))
                return open_fn(path, *args, **kwargs)
            return opening

        def mode_reads(mode="r", *args, **kwargs):
            return "r" in mode and "+" not in mode

        def flags_read(flags, *args, **kwargs):
            return flags & os.O_ACCMODE == os.O_RDONLY

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # validation inline
        reading_open = counting(builtins.open, mode_reads)
        monkeypatch.setattr(builtins, "open", reading_open)
        monkeypatch.setattr(io, "open", reading_open)  # what pathlib opens through
        monkeypatch.setattr(os, "open", counting(os.open, flags_read))
        train, val = make_task(n=600)
        plan = make_shards(train, "disjoint", 3, 2)
        ledger = CommLedger()
        store = FileCheckpointStore(tmp_path, ARCH, ledger)
        codistill_train(ARCH, CodistillConfig(3, 20, 20), [sgd_group(200 + i) for i in range(3)],
                        [plan.shard(train, i) for i in range(3)], 90, store, val,
                        eval_every=45, ledger=ledger)
        assert ledger.total("checkpoint_load") == 3 * 5 * 2 * param_count(ARCH) * 8
        assert reads == []
        assert FileCheckpointStore(tmp_path, ARCH).load_latest(0).step == 80
        assert len(reads) == 1 and "ckpt_0.80." in reads[0]


class TestStoreCounters:
    def test_bytes_written_and_read(self, tmp_path):
        """The ledger is the one byte counter of both stores: one publish and
        two loads charge the logical payload once per call, a miss nothing."""
        pb = param_count(ARCH) * 8
        for backing in ("memory", "file"):
            ledger = CommLedger()
            store = make_store(backing, tmp_path / backing, ledger)
            store.publish(Checkpoint(0, 1, init_params(ARCH, 0)), entity="g0")
            store.load_latest(0, entity="g1")
            store.load_latest(0, entity="g1")
            assert store.load_latest(1, entity="g1") is None
            assert ledger.total("checkpoint_publish", "g0") == pb
            assert ledger.total("checkpoint_load", "g1") == 2 * pb
            assert ledger.total() == 3 * pb  # no other (entity, cause) was charged


def plant(store, tmp_path, data):
    """Put raw bytes where model 0's checkpoint lives, bypassing publish:
    for the file store, a target file and the link to it."""
    if isinstance(store, FileCheckpointStore):
        (tmp_path / "ckpt_0.1.planted.bin").write_bytes(data)
        os.symlink("ckpt_0.1.planted.bin", tmp_path / "ckpt_0.bin")
    else:
        store._blobs[0] = data


class TestStoreFaults:
    """Damaged checkpoints fail loudly with a named error and charge no load."""

    BLOB = serialize_params(init_params(ARCH, 0), step=1)

    @pytest.mark.parametrize("backing", ["memory", "file"])
    @pytest.mark.parametrize("damage, error, match", [
        (lambda b: b[:-8], TruncatedPayloadError, "expected"),
        (lambda b: b"XXXX" + b[4:], CorruptHeaderError, "magic"),
        (lambda b: b[:-8] + np.array([np.nan]).tobytes(), SerializationError, "non-finite"),
    ], ids=["truncated", "bad_magic", "non_finite"])
    def test_damaged_checkpoint_raises(self, backing, damage, error, match, tmp_path):
        ledger = CommLedger()
        store = make_store(backing, tmp_path, ledger)
        plant(store, tmp_path, damage(self.BLOB))
        with pytest.raises(error, match=match):
            store.load_latest(0)
        assert ledger.total("checkpoint_load") == 0

    def test_regular_file_at_the_link_raises_a_named_error(self, tmp_path):
        """No store writes a regular file where a model's link lives; a load
        that finds one names it, whatever its bytes, and charges nothing."""
        (tmp_path / "ckpt_0.bin").write_bytes(self.BLOB)
        ledger = CommLedger()
        with pytest.raises(SerializationError, match="model 0.*ckpt_0.bin is not a symbolic link"):
            FileCheckpointStore(tmp_path, ARCH, ledger).load_latest(0)
        assert ledger.total("checkpoint_load") == 0

    def test_leftover_temp_files_are_ignored(self, tmp_path):
        store = FileCheckpointStore(tmp_path, ARCH)
        p = init_params(ARCH, 0)
        store.publish(Checkpoint(0, 1, p))
        (tmp_path / ".ckpt_0.abc123.tmp").write_bytes(self.BLOB[:50])
        (tmp_path / ".ckpt_1.def456.tmp").write_bytes(self.BLOB)
        ck = store.load_latest(0)
        assert ck.step == 1 and np.array_equal(ck.params.values, p.values)
        assert store.load_latest(1) is None

    def test_failed_swap_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        """A publish that fails after writing its file but before the link
        swap re-raises; the previous checkpoint stays the one loaded, by the
        publishing store and by a fresh one, and the new file is gone."""
        store = FileCheckpointStore(tmp_path, ARCH)
        p = init_params(ARCH, 0)
        store.publish(Checkpoint(0, 1, p))
        before = sorted(os.listdir(tmp_path))

        def failing_replace(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="no space"):
            store.publish(Checkpoint(0, 2, init_params(ARCH, 1)))
        monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == before
        for reader in (store, FileCheckpointStore(tmp_path, ARCH)):
            ck = reader.load_latest(0)
            assert ck.step == 1 and np.array_equal(ck.params.values, p.values)
        store.publish(Checkpoint(0, 2, init_params(ARCH, 1)))
        assert store.load_latest(0).step == 2

    def test_dangling_link_raises_a_named_error(self, tmp_path, monkeypatch):
        """A link whose file is gone is neither "not published yet" nor a
        reason to retry forever."""
        os.symlink("ckpt_0.7.gone.bin", tmp_path / "ckpt_0.bin")
        readlink = os.readlink
        calls = []

        def counting(path):
            calls.append(path)
            return readlink(path)

        monkeypatch.setattr(os, "readlink", counting)
        with pytest.raises(SerializationError, match="model 0.*ckpt_0.7.gone.bin"):
            FileCheckpointStore(tmp_path, ARCH).load_latest(0)
        assert len(calls) == distrib.LOAD_TRIES

    def test_each_model_keeps_one_file(self, tmp_path):
        """A publish unlinks the file the replaced link named."""
        store = FileCheckpointStore(tmp_path, ARCH)
        for step in range(1, 51):
            for i in range(2):
                store.publish(Checkpoint(i, step, init_params(ARCH, i)))
        for i in range(2):
            targets = [p.name for p in tmp_path.glob(f"ckpt_{i}.*.bin")]
            assert targets == [os.readlink(tmp_path / f"ckpt_{i}.bin")]
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["ckpt_0.bin", "ckpt_1.bin"] + [os.readlink(tmp_path / f"ckpt_{i}.bin")
                                            for i in range(2)])

    def test_publish_resolves_the_link_once_per_store(self, tmp_path, monkeypatch):
        """A store remembers the target it last published, so only its first
        publish of a model reads the link, and that one still removes what an
        earlier store left."""
        readlink = os.readlink
        calls = []

        def counting(path):
            calls.append(path)
            return readlink(path)

        monkeypatch.setattr(os, "readlink", counting)
        first = FileCheckpointStore(tmp_path, ARCH)
        for step in range(1, 4):
            first.publish(Checkpoint(0, step, init_params(ARCH, step)))
        assert len(calls) == 1
        second = FileCheckpointStore(tmp_path, ARCH)
        for step in range(4, 7):
            second.publish(Checkpoint(0, step, init_params(ARCH, step)))
        assert len(calls) == 2
        monkeypatch.undo()
        assert [p.name for p in tmp_path.glob("ckpt_0.*.bin")] == [
            os.readlink(tmp_path / "ckpt_0.bin")]
        assert second.load_latest(0).step == 6

    def test_cross_process_publish_load_never_torn(self, tmp_path):
        """A forked process publishes while this one loads: every load is a
        complete checkpoint (its values match its step), steps never go
        back, and once one load has found a checkpoint none finds nothing."""
        base = init_params(ARCH, 0).values
        n = 300

        def publisher():
            store = FileCheckpointStore(tmp_path, ARCH)
            for step in range(1, n + 1):
                store.publish(Checkpoint(0, step, Parameters(ARCH, base + step)))

        store = FileCheckpointStore(tmp_path, ARCH)
        proc = multiprocessing.get_context("fork").Process(target=publisher, daemon=True)
        steps = []
        proc.start()
        try:
            deadline = time.monotonic() + 60
            while proc.is_alive() and time.monotonic() < deadline:
                ck = store.load_latest(0)
                if ck is None:
                    assert not steps, "a load found nothing after one found a checkpoint"
                    continue
                assert np.array_equal(ck.params.values, base + ck.step)
                steps.append(ck.step)
        finally:
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        assert proc.exitcode == 0
        assert steps and steps == sorted(steps)
        assert store.load_latest(0).step == n
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("backing", ["memory", "file"])
    def test_missing_peer_names_the_model(self, backing, tmp_path):
        train, val = make_task(n=400)
        plan = make_shards(train, "disjoint", 2, 11)
        store = make_store(backing, tmp_path)
        publish = store.publish
        store.publish = lambda ckpt, entity=None: (None if ckpt.model_id == 1
                                                   else publish(ckpt, entity))
        with pytest.raises(RuntimeError, match="model 1"):
            codistill_train(ARCH, CodistillConfig(2, 10, 10), [sgd_group(1), sgd_group(2)],
                            [plan.shard(train, i) for i in range(2)], 20, store, val)


class TestCommReport:
    def test_sync_cost_example(self):
        # one million 8-byte params, four workers: 64 MB per step
        group = GroupConfig(4, 128, OptimizerConfig("sgd", 0.1), CombinedLossSpec(), 0)
        report = comm_report(CommLedger(), 1_000_000, 1, group)
        assert report.sync_bytes_per_step_per_group == 2 * 4 * 8 * 1_000_000

    def test_overlay_and_ratio_example(self):
        group = GroupConfig(4, 128, OptimizerConfig("sgd", 0.1), CombinedLossSpec(), 0)
        cfg = CodistillConfig(2, 50, 50)
        report = comm_report(CommLedger(), 1_000_000, 100, group, cfg)
        # (2 * 8 MB) / 50 = 0.32 MB per step per group
        assert report.overlay_bytes_per_step_per_group == (2 * 8_000_000) / 50
        assert report.sync_to_overlay_ratio == 200.0


class TestOfflineDistill:
    def setup_method(self):
        self.train, self.val = make_task(n=800)
        plan = make_shards(self.train, "disjoint", 2, 3)
        self.shards = [plan.shard(self.train, i) for i in range(2)]

    def test_zero_weight_phase2_is_baseline(self):
        student = sgd_group(55)
        result = offline_distill(ARCH, [sgd_group(41), sgd_group(42)], student,
                                 self.shards, self.train, 40, 60, self.val,
                                 distill_weight=0.0, eval_every=30)
        expect, _ = train_baseline(ARCH, student, self.train, 60, self.val, eval_every=30)
        assert np.array_equal(result.student_params.values, expect.values)

    @pytest.mark.parametrize("distill, weight", [("none", 1.0), ("soft_cross_entropy", 0.0)])
    def test_static_teacher_with_the_term_off_holds_nothing(self, distill, weight):
        """With the term off a static teacher source keeps no teacher rows and
        gives the hard loss (None) at every step, never touching the stack."""
        teachers = distrib._StaticTeachers([init_params(ARCH, 1)], distill, weight)
        assert (teachers.spec, teachers.teacher, teachers.per_student) == (None, None, 0)
        assert [teachers(s, None) for s in range(3)] == [None] * 3

    def test_records_cover_both_phases(self):
        result = offline_distill(ARCH, [sgd_group(41), sgd_group(42)], sgd_group(55),
                                 self.shards, self.train, 30, 30, self.val, eval_every=30)
        run_ids = {r.run_id for r in result.records}
        assert run_ids == {"phase1.model0", "phase1.model1", "phase2.student"}


class TestLedger:
    def test_monotone_and_validated(self):
        ledger = CommLedger()
        ledger.add("a", "gradient_exchange", 10)
        ledger.add("a", "gradient_exchange", 5)
        assert ledger.total("gradient_exchange") == 15
        assert ledger.total(entity="a") == 15
        with pytest.raises(ValueError):
            ledger.add("a", "bogus", 1)
        with pytest.raises(ValueError):
            ledger.add("a", "checkpoint_load", -1)


class TestValidationPlan:
    def test_point_allocates_no_layer_outputs(self):
        """A lockstep evaluation point validates every model through the
        loop's one forward-only plan: after the first point, one over the
        desk validation set (5 000 rows, 2 models) allocates under 0.25 MB,
        the loss and accuracy reductions. Its layer outputs, about 4 MB per
        model freshly allocated, are the plan's, and the loss shifts the
        plan's logits in place rather than a 0.4 MB copy of them."""
        ds = gen_classification(7, 50000, 32, 10, 0.5)
        validation = split_train_val(ds, 0.1, 7)[1].as_batch()
        arch = Architecture(32, (64, 32), 10)
        values = np.stack([init_params(arch, s).values for s in (0, 1)])
        members = [(f"m{i}", 0, None, 0, 0) for i in range(2)]
        plan = Plan(arch, 1, validation.size, n_grad=0)
        first = distrib._point_records(validation, 0.0, None, plan, 0, values, members)
        tracemalloc.start()
        try:
            second = distrib._point_records(validation, 0.0, None, plan, 0, values, members)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250_000, f"{peak / 1e6:.2f} MB allocated"
        for a, b in zip(first, second):
            assert (a.validation_loss, a.validation_accuracy) == (b.validation_loss,
                                                                  b.validation_accuracy)


class TestLockstepEvaluation:
    """Lockstep validation runs in one forked evaluator process when at least
    2 CPUs are available and inline otherwise, with the same records either
    way."""

    TINY = {"seeds": [0], "steps": 30, "eval_every": 10, "data.n": 400, "data.dim": 6,
            "data.classes": 3, "data.difficulty": 0.3, "data.seed": 5,
            "model.hidden": [12, 8], "opt.lr": 0.2, "codistill.burn_in": 10,
            "codistill.reload_interval": 10}

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @staticmethod
    def slow_evaluate(monkeypatch, seconds=0.05, pids=None):
        """distrib.evaluate that takes at least ``seconds`` and, given a
        ``pids`` path, appends the id of the process it ran in."""
        evaluate = distrib.evaluate

        def slow(params, validation, plan):
            if pids is not None:
                with open(pids, "a") as f:
                    f.write(f"{os.getpid()}\n")
            time.sleep(seconds)
            return evaluate(params, validation, plan)

        monkeypatch.setattr(distrib, "evaluate", slow)

    @staticmethod
    def outputs(out_dir):
        lines = (out_dir / "metrics.csv").read_text().splitlines()
        rows = [",".join(c for i, c in enumerate(line.split(",")) if i != 2) for line in lines]
        return rows, (out_dir / "summary.json").read_text()

    @staticmethod
    def fail_on_call(monkeypatch, n, fail):
        """distrib.evaluate whose ``n``-th call (counted in the process that
        evaluates) runs ``fail()`` instead."""
        evaluate, calls = distrib.evaluate, []

        def failing(params, validation, plan):
            calls.append(1)
            if len(calls) == n:
                fail()
            return evaluate(params, validation, plan)

        monkeypatch.setattr(distrib, "evaluate", failing)

    def test_validation_rows_are_gathered_where_validated(self, monkeypatch):
        """A row view's validation batch gathers its inputs in the process
        that validates: with 2 CPUs the forked evaluator, so the caller's
        batch is never gathered; inline, on one CPU, this process, once. The
        records are the same either way, and reading the batch's size or
        labels gathers nothing."""
        gathers = []

        class Counted(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, np.ndarray):
                    gathers.append(len(key))
                return super().__getitem__(key)

        ds = gen_classification(1, 600, ARCH.input_dim, ARCH.output_dim, 0.3)
        train, val = split_train_val(ds, 0.1, 1)
        counted = Dataset(ds.source_inputs.view(Counted), ds.source_labels, ds.kind,
                          ds.n_classes)
        records = {}
        for n_cpus in (2, 1):
            self.cpus(monkeypatch, n_cpus)
            validation = split_train_val(counted, 0.1, 1)[1].as_batch()
            assert validation.size == val.n and np.array_equal(validation.labels, val.labels)
            assert gathers == []
            _, recs = train_baseline(ARCH, sgd_group(3), train, 30, validation, 10)
            assert gathers == ([] if n_cpus == 2 else [val.n])
            records[n_cpus] = [dataclasses.replace(r, wall_seconds=0.0) for r in recs]
        assert records[2] == records[1]
        assert np.array_equal(validation.inputs, val.inputs) and gathers == [val.n]

    @pytest.mark.parametrize("kind", ["baseline", "codistill", "ensemble_baseline"])
    def test_evaluator_process_matches_inline(self, kind, tmp_path, monkeypatch):
        """With 2 CPUs every validation pass runs in one other process, forked
        once for the loop; with one CPU all run in this one."""
        pids = tmp_path / "pids"
        self.slow_evaluate(monkeypatch, 0.0, pids)
        self.cpus(monkeypatch, 2)
        experiments.run({**self.TINY, "kind": kind}, tmp_path / "evaluator")
        forked = set(pids.read_text().split())
        assert len(forked) == 1 and str(os.getpid()) not in forked, \
            "an evaluation ran in the training process"
        pids.unlink()
        self.cpus(monkeypatch, 1)
        experiments.run({**self.TINY, "kind": kind}, tmp_path / "inline")
        assert set(pids.read_text().split()) == {str(os.getpid())}
        assert self.outputs(tmp_path / "evaluator") == self.outputs(tmp_path / "inline")

    @pytest.mark.parametrize("kind", ["baseline", "codistill"])
    def test_slow_evaluator_sees_each_point_unchanged(self, kind, tmp_path, monkeypatch):
        """With every validation pass slower than the training steps between
        two points, the evaluator still reads each point's own parameters
        from the shared slot: the records equal the inline path's."""
        self.slow_evaluate(monkeypatch, 0.05)
        cfg = {**self.TINY, "kind": kind, "eval_every": 3}
        self.cpus(monkeypatch, 2)
        experiments.run(cfg, tmp_path / "evaluator")
        self.cpus(monkeypatch, 1)
        experiments.run(cfg, tmp_path / "inline")
        assert self.outputs(tmp_path / "evaluator") == self.outputs(tmp_path / "inline")

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_divergence_after_an_evaluation_keeps_its_records(self, n_cpus, tmp_path,
                                                              monkeypatch):
        """Training fails 3 steps after the step-10 evaluation point, while its
        slow validation pass is still running in the evaluator process."""
        self.cpus(monkeypatch, n_cpus)
        self.slow_evaluate(monkeypatch, 0.2)
        step_batches = GroupRunner.step_batches

        def diverging(runner, *args):
            if runner.step_index == 13:
                raise DivergenceError(13)
            return step_batches(runner, *args)

        monkeypatch.setattr(GroupRunner, "step_batches", diverging)
        with pytest.raises(DivergenceError) as err:
            experiments.run({**self.TINY, "kind": "baseline"}, tmp_path)
        assert [r.step for r in err.value.records] == [0, 10]
        rows, _ = self.outputs(tmp_path)
        assert [row.split(",")[1] for row in rows[1:]] == ["0", "10"]

    @pytest.mark.parametrize("outcome", ["finished", "diverged", "interrupted"])
    def test_no_thread_outlives_the_loop(self, outcome, monkeypatch):
        """One evaluator process and no thread runs beside training, and
        neither is left once the loop returns or raises, also from inside a
        training step."""
        self.cpus(monkeypatch, 2)
        self.slow_evaluate(monkeypatch, 0.2)
        train, val = make_task()
        before = threading.active_count()
        seen, children = [], []
        step_batches = GroupRunner.step_batches

        def counting(runner, *args):
            seen.append(threading.active_count())
            children.append(len(multiprocessing.active_children()))
            if outcome == "interrupted" and runner.step_index == 11:
                raise KeyboardInterrupt
            return step_batches(runner, *args)

        monkeypatch.setattr(GroupRunner, "step_batches", counting)
        lr = 1e9 if outcome == "diverged" else 0.2
        error = {"finished": None, "diverged": DivergenceError,
                 "interrupted": KeyboardInterrupt}[outcome]
        if error is None:
            train_baseline(ARCH, sgd_group(1, lr=lr), train, 40, val, eval_every=10)
        else:
            with pytest.raises(error):
                train_baseline(ARCH, sgd_group(1, lr=lr), train, 40, val, eval_every=10)
        assert threading.active_count() == before
        assert seen and max(seen) <= before + 1
        assert set(children) == {1}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_failed_evaluation_surfaces_with_the_records_before_it(self, n_cpus,
                                                                    monkeypatch):
        def fail():
            raise EvaluationFailed("third evaluation")

        self.cpus(monkeypatch, n_cpus)
        self.fail_on_call(monkeypatch, 3, fail)
        train, val = make_task()
        with pytest.raises(EvaluationFailed) as err:
            train_baseline(ARCH, sgd_group(1), train, 50, val, eval_every=10)
        assert [r.step for r in err.value.records] == [0, 10]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_evaluation_error_that_does_not_pickle(self, n_cpus, monkeypatch):
        """Inline it keeps its class; from the evaluator process it arrives as
        a RuntimeError naming its class and message. Either way it carries
        the records before it."""
        def fail():
            raise UnpicklableEvaluationError("third evaluation")

        self.cpus(monkeypatch, n_cpus)
        self.fail_on_call(monkeypatch, 3, fail)
        train, val = make_task()
        with pytest.raises(Exception) as err:
            train_baseline(ARCH, sgd_group(1), train, 50, val, eval_every=10)
        if n_cpus == 1:
            assert type(err.value) is UnpicklableEvaluationError
        else:
            assert type(err.value) is RuntimeError
            assert str(err.value) == "UnpicklableEvaluationError: third evaluation"
        assert [r.step for r in err.value.records] == [0, 10]

    def test_evaluator_ignores_sigint(self, monkeypatch):
        """A SIGINT sent to the evaluator alone (Ctrl-C sends one to the whole
        process group) leaves it running: the run ends normally."""
        self.cpus(monkeypatch, 2)
        self.slow_evaluate(monkeypatch, 0.05)
        step_batches = GroupRunner.step_batches

        def interrupting(runner, *args):
            if runner.step_index == 15:
                for child in multiprocessing.active_children():
                    os.kill(child.pid, signal.SIGINT)
            return step_batches(runner, *args)

        monkeypatch.setattr(GroupRunner, "step_batches", interrupting)
        train, val = make_task()
        _, records = train_baseline(ARCH, sgd_group(1), train, 40, val, eval_every=10)
        assert [r.step for r in records] == [0, 10, 20, 30, 40]

    def test_killed_training_process_leaves_no_evaluator(self, tmp_path, monkeypatch):
        """The training process dies by SIGKILL mid-run; its evaluator, which
        holds no copy of the training side of the pipe, reads end of file and
        exits."""
        pids = tmp_path / "pids"
        self.cpus(monkeypatch, 2)
        self.slow_evaluate(monkeypatch, 0.0, pids)
        step_batches = GroupRunner.step_batches

        def dying(runner, *args):
            if runner.step_index == 25:
                os.kill(os.getpid(), signal.SIGKILL)
            return step_batches(runner, *args)

        monkeypatch.setattr(GroupRunner, "step_batches", dying)
        train, val = make_task()
        trainer = multiprocessing.get_context("fork").Process(
            target=train_baseline, args=(ARCH, sgd_group(1), train, 40, val),
            kwargs={"eval_every": 10})
        trainer.start()
        trainer.join(30)
        assert trainer.exitcode == -signal.SIGKILL
        (evaluator,) = {int(pid) for pid in pids.read_text().split()}
        await_end([evaluator], "the evaluator outlived its training process")

    def test_killed_evaluator_fails_the_loop_with_the_records_before_it(self, monkeypatch):
        """The evaluator dies by SIGKILL in the step-20 validation pass: the
        loop raises a RuntimeError naming it at the next point, rather than
        waiting for a reply that never comes."""
        parent = os.getpid()

        def die():
            assert os.getpid() != parent, "evaluation ran in the training process"
            os.kill(os.getpid(), signal.SIGKILL)

        self.cpus(monkeypatch, 2)
        self.fail_on_call(monkeypatch, 3, die)
        train, val = make_task()
        out = run_in_thread(lambda: train_baseline(ARCH, sgd_group(1), train, 50, val,
                                                   eval_every=10), timeout=30.0)
        err = out["error"]
        assert type(err) is RuntimeError
        assert "evaluator process" in str(err) and "exit code -9" in str(err)
        assert [r.step for r in err.records] == [0, 10]
        assert out["seconds"] < 10
