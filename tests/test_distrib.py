import itertools
import multiprocessing.connection
import os
import pickle
import signal
import sys
import threading
import time

import numpy as np
import pytest

from codistill.data import gen_classification, make_shards, split_train_val
from codistill import distrib, experiments
from codistill.distrib import (Checkpoint, CodistillConfig, CommLedger, DivergenceError,
                               FileCheckpointStore, GroupConfig, GroupRunner,
                               InMemoryCheckpointStore, codistill_train,
                               codistill_train_concurrent, comm_report, mean_teacher_fn,
                               offline_distill, train_baseline, worker_streams)
from codistill.nn import forward, predict_proba, serialize_params
from codistill.losses import CombinedLossSpec
from codistill.metrics import MetricRecord, format_row
from codistill.nn import (Architecture, Batch, CorruptHeaderError, FingerprintMismatchError,
                          SerializationError, TruncatedPayloadError, init_params, param_count)
from codistill.optim import OptimizerConfig
from helpers import interleave


ARCH = Architecture(6, (12, 8), 4)


def make_task(n=600, seed=1, difficulty=0.3):
    ds = gen_classification(seed, n, ARCH.input_dim, ARCH.output_dim, difficulty)
    train, val = split_train_val(ds, 0.1, seed)
    return train, val.as_batch()


def sgd_group(seed, n_workers=1, batch=16, lr=0.2, loss=None):
    return GroupConfig(n_workers, batch, OptimizerConfig("sgd", lr),
                       loss or CombinedLossSpec(), seed)


def make_store(backing, tmp_path, ledger=None):
    return (InMemoryCheckpointStore(ARCH, ledger) if backing == "memory"
            else FileCheckpointStore(tmp_path, ARCH, ledger))


class TestSyncGroupStep:
    def test_two_workers_equal_one_big_worker(self):
        """W=2, B=1 on {e1, e2} matches W=1, B=2 on the concatenated batch."""
        train, val = make_task()
        e1 = Batch(train.inputs[:1], train.labels[:1])
        e2 = Batch(train.inputs[1:2], train.labels[1:2])
        both = Batch(train.inputs[:2], train.labels[:2])
        a, _ = train_baseline(ARCH, sgd_group(3, n_workers=2, batch=1), None, 1, val,
                              streams=[iter([e1]), iter([e2])])
        b, _ = train_baseline(ARCH, sgd_group(3, n_workers=1, batch=2), None, 1, val,
                              streams=[iter([both])])
        assert np.array_equal(a.values, b.values)

    def test_w1_degenerates_to_single_worker(self):
        train, val = make_task()
        p1, _ = train_baseline(ARCH, sgd_group(3), train, 50, val, eval_every=25)
        p2, _ = train_baseline(ARCH, sgd_group(3), train, 50, val, eval_every=25)
        assert np.array_equal(p1.values, p2.values)

    @pytest.mark.parametrize("n_workers", [1, 2, 4, 8])
    def test_big_batch_equivalence(self, n_workers):
        """Group (W, B) is bit-identical to one worker with batch W*B consuming
        the interleaved stream; with eval_every=1 each record's train loss is
        that one step's loss."""
        train, val = make_task()
        group = sgd_group(5, n_workers=n_workers, batch=4)
        pg, rg = train_baseline(ARCH, group, train, 120, val, eval_every=1)
        big = sgd_group(5, n_workers=1, batch=4 * n_workers)
        merged = interleave(worker_streams(train, group))
        pb, rb = train_baseline(ARCH, big, train, 120, val, eval_every=1, streams=[merged])
        assert len(rg) == 121
        assert [r.train_loss for r in rg] == [r.train_loss for r in rb]
        assert np.array_equal(pg.values, pb.values)

    def test_batch_size_validation(self):
        train, _ = make_task()
        runner = GroupRunner(ARCH, sgd_group(1, n_workers=2, batch=4), train)
        bad = [Batch(train.inputs[:4], train.labels[:4]),
               Batch(train.inputs[:3], train.labels[:3])]
        with pytest.raises(ValueError, match="size"):
            runner.step_batches(bad)


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
    def run_in_thread(self, fn, timeout=60.0):
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
        assert not t.is_alive(), "concurrent run did not finish"
        out["seconds"] = time.monotonic() - t0
        assert multiprocessing.active_children() == []
        return out

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
        out = self.run_in_thread(lambda: codistill_train_concurrent(
            ARCH, cfg, groups, shards, 40, store, val, eval_every=20, ledger=ledger))
        result = out["result"]
        report = comm_report(ledger, param_count(ARCH), 40, groups[0], cfg)
        assert report.actual_checkpoint_total == report.expected_checkpoint_total
        assert report.actual_sync_total == report.expected_sync_total
        assert [(r.run_id, r.step) for r in result.records] == \
            [(f"model{i}", step) for i in range(4) for step in (0, 20, 40)]

    def test_killed_process_stops_peer_and_keeps_its_records(self, tmp_path, monkeypatch):
        """Group 1's process is killed at step 35; the parent names it, stops
        group 0 long before its n_steps (group 0 ends on the stop file and
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
        out = self.run_in_thread(lambda: codistill_train_concurrent(
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
        out = self.run_in_thread(lambda: codistill_train_concurrent(
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
        out = self.run_in_thread(lambda: codistill_train_concurrent(
            ARCH, CodistillConfig(2, 10, 10), groups, shards, 30,
            FileCheckpointStore(tmp_path, ARCH), val, eval_every=10))
        assert [(r.run_id, r.step) for r in out["result"].records] == \
            [(f"model{i}", step) for i in range(2) for step in (0, 10, 20, 30)]
        assert FileCheckpointStore(tmp_path, ARCH).load_latest(1).step == 20

    def test_torn_last_record_row_is_dropped(self, tmp_path):
        """A group killed while appending leaves a last row without its
        newline; reading its record file yields only the complete rows."""
        rows = [MetricRecord("model0", step, 0.25, None if step == 0 else 1.5, 1.0 / 3,
                             0.75, 10**15, 4096) for step in (0, 10, 20)]
        path = tmp_path / "records_0.csv"
        distrib._RecordFile(path).extend(rows[:2])
        with open(path, "a") as f:
            f.write(format_row(rows[2])[:20])
        assert distrib._read_records(path) == rows[:2]
        assert distrib._read_records(tmp_path / "records_1.csv") == []

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
        out = self.run_in_thread(lambda: codistill_train_concurrent(
            ARCH, CodistillConfig(2, 10, 10), groups, shards, 10**6,
            FileCheckpointStore(tmp_path, ARCH), val))
        assert isinstance(out["error"], KeyboardInterrupt)
        assert out["seconds"] < distrib.START_TIMEOUT_S + 5

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
        out = self.run_in_thread(lambda: codistill_train_concurrent(
            ARCH, CodistillConfig(2, 10, 10), groups, shards, 50, store, val))
        err = out["error"]
        assert isinstance(err, OSError) and "disk full" in str(err)
        assert [(r.run_id, r.step) for r in err.records] == [("model0", 0), ("model1", 0)]


class TestMeanTeacher:
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


class TestThreeModelCodistill:
    def test_runs_and_ledger_matches(self):
        train, val = make_task(n=600)
        plan = make_shards(train, "disjoint", 3, 2)
        shards = [plan.shard(train, i) for i in range(3)]
        groups = [sgd_group(200 + i) for i in range(3)]
        ledger = CommLedger()
        store = InMemoryCheckpointStore(ARCH, ledger)
        cfg = CodistillConfig(3, 20, 20)
        result = codistill_train(ARCH, cfg, groups, shards, 90, store, val,
                                 eval_every=45, ledger=ledger)
        assert len(result.params) == 3
        report = comm_report(ledger, param_count(ARCH), 90, groups[0], cfg)
        # 5 exchange rounds per group: 1 publish + 2 loads each
        assert report.actual_checkpoint_total == report.expected_checkpoint_total
        assert report.actual_checkpoint_total == 3 * 5 * 3 * param_count(ARCH) * 8


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
            assert ledger.snapshot() == {"g0/checkpoint_publish": pb,
                                         "g1/checkpoint_load": 2 * pb}


def plant(store, tmp_path, data):
    """Put raw bytes where model 0's checkpoint lives, bypassing publish."""
    if isinstance(store, FileCheckpointStore):
        (tmp_path / "ckpt_0.bin").write_bytes(data)
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

    def test_leftover_temp_files_are_ignored(self, tmp_path):
        store = FileCheckpointStore(tmp_path, ARCH)
        p = init_params(ARCH, 0)
        store.publish(Checkpoint(0, 1, p))
        (tmp_path / ".ckpt_0.abc123.tmp").write_bytes(self.BLOB[:50])
        (tmp_path / ".ckpt_1.def456.tmp").write_bytes(self.BLOB)
        ck = store.load_latest(0)
        assert ck.step == 1 and np.array_equal(ck.params.values, p.values)
        assert store.load_latest(1) is None

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

    def test_onehot_teacher_is_baseline_with_doubled_rate(self):
        """phi = psi when the teacher emits the true labels, so the doubled
        gradient matches plain SGD at twice the learning rate."""
        student = sgd_group(55, lr=0.1)

        def onehot_teacher(batch):
            return np.eye(ARCH.output_dim)[batch.labels]

        runner = GroupRunner(ARCH, student, self.train)
        distrib._train_loop([runner], 50, self.val, 25, [], distrib._static_teachers(
            onehot_teacher, "soft_cross_entropy", 1.0))
        expect, _ = train_baseline(ARCH, sgd_group(55, lr=0.2), self.train, 50, self.val,
                                   eval_every=25)
        assert np.array_equal(runner.params.values, expect.values)

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


class TestLockstepEvaluation:
    """Lockstep validation runs on a helper thread when at least 2 CPUs are
    available and inline otherwise, with the same records either way."""

    TINY = {"seeds": [0], "steps": 30, "eval_every": 10, "data.n": 400, "data.dim": 6,
            "data.classes": 3, "data.difficulty": 0.3, "data.seed": 5,
            "model.hidden": [12, 8], "opt.lr": 0.2, "codistill.burn_in": 10,
            "codistill.reload_interval": 10}

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @staticmethod
    def slow_evaluate(monkeypatch, seconds=0.05):
        """distrib.evaluate that takes at least ``seconds`` and notes its thread."""
        evaluate, threads = distrib.evaluate, []

        def slow(params, validation):
            threads.append(threading.get_ident())
            time.sleep(seconds)
            return evaluate(params, validation)

        monkeypatch.setattr(distrib, "evaluate", slow)
        return threads

    @staticmethod
    def outputs(out_dir):
        lines = (out_dir / "metrics.csv").read_text().splitlines()
        rows = [",".join(c for i, c in enumerate(line.split(",")) if i != 2) for line in lines]
        return rows, (out_dir / "summary.json").read_text()

    @pytest.mark.parametrize("kind", ["baseline", "codistill", "ensemble_baseline"])
    def test_inline_and_helper_thread_write_identical_outputs(self, kind, tmp_path,
                                                              monkeypatch):
        threads = self.slow_evaluate(monkeypatch, 0.0)
        self.cpus(monkeypatch, 2)
        experiments.run({**self.TINY, "kind": kind}, tmp_path / "helper")
        assert set(threads) - {threading.get_ident()}, "no evaluation ran on a helper thread"
        threads.clear()
        self.cpus(monkeypatch, 1)
        experiments.run({**self.TINY, "kind": kind}, tmp_path / "inline")
        assert set(threads) == {threading.get_ident()}
        assert self.outputs(tmp_path / "helper") == self.outputs(tmp_path / "inline")

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_divergence_after_an_evaluation_keeps_its_records(self, n_cpus, tmp_path,
                                                              monkeypatch):
        """Training fails 3 steps after the step-10 evaluation point, while its
        slow validation pass is still running on the helper thread."""
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
        """At most one evaluation thread runs beside training, and none is left
        once the loop returns or raises, also from inside a training step."""
        self.cpus(monkeypatch, 2)
        self.slow_evaluate(monkeypatch, 0.2)
        train, val = make_task()
        before = threading.active_count()
        seen = []
        step_batches = GroupRunner.step_batches

        def counting(runner, *args):
            seen.append(threading.active_count())
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

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_failed_evaluation_surfaces_with_the_records_before_it(self, n_cpus,
                                                                    monkeypatch):
        class EvaluationFailed(Exception):
            pass

        self.cpus(monkeypatch, n_cpus)
        evaluate, calls = distrib.evaluate, []

        def third_call_fails(params, validation):
            calls.append(1)
            if len(calls) == 3:
                raise EvaluationFailed("third evaluation")
            return evaluate(params, validation)

        monkeypatch.setattr(distrib, "evaluate", third_call_fails)
        train, val = make_task()
        with pytest.raises(EvaluationFailed) as err:
            train_baseline(ARCH, sgd_group(1), train, 50, val, eval_every=10)
        assert [r.step for r in err.value.records] == [0, 10]
