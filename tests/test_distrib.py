import itertools
import sys
import threading
import time

import numpy as np
import pytest

from codistill.data import gen_classification, make_shards, split_train_val
from codistill.distrib import (Checkpoint, CodistillConfig, CommLedger, DivergenceError,
                               FileCheckpointStore, GroupConfig, GroupRunner,
                               InMemoryCheckpointStore, codistill_train,
                               codistill_train_concurrent, comm_report, mean_teacher_fn,
                               offline_distill, train_baseline, train_with_static_teacher,
                               worker_streams)
from codistill.nn import forward, predict_proba, serialize_params
from codistill.losses import CombinedLossSpec
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
        train, _ = make_task()
        e1 = Batch(train.inputs[:1], train.labels[:1])
        e2 = Batch(train.inputs[1:2], train.labels[1:2])
        both = Batch(train.inputs[:2], train.labels[:2])
        a = GroupRunner(ARCH, sgd_group(3, n_workers=2, batch=1), streams=[iter([e1]), iter([e2])])
        b = GroupRunner(ARCH, sgd_group(3, n_workers=1, batch=2), streams=[iter([both])])
        a.step_stream()
        b.step_stream()
        assert np.array_equal(a.params.values, b.params.values)

    def test_w1_degenerates_to_single_worker(self):
        train, val = make_task()
        p1, _ = train_baseline(ARCH, sgd_group(3), train, 50, val, eval_every=25)
        p2, _ = train_baseline(ARCH, sgd_group(3), train, 50, val, eval_every=25)
        assert np.array_equal(p1.values, p2.values)

    @pytest.mark.parametrize("n_workers", [1, 2, 4, 8])
    def test_big_batch_equivalence(self, n_workers):
        """Group (W, B) is bit-identical to one worker with batch W*B consuming
        the interleaved stream."""
        train, val = make_task()
        group = sgd_group(5, n_workers=n_workers, batch=4)
        traj_group, traj_big = [], []
        pg, _ = train_baseline(ARCH, group, train, 120, val, eval_every=60,
                               step_callback=lambda s, l, p: traj_group.append(l))
        big = sgd_group(5, n_workers=1, batch=4 * n_workers)
        merged = interleave(worker_streams(train, group))
        pb, _ = train_baseline(ARCH, big, train, 120, val, eval_every=60, streams=[merged],
                               step_callback=lambda s, l, p: traj_big.append(l))
        assert traj_group == traj_big
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

    def test_fresh_in_process_equals_reload_every_step(self):
        stale = self.run_codistill(CodistillConfig(2, 20, 1, teacher_mode="stale_checkpoint"))
        fresh = self.run_codistill(CodistillConfig(2, 20, 1, teacher_mode="fresh_in_process"))
        for a, b in zip(stale.params, fresh.params):
            assert np.array_equal(a.values, b.values)

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


class TestConcurrentGroups:
    def run_in_thread(self, fn, timeout=60.0):
        """Run ``fn`` on a helper thread; return its result or the exception it raised."""
        out = {}

        def target():
            try:
                out["result"] = fn()
            except BaseException as err:  # handed back to the test
                out["error"] = err

        t = threading.Thread(target=target)
        t.start()
        t.join(timeout)
        assert not t.is_alive(), "concurrent run did not finish"
        return out

    def test_four_groups_short_switch_interval(self, tmp_path):
        """More threads than cores, switching often: every exchange is
        charged exactly once and every group keeps its full record set."""
        train, val = make_task(n=800)
        plan = make_shards(train, "disjoint", 4, 5)
        shards = [plan.shard(train, i) for i in range(4)]
        groups = [sgd_group(400 + i) for i in range(4)]
        ledger = CommLedger()
        store = FileCheckpointStore(tmp_path, ARCH, ledger)
        cfg = CodistillConfig(4, 10, 5)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            out = self.run_in_thread(lambda: codistill_train_concurrent(
                ARCH, cfg, groups, shards, 40, store, val, eval_every=20, ledger=ledger))
        finally:
            sys.setswitchinterval(old)
        result = out["result"]
        report = comm_report(ledger, param_count(ARCH), 40, groups[0], cfg)
        assert report.actual_checkpoint_total == report.expected_checkpoint_total
        assert report.actual_sync_total == report.expected_sync_total
        assert [(r.run_id, r.step) for r in result.records] == \
            [(f"model{i}", step) for i in range(4) for step in (0, 20, 40)]

    def test_failed_first_publish_releases_waiting_peers(self, tmp_path):
        """Group 0 cannot publish its first checkpoint; the peer waiting for
        it stops too, and the caller sees group 0's error, not the peer's."""
        train, val = make_task(n=400)
        plan = make_shards(train, "disjoint", 2, 11)
        store = FileCheckpointStore(tmp_path, ARCH)
        publish = store.publish

        def failing_publish(ckpt, entity=None):
            if ckpt.model_id == 0:
                raise OSError("disk full")
            publish(ckpt, entity)

        store.publish = failing_publish
        out = self.run_in_thread(lambda: codistill_train_concurrent(
            ARCH, CodistillConfig(2, 10, 10), [sgd_group(1), sgd_group(2)],
            [plan.shard(train, i) for i in range(2)], 50, store, val))
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

    def test_fresh_equals_reload_one_with_three_models(self):
        train, val = make_task(n=600)
        plan = make_shards(train, "disjoint", 3, 2)
        shards = [plan.shard(train, i) for i in range(3)]
        groups = [sgd_group(300 + i) for i in range(3)]

        def run_mode(mode):
            cfg = CodistillConfig(3, 10, 1, teacher_mode=mode)
            return codistill_train(ARCH, cfg, groups, shards, 60,
                                   InMemoryCheckpointStore(ARCH), val, eval_every=30)

        stale = run_mode("stale_checkpoint")
        fresh = run_mode("fresh_in_process")
        for a, b in zip(stale.params, fresh.params):
            assert np.array_equal(a.values, b.values)


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
        assert result.total_steps == 100

    def test_onehot_teacher_is_baseline_with_doubled_rate(self):
        """phi = psi when the teacher emits the true labels, so the doubled
        gradient matches plain SGD at twice the learning rate."""
        student = sgd_group(55, lr=0.1)

        def onehot_teacher(batch):
            return np.eye(ARCH.output_dim)[batch.labels]

        got, _ = train_with_static_teacher(ARCH, student, self.train, 50, onehot_teacher,
                                           "soft_cross_entropy", 1.0, self.val, eval_every=25)
        expect, _ = train_baseline(ARCH, sgd_group(55, lr=0.2), self.train, 50, self.val,
                                   eval_every=25)
        assert np.array_equal(got.values, expect.values)

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
