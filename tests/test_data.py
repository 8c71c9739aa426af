import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codistill import experiments
from codistill.data import (Dataset, batch_stream, gen_classification, ingest_text,
                            make_shards, split_train_val, take, unigram)
from helpers import int64_stream, interleave

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "codistill.cfg"


class TestGenClassification:
    def test_deterministic(self):
        a = gen_classification(5, 200, 4, 3, 0.3)
        b = gen_classification(5, 200, 4, 3, 0.3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_difficulty_nearest_centroid_is_perfect(self):
        ds = gen_classification(2, 300, 6, 5, 0.0)
        # recover centroids from class means, then 1-nearest-centroid
        centroids = np.stack([ds.inputs[ds.labels == k].mean(axis=0) for k in range(5)])
        d = np.linalg.norm(ds.inputs[:, None, :] - centroids[None], axis=2)
        assert (d.argmin(axis=1) == ds.labels).all()

    def test_balanced_counts(self):
        ds = gen_classification(1, 1000, 8, 10, 0.5)
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.min() >= 90 and counts.max() <= 110
        assert (counts == 100).all()  # generator balances exactly

    def test_every_class_appears(self):
        ds = gen_classification(3, 11, 3, 10, 1.0)
        assert len(np.unique(ds.labels)) == 10

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            gen_classification(0, 5, 3, 10, 0.1)
        with pytest.raises(ValueError):
            gen_classification(0, 10, 0, 2, 0.1)


class TestIngestText:
    def test_sliding_windows(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("abcd", encoding="utf-8")
        ds = ingest_text(path, 2)
        assert ds.vocab == "abcd"
        assert ds.n == 2
        # ("ab" -> c), ("bc" -> d)
        assert ds.inputs.tolist() == [[0, 1], [1, 2]]
        assert ds.labels.tolist() == [2, 3]

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            ingest_text(path, 2)

    def test_too_short(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("ab", encoding="utf-8")
        with pytest.raises(ValueError, match="shorter"):
            ingest_text(path, 2)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest_text(tmp_path / "missing.txt", 2)

    def test_ids_match_dict_mapping_beyond_ascii(self, tmp_path):
        # two-byte, three-byte and four-byte UTF-8 characters, a newline and a tab
        text = "naïve café\tüber 東京 ➜ 𝔘𝔫𝔦 😀\nabc ñandú 東 😀 ẞ" * 7
        path = tmp_path / "u.txt"
        path.write_text(text, encoding="utf-8")
        ds = ingest_text(path, 3)
        vocab = "".join(sorted(set(text)))
        index = {c: i for i, c in enumerate(vocab)}
        ids = np.array([index[c] for c in text], dtype=np.int64)
        assert ds.vocab == vocab and ds.n_classes == len(vocab)
        assert ds.inputs.dtype == np.uint8 and ds.labels.dtype == np.uint8
        assert np.array_equal(ds.inputs, [ids[i:i + 3] for i in range(len(text) - 3)])
        assert np.array_equal(ds.labels, ids[3:])

    def test_ids_widen_past_256_characters(self, tmp_path):
        text = "".join(chr(0x4E00 + i) for i in range(300)) * 2
        path = tmp_path / "w.txt"
        path.write_text(text, encoding="utf-8")
        ds = ingest_text(path, 2)
        assert ds.n_classes == 300 and ds.labels.dtype == np.uint16
        assert np.array_equal(ds.labels, np.arange(2, 600) % 300)

    def test_constant_corpus(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("aaaa", encoding="utf-8")
        ds = ingest_text(path, 1)
        assert (ds.labels == 0).all()
        assert ds.n_classes == 1
        # a constant predictor over the single-token vocabulary is lossless
        from codistill.losses import hard_ce
        loss, _ = hard_ce(ds.labels, np.zeros((ds.n, 1)))
        assert loss == 0.0


class TestShards:
    def test_disjoint_partition(self):
        ds = gen_classification(1, 10, 2, 2, 0.1)
        plan = make_shards(ds, "disjoint", 2, 0)
        a, b = plan.assignment
        assert len(a) == 5 and len(b) == 5
        assert set(a) | set(b) == set(range(10))
        assert set(a) & set(b) == set()

    def test_shared_mode(self):
        ds = gen_classification(1, 10, 2, 2, 0.1)
        plan = make_shards(ds, "shared", 2, 0)
        for idx in plan.assignment:
            assert np.array_equal(np.sort(idx), np.arange(10))

    def test_deterministic(self):
        ds = gen_classification(1, 50, 2, 2, 0.1)
        a = make_shards(ds, "disjoint", 3, 7)
        b = make_shards(ds, "disjoint", 3, 7)
        for x, y in zip(a.assignment, b.assignment):
            assert np.array_equal(x, y)

    def test_too_many_shards(self):
        ds = gen_classification(1, 4, 2, 2, 0.1)
        with pytest.raises(ValueError):
            make_shards(ds, "disjoint", 5, 0)

    @given(st.integers(2, 40), st.integers(1, 8), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_disjoint_partition_property(self, n, shards, seed):
        n = max(n, shards)
        ds = Dataset(np.zeros((n, 1)), np.zeros(n, dtype=int), "classification", 1)
        plan = make_shards(ds, "disjoint", shards, seed)
        sizes = [len(a) for a in plan.assignment]
        assert max(sizes) - min(sizes) <= 1
        merged = np.concatenate(plan.assignment)
        assert len(merged) == n
        assert set(merged) == set(range(n))


class TestBatchStream:
    def test_deterministic(self):
        ds = gen_classification(1, 30, 3, 2, 0.1)
        s1, s2 = batch_stream(ds, 8, 5), batch_stream(ds, 8, 5)
        for _ in range(10):
            assert np.array_equal(next(s1), next(s2))

    def test_every_slice_has_batch_size_intp_indices(self):
        """30 rows in batches of 8: each epoch draws 3 slices of 8 distinct
        rows and drops the ragged 6, in every epoch."""
        ds = gen_classification(1, 30, 3, 2, 0.1)
        stream = batch_stream(ds, 8, 5)
        for _ in range(3):
            epoch = [next(stream) for _ in range(3)]
            assert all(idx.shape == (8,) and idx.dtype == np.intp for idx in epoch)
            assert len(set(np.concatenate(epoch).tolist())) == 24

    def test_full_batch_is_whole_shard(self):
        ds = gen_classification(1, 12, 3, 2, 0.1)
        train, _ = split_train_val(ds, 0.25, 0)
        assert np.array_equal(np.sort(next(batch_stream(ds, 12, 0))), np.arange(12))
        assert np.array_equal(np.sort(next(batch_stream(train, 9, 0))), np.sort(train.rows))

    def test_batch_too_large(self):
        ds = gen_classification(1, 4, 2, 2, 0.1)
        with pytest.raises(ValueError):
            next(batch_stream(ds, 5, 0))

    def test_interleave_unions_member_batches(self):
        ds = gen_classification(1, 40, 3, 2, 0.1)
        members = [batch_stream(ds, 2, seed) for seed in (1, 2)]
        ref = [batch_stream(ds, 2, seed) for seed in (1, 2)]
        merged = interleave(members)
        for _ in range(5):
            big = next(merged)
            assert big.shape == (4,)
            assert np.array_equal(big, np.concatenate([next(r) for r in ref]))

    @pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 65_535, 65_536, 65_537])
    def test_narrow_shuffle_draws_the_permutation(self, n):
        """The data layer's orders are narrow arrays shuffled in place: the
        same order as ``rng.permutation(n)`` indexes, and the generator left
        in the same state, whatever the array's type."""
        values = (np.arange(n) % 251).astype(np.uint8)
        for seed in range(3):
            ref = np.random.default_rng(seed)
            perm = ref.permutation(n)
            for array, want in ((np.arange(n, dtype=np.min_scalar_type(n - 1)), perm),
                                (values.copy(), values[perm])):
                rng = np.random.default_rng(seed)
                rng.shuffle(array)
                assert np.array_equal(array, want)
                assert rng.bit_generator.state == ref.bit_generator.state


class TestSplit:
    def test_sizes_and_disjointness(self):
        ds = gen_classification(1, 100, 3, 2, 0.1)
        train, val = split_train_val(ds, 0.1, 9)
        assert train.n == 90 and val.n == 10
        assert train.n + val.n == ds.n
        assert set(train.rows.tolist()).isdisjoint(val.rows.tolist())
        assert np.array_equal(np.sort(np.concatenate([train.rows, val.rows])), np.arange(ds.n))
        # the rows are the dataset's examples: every example once, none twice
        both = np.concatenate([train.inputs, val.inputs])
        assert np.array_equal(np.unique(both, axis=0), np.unique(ds.inputs, axis=0))
        assert len(np.unique(both, axis=0)) == ds.n

    def test_deterministic(self):
        ds = gen_classification(1, 100, 3, 2, 0.1)
        a = split_train_val(ds, 0.2, 9)[1]
        b = split_train_val(ds, 0.2, 9)[1]
        assert np.array_equal(a.inputs, b.inputs)


class TestUnigram:
    def test_counting(self):
        ds = Dataset(np.zeros((3, 1)), np.array([0, 0, 1]), "classification", 2)
        assert np.abs(unigram(ds) - [2 / 3, 1 / 3]).max() < 1e-15

    def test_single_class(self):
        ds = Dataset(np.zeros((4, 1)), np.zeros(4, dtype=int), "classification", 1)
        assert np.array_equal(unigram(ds), [1.0])

    def test_uniform(self):
        labels = np.repeat(np.arange(4), 100)
        ds = Dataset(np.zeros((400, 1)), labels, "classification", 4)
        assert np.array_equal(unigram(ds), np.full(4, 0.25))

    def test_sums_to_one(self):
        ds = gen_classification(1, 997, 3, 7, 0.5)
        u = unigram(ds)
        assert abs(u.sum() - 1.0) < 1e-12
        assert u.min() >= 0.0


class TestTake:
    def test_subset_copies(self):
        ds = gen_classification(1, 20, 3, 2, 0.1)
        sub = take(ds, np.array([3, 1, 4]))
        assert sub.n == 3
        sub.inputs[0, 0] = 999.0
        assert ds.inputs[3, 0] != 999.0

    def test_negative_indices_count_from_the_end(self):
        ds = gen_classification(1, 10, 2, 2, 0.1)
        train, _ = split_train_val(ds, 0.2, 0)
        for source in (ds, train):
            for idx in ([-1, 0], np.array([1, -source.n, -2], dtype=np.int8)):
                sub = take(source, idx)
                assert np.array_equal(sub.inputs, source.inputs[idx])
                assert np.array_equal(sub.labels, source.labels[idx])
            for idx in ([source.n], [-source.n - 1], np.array([0, 2**40])):
                with pytest.raises(IndexError):
                    take(source, idx)


class TestIntegerChecks:
    """Labels and rows are integers: anything else is refused when the
    dataset is built, not truncated or left to fail at indexing."""

    def test_float_labels_refused(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((3, 1)), np.array([0.7, 1.9, 0.2]), "classification", 2)

    def test_float_rows_refused(self):
        with pytest.raises(ValueError, match="rows"):
            Dataset(np.zeros((3, 1)), np.array([0, 1, 0]), "classification", 2,
                    rows=np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="rows"):
            take(gen_classification(1, 10, 2, 2, 0.1), np.array([1.0, 2.5]))

    def test_integer_labels_keep_their_type(self):
        labels = np.array([0, 1, 1], dtype=np.int16)
        ds = Dataset(np.zeros((3, 1)), labels, "classification", 2)
        assert ds.source_labels is labels


def _lm_dataset(tmp_path):
    path = tmp_path / "lm.txt"
    path.write_text("the quick brown fox jumps over the lazy dog; " * 20, encoding="utf-8")
    return ingest_text(path, 4)


def _same_examples(view, copy):
    assert view.n == copy.n
    assert np.array_equal(view.inputs, copy.inputs)
    assert np.array_equal(view.labels, copy.labels)
    assert view.inputs.dtype == copy.inputs.dtype and view.labels.dtype == np.uint8


class TestRowViews:
    """Splits and shards are row views of one source; they read as copies do."""

    @pytest.mark.parametrize("kind", ["classification", "lm"])
    def test_views_read_as_take(self, kind, tmp_path):
        ds = gen_classification(4, 90, 3, 3, 0.2) if kind == "classification" \
            else _lm_dataset(tmp_path)
        train, val = split_train_val(ds, 0.2, 3)
        _same_examples(train, take(ds, train.rows))
        _same_examples(val, take(ds, val.rows))
        for mode in ("disjoint", "shared"):
            plan = make_shards(train, mode, 3, 5)
            for i, idx in enumerate(plan.assignment):
                shard = plan.shard(train, i)
                _same_examples(shard, take(train, idx))
                assert np.array_equal(shard.rows, train.rows[idx])  # composed, not nested
                _same_examples(shard, take(ds, shard.rows))

    def test_lm_windows_are_the_corpus(self, tmp_path):
        ds = _lm_dataset(tmp_path)
        train, _ = split_train_val(ds, 0.1, 0)
        ids = np.concatenate([ds.inputs[0], ds.labels])
        for row, window, label in zip(train.rows, train.inputs, train.labels):
            assert np.array_equal(window, ids[row:row + 4]) and label == ids[row + 4]

    @pytest.mark.parametrize("kind", ["classification", "lm"])
    def test_stream_over_view_equals_stream_over_copy(self, kind, tmp_path):
        ds = gen_classification(2, 60, 3, 2, 0.3) if kind == "classification" \
            else _lm_dataset(tmp_path)
        train, _ = split_train_val(ds, 0.25, 1)
        shard = make_shards(train, "disjoint", 2, 4).shard(train, 1)
        copy = take(shard, np.arange(shard.n))
        a, b = batch_stream(shard, 4, 11), batch_stream(copy, 4, 11)
        for _ in range(3 * (shard.n // 4)):  # three epochs
            i, j = next(a), next(b)
            assert np.array_equal(shard.source_inputs[i], copy.source_inputs[j])
            assert np.array_equal(shard.source_labels[i], copy.source_labels[j])
        assert shard.source_inputs.dtype == copy.source_inputs.dtype
        assert shard.source_labels.dtype == copy.source_labels.dtype

    @pytest.mark.parametrize("kind", ["classification", "lm"])
    def test_narrow_stream_equals_int64_stream(self, kind, tmp_path):
        """Narrow ids and indices change no batch: a stream over the
        dataset, and over a shard of its training view, selects what the
        same stream over int64 copies of every array yields, for two epochs."""
        ds = gen_classification(2, 60, 3, 2, 0.3) if kind == "classification" \
            else _lm_dataset(tmp_path)
        train, _ = split_train_val(ds, 0.25, 1)
        shard = make_shards(train, "disjoint", 2, 4).shard(train, 0)
        assert shard.rows.dtype == (np.uint8 if kind == "classification" else np.uint16)
        for view in (ds, shard):
            a, b = batch_stream(view, 4, 11), int64_stream(view, 4, 11)
            for _ in range(2 * (view.n // 4)):
                idx, ref = next(a), next(b)
                assert np.array_equal(view.source_inputs[idx], ref.inputs)
                assert np.array_equal(view.source_labels[idx], ref.labels)

    def test_shared_shards_share_the_training_set(self):
        train, _ = split_train_val(gen_classification(1, 200, 4, 3, 0.2), 0.1, 0)
        plan = make_shards(train, "shared", 3, 0)
        for i in range(3):
            shard = plan.shard(train, i)
            assert np.shares_memory(shard.source_inputs, train.source_inputs)
            assert np.shares_memory(shard.source_labels, train.source_labels)

    @pytest.mark.parametrize("kind", ["classification", "lm"])
    def test_sources_are_read_only(self, kind, tmp_path):
        ds = gen_classification(1, 40, 3, 2, 0.1) if kind == "classification" \
            else _lm_dataset(tmp_path)
        train, val = split_train_val(ds, 0.2, 0)
        shard = make_shards(train, "disjoint", 2, 0).shard(train, 0)
        for view in (ds, train, val, shard):
            with pytest.raises(ValueError):
                view.source_inputs[0, 0] = 1
            with pytest.raises(ValueError):
                view.source_labels[0] = 0
        with pytest.raises(ValueError):
            shard.rows[0] = 0

    def test_views_of_a_writable_dataset_are_read_only(self):
        ds = Dataset(np.zeros((6, 2)), np.arange(6) % 2, "classification", 2)
        train, _ = split_train_val(ds, 0.5, 0)
        with pytest.raises(ValueError):
            train.source_inputs[0, 0] = 1.0
        ds.inputs[0, 0] = 1.0  # the caller's own arrays keep their flags

    def test_out_of_range_rows(self):
        ds = gen_classification(1, 10, 2, 2, 0.1)
        with pytest.raises(IndexError):
            take(ds, [10])
        with pytest.raises(ValueError, match="non-empty"):
            take(ds, np.array([], dtype=np.int64))


class TestMemory:
    """Each example is held once: a copy that creeps back fails here, not only
    in the benchmark's peak resident memory."""

    @pytest.fixture(scope="class")
    def desk(self):
        return experiments.resolve(experiments.parse_config_file(DESK_CONFIG))

    def test_build_env_peak(self, desk):
        tracemalloc.start()
        try:
            env = experiments.build_env(desk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data_bytes = env.train.source_inputs.nbytes + env.train.source_labels.nbytes
        # float64 inputs and, for 10 classes, one-byte labels
        assert data_bytes == desk["data.n"] * (desk["data.dim"] * 8 + 1)
        assert peak <= 1.35 * data_bytes, f"peak {peak / data_bytes:.2f}x the data"

    def test_shared_shards_cost_indices_only(self, desk):
        env = experiments.build_env(desk)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            plan = make_shards(env.train, "shared", 4, 0)
            shards = [plan.shard(env.train, i) for i in range(4)]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(shards) == 4 and all(s.n == env.train.n for s in shards)
        assert peak < 0.5 * 2**20, f"{peak / 2**20:.2f} MB for four shared shards"

    def test_lm_index_bytes_per_example(self, tmp_path):
        """An lm run's data layer, as a 4-model disjoint run holds it: the
        token ids, the split, 4 shards and 2 drawn streams per shard keep at
        most 24 bytes per example (8-byte ids and indices kept about 46)."""
        rng = np.random.default_rng(0)
        path = tmp_path / "corpus.txt"
        path.write_text("".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz ,.\n"), 100_000)),
                        encoding="utf-8")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ds = ingest_text(path, 8)
            train, val = split_train_val(ds, 0.1, 0)
            plan = make_shards(train, "disjoint", 4, 0)
            shards = [plan.shard(train, i) for i in range(4)]
            streams = [batch_stream(s, 32, (i, w)) for i, s in enumerate(shards) for w in (0, 1)]
            drawn = [next(s) for s in streams]
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert ds.n > 2**16 and train.rows.dtype == np.uint32 and len(drawn) == 8
        assert np.shares_memory(ds.source_labels, ds.source_inputs)  # labels not copied
        assert held <= 24 * ds.n, f"{held / ds.n:.1f} bytes per example"
