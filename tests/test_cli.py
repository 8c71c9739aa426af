import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codistill.cli import main
from codistill.experiments import (EXPERIMENT_KINDS, SCHEMA, ConfigError, parse_config_file,
                                   parse_config_text, read_metrics_csv, resolve, run, sweep)

TINY = """
kind=baseline
seeds=0,1
steps=40
eval_every=20
data.n=400
data.dim=6
data.classes=3
data.difficulty=0.3
data.seed=5
model.hidden=12,8
opt.lr=0.2
"""


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# One value text for every key type: a number, a list or a name, each at an
# edge (an empty list is the empty text, "3,3" a duplicate list).
EDGE_VALUES = ("0", "-1", "1e300", "-1e300", "nan", "inf", "", "3,3")


def tiny_cfg(kind="baseline", **overrides):
    cfg = parse_config_text(TINY)
    cfg["kind"] = kind
    cfg.update(overrides)
    return cfg


def csv_without_wall(path):
    lines = Path(path).read_text().splitlines()
    out = []
    for line in lines:
        cells = line.split(",")
        del cells[2]  # wall_seconds
        out.append(",".join(cells))
    return "\n".join(out)


class TestConfigParsing:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config_text("frobnicate=3")

    def test_unknown_kind_named(self):
        with pytest.raises(ConfigError, match="kind"):
            resolve({"kind": "warp_speed"})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config_text("steps=many")

    def test_kind_required(self):
        with pytest.raises(ConfigError, match="kind"):
            resolve({})

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# comment\n\nkind=baseline  # trailing\n")
        assert cfg["kind"] == "baseline"

    def test_lm_requires_corpus(self):
        with pytest.raises(ConfigError, match="corpus"):
            resolve({"kind": "baseline", "data.kind": "lm"})

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            resolve(tiny_cfg(seeds=[]))

    @pytest.mark.parametrize("kind", ["codistill", "same_data_ablation", "churn"])
    def test_burn_in_shorter_than_reload_interval_named(self, kind):
        """No teacher checkpoint would exist when distillation starts; kinds
        that never codistill ignore both keys."""
        short = {"codistill.burn_in": 10, "codistill.reload_interval": 50}
        with pytest.raises(ConfigError, match="codistill.burn_in"):
            resolve(tiny_cfg(kind, **short))
        resolve(tiny_cfg("baseline", **short))

    @pytest.mark.parametrize("key, value", [("codistill.n_models", 1),
                                            ("codistill.reload_interval", 0),
                                            ("loss.distill_weight", -1.0)])
    def test_codistill_settings_checked_and_named(self, key, value):
        with pytest.raises(ConfigError, match=key):
            resolve(tiny_cfg("codistill", **{key: value}))

    @pytest.mark.parametrize("key, value, extra", [
        ("opt.lr", 0.0, {}), ("opt.beta1", 1.0, {}), ("opt.beta2", -0.5, {}),
        ("group.n_workers", 0, {}), ("group.batch", 0, {}), ("model.hidden", [8, 0], {}),
        ("data.dim", 0, {}), ("data.classes", 0, {}),
        ("data.window", 0, {"data.kind": "lm", "data.corpus": "corpus.txt"}),
        ("model.embedding_dim", 0, {"data.kind": "lm", "data.corpus": "corpus.txt"}),
        ("data.val_fraction", 0.0, {}),
        ("data.val_fraction", 1.0, {"data.kind": "lm", "data.corpus": "corpus.txt"})])
    def test_model_and_group_settings_checked_and_named(self, key, value, extra):
        """Checked before any data set is built, for every kind."""
        with pytest.raises(ConfigError, match=key):
            resolve(tiny_cfg("baseline", **extra, **{key: value}))

    @pytest.mark.parametrize("key, value", [("codistill.n_models", 17)])
    def test_concurrent_mode_limits_named(self, key, value):
        """One process per group: more groups than the process cap are a
        config error there only."""
        cfg = tiny_cfg("codistill", **{key: value, "group.batch": 16})  # 21 per shard
        with pytest.raises(ConfigError, match=key):
            resolve(cfg, mode="concurrent")
        resolve(cfg)

    def test_teacher_mode_is_an_unknown_key(self):
        """Every peer read goes through the store; deep mutual learning is
        ``codistill.reload_interval=1``."""
        with pytest.raises(ConfigError, match="unknown key 'codistill.teacher_mode'"):
            parse_config_text("codistill.teacher_mode=stale_checkpoint\n")
        with pytest.raises(ConfigError, match="unknown key 'codistill.teacher_mode'"):
            resolve(tiny_cfg("codistill", **{"codistill.teacher_mode": "fresh_in_process"}))

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_configs_resolve(self, path):
        resolve(parse_config_file(path))

    @given(kind=st.sampled_from(EXPERIMENT_KINDS),
           edits=st.dictionaries(st.sampled_from(sorted(SCHEMA)), st.sampled_from(EDGE_VALUES),
                                 min_size=1, max_size=2))
    @settings(derandomize=True, max_examples=160, deadline=None)
    @example(kind="baseline", edits={"data.seed": "-1"})
    @example(kind="ensemble_baseline", edits={"codistill.n_models": "-1"})
    @example(kind="offline_distill", edits={"codistill.n_models": "0"})
    def test_edge_values_exit_cleanly(self, kind, edits):
        """The config contract, for one or two keys at an edge value on any
        kind: exit 0; or exit 1 for a genuine divergence; or exit 2 naming a
        config key, having written nothing."""
        text = TINY + f"kind={kind}\n" + "".join(f"{k}={v}\n" for k, v in edits.items())
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "exp.cfg", Path(tmp) / "out"
            path.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(path), "--out", str(out)])
            message = err.getvalue()
            if code == 1:
                assert message.startswith("diverged at step"), message
            elif code == 2:
                named = re.match(r"config error: ([\w.]+): ", message)
                assert named and named.group(1) in SCHEMA, message
                assert not out.exists()
            else:
                assert code == 0, message


class TestRun:
    def test_zero_steps_single_row(self, tmp_path):
        cfg = tiny_cfg(steps=0, seeds=[0])
        run(cfg, tmp_path)
        records = read_metrics_csv(tmp_path / "metrics.csv")
        assert len(records) == 1
        assert records[0].step == 0
        assert records[0].train_loss is None

    def test_output_files_exist(self, tmp_path):
        run(tiny_cfg(), tmp_path)
        for name in ("metrics.csv", "summary.json", "config.resolved"):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["kind"] == "baseline"
        assert not summary["diverged"]
        assert "provenance" in summary

    def test_codistill_zero_weight_matches_baseline_val_columns(self, tmp_path):
        """Zero-weight collapse surfaced end-to-end: same seed, shared data,
        identical validation-loss columns."""
        run(tiny_cfg(), tmp_path / "base")
        run(tiny_cfg("codistill", **{"loss.distill_weight": 0.0,
                                     "codistill.data_mode": "shared",
                                     "codistill.burn_in": 10,
                                     "codistill.reload_interval": 10}),
            tmp_path / "codist")
        base = read_metrics_csv(tmp_path / "base" / "metrics.csv")
        codist = read_metrics_csv(tmp_path / "codist" / "metrics.csv")
        for seed in (0, 1):
            b = [(r.step, r.validation_loss) for r in base
                 if r.run_id == f"baseline.s{seed}"]
            c = [(r.step, r.validation_loss) for r in codist
                 if r.run_id == f"codistill.s{seed}.m0"]
            assert b == c

    def test_lockstep_reproducibility(self, tmp_path):
        cfg = tiny_cfg("codistill", **{"codistill.burn_in": 10,
                                       "codistill.reload_interval": 10})
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        assert csv_without_wall(tmp_path / "a" / "metrics.csv") == \
               csv_without_wall(tmp_path / "b" / "metrics.csv")
        assert (tmp_path / "a" / "summary.json").read_text() == \
               (tmp_path / "b" / "summary.json").read_text()

    def test_resolved_config_round_trips(self, tmp_path):
        cfg = tiny_cfg()
        run(cfg, tmp_path / "a")
        reparsed = parse_config_file(tmp_path / "a" / "config.resolved")
        run(reparsed, tmp_path / "b")
        assert csv_without_wall(tmp_path / "a" / "metrics.csv") == \
               csv_without_wall(tmp_path / "b" / "metrics.csv")
        assert (tmp_path / "a" / "config.resolved").read_text() == \
               (tmp_path / "b" / "config.resolved").read_text()

    def test_divergence_keeps_partial_metrics(self, tmp_path):
        from codistill.distrib import DivergenceError
        cfg = tiny_cfg(**{"opt.lr": 1e9, "seeds": [0]})
        with pytest.raises(DivergenceError):
            run(cfg, tmp_path)
        assert (tmp_path / "metrics.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["diverged"] is True
        assert summary["diverged_at_step"] >= 0


    @pytest.mark.parametrize("kind, overrides, expected", [
        # the baseline arm finishes before the disjoint arm diverges at step 10
        ("same_data_ablation",
         {"steps": 60, "opt.kind": "sgd", "opt.lr": 0.5, "loss.distill": "logit_mse",
          "loss.distill_weight": 1e6, "codistill.burn_in": 10,
          "codistill.reload_interval": 10},
         {"ablation.s0.baseline": 60, "ablation.s0.disjoint.m0": 0,
          "ablation.s0.disjoint.m1": 0}),
        ("ensemble_baseline", {"opt.lr": 1e9},
         {"ensemble.s0.m0": 0, "ensemble.s0.m1": 0, "ensemble.s0.ens": 0}),
        # both teachers finish phase 1; the student diverges at its first step
        ("offline_distill",
         {"offline.phase1_steps": 20, "offline.phase2_steps": 40, "opt.kind": "sgd",
          "opt.lr": 0.5, "loss.distill": "logit_mse", "loss.distill_weight": 1e6},
         {"offline.s0.phase1.model0": 20, "offline.s0.phase1.model1": 20,
          "offline.s0.phase2.student": 0}),
    ], ids=["ablation", "ensemble", "offline"])
    def test_divergence_keeps_finished_runs(self, tmp_path, kind, overrides, expected):
        from codistill.distrib import DivergenceError
        with pytest.raises(DivergenceError):
            run(tiny_cfg(kind, seeds=[0], **overrides), tmp_path)
        last = {}
        for r in read_metrics_csv(tmp_path / "metrics.csv"):
            last[r.run_id] = r.step
        assert last == expected
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["error"] == "DivergenceError"
        assert set(summary["runs"]) == set(expected)

    def test_store_error_keeps_partial_outputs(self, tmp_path, monkeypatch):
        """A corrupt checkpoint in seed 1 still leaves seed 0's finished runs,
        seed 1's step-0 records and the error's name on disk."""
        from codistill import distrib
        from codistill.nn import CorruptHeaderError
        real_load = distrib.InMemoryCheckpointStore.load_latest
        calls = []

        def flaky_load(store, model_id, entity=None):
            calls.append(model_id)
            if len(calls) == 11:  # seed 0 makes 8 loads; this is seed 1's step-10 exchange
                raise CorruptHeaderError("bad magic bytes b'XXXX'")
            return real_load(store, model_id, entity)

        monkeypatch.setattr(distrib.InMemoryCheckpointStore, "load_latest", flaky_load)
        cfg = tiny_cfg("codistill", **{"codistill.burn_in": 10,
                                       "codistill.reload_interval": 10})
        with pytest.raises(CorruptHeaderError):
            run(cfg, tmp_path)
        last = {}
        for r in read_metrics_csv(tmp_path / "metrics.csv"):
            last[r.run_id] = r.step
        assert last == {"codistill.s0.m0": 40, "codistill.s0.m1": 40,
                        "codistill.s1.m0": 0, "codistill.s1.m1": 0}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["error"] == "CorruptHeaderError"
        assert summary["diverged"] is False
        assert (tmp_path / "config.resolved").exists()


class TestSweep:
    def test_worker_sweep_runs_and_writes(self, tmp_path):
        cfg = tiny_cfg(steps=30, seeds=[0])
        sweep(cfg, "group.n_workers", [1, 2], tmp_path)
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "group.n_workers=1" / "metrics.csv").exists()
        assert (tmp_path / "group.n_workers=2" / "metrics.csv").exists()
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3  # header + one row per value

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="values"):
            sweep(tiny_cfg(), "group.n_workers", [], tmp_path)

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="axis"):
            sweep(tiny_cfg(), "group.wishful", [1], tmp_path)

    def test_list_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="axis"):
            sweep(tiny_cfg(), "seeds", [1], tmp_path)

    def test_bad_value_fails_before_training(self, tmp_path):
        cfg = tiny_cfg("codistill", **{"codistill.burn_in": 10})
        with pytest.raises(ConfigError, match="codistill.burn_in"):
            sweep(cfg, "codistill.reload_interval", [10, 50], tmp_path)
        assert not (tmp_path / "codistill.reload_interval=10").exists()


class TestLanguageModelTask:
    CORPUS = ("the cat sat on the mat. the dog sat on the log. "
              "a cat and a dog sat together on a mat by the log. ") * 40

    def corpus_path(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(self.CORPUS, encoding="utf-8")
        return path

    def test_lm_baseline_learns(self, tmp_path):
        cfg = parse_config_text(f"""
            kind=baseline
            seeds=0
            steps=250
            eval_every=50
            data.kind=lm
            data.corpus={self.corpus_path(tmp_path)}
            data.window=4
            model.hidden=24
            model.embedding_dim=6
            opt.kind=adagrad
            opt.lr=0.2
        """)
        summary = run(cfg, tmp_path / "out")
        stats = summary["runs"]["baseline.s0"]
        records = read_metrics_csv(tmp_path / "out" / "metrics.csv")
        first = next(r for r in records if r.step == 0)
        assert stats["final_val_loss"] < first.validation_loss
        assert stats["final_val_accuracy"] > 0.3  # repetitive text is predictable

    def test_lm_batch_larger_than_training_set_exit_two_writes_nothing(self, tmp_path,
                                                                         capsys):
        """An lm's training-set size is known once its corpus is read, which
        is still before any output exists."""
        path = tmp_path / "exp.cfg"
        path.write_text(f"kind=baseline\ndata.kind=lm\ndata.corpus={self.corpus_path(tmp_path)}\n"
                        f"group.batch={len(self.CORPUS)}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "config error: group.batch:" in capsys.readouterr().err
        assert not out.exists()

    def test_lm_sweep_rejects_a_later_batch_before_training(self, tmp_path, capsys):
        """Every value's batch is checked against the corpus before the first
        value trains."""
        path = tmp_path / "exp.cfg"
        path.write_text(f"kind=baseline\nseeds=0\nsteps=20\ndata.kind=lm\n"
                        f"data.corpus={self.corpus_path(tmp_path)}\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--axis", "group.batch",
                     "--values", "8,100000", "--out", str(out)]) == 2
        assert "config error: group.batch:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "", "abc"], ids=["missing", "empty", "short"])
    def test_lm_bad_corpus_exit_two_writes_nothing(self, tmp_path, capsys, text):
        """A missing, empty or too-short corpus (window 8) is a config error."""
        corpus = tmp_path / "corpus.txt"
        if text is not None:
            corpus.write_text(text, encoding="utf-8")
        path = tmp_path / "exp.cfg"
        path.write_text(f"kind=baseline\ndata.kind=lm\ndata.corpus={corpus}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "config error: data.corpus:" in capsys.readouterr().err
        assert not out.exists()

    def test_lm_unigram_smoothing_runs(self, tmp_path):
        cfg = parse_config_text(f"""
            kind=smoothing_baseline
            seeds=0
            steps=60
            eval_every=30
            data.kind=lm
            data.corpus={self.corpus_path(tmp_path)}
            data.window=4
            model.hidden=16
            model.embedding_dim=6
            loss.smoothing=unigram
        """)
        summary = run(cfg, tmp_path / "out")
        assert not summary["diverged"]
        assert summary["smoothing"] == "unigram"


class TestSweepShapes:
    def test_worker_sweep_steps_to_target_non_increasing(self, tmp_path):
        """More synchronous workers (bigger effective batch) never need more
        steps to a fixed mid-training loss, flattening into a plateau."""
        cfg = parse_config_text("""
            kind=baseline
            seeds=0,1,2
            steps=300
            eval_every=25
            target_loss=1.62
            data.n=20000
            data.dim=16
            data.classes=8
            data.difficulty=0.6
            data.seed=9
            model.hidden=32,16
            group.batch=8
            opt.kind=adagrad
            opt.lr=0.05
        """)
        sweep(cfg, "group.n_workers", [1, 2, 4, 8], tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        col = lines[0].split(",").index("mean_steps_to_target")
        means = [float(line.split(",")[col]) for line in lines[1:]]
        assert len(means) == 4
        assert all(b <= a for a, b in zip(means, means[1:]))
        assert means[-1] < means[0]


class TestConcurrentMode:
    def test_codistill_runs_concurrently(self, tmp_path):
        cfg = tiny_cfg("codistill", **{"codistill.burn_in": 10,
                                       "codistill.reload_interval": 10,
                                       "seeds": [0]})
        summary = run(cfg, tmp_path, mode="concurrent")
        assert not summary["diverged"]
        assert summary["mode"] == "concurrent"
        # the protocol really exchanged checkpoints through the file store
        comm = summary["comm"]["0"]
        assert comm["actual_checkpoint_total"] > 0
        assert (tmp_path / "ckpt.s0" / "ckpt_0.bin").exists()

    def test_divergence_keeps_every_models_records(self, tmp_path):
        from codistill.distrib import DivergenceError
        cfg = tiny_cfg("codistill", **{"codistill.burn_in": 10,
                                       "codistill.reload_interval": 10,
                                       "seeds": [0], "opt.kind": "sgd", "opt.lr": 1000.0})
        with pytest.raises(DivergenceError):
            run(cfg, tmp_path, mode="concurrent")
        records = read_metrics_csv(tmp_path / "metrics.csv")
        assert {r.run_id for r in records if r.step == 0} == {"codistill.s0.m0",
                                                               "codistill.s0.m1"}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["diverged"] is True
        assert set(summary["runs"]) == {"codistill.s0.m0", "codistill.s0.m1"}


    def test_killed_process_exit_one_keeps_outputs(self, tmp_path, monkeypatch, capsys):
        """A group process killed mid-run: exit 1 with an error line, the peer
        stopped, and the outputs written with every record made."""
        import os
        import signal
        from codistill.distrib import GroupRunner
        step_batches = GroupRunner.step_batches

        def dying_step(runner, *args):
            if runner.entity == "codistill.s0.m1" and runner.step_index == 25:
                os.kill(os.getpid(), signal.SIGKILL)
            return step_batches(runner, *args)

        monkeypatch.setattr(GroupRunner, "step_batches", dying_step)
        path = tmp_path / "exp.cfg"
        path.write_text(TINY + "kind=codistill\nseeds=0\nsteps=1000000\neval_every=10\n"
                        "codistill.burn_in=10\ncodistill.reload_interval=10\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out),
                     "--mode", "concurrent"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == "RuntimeError"
        records = read_metrics_csv(out / "metrics.csv")
        assert [r.step for r in records if r.run_id == "codistill.s0.m1"] == [0, 10, 20]
        assert max(r.step for r in records if r.run_id == "codistill.s0.m0") < 1000000


class TestMainEntry:
    def write_cfg(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return path

    def test_run_exit_zero(self, tmp_path):
        path = self.write_cfg(tmp_path, TINY)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_config_error_exit_two(self, tmp_path):
        path = self.write_cfg(tmp_path, "kind=warp_speed\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("extra, mode", [
        ("codistill.n_models=1\n", "lockstep"),
        ("codistill.reload_interval=0\n", "lockstep"),
        ("codistill.teacher_mode=fresh_in_process\n", "concurrent"),
        ("codistill.n_models=17\n", "concurrent"),
        ("kind=ensemble_baseline\n", "concurrent"),  # the kinds that never fork
        ("kind=baseline\n", "concurrent")])
    def test_codistill_config_error_exit_two_writes_nothing(self, tmp_path, extra, mode):
        path = self.write_cfg(tmp_path, TINY + "kind=codistill\ncodistill.burn_in=10\n" + extra)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out), "--mode", mode]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("extra, key", [
        ("opt.lr=0\n", "opt.lr"), ("group.batch=0\n", "group.batch"),
        ("steps=-1\n", "steps"), ("eval_every=0\n", "eval_every"),
        ("offline.phase1_steps=-5\n", "offline.phase1_steps"),
        ("offline.phase2_steps=-5\n", "offline.phase2_steps"),
        ("churn.repeats=1\n", "churn.repeats"), ("data.classes=1\n", "data.classes"),
        ("data.n=2\n", "data.n"), ("data.val_fraction=2\n", "data.val_fraction"),
        ("data.difficulty=-1\n", "data.difficulty"),
        ("data.difficulty=nan\n", "data.difficulty"),
        ("data.difficulty=inf\n", "data.difficulty"),
        ("opt.adagrad_eps=nan\n", "opt.adagrad_eps"),
        ("opt.adagrad_eps=0\n", "opt.adagrad_eps"),
        ("opt.kind=adam\nopt.eps=-1\n", "opt.eps"),
        ("opt.kind=adam\nopt.eps=0\n", "opt.eps"),
        ("group.batch=1000\n", "group.batch"),  # 360 training examples
        ("kind=codistill\ncodistill.n_models=16\n", "group.batch"),  # 22 per shard
        ("kind=smoothing_baseline\nloss.smoothing_weight=-5\n", "loss.smoothing_weight"),
        ("kind=offline_distill\nloss.distill_weight=-1\n", "loss.distill_weight"),
        ("loss.distill_weight=nan\n", "loss.distill_weight"),
        ("kind=smoothing_baseline\nloss.smoothing_weight=inf\n", "loss.smoothing_weight"),
        ("opt.lr=inf\n", "opt.lr"),
        ("seeds=0,0\n", "seeds")])
    def test_group_config_error_exit_two_writes_nothing(self, tmp_path, capsys, extra, key):
        path = self.write_cfg(tmp_path, TINY + "kind=baseline\n" + extra)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: {key}:" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_batch_larger_than_shard_exit_two_writes_nothing(self, tmp_path, capsys):
        """Checked for every value before the first one trains."""
        path = self.write_cfg(tmp_path, TINY + "seeds=0\nsteps=20\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--axis", "group.batch",
                     "--values", "8,1000", "--out", str(out)]) == 2
        assert "config error: group.batch:" in capsys.readouterr().err
        assert not out.exists()

    def test_divergence_exit_one(self, tmp_path):
        path = self.write_cfg(tmp_path, TINY + "opt.lr=1e9\nseeds=0\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_runtime_error_exit_one(self, tmp_path, monkeypatch, capsys):
        """A missing peer checkpoint is an error line and exit 1, not a
        traceback, and the partial outputs are still written."""
        from codistill import distrib
        monkeypatch.setattr(distrib.InMemoryCheckpointStore, "load_latest",
                            lambda store, model_id, entity=None: None)
        path = self.write_cfg(tmp_path, TINY + "kind=codistill\nseeds=0\nsteps=30\n"
                              "codistill.burn_in=10\ncodistill.reload_interval=10\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == "RuntimeError"
        assert (out / "metrics.csv").exists()

    def test_seed_offset(self, tmp_path):
        path = self.write_cfg(tmp_path, TINY)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out),
                     "--seed-offset", "10"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seeds"] == [10, 11]

    def test_sweep_command(self, tmp_path):
        path = self.write_cfg(tmp_path, TINY + "seeds=0\nsteps=20\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--axis", "group.n_workers",
                     "--values", "1,2", "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()
