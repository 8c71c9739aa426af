"""Golden-output guard for lockstep runs.

Each case runs one tiny lockstep experiment through ``experiments.run`` and
compares SHA-256 hashes of its outputs with hashes recorded before any
optimisation of the training path: ``metrics.csv`` without the
``wall_seconds`` column, and ``summary.json`` byte for byte. Together the
cases cover every experiment kind, the LM head, every distillation loss,
every optimizer, both label-smoothing teachers and the 32-bit checkpoint
payload. The sweep cases hash ``sweep.csv`` and each value's outputs for
the paper's two scaling sweeps through ``experiments.sweep``; its
``codistill.reload_interval=1`` value is deep mutual learning. A mismatch
means a change altered training arithmetic, or that numpy's OpenBLAS picked
a kernel whose sums run in another order: the hashes hold on SkylakeX and
Haswell, and a mismatch names the kernel it ran on. Re-record only when a
change of arithmetic is the intent, and say so in the change.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from codistill.experiments import EXPERIMENT_KINDS, run, sweep

TINY = {
    "seeds": [0], "steps": 30, "eval_every": 10, "target_loss": 1.05,
    "data.n": 400, "data.dim": 6, "data.classes": 3, "data.difficulty": 0.3,
    "data.seed": 5, "model.hidden": [12, 8], "opt.lr": 0.2,
}
CODISTILL = {"codistill.burn_in": 10, "codistill.reload_interval": 10}
LM = {"data.kind": "lm", "data.corpus": "corpus.txt", "data.window": 4,
      "model.embedding_dim": 3, "model.hidden": [10], "data.val_fraction": 0.1,
      "target_loss": 2.5}

CASES = {
    "baseline": {"kind": "baseline", "seeds": [0, 1]},
    "codistill": {"kind": "codistill", "codistill.n_models": 3, **CODISTILL},
    "codistill_kl_adam": {"kind": "codistill", "loss.distill": "kl_divergence",
                          "opt.kind": "adam", "opt.lr": 0.01, **CODISTILL},
    "codistill_logit_mse_sgd": {"kind": "codistill", "loss.distill": "logit_mse",
                                "opt.kind": "sgd", **CODISTILL},
    "codistill_float32": {"kind": "codistill", "codistill.float32_payload": True,
                          **CODISTILL},
    "same_data_ablation": {"kind": "same_data_ablation", **CODISTILL},
    "smoothing_uniform": {"kind": "smoothing_baseline"},
    "smoothing_unigram": {"kind": "smoothing_baseline", "loss.smoothing": "unigram"},
    "ensemble_baseline": {"kind": "ensemble_baseline"},
    "offline_distill": {"kind": "offline_distill", "offline.phase1_steps": 20,
                        "offline.phase2_steps": 20},
    "churn": {"kind": "churn", "churn.repeats": 2, "steps": 20},
    "lm_baseline": {"kind": "baseline", "group.n_workers": 2, **LM},
    "lm_codistill": {"kind": "codistill", "group.n_workers": 2, **CODISTILL, **LM},
}

# (metrics.csv without wall_seconds, summary.json)
GOLDEN = {
    "baseline": ("a8af2b43b0742dc593ab7497e397ebefcc9181157d57748389b770391baa9420",
        "c30e066ce61e6b886e93b4c349dabf0843f77c82c23e2f3e63ddd60500b92413"),
    "churn": ("52e0b1e1a2552e5773b39827ab5290ee0df0b185ce8173a005230ab96f9e315d",
        "a296074aaeb063cf0031da26fd2d0d9db11d8d28d8c5c8eba158fc6fcf59c1dc"),
    "codistill": ("a6dc43df90204cd6b9dac884906c974b9c5ea217d4028b09e0a532d591902fc7",
        "2705e325112a31acc3e398921d303c00f45bc7ac95271b9179e9dacab3b54421"),
    "codistill_float32": ("0ac77b60c53945d3237701bc70dc54a7b4b06cc2f7d532d6d8c5c8b6d401e0a7",
        "529c2e5b23672d25f2d80e5f04edb258a17dd2398a26e3fe99572916b116e7cd"),
    "codistill_kl_adam": ("b0df3cae66bf99b4f6854ca858653450ee3fae513f39c3bfdfa1e48f1da01c5b",
        "1ffbcd387425d8857c2116bf9729f33ae94496e18e1716a6aafd952aafda7c3e"),
    "codistill_logit_mse_sgd": ("4c91995f0bdf62325404a89827ab740da74673150cffe8c240d9c814a62d96f7",
        "6055ed95a9a00efce45829dbd2ba3f3843d75be57d315095597a3535ea98df1e"),
    "ensemble_baseline": ("05dba5f807364c229ccb00d9d1550055bc8988b40fbe76d46c6613b6a504d7c0",
        "c733135ee5c43a825ee87c2fea923229a45757b86eda3000a000753cf9d6385e"),
    "lm_baseline": ("2e6073626224660fa9404ddbc6da9552eaed6cabc28fec5ffcea9b237be0bd6e",
        "421027a2e4fa55f752033b4cd06e31ace4a19c3567e3bda9d0e63a8ac0a1dce0"),
    "lm_codistill": ("7911796221075921e0ae1f5db22ea9d2a624c7dedffffe36b48fd51ceecadf3d",
        "6dfd4b5ee857d20eb3f3639b2f01643c5c397e513c93d080ba256028f2087227"),
    "offline_distill": ("f1efc12a474af067cf00a0943873ff86da1485b47fd705863a91b2adf5bfe772",
        "0dfc535e5905f823a1b517464314bab4135f8a07e6b7db492781b4d040673ed8"),
    "same_data_ablation": ("41a9c9caa56389f5823b0ad7e3e564c9898d8c33dc4d6c8770ca76d0ac0c8d2a",
        "749631974b41bbb0eeb01e0d0dbe2cf63e6afa9882146224e8d9daecd71b6e88"),
    "smoothing_uniform": ("72fae0af7eb234266bd585e7a5816dfb17ee732b683fb9efc04e719e669e59d1",
        "23f3e4c012810373153d1d182f1313f53036b7ffb0abd70f90b19944afb1fb08"),
    "smoothing_unigram": ("98f17d72f51335c383646b6544a98abe24fd9891e84826ace96b9487124fab99",
        "9e087fe852d539a429d48a12f136f8f34d0681c560539ece3e04e2ba60cb22b4"),
}

# name -> (config, axis, values): the paper's two scaling sweeps through
# ``experiments.sweep``, worker count on the baseline and checkpoint
# staleness on codistillation.
SWEEP_CASES = {
    "sweep_n_workers": ({"kind": "baseline"}, "group.n_workers", [1, 2]),
    "sweep_reload_interval": ({"kind": "codistill", **CODISTILL},
                              "codistill.reload_interval", [1, 10]),
}

# (sweep.csv, then metrics.csv without wall_seconds and summary.json per value)
SWEEP_GOLDEN = {
    "sweep_n_workers": (
        "9b5b6949a468167f30577f33970461827126dd6a706117427ae09d9693ad3481",
        "61dfe64ec4dec28e3f74a74ed935cbdf0d402c1c65e6b9fcc18de994f87d43c7",
        "b77dd9c440a8cb017dfa52808a069ed5a86d9f4cde73eafec9415c174ae7964c",
        "39a6432dd5b691d64874966f36b89f1e1c71433fd55ef7c5991bbbf277be4c00",
        "57bf38584c8f3aa91978b130a128600c29afebdaa1d88c08b5df13417520162d"),
    "sweep_reload_interval": (
        "56d0644cd6546190f089f90dd0398ddd0f957dcd11633b0e70e72c7fa04214ae",
        "3f23f7ed7f1c0a7d1d5382074131fb9eca4146104f8bd358d70b2d3327bc2b8c",
        "958a9dfa70feefeff1d6cbd1dd9ae88fbabf6a02371a766bfc1f678f62e90f8f",
        "cf582077a1e1a0ea6f67759536712274b862eb13cebef421def79fccb27f81b1",
        "5c2a2e401ae484a8bcccb2bb43df31799520ffe02aa9840ec7f6b8da3325983a"),
}


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs, by its own name ("SkylakeX"),
    or "unknown" where that library or its ``scipy_openblas_get_corename64_``
    symbol is missing. Loading the library numpy already loaded gives numpy's
    instance, so a kernel forced with ``OPENBLAS_CORETYPE`` is the one named."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def mismatch() -> str:
    return (f"outputs differ from the golden hashes on the {blas_kernel()} OpenBLAS kernel; "
            "they were recorded on SkylakeX and hold on Haswell")


def _corpus() -> str:
    rng = np.random.default_rng(11)
    words = ["the", "cat", "sat", "on", "a", "mat", "and", "dog", "ran"]
    return " ".join(words[i] for i in rng.integers(0, len(words), size=300)) + "\n"


def _sha256_metrics(path: Path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("wall_seconds")
    kept = [",".join(c for i, c in enumerate(line.split(",")) if i != col) for line in lines]
    return hashlib.sha256(("\n".join(kept) + "\n").encode()).hexdigest()


def case_hashes(name: str, work_dir: Path) -> tuple[str, str]:
    """Run one case inside ``work_dir`` and hash its outputs.

    The LM corpus path is recorded in ``summary.json``, so it is relative to
    ``work_dir``, which must be the current directory.
    """
    (work_dir / "corpus.txt").write_text(_corpus(), encoding="utf-8")
    out = work_dir / "out"
    run({**TINY, **CASES[name]}, out)
    return (_sha256_metrics(out / "metrics.csv"),
            hashlib.sha256((out / "summary.json").read_bytes()).hexdigest())


def sweep_hashes(name: str, work_dir: Path) -> tuple[str, ...]:
    """Run one sweep case inside ``work_dir`` and hash its outputs."""
    cfg, axis, values = SWEEP_CASES[name]
    out = work_dir / "out"
    sweep({**TINY, **cfg}, axis, values, out)
    hashes = [hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()]
    for value in values:
        sub = out / f"{axis}={value}"
        hashes += [_sha256_metrics(sub / "metrics.csv"),
                   hashlib.sha256((sub / "summary.json").read_bytes()).hexdigest()]
    return tuple(hashes)


def test_cases_cover_every_kind():
    assert {c["kind"] for c in CASES.values()} == set(EXPERIMENT_KINDS)
    assert set(GOLDEN) == set(CASES)
    assert set(SWEEP_GOLDEN) == set(SWEEP_CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert case_hashes(name, tmp_path) == GOLDEN[name], mismatch()


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_golden_sweep_outputs(name, tmp_path):
    assert sweep_hashes(name, tmp_path) == SWEEP_GOLDEN[name], mismatch()


def test_mismatch_names_the_running_kernel():
    """The kernel named is the one running: forcing one with
    ``OPENBLAS_CORETYPE`` in a new process changes the name."""
    if blas_kernel() == "unknown" or platform.machine() != "x86_64":
        pytest.skip("no bundled x86-64 OpenBLAS to ask")
    forced = subprocess.run(
        [sys.executable, "-c", "from test_golden import mismatch; print(mismatch())"],
        cwd=Path(__file__).parent, capture_output=True, text=True, check=True,
        env={**os.environ, "OPENBLAS_CORETYPE": "Nehalem",
             "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)})
    assert "on the Nehalem OpenBLAS kernel" in forced.stdout
