"""Golden-output guard for lockstep runs.

Each case runs one tiny lockstep experiment through ``experiments.run`` and
compares SHA-256 hashes of its outputs with hashes recorded before any
optimisation of the training path: ``metrics.csv`` without the
``wall_seconds`` column, and ``summary.json`` byte for byte. Together the
cases cover every experiment kind, the LM head, every distillation loss,
every optimizer, both label-smoothing teachers and the 32-bit checkpoint
payload. The sweep cases hash ``sweep.csv`` and each value's outputs for
the paper's two scaling sweeps through ``experiments.sweep``; its
``codistill.reload_interval=1`` value is deep mutual learning.

The hashes are kept by the OpenBLAS kernel numpy runs, since each kernel
family sums in its own order: SkylakeX and Haswell share one set, and
Sandybridge and Nehalem (forced with ``OPENBLAS_CORETYPE``) have their own.
A mismatch names the kernel it ran on and means a change altered training
arithmetic; a kernel with no recorded set fails each case, naming it.
Re-record only when a change of arithmetic is the intent, and say so in the
change.
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

# name -> (config, axis, values): the paper's two scaling sweeps through
# ``experiments.sweep``, worker count on the baseline and checkpoint
# staleness on codistillation.
SWEEP_CASES = {
    "sweep_n_workers": ({"kind": "baseline"}, "group.n_workers", [1, 2]),
    "sweep_reload_interval": ({"kind": "codistill", **CODISTILL},
                              "codistill.reload_interval", [1, 10]),
}

# Hashes by the OpenBLAS kernel that ran the case (``blas_kernel()``): each
# case's (metrics.csv without wall_seconds, summary.json), and each sweep
# case's sweep.csv, then metrics.csv without wall_seconds and summary.json
# per value. SKYLAKEX holds the hashes recorded on SkylakeX before any optimisation of
# the training path, which Haswell's equal; SANDYBRIDGE and NEHALEM were
# recorded from runs with OPENBLAS_CORETYPE set to that kernel.
SKYLAKEX = {
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

SANDYBRIDGE = {
    "baseline": ("99eaecc21c79db499cc1769c0a5c0c660ee474ffe80b6b35ed14c75d7e49a68b",
        "5967169835f12e14d95b015d7b34b1982f00726809266c958446fe9ef7ba0d38"),
    "churn": ("7e245c1bc1366558ccf9c553cdfc470af29e824968169dc7e24024a7211dbdfb",
        "b42aef7397580866413e8268170733679489ca5a87142477ca6286522c152673"),
    "codistill": ("57fb802fc5fa905e731e254c2ee3895390b6840a589b7d98a18ce8a3ed9fef3c",
        "22478ce7e1da7a01ab0379c57e28c51a3389d0db905402e6dfd59df33f1e3b7e"),
    "codistill_float32": ("2a4c4be8f4c0353ce2e6a7fb8b801f5e143ecd4383d16b6354b19ce5fa677f68",
        "2014adf925b0b7c141a07ff60e10126ba27e01a720cd9d476e2879e67ab4ca2e"),
    "codistill_kl_adam": ("8ae2a0b1da68ab6fcc9f54e04d7e1c8d78dba6c90d2f5265af5b589e13d90dc2",
        "3d7ba99641e29b2f4b6385b2e44c400167ecf6dc7fdcacb0b88295a4e3e37d36"),
    "codistill_logit_mse_sgd": ("de2be88ef84bbcb92cb57199006ffb83876174bdb44c9e6a7ee3bd4038528ef4",
        "a67c87cfec16019a6d720f4b75d1eec0b2b42a6cb9d573e73f33f1da7cb12e08"),
    "ensemble_baseline": ("dde308ac42821a3d623d10648bf5838d122cc872aa22294e08447803aa1fb027",
        "72cf2e72b0dce177da392f3a93334fa57b50a3a09449dc8e94dfaea64fab1d37"),
    "lm_baseline": ("ccb857e426345f3d446421badd5af4cc67bededf27c97014b5a21302cea6cd99",
        "ecb6151c789d07f1a97c586d3ed54d35abc2408e4e588076b567b54b507b2b06"),
    "lm_codistill": ("067365ae961c95ddb26ae8240ed42a722d72c4201427fc936b29d6983d7aedef",
        "6dfd4b5ee857d20eb3f3639b2f01643c5c397e513c93d080ba256028f2087227"),
    "offline_distill": ("e208022f9aba875d9c9d4a817c994a7fc3b61ec3497b1d7bd080f1a1f1a4f2ec",
        "b468cc9207efd20ba27e3bb65e07fc6bf8f82486280d914dc237139dfe4bf726"),
    "same_data_ablation": ("d10eb8f4e7272e0365cdcb53a7efed4b5bf15c9c2beac373822da10c51f5d001",
        "65bb1a4af2dadf05835b49502605cbee3fe95aa317e0225565996f4992e28a55"),
    "smoothing_uniform": ("aabd8992d751c1245b46cefc6827877cfdc3afeb9fe28c4ce7e770940023c976",
        "60abe7674ebc4dd62808c1d2eec832529019a953c509c71c3e3a240b28646f48"),
    "smoothing_unigram": ("eea850ef751f3272306a8d2ab1d32798b19f2e3d6b82c17a1bb715ec9e465178",
        "9e087fe852d539a429d48a12f136f8f34d0681c560539ece3e04e2ba60cb22b4"),
    "sweep_n_workers": (
        "b3028f8ccd69001ac3c3779d1225f10235584ebf745cc907a42ff6851724ea5e",
        "60b9550903b8709106e6dc8ddccde0bcd0823f9ccfa851fcfe9c816ea28c28fb",
        "938b6a9b6e48cac1622d9a293948cecb11d55baebb4419ac26c6197e2fb9ee36",
        "578d14cb159d5f32728363458f29d1519885087be9da40c8a427261119214295",
        "367673147c8fd6f898dadd5275c9ce63865bf44048f8f7482eeb84a3ad8449ce"),
    "sweep_reload_interval": (
        "596c1040a7df79fbde4eda14c3b7e362c6c3db68e08fcadaac7443b755301327",
        "8e7f4c3864cfd89ff0040a97d1312692a21c3ce3e02209102cfad6f80244c36f",
        "21c9939782464ca67a138da42954eb53196dd21c70c4b5e50907ce3a693eb7b4",
        "1caadff7c48b2f0b953d68d9f8ac5f9d924f22ae0c221ccb346bb5220e708bb3",
        "15a47b8c3c13713c8ffdd75bf2db00b902ee38dc7d6b0171c4b04b20e621c809"),
}

NEHALEM = {
    "baseline": ("e5b0bd19ff2e08e6df53b3a623f5faefb2eaaf18126573ccd661607a61df3170",
        "772420e16008ddd1112907ad3a73a5bae51ad9a531d4b3e8abf28acb93894f6f"),
    "churn": ("98d4f63810fd613fc7d509e3a093cf1e6c50c48f74ea7ba0bf2f0a1576079917",
        "25e3e25e0b8b8f9c09b2dd8743ffe08d131174112e231c53b5f396f8fa497998"),
    "codistill": ("2fe34e6b0dc5ecbc1909d387076a6086888246fbeea5e4c831e176aa2df82551",
        "438d31d72af0b3dcec30fb7d052c7bd808c58ea4349c1da3a0a8dda0294b23db"),
    "codistill_float32": ("28abccd1068891daf0d19d8bfcf75683e2b833ef92eb84512c87f37e9e0f5dde",
        "3ba8a8dc324ab943cf640cd43a6f3874a10b8cd0752edfbca979bbd178fd407d"),
    "codistill_kl_adam": ("8ae2a0b1da68ab6fcc9f54e04d7e1c8d78dba6c90d2f5265af5b589e13d90dc2",
        "3d7ba99641e29b2f4b6385b2e44c400167ecf6dc7fdcacb0b88295a4e3e37d36"),
    "codistill_logit_mse_sgd": ("fc75214091b4c220082b429c0c3f8bd3ad732255030a2a9c62db9fb8724ea98f",
        "c0dfbe54aced79521a85a43ee98e131048c6293101197ed07cb1bd6274f681c7"),
    "ensemble_baseline": ("54178f51c3a32caf565f568b670b8e560bdcc5fb6e9a4490c78c81696cda54eb",
        "2f33977c76c3badea409fc0b40041260a303b44ad384b65a95e052f0ef551b9e"),
    "lm_baseline": ("fd0c65f903b21f48351942c3701dcfc8847e556cd0433f07ffc93232516a6e4b",
        "ecb6151c789d07f1a97c586d3ed54d35abc2408e4e588076b567b54b507b2b06"),
    "lm_codistill": ("791946c781edb0fe7db27ff52b2032fc5ce93e1487af595cf30244790228c8d1",
        "6dfd4b5ee857d20eb3f3639b2f01643c5c397e513c93d080ba256028f2087227"),
    "offline_distill": ("9986f4c7d6e12506c11785f42de7a251b7492a3ba1d72afd7fe9a2ede4280eee",
        "0ff6d4dc6be7a27d8c592de76a6df0e8d1b1dfc9b4660456b6dd32bf086efc81"),
    "same_data_ablation": ("c9a26f44f3a86a040dec01f8fa1795752f9e9dba861f6f0c4b860522d4dcb19a",
        "8ef4017ab5ca92963c61255a370d34ef9df573698be6ec1c9181f51b2228cf41"),
    "smoothing_uniform": ("68bbef7f196b1635d4ef2dd8e7e235216b96e80a7c908ee68c827f903b1def5d",
        "a617bbb4b2e39dd25db2abf14c2ce5f55b6e9861edff103796ca1277e56e5c8c"),
    "smoothing_unigram": ("56275b366313a88047c16056eaf5c6f60268a23e3be6b356057a8af35837f1a0",
        "d13cffaec1a476158082ea2281bac224fffef2d723ab4ba44cb8da82e4590ff0"),
    "sweep_n_workers": (
        "0b7033367194953f77d17a069919238ba6487bb2f31dbe538e8c8136a797badc",
        "0e2c94e7a0f8292fc064793f3d09e4b7f97b2d80f8c1fac12105b17611c45e6e",
        "285e2203907078e6dcc853d11e71c35c0921cbac0cfe255a7f420f4cd06f03f0",
        "87359210481a82e4d4aead03e3c9d080c7bba4a52fbcc337ea719abb47d98308",
        "8d8d01ecbfabd3607bbd10db4a39501f106910283270297ff9f570a8e9fe831b"),
    "sweep_reload_interval": (
        "74f5b1f517780d266d7d0ab9c6fe5c88605a8e425db1d0910dad69ddb8c60c5b",
        "e4914262139e3afa2bccf5f6f3b341e3d3ce195d27b628e52a4ca22b49b7e0a5",
        "774edf401c09ded1ed15eb2e6da7c343eee75159655e84bed5cec7d46e4dfd8b",
        "631c75d9a19c44cd0df81fb5194cfd2b8feaee0ffe5feb57353551621dba9012",
        "0b815077ad67e3a479c1cd72452df450181c29b707c5f02064ffa119a74cc50f"),
}

GOLDEN = {"SkylakeX": SKYLAKEX, "Haswell": SKYLAKEX, "Sandybridge": SANDYBRIDGE,
          "Nehalem": NEHALEM}


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


def golden(name: str) -> tuple[str, ...]:
    """Case ``name``'s hashes for the running kernel; on a kernel with none
    recorded the test fails, naming it."""
    kernel = blas_kernel()
    if kernel not in GOLDEN:
        pytest.fail(f"no golden hashes are recorded for the {kernel} OpenBLAS kernel, "
                    f"only for {', '.join(GOLDEN)}")
    return GOLDEN[kernel][name]


def mismatch() -> str:
    return (f"outputs differ from the golden hashes recorded for the {blas_kernel()} "
            "OpenBLAS kernel")


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
    for hashes in GOLDEN.values():
        assert set(hashes) == set(CASES) | set(SWEEP_CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert case_hashes(name, tmp_path) == golden(name), mismatch()


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_golden_sweep_outputs(name, tmp_path):
    assert sweep_hashes(name, tmp_path) == golden(name), mismatch()


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
    assert "for the Nehalem OpenBLAS kernel" in forced.stdout


def test_kernel_without_hashes_fails_naming_it(monkeypatch):
    monkeypatch.setitem(globals(), "blas_kernel", lambda: "Katmai")
    with pytest.raises(pytest.fail.Exception, match="for the Katmai OpenBLAS kernel, only for "
                                                    "SkylakeX, Haswell, Sandybridge, Nehalem"):
        golden("baseline")
