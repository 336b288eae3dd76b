"""Golden trace digests: the sha256 of emitted CSVs, pinned.

Refactors must keep every digest. A change that moves a trace on purpose
names the traces that changed and why in CHANGES.md, and re-pins them here.

- Every shipped preset x every variant, at a short T (two syncs plus one
  local step) and seed 1; the CSV body only, without the config-hash line.
- Every shipped preset as shipped (its own variant and full T), seed 1,
  CSV body only.
- Two configs whose clients hold datasets of different sizes.
- The three benchmark workload configs at seed 1, emitted the way
  `fedmm run` emits them (config-hash line included); these match the
  digests printed by `perfbench/run.py`. They are also computed in two
  fresh processes, with OpenBLAS held to one thread and to two, along with
  the K = 100 heterogeneity probe pinned in test_theory.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedminimax

from fedminimax import algorithms, metrics
from fedminimax.config import apply_overrides, render_config
from fedminimax.presets import load_preset, preset_names

from test_theory import HETEROGENEITY_PINS


def _csv_digest(preset: str, overrides: dict, tmp_path, with_hash: bool = False) -> str:
    cfg = apply_overrides(load_preset(preset), overrides)
    problem = cfg.build_problem(1)
    trace = algorithms.run(problem, cfg.hp_for_seed(1), heavy_cadence=cfg.output.heavy_cadence)
    path = tmp_path / "trace.csv"
    chash = metrics.config_hash(render_config(cfg)) if with_hash else None
    metrics.emit_csv(trace, path, config_hash=chash)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _short(preset: str, variant: str) -> dict:
    q = load_preset(preset).algorithm.q
    return {"algorithm.variant": variant, "algorithm.t": str(2 * q + 1)}


PRESET_VARIANT = {
    ("auc-imbalanced", "fgda"): "7feaafa5cd580e03809c1e15d13b115fe1c2daac51134e3db65177b6a87fbe12",
    ("auc-imbalanced", "adafgda_adam"): "389b48c86005a6e3ab2b1d9c3b74d771eb3f079381dad1236c60e3eb639040b8",
    ("auc-imbalanced", "adafgda_adabelief"): "9a0cd669f3f94607cad3d6734b10f9cd8ec58178ab9d5809df2fb20accadef9e",
    ("auc-imbalanced", "local_sgda"): "4516eda45c2b3ab4e6f6f75d884e213eb35bf6bc4293c69123d491d1a6e7ba15",
    ("auc-imbalanced", "momentum_local_sgda"): "e40eb9f89519f671a782d7fa924715f666e8c65a4afa3e1f0ef77d70d54c0eb4",
    ("robust-q12", "fgda"): "6ecedd77e6c9b2069649bb25ff994733e758751e4d5a2be1a3400d35606d0c13",
    ("robust-q12", "adafgda_adam"): "27f9f4f449a996971a34493c55ed474b2c98bf26f8409c3cb31d07ed3d26e623",
    ("robust-q12", "adafgda_adabelief"): "3f314c79c135134c60e51a93d1fec97e0b1e0aed45014059b2d935452545f18e",
    ("robust-q12", "local_sgda"): "e8da93dbe28a23fd29c8139d329c52fb1fa25fec43572bb3f69c65b13e1b9e3a",
    ("robust-q12", "momentum_local_sgda"): "82863778c305d13676641c73418f0a6cc238d2d2b562f29c32b50a7616c35e53",
    ("robust-q6", "fgda"): "cee871c8149756830fb8f62d8ca1a5efd915e1717a5204e1197abc01942e076f",
    ("robust-q6", "adafgda_adam"): "5aa1135728f77c89b60d8f39eda055962126c0a0e6b8f95d3528dff128fc5d67",
    ("robust-q6", "adafgda_adabelief"): "ab62da684d6de4d2b909354886de43d5591af5568bbbdc5865e8b957b28429ad",
    ("robust-q6", "local_sgda"): "65c8febf3a812b301fb1af73653efb74b240342b8f09b3aaa0db130bd7485561",
    ("robust-q6", "momentum_local_sgda"): "19fe5b4377e82c8bf0d694b8635e6bc957d3fdf620decf8377f6380c36d6f92d",
    ("synthetic-s1", "fgda"): "3f0eae4e4fb72eca6acf77d40ed09cb92161f9ee36a4331395831213f5049b87",
    ("synthetic-s1", "adafgda_adam"): "415aa9eb708d2f7c8b760a81f31ab65d5051677615fec3f55604c469c9cbd527",
    ("synthetic-s1", "adafgda_adabelief"): "f1f19da486c49a80084bf4a1d1fed9f71dca6ee55ba13d591a0fc9c4ebd8fce4",
    ("synthetic-s1", "local_sgda"): "ad2080066cdd0a16a89ece8c4fef0b8624d12598ad33f0de34b7a0cbcf3a7718",
    ("synthetic-s1", "momentum_local_sgda"): "8d22b0dde0b04a6cb69bfe8ce91ce10b49d2d95c6575391df3b2cf13349cd6d3",
    ("synthetic-s10", "fgda"): "0eb7287101127939f8b248eebd5f96545201aecc52c2615a3a534a3472004fc3",
    ("synthetic-s10", "adafgda_adam"): "faa3fafc69faa5d65dd12ba8c95ba6d1ff03f8956714f58f2dc37ba7dc8f1dc1",
    ("synthetic-s10", "adafgda_adabelief"): "1f6250b122c89518fcb4625f62d2ba1dee94801b16a911f3a35316d8a62f0ea3",
    ("synthetic-s10", "local_sgda"): "2904d3383ba1b4469dec46ee591cf954dd423c060fd0801e77f86392cb7072c0",
    ("synthetic-s10", "momentum_local_sgda"): "7cc30fbf71f9d4447df0bb4e088de99fb0e871ae3a4b4ef37e9c838b209327d9",
    ("synthetic-theorem", "fgda"): "b846c431b94a9845f0cf189a246b80027d581295f1d1aef87167b3056fb0df16",
    ("synthetic-theorem", "adafgda_adam"): "8caa4dc9e644e44e4a02b52cce84066f3e53a3c95ec7d5cd6921fff7dd1c8c3d",
    ("synthetic-theorem", "adafgda_adabelief"): "c74984510ffc69088f7cfe1448d1e2290455e266f39ce5bd0f6b6a3a130ff91e",
    ("synthetic-theorem", "local_sgda"): "e797cd1d4c338f5aab191edc481ff9f86112948fc647c03541f9e13077aed41c",
    ("synthetic-theorem", "momentum_local_sgda"): "3fecbad2e022202013360c4400ce2accf40bf73e03be8c786b27f7687d6cc47c",
}

# each preset at its shipped variant and full T
PRESET_FULL_T = {
    "auc-imbalanced": "2454d2946e7115e8d492ff5458082b8661bd30933a7871ce638a2c554547cc97",
    "robust-q12": "1432e32f7778607262449329ca783f0ed646fe911c5f020d2ed2ad39f468638a",
    "robust-q6": "304535f104553f5b5b233fe7e87087b079cd847e4de870aec7d289cef6f7adaf",
    "synthetic-s1": "0317327cbf4e2431305f9e75df89638ae4fae9aeffcef2071b537a64b13d7eea",
    "synthetic-s10": "cfb9a66c260b0865cc43ba94be84a8434b90667c16824aa558a9661c329e68bd",
    "synthetic-theorem": "bc507ac180680b48bfc5f57a7d8354c0030a96d727c56359acc379c6649e400e",
}

# (preset, overrides, digest); client dataset sizes differ in both
RAGGED = {
    "robust-q6-dirichlet": (
        "robust-q6", {"problem.scheme": "dirichlet", "algorithm.t": "13"},
        "bd8d23805a5990ab2d5581464c70e4d13366b80bfd922b397f612f7ec5a716ca",
    ),
    "auc-imbalanced-k7": (
        "auc-imbalanced", {"problem.k": "7", "algorithm.t": "41"},
        "e78c2458bda6cb14ad9b5263cd4f98587135777f659ad7c733cfd2d737297dfb",
    ),
}

# the configs of perfbench/workloads.py, seed 1
WORKLOADS = {
    "synthetic-k100": (
        "synthetic-s1",
        {"problem.k": "100", "problem.dim": "20", "algorithm.variant": "fgda",
         "algorithm.q": "20", "algorithm.t": "200"},
        "3b90ff7b296c04a9c5704a603fa3c5a536aa5f30bf063eaf3d10dbf4d69176a0",
    ),
    "auc-imbalanced": (
        "auc-imbalanced", {"algorithm.t": "400"},
        "3ce56fb709715e66f8eda97fc5b0c219c6585262df3ebb47fb3d3217d9638035",
    ),
    "robust-q6": (
        "robust-q6", {"algorithm.t": "120"},
        "a0c68282ada4ab68825e80be1afc0417e842bc73da434d15760a249dfafee029",
    ),
}


def test_roster_is_complete():
    assert set(PRESET_VARIANT) == {(p, v) for p in preset_names() for v in algorithms.VARIANTS}
    assert set(PRESET_FULL_T) == set(preset_names())


@pytest.mark.parametrize("preset,variant", sorted(PRESET_VARIANT))
def test_preset_variant_digest(preset, variant, tmp_path):
    assert _csv_digest(preset, _short(preset, variant), tmp_path) == PRESET_VARIANT[(preset, variant)]


@pytest.mark.parametrize("preset", sorted(PRESET_FULL_T))
def test_preset_full_t_digest(preset, tmp_path):
    assert _csv_digest(preset, {}, tmp_path) == PRESET_FULL_T[preset]


@pytest.mark.parametrize("name", sorted(RAGGED))
def test_ragged_partition_digest(name, tmp_path):
    preset, overrides, digest = RAGGED[name]
    assert _csv_digest(preset, overrides, tmp_path) == digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_digest(name, tmp_path):
    preset, overrides, digest = WORKLOADS[name]
    assert _csv_digest(preset, overrides, tmp_path, with_hash=True) == digest


_WORKLOAD_DIGESTS = """
import json, pathlib, sys
import numpy as np
from fedminimax.theory import _estimate_heterogeneity
from test_golden_traces import WORKLOADS, _csv_digest
from test_theory import _pin_problem
out = pathlib.Path(sys.argv[1])
problem, _ = _pin_problem("synthetic-s1 k=100", 1)
print(json.dumps({
    "digests": {name: _csv_digest(p, o, out, with_hash=True) for name, (p, o, _) in WORKLOADS.items()},
    "heterogeneity": [d.hex() for d in _estimate_heterogeneity(problem, 7, np.random.default_rng(7))],
}))
"""


def test_benchmark_workload_digests_hold_at_one_and_two_blas_threads(tmp_path):
    # core.py's claim: bit-reproducible across thread counts. The variable
    # must be set before numpy loads, hence one fresh process per count.
    # The heterogeneity probe at K = 100 screens pairs with a Gram gemm,
    # whose summation order may follow the thread count; its result may not.
    path = os.pathsep.join([str(Path(fedminimax.__file__).parents[1]), str(Path(__file__).parent)])
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", _WORKLOAD_DIGESTS, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1] == {
        "digests": {name: digest for name, (_, _, digest) in WORKLOADS.items()},
        "heterogeneity": list(HETEROGENEITY_PINS[("synthetic-s1 k=100", 7)]),
    }
