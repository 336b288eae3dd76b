"""Golden trace digests: the sha256 of emitted CSVs, pinned.

Refactors must keep every digest. A change that moves a trace on purpose
names the traces that changed and why in CHANGES.md, and re-pins them here.

- Every shipped preset x every variant, at a short T (two syncs plus one
  local step) and seed 1; the CSV body only, without the config-hash line.
- Every shipped preset as shipped (its own variant and full T), seed 1,
  CSV body only.
- Two configs whose clients hold datasets of different sizes.
- The three benchmark workload configs at seed 1, emitted the way
  `fedmm run` emits them (config-hash line included), and emitted by
  `fedmm run` itself; these match the digests printed by
  `perfbench/run.py`. They are also computed in two
  fresh processes, with OpenBLAS held to one thread and to two, along with
  the K = 100 heterogeneity probe pinned in test_theory.
- The AUC traces above, and the auc-imbalanced workload at seed 7, without
  the columns computed from the exact oracle, and that workload's final
  point: pinned before the AUC exact oracle moved to class moments, which
  re-pinned every AUC digest here, so they show that only those columns
  moved.
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

from fedminimax import algorithms, cli, metrics
from fedminimax.config import apply_overrides, render_config
from fedminimax.presets import load_preset, preset_names

from test_theory import HETEROGENEITY_PINS


def _emit(preset: str, overrides: dict, tmp_path, with_hash: bool = False, seed: int = 1):
    """The CSV bytes of one seed's run, and its trace."""
    cfg = apply_overrides(load_preset(preset), overrides)
    problem = cfg.build_problem(seed)
    trace = algorithms.run(problem, cfg.hp_for_seed(seed), heavy_cadence=cfg.output.heavy_cadence)
    path = tmp_path / "trace.csv"
    chash = metrics.config_hash(render_config(cfg)) if with_hash else None
    metrics.emit_csv(trace, path, config_hash=chash)
    return path.read_bytes(), trace


def _csv_digest(preset: str, overrides: dict, tmp_path, with_hash: bool = False) -> str:
    return _sha(_emit(preset, overrides, tmp_path, with_hash)[0])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _without_oracle_columns(csv: bytes) -> bytes:
    """The CSV without AUC_ORACLE_COLUMNS; comment lines are kept."""
    lines = csv.decode().splitlines()
    header = lines[0].split(",")
    keep = [j for j, name in enumerate(header) if name not in AUC_ORACLE_COLUMNS]
    assert len(keep) == len(header) - len(AUC_ORACLE_COLUMNS)
    rows = [ln if ln.startswith("#") else ",".join(ln.split(",")[j] for j in keep) for ln in lines]
    return ("\n".join(rows) + "\n").encode()


def _short(preset: str, variant: str) -> dict:
    q = load_preset(preset).algorithm.q
    return {"algorithm.variant": variant, "algorithm.t": str(2 * q + 1)}


PRESET_VARIANT = {
    ("auc-imbalanced", "fgda"): "361c0c46bc24303fae1261cbf9a51f0bc1e3952e50de9b0fd89bcbd3f58e0b95",
    ("auc-imbalanced", "adafgda_adam"): "c9e99588597677a914c6a955577f4a9ce18868f7ae8b68eb9f667ae394059ff7",
    ("auc-imbalanced", "adafgda_adabelief"): "f36ac8a08496ee8215ce0f831a279b64d181115dfc0dfccb0fb78e0c2eae4f43",
    ("auc-imbalanced", "local_sgda"): "e7af0fd50543632bbaf651ff8089e9207145f729873a536e89df87c7fcc1c57c",
    ("auc-imbalanced", "momentum_local_sgda"): "627becc3c744391c92ea76742ceae98a81ba1b88d11b7455aa08c3d8299afd9c",
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
    "auc-imbalanced": "06166027573b0be09972f3d5b656b3e54642c4dfaeda478339baa4076a7f6505",
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
        "375b6e82799d5a69bce6aa883120fb07b9d4f87a98d80f1d4897361f58d0ac79",
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
        "db6d142439f52169c17ebad0d240c9a7d9a9b8e083e77c3e79dab2d10ce9c713",
    ),
    "robust-q6": (
        "robust-q6", {"algorithm.t": "120"},
        "a0c68282ada4ab68825e80be1afc0417e842bc73da434d15760a249dfafee029",
    ),
}


# The AUC traces without the columns computed from the exact oracle
# (grad_full_all and y_star): est_err_x, est_err_y and grad_norm_F. These
# digests, of the CSVs above and of the auc-imbalanced workload config at
# seeds 1 and 7, and the float.hex of that workload's final point, were
# computed from the per-item exact oracle, before the AUC family took its
# exact gradients from class moments: the iterates and every other column
# keep their bits whatever the exact oracle's rounding.
AUC_ORACLE_COLUMNS = ("est_err_x", "est_err_y", "grad_norm_F")
AUC_NON_ORACLE = {
    ("auc-imbalanced", "fgda"): "68bea1d27be3328f40a87f8ed153e47284ae9b1c81bb963a9c97767c90724d53",
    ("auc-imbalanced", "adafgda_adam"): "3705264ffa2773a091064d084e85ab89bbeecd9d23ba87f5615cb8afa0d7d8a4",
    ("auc-imbalanced", "adafgda_adabelief"): "1ab0c95055fe7532953259c554286c3cecab458f5ec256fab546a6ae0b41d58c",
    ("auc-imbalanced", "local_sgda"): "4d871f20474c850e7d582ffa407b86399bb18fda80c97234e0114c1905d07637",
    ("auc-imbalanced", "momentum_local_sgda"): "ee8ef659d8c6a203286763001055b24692c3d238186f7d03df93f791d128f954",
    "auc-imbalanced": "cd2f9748c8578967cc28e1b4ab09cd36c74ae020ed69e0239df495c69ca2d5cb",  # full T
    "auc-imbalanced-k7": "aca5c785df26963b777488146f0ae7600d395b360fcc54da0208eb11d2123784",
    ("workload", 1): "d0aed7c50db1a307476dcd02bfbf9d72c91935c4e219a8b08abd23ff3e51c4d4",
    ("workload", 7): "88c58dee12475777ddb44e1b976f34f55d9d670b9abd6933075948e993a864fa",
}
AUC_WORKLOAD_FINAL = {
    1: (("0x1.dfd6db8ab1623p-4", "0x1.bfc151bbdfdefp-3", "0x1.035393686fe25p-2", "-0x1.d42ff6a9853bep-4",
         "0x1.8309bab7a4684p-3", "0x1.d2ba316e42dccp-3", "0x1.9e51cecc287c4p-4", "0x1.03ecf40bf47cdp-2",
         "0x1.7f0ba596cc815p-3", "0x1.5f4ba063b7b21p-3", "0x1.35391773c46e7p-2", "-0x1.22eba6d949f5fp-1"),
        ("-0x1.ad0e15320e8d3p-1",)),
    7: (("0x1.4db1ef43c779dp-3", "0x1.6d12632ae914ep-3", "0x1.39eacfe0471dcp-5", "-0x1.066e87218c7adp-4",
         "-0x1.273314751ab9ep-5", "-0x1.819e04c0327bbp-5", "0x1.ad5e34efdb884p-7", "0x1.4718cf308ddcbp-2",
         "-0x1.08bb1cc166ad3p-4", "-0x1.29a9907588577p-5", "0x1.3a6624f2e298cp-1", "-0x1.59848092be383p-2"),
        ("-0x1.986d900c1eab0p-1",)),
}


def _check_auc_non_oracle(key, csv: bytes) -> None:
    """Checked before the whole digest, so a moved exact oracle alone fails
    on the whole digest, and a moved iterate here."""
    if key in AUC_NON_ORACLE:
        assert _sha(_without_oracle_columns(csv)) == AUC_NON_ORACLE[key]


def _check_auc_workload_final(seed: int, trace) -> None:
    got = tuple(v.hex() for v in trace.final_x), tuple(v.hex() for v in trace.final_y)
    assert got == AUC_WORKLOAD_FINAL[seed]


def test_roster_is_complete():
    assert set(PRESET_VARIANT) == {(p, v) for p in preset_names() for v in algorithms.VARIANTS}
    assert set(PRESET_FULL_T) == set(preset_names())


@pytest.mark.parametrize("preset,variant", sorted(PRESET_VARIANT))
def test_preset_variant_digest(preset, variant, tmp_path):
    csv, _ = _emit(preset, _short(preset, variant), tmp_path)
    _check_auc_non_oracle((preset, variant), csv)
    assert _sha(csv) == PRESET_VARIANT[(preset, variant)]


@pytest.mark.parametrize("preset", sorted(PRESET_FULL_T))
def test_preset_full_t_digest(preset, tmp_path):
    csv, _ = _emit(preset, {}, tmp_path)
    _check_auc_non_oracle(preset, csv)
    assert _sha(csv) == PRESET_FULL_T[preset]


@pytest.mark.parametrize("name", sorted(RAGGED))
def test_ragged_partition_digest(name, tmp_path):
    preset, overrides, digest = RAGGED[name]
    csv, _ = _emit(preset, overrides, tmp_path)
    _check_auc_non_oracle(name, csv)
    assert _sha(csv) == digest


def test_auc_pins_cover_the_auc_traces():
    auc = [key for key in PRESET_VARIANT if key[0] == "auc-imbalanced"]
    assert set(AUC_NON_ORACLE) == {*auc, "auc-imbalanced", "auc-imbalanced-k7", ("workload", 1), ("workload", 7)}
    assert set(AUC_WORKLOAD_FINAL) == {1, 7}


def test_auc_workload_at_seed_7_keeps_its_non_oracle_columns_and_final_point(tmp_path):
    preset, overrides, _ = WORKLOADS["auc-imbalanced"]
    csv, trace = _emit(preset, overrides, tmp_path, with_hash=True, seed=7)
    _check_auc_non_oracle(("workload", 7), csv)
    _check_auc_workload_final(7, trace)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_digest(name, tmp_path, monkeypatch):
    preset, overrides, digest = WORKLOADS[name]
    csv, trace = _emit(preset, overrides, tmp_path, with_hash=True)
    if name == "auc-imbalanced":
        _check_auc_non_oracle(("workload", 1), csv)
        _check_auc_workload_final(1, trace)
    assert _sha(csv) == digest
    # `fedmm run` itself, in a fresh working directory and with the preset's
    # own [output] section (an --output.* override would change the config
    # hash), writes the same seed-1 CSV
    monkeypatch.chdir(tmp_path)
    argv = ["run", "--preset", preset, *(arg for key, value in overrides.items() for arg in (f"--{key}", value))]
    assert cli.main(argv) == 0
    [csv] = (tmp_path / load_preset(preset).output.csv_dir).glob("*_seed1.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


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
