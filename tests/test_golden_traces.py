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
  `perfbench/run.py`, and their presets and overrides equal
  `perfbench/workloads.py`'s. They are also computed in two
  fresh processes, with OpenBLAS held to one thread and to two, along with
  the K = 100 heterogeneity probe pinned in test_theory.
- The AUC and robust traces above, and each family's workload at seed 7,
  without the columns computed from its exact oracle, and that workload's
  final point: pinned before the family's exact oracle changed its
  rounding (AUC: class moments; robust: one gemv per point), which
  re-pinned every digest of the family here, so they show that only those
  columns moved.
"""

from __future__ import annotations

import hashlib
import importlib.util
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


def _without_oracle_columns(family: str, csv: bytes) -> bytes:
    """The CSV without the family's ORACLE_COLUMNS; comment lines are kept."""
    dropped = ORACLE_COLUMNS[family]
    lines = csv.decode().splitlines()
    header = lines[0].split(",")
    keep = [j for j, name in enumerate(header) if name not in dropped]
    assert len(keep) == len(header) - len(dropped)
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
    ("robust-q12", "fgda"): "356075b1b4d5ee71a0ecc243a31e260fce6d2e0b1eacce92e413c849fb358824",
    ("robust-q12", "adafgda_adam"): "6e36bd38b5366eae89599dee27ae3fcad3b01a02145f54a288443b9aefc082b9",
    ("robust-q12", "adafgda_adabelief"): "cabf30a398e136ce3f3db2d843a9a893d4cd3f6dcacf6e5f6841bcaefd467a82",
    ("robust-q12", "local_sgda"): "b4c4ab7bafd047a78fe8ac12f42f1b6838c4ec20ae410c291539ce6597696739",
    ("robust-q12", "momentum_local_sgda"): "30310a72fb04d32d6ca35abf4bf5c4169261464bb607870aa34f6bd3144e5dd1",
    ("robust-q6", "fgda"): "4ddb809750d414d61f1702961a04737851b3b5cf5b0c953b29472e8284f8a055",
    ("robust-q6", "adafgda_adam"): "69f0de83be81b23f375ee9dfa5269fb999eec1fb19a405a30035c7a903e35443",
    ("robust-q6", "adafgda_adabelief"): "cb863d1d6407530375c5d2e2f806ea70736d6ab548703cff69582e6482ea9c17",
    ("robust-q6", "local_sgda"): "e142f4fc81c46cbc6aad45d8413f64b7b3013ec8ed582176114f6bd879c3d14c",
    ("robust-q6", "momentum_local_sgda"): "1ea205014e20557fbe504a798d53ab370e75c95103516d6f4719c74b95c6c36d",
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
    "robust-q12": "138d66f1307d84d508a7c1baaf516272c7890c2d1070384d3533fe73cc04b075",
    "robust-q6": "78351111834eb143edf8482542b7ea818aa085d55bd98dca26557ae6620ba3ca",
    "synthetic-s1": "0317327cbf4e2431305f9e75df89638ae4fae9aeffcef2071b537a64b13d7eea",
    "synthetic-s10": "cfb9a66c260b0865cc43ba94be84a8434b90667c16824aa558a9661c329e68bd",
    "synthetic-theorem": "bc507ac180680b48bfc5f57a7d8354c0030a96d727c56359acc379c6649e400e",
}

# (preset, overrides, digest); client dataset sizes differ in both
RAGGED = {
    "robust-q6-dirichlet": (
        "robust-q6", {"problem.scheme": "dirichlet", "algorithm.t": "13"},
        "f8d978d97f9808efbf38affb64eff41722470e6c8dfbb30b8c994ab260965138",
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
        "1bf5a4ccac5ab966567accec6972ee98c47a0083e8dea98ac739da3a1902994e",
    ),
}


# Each family's traces without the columns computed from its exact oracle
# (grad_full_all and, for AUC, y_star). These digests, of the CSVs above and
# of the family's workload config at seeds 1 and 7, and the float.hex of that
# workload's final point, were computed before the family's exact oracle
# changed its rounding: AUC's per-item oracle before class moments, robust's
# item-major product before one gemv per point. The iterates and every other
# column keep their bits whatever the exact oracle's rounding. The robust
# recorder takes est_err_y from the exact y-gradients, which the mean slope
# times x gives in both forms, so that column stays.
ORACLE_COLUMNS = {"auc": ("est_err_x", "est_err_y", "grad_norm_F"), "robust": ("est_err_x", "grad_norm_F")}
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


ROBUST_NON_ORACLE = {
    ("robust-q12", "fgda"): "57e23f03f09b465060f7fb2a591db3a40e72e5e912309c6d43034601084468e8",
    ("robust-q12", "adafgda_adam"): "86328d118313b77c7ec1fdcba998c7485b34120305198270a7001ef3f8b94126",
    ("robust-q12", "adafgda_adabelief"): "732fdffc6854e4a9712167ee64a4df5d24b3c37a9cf495f4260166222950e0ea",
    ("robust-q12", "local_sgda"): "54e16847fac2ae2349490cf3d2ef4f22e4b2d70e03f3fcc611691d8fc8b4b32d",
    ("robust-q12", "momentum_local_sgda"): "f66af51d05c8f0267f345f06e78b2e84458baded6f723f52ce2a7e82b823aeea",
    ("robust-q6", "fgda"): "19a7b35395b3101917a34d58f7a029bd8dc8056ba7813dff66a8d9b2f4976f71",
    ("robust-q6", "adafgda_adam"): "c47e602787a550c922b7273af752b9bbbe6ed25151dd83a1c828a670bf76ad26",
    ("robust-q6", "adafgda_adabelief"): "14ad481065a4c0334bb17f9bb7e158d5688d50ab0c6375ca7f371db3a2e92fad",
    ("robust-q6", "local_sgda"): "bb2e72c9bc8afe297151c74a5338276de91f94481f2bbe9bf6a8b7771915d5e0",
    ("robust-q6", "momentum_local_sgda"): "4a38675fc8cdeadb835ea9da4ba392cde0e819fd4a31c207b796586cef9a8fc7",
    "robust-q12": "2a392210daab9e3f1c265a70150deaf1365258446d0aeaf647ef295514e56aaa",  # full T
    "robust-q6": "b6e19afa8ff58bd7c449ac06585cc1ce1eb44d24fa673206c4364c1a6a47e140",  # full T
    "robust-q6-dirichlet": "01c8213aadaff744cd80062dc583c3069381cdd76a4f7e91c1005866a1de4e4b",
    ("workload", 1): "5b50092a804da3832c80985e1ff76d54fab010c094d5d18322615e5fadf9d008",
    ("workload", 7): "4911af1da76393c873566145d6d8b4ba313e133e8c66ce2b4d4da0c4fdb35307",
}
ROBUST_WORKLOAD_FINAL = {
    1: (("0x1.32aadce574625p+0", "0x1.65ebb0d8957ebp+0", "0x1.a9dfefa92ecc7p-1", "0x1.af8acb0977549p-1",
         "0x1.aaf2d0f987789p-1", "0x1.b22a20a5cc0c0p-1", "0x1.b172051f6b69ep-1", "0x1.b204a51816a00p-1",
         "0x1.abc8024e1edbep-1", "0x1.b2e85d28359eap-1"),
        ("0x1.86c0b60a9e85ap-2", "0x1.b558b2fe614e9p-2", "0x1.2694bed600c42p-2", "0x1.28b8c24748d15p-2",
         "0x1.2719c941c0fcfp-2", "0x1.2ad2a5cf383ecp-2", "0x1.2a385335fffdap-2", "0x1.294d4dda40f14p-2",
         "0x1.271a07797d4e2p-2", "0x1.2a56e1dc32cbdp-2")),
    7: (("0x1.6e7ef4225b9e1p+0", "0x1.41561c7d79e13p+0", "0x1.ad6512fa1cc3ap-1", "0x1.9fae294605dc6p-1",
         "0x1.af74b24fe46a3p-1", "0x1.bac1e274a064ap-1", "0x1.b092f8718dc8cp-1", "0x1.a48c5f63f0adap-1",
         "0x1.b443fa7438922p-1", "0x1.abfb8630e9f42p-1"),
        ("0x1.bb062f02e49c6p-2", "0x1.8cb2452bf1365p-2", "0x1.261fca203b40dp-2", "0x1.1f7c3d46ccc20p-2",
         "0x1.2680b31d21900p-2", "0x1.2e4848c69a91bp-2", "0x1.2978d102eb0f6p-2", "0x1.226e35c8f911cp-2",
         "0x1.293d6738d46f2p-2", "0x1.2614976228046p-2")),
}
NON_ORACLE = {"auc": AUC_NON_ORACLE, "robust": ROBUST_NON_ORACLE}
WORKLOAD_FINAL = {"auc": AUC_WORKLOAD_FINAL, "robust": ROBUST_WORKLOAD_FINAL}


def _family(preset: str) -> str:
    return preset.split("-")[0]


def _check_non_oracle(family: str, key, csv: bytes) -> None:
    """Checked before the whole digest, so a moved exact oracle alone fails
    on the whole digest, and a moved iterate here."""
    if key in NON_ORACLE.get(family, {}):
        assert _sha(_without_oracle_columns(family, csv)) == NON_ORACLE[family][key]


def _check_workload_final(family: str, seed: int, trace) -> None:
    got = tuple(v.hex() for v in trace.final_x), tuple(v.hex() for v in trace.final_y)
    assert got == WORKLOAD_FINAL[family][seed]


def test_roster_is_complete():
    assert set(PRESET_VARIANT) == {(p, v) for p in preset_names() for v in algorithms.VARIANTS}
    assert set(PRESET_FULL_T) == set(preset_names())


@pytest.mark.parametrize("preset,variant", sorted(PRESET_VARIANT))
def test_preset_variant_digest(preset, variant, tmp_path):
    csv, _ = _emit(preset, _short(preset, variant), tmp_path)
    _check_non_oracle(_family(preset), (preset, variant), csv)
    assert _sha(csv) == PRESET_VARIANT[(preset, variant)]


@pytest.mark.parametrize("preset", sorted(PRESET_FULL_T))
def test_preset_full_t_digest(preset, tmp_path):
    csv, _ = _emit(preset, {}, tmp_path)
    _check_non_oracle(_family(preset), preset, csv)
    assert _sha(csv) == PRESET_FULL_T[preset]


@pytest.mark.parametrize("name", sorted(RAGGED))
def test_ragged_partition_digest(name, tmp_path):
    preset, overrides, digest = RAGGED[name]
    csv, _ = _emit(preset, overrides, tmp_path)
    _check_non_oracle(_family(preset), name, csv)
    assert _sha(csv) == digest


def test_auc_pins_cover_the_auc_traces():
    auc = [key for key in PRESET_VARIANT if key[0] == "auc-imbalanced"]
    assert set(AUC_NON_ORACLE) == {*auc, "auc-imbalanced", "auc-imbalanced-k7", ("workload", 1), ("workload", 7)}
    assert set(AUC_WORKLOAD_FINAL) == {1, 7}


def test_robust_pins_cover_the_robust_traces():
    robust = [key for key in PRESET_VARIANT if _family(key[0]) == "robust"]
    full_t = [preset for preset in PRESET_FULL_T if _family(preset) == "robust"]
    assert set(ROBUST_NON_ORACLE) == {*robust, *full_t, "robust-q6-dirichlet", ("workload", 1), ("workload", 7)}
    assert set(ROBUST_WORKLOAD_FINAL) == {1, 7}
    assert set(NON_ORACLE) == set(WORKLOAD_FINAL) == set(ORACLE_COLUMNS) == {"auc", "robust"}


def _check_workload_at_seed_7(name: str, tmp_path) -> None:
    preset, overrides, _ = WORKLOADS[name]
    csv, trace = _emit(preset, overrides, tmp_path, with_hash=True, seed=7)
    _check_non_oracle(_family(preset), ("workload", 7), csv)
    _check_workload_final(_family(preset), 7, trace)


def test_auc_workload_at_seed_7_keeps_its_non_oracle_columns_and_final_point(tmp_path):
    _check_workload_at_seed_7("auc-imbalanced", tmp_path)


def test_robust_workload_at_seed_7_keeps_its_non_oracle_columns_and_final_point(tmp_path):
    _check_workload_at_seed_7("robust-q6", tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_digest(name, tmp_path, monkeypatch):
    preset, overrides, digest = WORKLOADS[name]
    csv, trace = _emit(preset, overrides, tmp_path, with_hash=True)
    family = _family(preset)
    if family in WORKLOAD_FINAL:
        _check_non_oracle(family, ("workload", 1), csv)
        _check_workload_final(family, 1, trace)
    assert _sha(csv) == digest
    # `fedmm run` itself, in a fresh working directory and with the preset's
    # own [output] section (an --output.* override would change the config
    # hash), writes the same seed-1 CSV
    monkeypatch.chdir(tmp_path)
    argv = ["run", "--preset", preset, *(arg for key, value in overrides.items() for arg in (f"--{key}", value))]
    assert cli.main(argv) == 0
    [csv] = (tmp_path / load_preset(preset).output.csv_dir).glob("*_seed1.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


def test_workload_configs_equal_the_benchmarks():
    # perfbench/workloads.py loaded under a private name, so that the
    # benchmark's own tests still import theirs as `workloads`
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # dataclass resolves its annotations there
    try:
        spec.loader.exec_module(bench)
    finally:
        del sys.modules[spec.name]
    assert {name: (w.preset, w.overrides) for name, w in bench.WORKLOADS.items()} == {
        name: (preset, overrides) for name, (preset, overrides, _) in WORKLOADS.items()
    }


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
    # The heterogeneity probe at K = 100 screens pairs with one gemm of
    # augmented rows, whose summation order may follow the thread count; its
    # result may not.
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
