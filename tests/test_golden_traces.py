"""Golden trace digests: every golden run's CSV and final point, pinned in
two groups of columns.

Refactors must keep every digest. A change that moves a trace on purpose
names the runs and the group that moved, and why, in CHANGES.md, and
re-pins only that group's digests here.

`GOLDEN` holds two sha256 digests per run:
- non-oracle: the CSV with the cells of the ORACLE_COLUMNS emptied (the
  header, comment lines and every other cell kept in place), followed by
  the float64 bytes of the run's final point, final_x then final_y;
- oracle: the ORACLE_COLUMNS alone, header included.

Together they fix the whole CSV. A change to the exact oracle's rounding
moves only the oracle digest; a moved iterate moves the non-oracle digest
(and, through the points the oracle is asked at, most often both).

The roster, `_runs()`:
- every shipped preset x every variant at a short T (two syncs plus one
  local step), seed 1;
- every shipped preset as shipped (its own variant and full T), seed 1;
- two configs whose clients hold datasets of different sizes, seed 1;
- the three benchmark workload configs at seeds 1 and 7, with the
  config-hash line.
Every run goes through `cli.run_seed`, the seed sequence of `fedmm run`;
the others are pinned without its config-hash line.

`WORKLOADS` also pins each workload's whole seed-1 CSV: the digests
`perfbench/run.py` prints, which `fedmm run` itself writes too; their
presets and overrides equal `perfbench/workloads.py`'s. They are also
computed in two fresh processes, with OpenBLAS held to one thread and to
two, along with the K = 100 heterogeneity probe pinned in test_theory.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedminimax

from fedminimax import algorithms, cli
from fedminimax.config import apply_overrides
from fedminimax.presets import load_preset, preset_names

from test_problems import _WORKLOAD_T
from test_theory import HETEROGENEITY_PINS


def _emit(preset: str, overrides: dict, tmp_path, with_hash: bool = False, seed: int = 1):
    """The CSV bytes of one seed's `cli.run_seed`, cut before its config-hash
    line unless with_hash, and its trace."""
    cfg = apply_overrides(load_preset(preset), overrides)
    stem, trace = cli.run_seed(cfg, seed, tmp_path)
    csv = (tmp_path / f"{stem}.csv").read_bytes()
    return (csv if with_hash else csv[:csv.rindex(b"# config_sha256=")]), trace


def _csv_digest(preset: str, overrides: dict, tmp_path, with_hash: bool = False) -> str:
    return _sha(_emit(preset, overrides, tmp_path, with_hash)[0])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# The columns whose values come from the exact oracle, in every family:
# grad_full_all's gradients, at the iterates and at the inner maximizer
# (AUC's moment y_star, robust's ascend_y, the synthetic closed form). Every
# other column, and the iterates, keep their bits whatever the rounding of
# the exact oracle.
ORACLE_COLUMNS = ("est_err_x", "est_err_y", "grad_norm_F")


def _group_digests(csv: bytes, trace) -> tuple[str, str]:
    """(non-oracle, oracle) digests of a run, as the module docstring says."""
    lines = csv.decode().split("\n")  # the final newline leaves a last ""
    header = next(ln for ln in lines if not ln.startswith("#")).split(",")
    cols = [header.index(name) for name in ORACLE_COLUMNS]
    rest, oracle = [], []
    for ln in lines:
        cells = ln.split(",")
        if ln and not ln.startswith("#"):
            oracle.append(",".join(cells[j] for j in cols))
            for j in cols:
                cells[j] = ""
        rest.append(",".join(cells))
    final = b"".join(np.asarray(v, dtype="<f8").tobytes() for v in (trace.final_x, trace.final_y))
    return _sha("\n".join(rest).encode() + final), _sha("\n".join(oracle).encode())


# client dataset sizes differ in both
RAGGED = {
    "robust-q6-dirichlet": ("robust-q6", {"problem.scheme": "dirichlet", "algorithm.t": "13"}),
    "auc-imbalanced-k7": ("auc-imbalanced", {"problem.k": "7", "algorithm.t": "41"}),
}

# the configs of perfbench/workloads.py, and their whole seed-1 CSV digests
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


def _runs() -> dict[str, tuple[str, dict, int, bool]]:
    """Every golden run: name -> (preset, overrides, seed, with the config-hash line)."""
    runs = {}
    for preset in preset_names():
        t = str(2 * load_preset(preset).algorithm.q + 1)
        for variant in algorithms.VARIANTS:
            runs[f"{preset} {variant} T=2q+1"] = (preset, {"algorithm.variant": variant, "algorithm.t": t}, 1, False)
        runs[preset] = (preset, {}, 1, False)
    for name, (preset, overrides) in RAGGED.items():
        runs[name] = (preset, overrides, 1, False)
    for name, (preset, overrides, _) in WORKLOADS.items():
        for seed in (1, 7):
            runs[f"workload {name} seed={seed}"] = (preset, overrides, seed, True)
    return runs


RUNS = _runs()

# run -> (non-oracle digest, oracle digest)
GOLDEN = {
    "auc-imbalanced fgda T=2q+1": ("a3fcc929b0ca72ecf2dcda7dcb74788fcc6938a85f27cdb195096f87b9b75ef3",
                                  "d64a2daf99814a8269e63c57d2781ac7cb61e1b987bb1982800be373ba33676a"),
    "auc-imbalanced adafgda_adam T=2q+1": ("0762af95f65619476838f53179b116b615a063d0c9231147e93bba6bb20bae98",
                                          "ec5c7d00bcaee5842a04f2d20d725558ce650bf38c5448637b512b1258bb4bb0"),
    "auc-imbalanced adafgda_adabelief T=2q+1": ("7eff389471bc24bb392abf921bd7c1d7b67b11bcde1e2c4e164cd478be9bb076",
                                               "dc77551c7cb68826c70b19affb6a1d75efc3c3ad45b7771b0eba5e87a17bb8d0"),
    "auc-imbalanced local_sgda T=2q+1": ("f39a59e6e6f698b4efc8c391519ab695cfbb35be6c208f89e2541136e309ee79",
                                        "624303a4a7cdbc0bb6a42adaf95c8dd3ecad025c91b694bb30d9ff23cf0daaf0"),
    "auc-imbalanced momentum_local_sgda T=2q+1": ("ee0a6b65d4bbebe9b38f567a8679e4099dcb71b0eb1ed411299df6dc0ab1d114",
                                                 "019c0069690295b07f012915b4249b65a37406992c668e47aa715e90a774a6cd"),
    "auc-imbalanced": ("133e067642a73b8b8d39f29e2980ed232f75c1ec56fe88a43b6b233e9be5e4c6",
                      "d172f8df463a0d5815ccadc6005f7f8ecc41439d87abbb2a0433f466fab84655"),
    "robust-q12 fgda T=2q+1": ("75cb527a8e64df1f07aa826bbab8c3b35956186327f57e49121a9d12c2b30bf3",
                              "24b20610ca168456b301f19c7bbe2c54106d7aed1262d8319109b1151332063a"),
    "robust-q12 adafgda_adam T=2q+1": ("c78e018c4ae36c34b82b3bb685939f27a5ce28f69e55fd8504f560d45581bee4",
                                      "6567c85ea9a4d7c621938d6845009f0f26862125d8bc9a3c8c6dd5e67bb86c91"),
    "robust-q12 adafgda_adabelief T=2q+1": ("2b6e8a10035b26599d1cb75f54f7a13e1536714bc2cd4a10cd898cf2fef3fe22",
                                           "4938999bf86d2b11832f09403a3cb535a827cae9f17222950e805a01d954eff4"),
    "robust-q12 local_sgda T=2q+1": ("823388b577ca58a32fd3b1761632b613e756314618cedeaac1bba759c54f84f3",
                                    "cc40320a8827c40ad6829b378ff18bfad30dcda71a637417c4876d5b4f4c9a3b"),
    "robust-q12 momentum_local_sgda T=2q+1": ("907b308a70145c54ec24bf8f40d77bf7e313f9fcdacf285a521f4131faba456c",
                                             "d94fe60718c0a79db2c959ceff4ae03acd6f5f3778e7fc0f306be7b7e3c9510e"),
    "robust-q12": ("60a490ee1fccb8384a50c1b17271cf81dc20928c894a7dc4c2b184486631f78e",
                  "0a8a21e87c14dad2b4de80865d74fc518a614ca2db76c8ee088a1f714878d3a9"),
    "robust-q6 fgda T=2q+1": ("09a53ebb50fdacbaa23fff6842e4f88d7e2ae26bece8c7be8cb2d0a07ab56bb8",
                             "e1e13c935bb939513afb85e0814a9f2ed7a6320d44924baded567b2d390e0d25"),
    "robust-q6 adafgda_adam T=2q+1": ("82e2a7fb25de6d9b1efbdf9075adb1e48bea1cf57b7f8b7d37fd165370dc4477",
                                     "2b996ada521e0a760d1c9a1106a3028d346c42ef5ea1a77e80adb9d15f0e6bc3"),
    "robust-q6 adafgda_adabelief T=2q+1": ("90a4420fc0a8b73804684b41f3edc122f74d3244c4237e6220eee1e5787cbe46",
                                          "2676168d27c78cf3d486e2b13bcb6f87503cdff6c541fc418bd6f6f3d3604094"),
    "robust-q6 local_sgda T=2q+1": ("d568c2db464c43c9569b1e8e3e2bb89d57f80e75fe23e0705e029462d3cffd95",
                                   "413fba047cf358fa96c0b6e2df2371d52c7d0e952a4b00e844e37f901b35176d"),
    "robust-q6 momentum_local_sgda T=2q+1": ("1a340c6f5d471b7c2528ab659e0f6557d7cf8d86549ee4292d078b554dc6563d",
                                            "7dafbff6b02b8baeb6a4ede8c0f39c0e980e198fb01b7c84ffbb291ad0a7519b"),
    "robust-q6": ("b4b282f198845058a6bf80a069ffd3ac44bccfb78de7546177319e8f31797762",
                 "3ea3757bc6249174792ac3e7709678fd1be716f55bcc4a9b10438753484f1d81"),
    "synthetic-s1 fgda T=2q+1": ("a0993deaec71bb5f999bacf8118287a7d3ca36903f4529a0bdc2e9dfd97471c9",
                                "ef22456ccf747a4a7e8df995c82a004681f20d099dc883f0fb3ba1cd4bf741a1"),
    "synthetic-s1 adafgda_adam T=2q+1": ("15b3dd0f832b7903e44c9ac68cc3f71332e6e10076ab600adf16a19bdd032d22",
                                        "c9a08e763ce00089e773233ca484b84178ada0860e114c13b4c60ecf18a35437"),
    "synthetic-s1 adafgda_adabelief T=2q+1": ("72665705660232665726a0e6d11ac45dd17d046990d728faf4db42cae92b1404",
                                             "44d3a5a3846f68302af7fee679a5b85ee606b4d0ae46d50119ec76f54ba91df5"),
    "synthetic-s1 local_sgda T=2q+1": ("a0447b1a0db3bdc7d26810eb50acf766d81eb3aba8553010533cbfc16f5b22dd",
                                      "62cfd428aa2eb18dac0a47db667b111e95dbb4c879fc8d5f7c7031f2bc6e122d"),
    "synthetic-s1 momentum_local_sgda T=2q+1": ("46fbf7ac7262536d3130a357c4fcaca6b5fd512cc79cbf77d37228c163fd6493",
                                               "214c99c867de31e8f6ea7c46dbcb2c698f1746de8bc0fa455a60584ae4993647"),
    "synthetic-s1": ("8d657bfbb7140a87c621f2e84596063301cc26a87644d6f2f9f07aefee6b4c3c",
                    "14bc862046caf0b0cbe860a77ae460d174357438c76dbb828aa1ff16622a22d6"),
    "synthetic-s10 fgda T=2q+1": ("77698a42077fa6a71e6aed65e2afdcaf65f6e5509fe4e7d95bb98cbbd41acf8c",
                                 "83e290f1459343e87755e5bedb693916a5cffab76853192a4d2496fe86691816"),
    "synthetic-s10 adafgda_adam T=2q+1": ("7f2fa03ab671f3661e31a238e0dfed77f669d55b68853f50b4537255d82a9260",
                                         "536fb33bf3c340234cbc17f8fbbff990cab86b076b60ce16c4c469351f0bd3b8"),
    "synthetic-s10 adafgda_adabelief T=2q+1": ("1a09abc061c4005bc8114e30fa79754e31803701f26c878e683e3d9875770b4e",
                                              "ddeedcadfab8d54d87165952f18b19d4bd916a4bb2bbf1325f9018d5b1a958ad"),
    "synthetic-s10 local_sgda T=2q+1": ("995f93c46b7be8e1c9d79c1e54343a7381b6edd69a4bae7c3c29e3b543e84518",
                                       "f8664999dec7f505166629fc2b851fdb74071d86c12de5259848fc086264c790"),
    "synthetic-s10 momentum_local_sgda T=2q+1": ("7894a8c9a2978a89ca80ebbc39f9c7e2adc7f58c575b4a5a249c23db1ea29109",
                                                "c63eaf386876ea9f7b944e23ccc5a37fbc967c377abe9c5e53be3f2ac461712d"),
    "synthetic-s10": ("95926f58892f79fbe4df8a6ca773d644a9b2940c03732f7d7b431b1a84bc444f",
                     "b536b66017f1fe86a63f601f3ad8c873ff18c4b76453e20bf21ee1a92e776d07"),
    "synthetic-theorem fgda T=2q+1": ("f96116660deea8d8e1b9fb6b3225c02943815461a8ed837db487202af7dd2674",
                                     "25f2499f4b64c5a0884b688c079d24aa2d09cd879d38542507efb48dc99a82c9"),
    "synthetic-theorem adafgda_adam T=2q+1": ("7f36d77506b9843082f043f84ab9e382046cb1a48ee1e52de4d488a0d3575112",
                                             "8a90a55234078dfe5bcd394da3c8d30b376d65f305fe3107d6b66ce9b7b55819"),
    "synthetic-theorem adafgda_adabelief T=2q+1": ("ef1b108830c1191f887e437fca3b40cf20414c174e1c5b43bd7872f3208c0ba4",
                                                  "cea1483eadc1d44297cb68b69e103851a6620f62ab90d201d97f278eebb1d6b4"),
    "synthetic-theorem local_sgda T=2q+1": ("aae9702266067d8dc46a5aba2a17b4580853b2773972780f07de9c591d6f093b",
                                           "3c1ff2f9bf89322f475688ab04efecf08bc6a5f9cd50c4c7614b010533d01a09"),
    "synthetic-theorem momentum_local_sgda T=2q+1": ("28d9bead627275a1a39f6939b19890d6339e25990ddec2d14b3387adebe2906c",
                                                    "0033cd9d8385cf434fb3436329cfe65a63c902533ee8aa8c340d509dab9d42ec"),
    "synthetic-theorem": ("6e246aad372edc0b50ed8bf357ad6a6f362d771786d06cb5f9333dd9f43301d9",
                         "d47d103bf866003758576a69ac85e4ad1aa808b1f13ee7e1ad956d518ad34287"),
    "robust-q6-dirichlet": ("f633b931cafaaef82f1125bab30d55915a657498e374f8eb4338cb5af9f60466",
                           "be00dacbc7fac3a2213721a340ae7b69794c212091876b0564d4d42d329605c1"),
    "auc-imbalanced-k7": ("750ad054e9bb20f0069c88cfed8d24a5b42c782c3b7e117d26630ea879f85fd1",
                         "a813a4e8dfeb8b195e99d9c451b6583667d46e1b74f3854ecd505c2eac2ad663"),
    "workload synthetic-k100 seed=1": ("9e86d748668802cb8041de0209d8d3ea0a1e363d18b1fabfaf086e88ed206635",
                                      "7099a6a6f2803f41b213d94bc3d6dc4b4ef85a77cb19ac9cf6e6940af200de00"),
    "workload synthetic-k100 seed=7": ("a1dbfc817a41105d1641f889bc2853c1d179b96c2f74ddb26e76df46fe97ebd0",
                                      "bbe34e4c12117a4695cf9f80991126c725c9a875a101738a39e7dcadda9614cc"),
    "workload auc-imbalanced seed=1": ("660e45886d903fdb469df3036286b13ca3dd8a18d5f75629d578f35942c87b0f",
                                      "c662c0f52ce9da914c839d000488c5e986aba98b8a2b9ce11fa8f61432abbe78"),
    "workload auc-imbalanced seed=7": ("98a4617d45d42b09ca84a3911618919bcfab0b508d13c67e4b2bed98df973b37",
                                      "e0abf8799c33c1fc6af8b4b0d86e35c02cb753d7833c112fe5d3708c242363ad"),
    "workload robust-q6 seed=1": ("c2c82c3eddb810bfc98dbcc126ba0d998e01e8eb5a5e9270c6fc57c67fe2da5f",
                                 "12bd440257b14a574d3cc5d04aac8adc403dafb7c657464d8515a85d4c485aec"),
    "workload robust-q6 seed=7": ("089d2a97c6f626c8e17f1560d7ee66f85e128b89a4926dc2b5dc1aed6fcc4ce2",
                                 "d83d75d8fbb74c95bd261703526c8461ec57b475f4916e9ae847c859683c28a7"),
}


def test_roster_is_complete():
    assert set(GOLDEN) == set(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_run(name, tmp_path):
    preset, overrides, seed, with_hash = RUNS[name]
    csv, trace = _emit(preset, overrides, tmp_path, with_hash, seed)
    groups = ("non-oracle", "oracle")
    assert dict(zip(groups, _group_digests(csv, trace))) == dict(zip(groups, GOLDEN[name]))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_digest(name, tmp_path, monkeypatch):
    preset, overrides, digest = WORKLOADS[name]
    assert _csv_digest(preset, overrides, tmp_path, with_hash=True) == digest
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
    # test_problems runs the auc and robust workloads, each its preset as
    # shipped at the workload's T, for the points of its accuracy tests
    assert {preset: WORKLOADS[preset][:2] for preset in _WORKLOAD_T} == {
        preset: (preset, {"algorithm.t": t}) for preset, t in _WORKLOAD_T.items()
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
