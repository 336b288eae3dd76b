"""Tests of the benchmark itself: span wrappers, self-time accounting,
output checks, failure counting and the host-speed adjustment. Each uses a
tiny workload."""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import fedminimax  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
from workloads import Workload, check_outputs, run_once  # noqa: E402

TINY = Workload("tiny", "auc-imbalanced", {"problem.k": "3", "algorithm.t": "30"}, "test")
TINY_ROBUST = Workload("tiny-robust", "robust-q6", {"problem.k": "2", "algorithm.t": "12"}, "test")
DIVERGING = Workload("diverging", "synthetic-s1", {"problem.k": "2", "algorithm.t": "200", "algorithm.gamma": "50"}, "test")


def _bindings() -> dict:
    """Identity of every public attribute of every loaded fedminimax module and class."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("fedminimax"):
            continue
        for attr, value in vars(mod).items():
            if attr.startswith("__"):  # e.g. __warningregistry__, filled by warnings
                continue
            out[(mod_name, attr)] = id(value)
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    out[(mod_name, attr, cattr)] = id(cvalue)
    return out


def test_traced_run_patches_every_layer_and_restores_originals(tmp_path):
    before = _bindings()
    original_step = fedminimax.algorithms.local_step
    tracer = layers.Tracer()
    with layers.traced(tracer):
        assert fedminimax.algorithms.local_step is not original_step
        assert fedminimax.local_step is fedminimax.algorithms.local_step
        run_once(TINY, 1, tmp_path)
    assert _bindings() == before
    assert fedminimax.algorithms.local_step is original_step

    summary = tracer.summarize()
    assert set(summary) == set(layers.LAYERS)
    for name in ("algorithms.run", "algorithms.local_step", "core.vec_mean", "metrics.record",
                 "problems.grad_full", "estimators.generate", "federation.partition", "config.load"):
        assert summary[name]["calls"] > 0, name

    n_spans = len(tracer)
    run_once(TINY, 1, tmp_path)
    assert len(tracer) == n_spans, "an untraced run still recorded spans"


def test_wrappers_are_restored_when_the_traced_run_raises(tmp_path):
    before = _bindings()
    with pytest.raises(FloatingPointError):
        with layers.traced(layers.Tracer()):
            run_once(DIVERGING, 1, tmp_path)
    assert _bindings() == before


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def test_self_time_is_total_minus_time_covered_by_children(tmp_path):
    tracer = layers.Tracer()
    with layers.traced(tracer):
        run_once(TINY_ROBUST, 1, tmp_path)
    n = len(tracer)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
            children[p].append(i)
    expected_total = dict.fromkeys(tracer.names, 0.0)
    expected_self = dict.fromkeys(tracer.names, 0.0)
    for i in range(n):
        name = tracer.names[tracer.name_id[i]]
        dur = tracer.end[i] - tracer.start[i]
        expected_total[name] += dur
        expected_self[name] += dur - _covered([(tracer.start[c], tracer.end[c]) for c in children[i]])
    summary = tracer.summarize()
    assert summary["metrics.ascend_y"]["calls"] > 0
    for name in tracer.names:
        assert summary[name]["total_s"] == pytest.approx(expected_total[name], rel=1e-9, abs=1e-12)
        assert summary[name]["self_s"] == pytest.approx(expected_self[name], rel=1e-9, abs=1e-9)
        assert summary[name]["self_s"] <= summary[name]["total_s"] + 1e-12


def test_checker_accepts_good_outputs_and_rejects_tampering(tmp_path):
    res = run_once(TINY, 1, tmp_path)
    assert check_outputs(res.trace, res.csv_path, res.T, res.q) == []

    text = res.csv_path.read_text()
    lines = text.splitlines()
    row = lines[5].split(",")
    row[8] = repr(math.nextafter(float(row[8]), math.inf))  # objective, one ulp up
    lines[5] = ",".join(row)
    res.csv_path.write_text("\n".join(lines) + "\n")
    assert check_outputs(res.trace, res.csv_path, res.T, res.q)

    res.csv_path.write_text("\n".join(text.splitlines()[:-3]) + "\n")  # truncated
    assert check_outputs(res.trace, res.csv_path, res.T, res.q)

    res.csv_path.write_text(text)
    records = res.trace.records
    for bad in ({"sfo": records[-1].sfo + 2}, {"comm": records[-1].comm - 1}):
        res.trace.records = records[:-1] + [dataclasses.replace(records[-1], **bad)]
        assert any("expected" in p for p in check_outputs(res.trace, res.csv_path, res.T, res.q)), bad
    sync = next(i for i, r in enumerate(records) if r.is_sync)
    res.trace.records = list(records)
    res.trace.records[sync] = dataclasses.replace(records[sync], consensus_x=1e-17)
    assert any("nonzero consensus_x" in p for p in check_outputs(res.trace, res.csv_path, res.T, res.q))


def test_measure_counts_failures_and_keeps_going(tmp_path):
    m = bench.measure(DIVERGING, 1, 0.0, False, tmp_path)
    assert m["attempted"] == m["failed"] == 1 + bench.MIN_TIMED
    assert not m["correct"]


def test_measure_traced_and_untraced_repeats_agree(tmp_path):
    m = bench.measure(TINY, 1, 0.0, True, tmp_path)
    assert m["correct"] and m["failed"] == 0
    assert len(m["digests"]) == 1
    assert len(m["layers"]) == len(m["traced"]) == bench.MIN_TIMED
    assert "trace.overhead_s" in bench.per_layer_metrics(m)


def test_probes_between_phases_are_not_counted_in_the_repeat(tmp_path):
    pauses = []

    def pause():
        pauses.append(1)
        time.sleep(0.1)

    start = time.perf_counter()
    res = run_once(TINY, 1, tmp_path, between=pause)
    elapsed = time.perf_counter() - start
    assert len(pauses) == 2
    assert res.wall_s <= elapsed - 0.2
    assert res.setup_s + res.run_s <= res.wall_s


def test_each_repeat_is_adjusted_with_its_own_probes():
    assert hostspeed.speed_factor([hostspeed.NOMINAL_S] * 4) == pytest.approx(1.0)
    assert hostspeed.speed_factor([2 * hostspeed.NOMINAL_S, 2 * hostspeed.NOMINAL_S]) == pytest.approx(0.5)

    @dataclasses.dataclass
    class Repeat:
        wall_s: float
        setup_s: float
        client_steps_per_s: float

    # The host ran the second and third repeats at half speed: their raw times
    # doubled, and so did the probe times around them.
    runs = [Repeat(1.0, 0.2, 100.0), Repeat(2.0, 0.4, 50.0), Repeat(2.0, 0.4, 50.0)]
    m = {"untraced": runs, "speeds": [1.0, 0.5, 0.5]}
    out = bench.end_to_end_metrics(m)
    assert out["wall_s"]["value"] == pytest.approx(1.0)
    assert out["setup_s"]["value"] == pytest.approx(0.2)
    assert out["client_steps_per_s"]["value"] == pytest.approx(100.0)


def test_measure_takes_probes_around_every_untraced_repeat(tmp_path):
    m = bench.measure(TINY, 1, 0.0, False, tmp_path)
    assert m["correct"]
    assert len(m["speeds"]) == len(m["untraced"]) == bench.MIN_TIMED
    assert all(math.isfinite(f) and f > 0 for f in m["speeds"])
