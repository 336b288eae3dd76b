import numpy as np
import pytest

import fedminimax as fm
from fedminimax.federation import PartitionPlan, expected_comm_rounds, expected_sfo, partition
from fedminimax.theory import estimate_constants


def assert_disjoint_cover(plan: PartitionPlan, n_items: int):
    covered = np.concatenate(plan.assignment)
    assert len(covered) == n_items
    assert len(np.unique(covered)) == n_items
    assert all(len(a) >= 1 for a in plan.assignment)


def _dealt_per_item(n_items, labels, K, scheme, seed):
    """iid and by_group dealt one item at a time into lists (the reference):
    a shuffled item or group order, round-robin over the clients."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    parts = [[] for _ in range(K)]
    if scheme == "iid":
        for pos, idx in enumerate(rng.permutation(n_items)):
            parts[pos % K].append(int(idx))
    else:
        groups = [np.flatnonzero(labels == g) for g in np.unique(labels)]
        for pos, gi in enumerate(rng.permutation(len(groups))):
            parts[pos % K].extend(int(i) for i in groups[gi])
    return [np.array(sorted(p), dtype=int) for p in parts]


class TestPartition:
    def test_single_client_owns_everything(self):
        for scheme in ("iid", "by_group", "dirichlet"):
            plan = partition(12, [0, 1] * 6, 1, scheme, seed=0)
            assert len(plan.assignment) == 1
            assert_disjoint_cover(plan, 12)

    def test_two_labels_two_clients_forced_assignment(self):
        labels = [0] * 5 + [1] * 7
        plan = partition(12, labels, 2, "by_group", seed=3)
        assert_disjoint_cover(plan, 12)
        lab = np.array(labels)
        for items in plan.assignment:
            assert len(np.unique(lab[items])) == 1  # one pure group per client

    def test_by_group_needs_enough_groups(self):
        with pytest.raises(ValueError):
            partition(10, [0, 1] * 5, 3, "by_group", seed=0)

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            partition(2, [0, 1], 3, "iid", seed=0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            partition(4, [0] * 4, 2, "fancy", seed=0)

    @pytest.mark.parametrize("scheme", ["iid", "by_group", "dirichlet"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_disjoint_cover_property(self, scheme, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 7))
        n_groups = int(rng.integers(K, 2 * K + 3))
        n = int(rng.integers(10 * K, 20 * K))
        labels = rng.integers(0, n_groups, size=n)
        # every group label present so by_group has enough groups
        labels[:n_groups] = np.arange(n_groups)
        plan = partition(n, labels, K, scheme, seed=seed, beta=0.3)
        assert_disjoint_cover(plan, n)

    @pytest.mark.parametrize("scheme", ["iid", "by_group"])
    @pytest.mark.parametrize("n,K,n_groups,seed", [(12, 1, 2, 0), (7, 7, 7, 1), (40, 3, 5, 2), (400, 10, 20, 3),
                                                   (401, 7, 9, 4), (1000, 100, 150, 5), (333, 16, 40, 6)])
    def test_iid_and_by_group_equal_per_item_dealing(self, scheme, n, K, n_groups, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, n_groups, size=n)
        labels[:n_groups] = np.arange(n_groups)
        # gapped, negative and float labels group as their distinct values do
        for labs in (labels, 3 * labels - 50, labels / 4.0):
            plan = partition(n, labs, K, scheme, seed=seed)
            want = _dealt_per_item(n, labs, K, scheme, seed)
            assert len(plan.assignment) == K
            for got, ref in zip(plan.assignment, want):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_dirichlet_large_beta_approaches_uniform(self):
        n, K = 10_000, 5
        labels = np.zeros(n, dtype=int)
        plan = partition(n, labels, K, "dirichlet", seed=1, beta=1000.0)
        shares = np.array([len(a) for a in plan.assignment]) / n
        tv = 0.5 * np.abs(shares - 1.0 / K).sum()
        assert tv < 0.05

    def test_dirichlet_small_beta_is_skewed(self):
        n, K = 10_000, 5
        labels = np.zeros(n, dtype=int)
        plan = partition(n, labels, K, "dirichlet", seed=1, beta=0.05)
        shares = np.array([len(a) for a in plan.assignment]) / n
        assert shares.max() > 0.5

    def test_plan_serializes(self):
        plan = partition(6, [0, 0, 1, 1, 2, 2], 3, "by_group", seed=0)
        text = plan.to_text()
        assert text.startswith("scheme=by_group")
        assert text.count("client ") == 3


class TestComplexityFormulas:
    def test_comm_examples(self):
        assert expected_comm_rounds(100, 10) == 10
        assert expected_comm_rounds(99, 10) == 9
        assert expected_comm_rounds(57, 1) == 57

    def test_sfo_examples(self):
        assert expected_sfo(100, 10) == 2 * 10 + 2 * 90 == 200
        assert expected_sfo(7, 7) == 2 * 7 + 2 * 6
        # the coarser figure bounds the exact ledger from above
        assert expected_sfo(100, 10) <= 2 * 10 + 2 * 100

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_sfo(0, 1)
        with pytest.raises(ValueError):
            expected_comm_rounds(1, 0)

    def test_run_counters_match_formulas(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            T = int(rng.integers(2, 40))
            q = int(rng.integers(1, 8))
            K = int(rng.integers(1, 5))
            inst = fm.SyntheticProblem(K=K, dim=3, s=1.0, tau=10.0, seed=int(rng.integers(1000)),
                                     n_per_client=max(10, q + 1))
            hp = fm.HyperParams(T=T, q=q, seed=1, gamma=0.01, lam=0.01)
            tr = fm.run(inst, hp)
            assert tr.final().sfo == expected_sfo(T, q)
            assert tr.final().comm == expected_comm_rounds(T, q)


class TestHeterogeneityOrdering:
    def test_grouped_split_is_at_least_as_heterogeneous_as_iid(self):
        grouped = fm.AucProblem(K=5, dim=6, n_per_client=30, pos_ratio=0.2, seed=13, scheme="by_group")
        mixed = fm.AucProblem(K=5, dim=6, n_per_client=30, pos_ratio=0.2, seed=13, scheme="iid")
        cg = estimate_constants(grouped, n_samples=20, seed=0)
        cm = estimate_constants(mixed, n_samples=20, seed=0)
        assert cg.delta_x >= cm.delta_x
