"""Non-i.i.d. data partitioning and run-level complexity accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SCHEMES = ("iid", "by_group", "dirichlet")


@dataclass
class PartitionPlan:
    """Disjoint, covering assignment of item indices to K clients."""

    scheme: str
    assignment: list[np.ndarray] = field(default_factory=list)

    @property
    def K(self) -> int:
        return len(self.assignment)

    def to_text(self) -> str:
        lines = [f"scheme={self.scheme}"]
        for k, items in enumerate(self.assignment):
            lines.append(f"client {k}: " + " ".join(str(i) for i in items))
        return "\n".join(lines)


def _ensure_every_client_nonempty(parts: list[list[int]]) -> None:
    # Move spare items from the largest clients into empty ones; deterministic.
    for k, items in enumerate(parts):
        while not items:
            donor = max(range(len(parts)), key=lambda j: len(parts[j]))
            if len(parts[donor]) <= 1:
                raise ValueError("not enough items to give every client at least one")
            parts[k].append(parts[donor].pop())


def partition(n_items: int, labels, K: int, scheme: str, seed: int, beta: float = 1.0) -> PartitionPlan:
    """Split item indices 0..n_items-1 across K clients.

    iid: uniform shuffle-split.
    by_group: each distinct label is a group; groups are dealt round-robin to
        clients, so every client draws from a disjoint group set.
    dirichlet: per-class client proportions drawn from Dirichlet(beta).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if n_items < K:
        raise ValueError(f"cannot split {n_items} items across {K} clients")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = np.asarray(labels) if labels is not None else np.zeros(n_items, dtype=int)
    if labels.shape[0] != n_items:
        raise ValueError("labels length must equal n_items")

    if scheme == "dirichlet":
        if beta <= 0:
            raise ValueError("dirichlet beta must be positive")
        parts: list[list[int]] = [[] for _ in range(K)]
        for cls in np.unique(labels):
            idx = rng.permutation(np.flatnonzero(labels == cls))
            props = rng.dirichlet(np.full(K, beta))
            # Cumulative shares -> contiguous slices of the shuffled class.
            bounds = np.floor(np.cumsum(props) * len(idx)).astype(int)
            start = 0
            for k in range(K):
                stop = bounds[k] if k < K - 1 else len(idx)
                parts[k].extend(int(i) for i in idx[start:stop])
                start = stop
        _ensure_every_client_nonempty(parts)
        assignment = [np.array(sorted(p), dtype=int) for p in parts]
    else:
        # Items (iid) or groups (by_group) dealt round-robin in a shuffled
        # order: owner[i] is item i's client.
        if scheme == "iid":
            owner = np.empty(n_items, dtype=int)
            owner[rng.permutation(n_items)] = np.arange(n_items) % K
        else:
            values, group_of = np.unique(labels, return_inverse=True)
            if len(values) < K:
                raise ValueError(f"by_group needs at least K={K} groups, got {len(values)}")
            deal = np.empty(len(values), dtype=int)
            deal[rng.permutation(len(values))] = np.arange(len(values)) % K
            owner = deal[group_of]
        # The stable sort keeps each client's items in index order.
        assignment = np.split(np.argsort(owner, kind="stable"), np.cumsum(np.bincount(owner, minlength=K))[:-1])

    plan = PartitionPlan(scheme=scheme, assignment=assignment)
    counts = np.bincount(np.concatenate(plan.assignment), minlength=n_items)  # no sort, unlike np.unique
    if len(counts) != n_items or not (counts == 1).all():
        raise AssertionError("partition is not a disjoint cover")
    if any(len(a) == 0 for a in plan.assignment):
        raise AssertionError("a client received no items")
    return plan


def expected_comm_rounds(T: int, q: int) -> int:
    """Number of server-averaging rounds in T steps with sync period q."""
    if T < 1 or q < 1:
        raise ValueError("T and q must be >= 1")
    return T // q


def expected_sfo(T: int, q: int) -> int:
    """Exact per-client stochastic-gradient count: 2q at initialization plus
    2 per non-sync step. The coarser accounting figure 2q + 2T bounds this
    from above (sync steps draw no samples)."""
    if T < 1 or q < 1:
        raise ValueError("T and q must be >= 1")
    return 2 * q + 2 * (T - T // q)
