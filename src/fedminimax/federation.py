"""Non-i.i.d. data partitioning and run-level complexity accounting."""

from __future__ import annotations

import numpy as np

SCHEMES = ("iid", "by_group", "dirichlet")


def partition(n_items: int, labels, K: int, scheme: str, seed: int, beta: float = 1.0) -> list[np.ndarray]:
    """Split item indices 0..n_items-1 across K clients: a disjoint cover,
    client k's item indices (in index order) at [k].

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

    # owner[i] is item i's client.
    if scheme == "iid":  # items dealt round-robin in a shuffled order
        owner = np.empty(n_items, dtype=int)
        owner[rng.permutation(n_items)] = np.arange(n_items) % K
    elif scheme == "by_group":  # groups dealt round-robin in a shuffled order
        values, group_of = np.unique(labels, return_inverse=True)
        if len(values) < K:
            raise ValueError(f"by_group needs at least K={K} groups, got {len(values)}")
        deal = np.empty(len(values), dtype=int)
        deal[rng.permutation(len(values))] = np.arange(len(values)) % K
        owner = deal[group_of]
    else:
        if beta <= 0:
            raise ValueError("dirichlet beta must be positive")
        # Each class (its items in index order) shuffled, then cut into
        # contiguous client runs at its cumulative Dirichlet shares: order[j]
        # is the j-th item dealt, bounds[c, k] the deal position where class
        # c's run of client k ends, and dealt[j] the client whose run holds j.
        _, class_of = np.unique(labels, return_inverse=True)
        sizes = np.bincount(class_of)
        ends = np.cumsum(sizes)
        members = np.split(np.argsort(class_of, kind="stable"), ends[:-1])
        order, bounds = [], np.empty((len(sizes), K), dtype=int)
        for c, idx in enumerate(members):
            order.append(rng.permutation(idx))
            bounds[c] = np.floor(np.cumsum(rng.dirichlet(np.full(K, beta))) * len(idx))
        bounds[:, -1] = sizes
        bounds += (ends - sizes)[:, None]  # now non-decreasing along bounds.ravel()
        order = np.concatenate(order)
        dealt = np.searchsorted(bounds.ravel(), np.arange(n_items), side="right") % K
        # An empty client, in client order, takes the last-dealt item of the
        # first of the largest clients; n_items >= K leaves that one two items.
        counts = np.bincount(dealt, minlength=K)
        for k in np.flatnonzero(counts == 0):
            donor = np.argmax(counts)
            dealt[np.flatnonzero(dealt == donor)[-1]] = k
            counts[donor] -= 1
            counts[k] = 1
        owner = np.empty(n_items, dtype=int)
        owner[order] = dealt
    # The stable sort keeps each client's items in index order.
    assignment = np.split(np.argsort(owner, kind="stable"), np.cumsum(np.bincount(owner, minlength=K))[:-1])

    counts = np.bincount(np.concatenate(assignment), minlength=n_items)  # no sort, unlike np.unique
    if len(counts) != n_items or not (counts == 1).all():
        raise AssertionError("partition is not a disjoint cover")
    if any(len(a) == 0 for a in assignment):
        raise AssertionError("a client received no items")
    return assignment


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
