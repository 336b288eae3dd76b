"""Federated descent-ascent algorithms as state transitions over client and
server states.

One run alternates synchronization steps (every q-th iteration: the server
averages iterates and gradient estimates, regenerates the diagonal
preconditioners and writes the averages into every client row) with purely
local steps (each client refreshes its estimates with one fresh sample
using the recursive variance-reduced rule). Both apply one preconditioned
interpolated step to the client rows, so after a sync every row holds the
server's iterate and row 0 is the run's average. Client state is stacked,
one row per client, and is the run's only iterate state. Initialization
draws every item a client samples in the whole run, as one (rounds, q - 1)
slice of the item table per client, after its q initialization items;
syncs draw nothing.

Variants share this skeleton:

    fgda                 identity preconditioners, decaying eta/momentum schedules
    adafgda_adam         preconditioners from accumulated squared averaged gradients
    adafgda_adabelief    preconditioners from squared innovations between syncs
    local_sgda           identity preconditioners, eta = 1, momentum = 1
    momentum_local_sgda  identity preconditioners, eta = 1, heavy-ball estimator

After every synchronization the clients hold bitwise copies of the
broadcast iterates and averaged estimates; this is what makes the
consensus metrics exactly zero on sync records.

Complexity ledger: one local step draws one sample and consumes both of
its partial gradients, counted as 2 stochastic-gradient evaluations per
client; initialization consumes 2q; sync steps sample nothing. Each step
books its own share. Hence sfo_per_client = 2q + 2(T - floor(T/q)) and
comm_rounds = floor(T/q).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import Counters, Vector, precondition, vec_mean
from .estimators import (
    MODE_ADABELIEF,
    MODE_ADAM,
    MODE_IDENTITY,
    AdaptiveAccumulator,
    momentum_schedule,
    storm_update,
)
from .metrics import RunTrace, TraceRecorder
from .problems import ProblemInstance

VARIANT_FGDA = "fgda"
VARIANT_ADAFGDA_ADAM = "adafgda_adam"
VARIANT_ADAFGDA_ADABELIEF = "adafgda_adabelief"
VARIANT_LOCAL_SGDA = "local_sgda"
VARIANT_MOMENTUM_LOCAL_SGDA = "momentum_local_sgda"
VARIANTS = (
    VARIANT_FGDA,
    VARIANT_ADAFGDA_ADAM,
    VARIANT_ADAFGDA_ADABELIEF,
    VARIANT_LOCAL_SGDA,
    VARIANT_MOMENTUM_LOCAL_SGDA,
)

_MATRIX_MODE = {
    VARIANT_FGDA: MODE_IDENTITY,
    VARIANT_LOCAL_SGDA: MODE_IDENTITY,
    VARIANT_MOMENTUM_LOCAL_SGDA: MODE_IDENTITY,
    VARIANT_ADAFGDA_ADAM: MODE_ADAM,
    VARIANT_ADAFGDA_ADABELIEF: MODE_ADABELIEF,
}

# Variants that run at a fixed unit interpolation weight.
_UNIT_ETA = (VARIANT_LOCAL_SGDA, VARIANT_MOMENTUM_LOCAL_SGDA)


def eta_schedule(n: float, K: int, m: float, t: int) -> float:
    """Decaying interpolation weight n * K^(1/3) / (m + t)^(1/3).

    Nonincreasing in t; stays at or below 1 for all t >= 0 whenever
    m >= K * n^3. HyperParams checks n and m, and HyperParams.schedule
    every weight a run uses.
    """
    return n * K ** (1.0 / 3.0) / (m + t) ** (1.0 / 3.0)


@dataclass(frozen=True)
class Schedule:
    """A run's per-step scalars, each list indexed by t = 0..T: the
    interpolation weight eta_t, the estimator momenta alpha_t (y side) and
    beta_t (x side) that follow a step at eta_t, and the accumulator decay
    varrho_t of a sync at t: 1 - beta_t where tie_varrho_to_momentum holds
    and beta_t < 1, else None (the configured varrho)."""

    eta: list[float]
    alpha: list[float]
    beta: list[float]
    varrho: list[float | None]


@dataclass
class HyperParams:
    """Everything one run needs besides the problem instance.

    eta_const / alpha_const / beta_const pin the schedules to a constant;
    they exist for the reduction identities between variants (local SGDA is
    the unit-constant corner of the main algorithm) and for controlled
    experiments. m >= 2 and rho <= 1 are convergence-theory conditions
    checked by the validator, not construction requirements.
    """

    variant: str = VARIANT_FGDA
    gamma: float = 0.1
    lam: float = 0.1
    eta_n: float = 1.0
    eta_m: float = 10.0
    c1: float = 1.0
    c2: float = 1.0
    q: int = 20
    T: int = 4000
    rho: float = 0.01
    varrho: float = 0.9
    rho_u: float = 1.0
    beta_m: float = 0.9
    tie_varrho_to_momentum: bool = False
    eta_const: float | None = None
    alpha_const: float | None = None
    beta_const: float | None = None
    init_scale: float = 1.0
    y_init_scale: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.gamma < 0 or self.lam < 0:
            raise ValueError("gamma and lam must be nonnegative")
        if self.eta_n <= 0 or self.eta_m <= 0:
            raise ValueError("eta_n and eta_m must be positive")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("c1 and c2 must be positive")
        if self.q < 1 or self.T < 1:
            raise ValueError("q and T must be >= 1")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not 0.0 < self.varrho <= 1.0:
            raise ValueError("varrho must lie in (0, 1]")
        if self.rho_u <= 0:
            raise ValueError("rho_u must be positive")
        if not 0.0 <= self.beta_m < 1.0:
            raise ValueError("beta_m must lie in [0, 1)")
        for name in ("eta_const", "alpha_const", "beta_const"):
            val = getattr(self, name)
            if val is not None and not 0.0 < val <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")

    def eta(self, K: int, t: int) -> float:
        if self.variant in _UNIT_ETA:
            return 1.0
        if self.eta_const is not None:
            return self.eta_const
        return eta_schedule(self.eta_n, K, self.eta_m, t)

    def momentum(self, eta_t: float) -> tuple[float, float]:
        """(alpha, beta) used by the estimator refresh after a step at eta_t."""
        if self.variant == VARIANT_LOCAL_SGDA:
            return 1.0, 1.0
        alpha, beta = momentum_schedule(self.c1, self.c2, eta_t)
        if self.alpha_const is not None:
            alpha = self.alpha_const
        if self.beta_const is not None:
            beta = self.beta_const
        return alpha, beta

    def schedule(self, K: int) -> Schedule:
        """eta, momentum and sync varrho at every t = 0..T, computed once per
        run, with their ranges checked once: each eta_t positive, each
        momentum in (0, 1] (a product c * eta_t**2 can underflow to zero)."""
        eta = [self.eta(K, t) for t in range(self.T + 1)]
        alpha, beta = map(list, zip(*map(self.momentum, eta)))
        if not all(e > 0.0 for e in eta):
            raise ValueError("eta_t must be positive at every step")
        if not all(0.0 < m <= 1.0 for m in alpha + beta):
            raise ValueError("momentum must lie in (0, 1] at every step")
        tied = self.tie_varrho_to_momentum
        return Schedule(eta, alpha, beta, [1.0 - b if tied and b < 1.0 else None for b in beta])


@dataclass
class Clients:
    """All K clients, one row each, and what their local steps share.

    items is the whole run's item table, shape (K, rounds, q - 1):
    items[k, r, j] is client k's item at local step r * q + j + 1, the j-th
    step of round r (the steps after sync r * q, or after initialization for
    r = 0). sched is the run's schedule. X and Y are the first K rows of the
    (2K, .) oracle rows rows_X and rows_Y, whose last K rows a local step
    fills with the old points; rows_ks and rows_items (2, K) name each row's
    client and item.
    """

    X: np.ndarray
    Y: np.ndarray
    W: np.ndarray  # x-side gradient estimates
    V: np.ndarray  # y-side gradient estimates
    items: np.ndarray = field(repr=False)
    sched: Schedule = field(repr=False)
    rows_X: np.ndarray = field(repr=False)
    rows_Y: np.ndarray = field(repr=False)
    rows_ks: np.ndarray = field(repr=False)
    rows_items: np.ndarray = field(repr=False)


def _spawn_rngs(seed: int, K: int) -> list[np.random.Generator]:
    """Client k samples from child k of the seed; child K draws the output
    index (see run)."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(K)]


# Items per rng.integers call while drawing the item table.
_ITEM_CHUNK = 2**16


def _draw_items(rngs: list[np.random.Generator], n: np.ndarray, q: int, rounds: int) -> np.ndarray:
    """The (K, rounds, q - 1) item table: client k's items in draw order, a
    chunk of whole rounds (at most _ITEM_CHUNK items) per call; bitwise the
    draws of one rng.integers(n_k) call per local step (see core)."""
    items = np.empty((len(rngs), rounds, q - 1), dtype=np.int64)
    step = max(1, _ITEM_CHUNK // max(1, q - 1))
    for k, (rng, n_k) in enumerate(zip(rngs, n)):
        for r in range(0, rounds, step):
            items[k, r:r + step] = rng.integers(n_k, size=items[k, r:r + step].shape)
    return items


def initial_point(problem: ProblemInstance, hp: HyperParams) -> tuple[Vector, Vector]:
    """The shared starting point: x1 = init_scale in every coordinate and
    y1 the projection of y_init_scale (init_scale when unset) in every
    coordinate onto the y-constraint."""
    x1 = np.full(problem.d, hp.init_scale, dtype=np.float64)
    y_scale = hp.init_scale if hp.y_init_scale is None else hp.y_init_scale
    return x1, problem.y_constraint.project(np.full(problem.p, y_scale, dtype=np.float64))


def init_round(problem: ProblemInstance, hp: HyperParams) -> tuple[Clients, AdaptiveAccumulator, Counters]:
    """Set up common iterates, initial full-batch-of-q estimates and the
    first preconditioners.

    Every client averages q stochastic gradients at the shared starting
    point (sampled without replacement), costing 2q gradient evaluations.
    The initial matrices come from the variant's generation rule applied to
    the averaged initial estimates with a zero accumulator (identity for
    the non-adaptive variants). Each client's generator then draws the item
    table of all ceil(T / q) rounds that hold local steps, and nothing else.
    The run's schedule is computed here, once.
    """
    K = problem.K
    sched = hp.schedule(K)
    rngs = _spawn_rngs(hp.seed, K)
    x1, y1 = initial_point(problem, hp)

    n = problem.sizes
    if (n < hp.q).any():
        k = int(np.argmax(n < hp.q))
        raise ValueError(f"q={hp.q} exceeds client {k} dataset size {n[k]}")
    items = np.stack([rng.choice(n_k, size=hp.q, replace=False) for rng, n_k in zip(rngs, n)])
    rows_X, rows_Y = np.empty((2 * K, problem.d)), np.empty((2 * K, problem.p))
    X, Y = rows_X[:K], rows_Y[:K]
    X[:], Y[:] = x1, y1
    W = np.zeros((K, problem.d))
    V = np.zeros((K, problem.p))
    ks = np.arange(K)
    for j in range(hp.q):
        GX, GY = problem.grad_stoch_rows(ks, items[:, j], X, Y)
        W += GX
        V += GY
    clients = Clients(
        X=X, Y=Y, W=W / hp.q, V=V / hp.q, items=_draw_items(rngs, n, hp.q, -(-hp.T // hp.q)), sched=sched,
        rows_X=rows_X, rows_Y=rows_Y, rows_ks=np.tile(ks, 2), rows_items=np.empty((2, K), np.int64),
    )

    counters = Counters()
    counters.add_sfo(2 * hp.q)

    server = AdaptiveAccumulator(mode=_MATRIX_MODE[hp.variant], rho=hp.rho, varrho=hp.varrho)
    server.generate(vec_mean(clients.W), vec_mean(clients.V), varrho=sched.varrho[0])
    return clients, server, counters


def _step(
    problem: ProblemInstance, hp: HyperParams, eta_t: float, clients: Clients, server: AdaptiveAccumulator,
) -> None:
    """The preconditioned interpolated step of every row, in place: an
    ascent proposal on y and a descent proposal on x, each interpolated by
    eta_t (y projected). Each side is Z + eta_t * (Z_hat - Z) in one
    scratch array (bitwise, see core); identity matrices skip the
    division, since G / 1 is G bitwise, and a projection that returns its
    input skips the copy back."""
    for Z, G, a, c, propose in ((clients.Y, clients.V, server.B, hp.lam, np.add),
                                (clients.X, clients.W, server.A, hp.gamma, np.subtract)):
        if server.mode == MODE_IDENTITY:
            U = c * G
        else:
            U = precondition(a, G)
            U *= c
        propose(Z, U, out=U)  # Z_hat
        U -= Z
        U *= eta_t
        Z += U
    Y = problem.y_constraint.project(clients.Y)
    if Y is not clients.Y:  # only a ball with a row outside it returns a new array
        clients.Y[:] = Y


def local_step(
    problem: ProblemInstance,
    hp: HyperParams,
    t: int,
    clients: Clients,
    server: AdaptiveAccumulator,
    counters: Counters,
) -> None:
    """One purely local iteration of every client, one row each, mutating
    the clients' X, Y, W and V in place and booking its 2 SFO.

    The step (_step) at the server's matrices, then one fresh sample per
    client (items[:, t // q, t % q - 1]) refreshes both estimates, from one
    oracle call on 2K rows: the new points, then the old points.
    """
    if t % hp.q == 0 or not 0 < t <= hp.T:
        raise ValueError(f"t={t} is not a local step of a run of T={hp.T} steps that syncs every q={hp.q}")
    K = problem.K
    sched = clients.sched
    X, Y, W, V = clients.X, clients.Y, clients.W, clients.V
    items = clients.items[:, t // hp.q, t % hp.q - 1]
    clients.rows_X[K:], clients.rows_Y[K:], clients.rows_items[:] = X, Y, items  # the old points
    _step(problem, hp, sched.eta[t], clients, server)

    if hp.variant == VARIANT_MOMENTUM_LOCAL_SGDA:
        GX, GY = problem.grad_stoch_rows(clients.rows_ks[:K], items, X, Y)
        W *= hp.beta_m
        W += GX
        V *= hp.beta_m
        V += GY
    else:
        GX, GY = problem.grad_stoch_rows(clients.rows_ks, clients.rows_items.reshape(-1),
                                         clients.rows_X, clients.rows_Y)
        storm_update(GY[:K], GY[K:], V, sched.alpha[t])
        storm_update(GX[:K], GX[K:], W, sched.beta[t])
    counters.add_sfo(2)


def sync_step(
    problem: ProblemInstance,
    hp: HyperParams,
    t: int,
    clients: Clients,
    server: AdaptiveAccumulator,
    counters: Counters,
) -> None:
    """One synchronization round, mutating clients, server and counters.

    Averages (v, w, y, x) in fixed client order, regenerates the matrices,
    writes the averages into every row and takes the step (_step) there, so
    all clients agree bitwise afterwards and each row is the server's new
    iterate. It draws nothing: the next round's items are already in the
    item table that initialization drew.
    """
    if t % hp.q != 0:
        raise ValueError(f"t={t} is not a sync index (q={hp.q})")
    v_bar = vec_mean(clients.V)
    w_bar = vec_mean(clients.W)
    y_bar = vec_mean(clients.Y)
    x_bar = vec_mean(clients.X)
    server.generate(w_bar, v_bar, varrho=clients.sched.varrho[t])
    clients.X[:], clients.Y[:], clients.W[:], clients.V[:] = x_bar, y_bar, w_bar, v_bar
    _step(problem, hp, clients.sched.eta[t], clients, server)
    counters.add_comm()


@np.errstate(over="ignore", invalid="ignore")
def run(problem: ProblemInstance, hp: HyperParams, heavy_cadence: int = 1) -> RunTrace:
    """Execute initialization plus T steps and return the full trace.

    Also draws one uniformly random step index (the single-iterate output
    rule); analyses here use the full trace, the sampled index is reported
    alongside.

    The recorder keeps a copy of every step and measures the kept steps a
    chunk of them at a time, and the rest at the end. Finiteness is
    checked there, once per chunk, on every client's iterates and estimates
    of every step before any is measured: a diverging run raises
    FloatingPointError naming the first step t at which any of X, Y, W or V
    holds a NaN or Inf. A run whose iterates stay finite but whose objective
    does not raises it at the end, naming the first such step. Overflow
    warnings are silenced, since these checks report the divergence.
    """
    t_start = time.perf_counter()
    clients, server, counters = init_round(problem, hp)
    # Child K of the seed: the one after the client generators of _spawn_rngs.
    out_rng = np.random.default_rng(np.random.SeedSequence(hp.seed, spawn_key=(problem.K,)))
    final_index = int(out_rng.integers(1, hp.T + 1))
    recorder = TraceRecorder(problem, hp.q, hp.T, heavy_cadence=heavy_cadence, sampled_t=final_index)
    for t in range(1, hp.T + 1):
        (sync_step if t % hp.q == 0 else local_step)(problem, hp, t, clients, server, counters)
        recorder.add(t, clients, counters)
    recorder.record()
    if recorder.overflow_t is not None:
        raise FloatingPointError(f"non-finite objective at t={recorder.overflow_t}")

    (final_x, final_y), (sampled_x, sampled_y) = recorder.last, recorder.sampled
    return RunTrace(
        records=recorder.table(),
        config_echo={"problem": problem.describe().replace("\n", ";"), **asdict(hp)},
        final_sampled_index=final_index,
        wall_time_s=time.perf_counter() - t_start,
        final_x=final_x,
        final_y=final_y,
        sampled_x=sampled_x,
        sampled_y=sampled_y,
    )
