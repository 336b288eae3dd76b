"""Federated descent-ascent algorithms as state transitions over client and
server states.

One run alternates synchronization steps (every q-th iteration: the server
averages iterates and gradient estimates, regenerates the diagonal
preconditioners, takes one preconditioned interpolated step and broadcasts
everything back) with purely local steps (each client moves with its own
estimates, then refreshes them with one fresh sample using the recursive
variance-reduced rule). Client state is stacked, one row per client.
Initialization draws every item a client samples in the whole run, as one
(rounds, q - 1) slice of the item table per client, after its q
initialization items; syncs draw nothing.

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
client; initialization consumes 2q; sync steps sample nothing. Hence
sfo_per_client = 2q + 2(T - floor(T/q)) and comm_rounds = floor(T/q).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

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
from .metrics import RunTrace, TraceChunk, TraceRecorder
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
    m >= K * n^3.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if K < 1:
        raise ValueError("K must be >= 1")
    if m <= 0:
        raise ValueError("m must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return n * K ** (1.0 / 3.0) / (m + t) ** (1.0 / 3.0)


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

    def sync_varrho(self, eta_t: float) -> float | None:
        """Per-generation accumulator decay; None means the configured value."""
        if not self.tie_varrho_to_momentum:
            return None
        _, beta = self.momentum(eta_t)
        return 1.0 - beta if beta < 1.0 else None


@dataclass
class Clients:
    """All K clients, one row each. items is the whole run's item table,
    shape (K, rounds, q - 1): items[k, r, j] is client k's item at local
    step r * q + j + 1, the j-th step of round r (the steps after sync r * q,
    or after initialization for r = 0)."""

    X: np.ndarray
    Y: np.ndarray
    W: np.ndarray  # x-side gradient estimates
    V: np.ndarray  # y-side gradient estimates
    items: np.ndarray = field(repr=False)


@dataclass
class ServerState:
    x_bar: Vector
    y_bar: Vector
    acc: AdaptiveAccumulator
    A: Vector  # positive diagonal of the x-side preconditioner
    B: Vector  # positive diagonal of the y-side preconditioner


def _spawn_rngs(seed: int, K: int) -> list[np.random.Generator]:
    """Client k samples from child k of the seed; child K draws the output
    index (see run)."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(K)]


# Items per rng.integers call while drawing the item table.
_ITEM_CHUNK = 2**16
# Client rows (K per step) the recorder measures per call: the temporaries
# of its stacked calls grow with them. At least two steps, since one step
# per call spends more on copying it into the chunk than stacking saves.
_RECORD_ROWS = 50


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


def init_round(problem: ProblemInstance, hp: HyperParams) -> tuple[Clients, ServerState, Counters]:
    """Set up common iterates, initial full-batch-of-q estimates and the
    first preconditioners.

    Every client averages q stochastic gradients at the shared starting
    point (sampled without replacement), costing 2q gradient evaluations.
    The initial matrices come from the variant's generation rule applied to
    the averaged initial estimates with a zero accumulator (identity for
    the non-adaptive variants). Each client's generator then draws the item
    table of all ceil(T / q) rounds that hold local steps, and nothing else.
    """
    K = problem.K
    rngs = _spawn_rngs(hp.seed, K)
    x1, y1 = initial_point(problem, hp)

    n = problem.sizes
    if (n < hp.q).any():
        k = int(np.argmax(n < hp.q))
        raise ValueError(f"q={hp.q} exceeds client {k} dataset size {n[k]}")
    items = np.stack([rng.choice(n_k, size=hp.q, replace=False) for rng, n_k in zip(rngs, n)])
    X = np.tile(x1, (K, 1))
    Y = np.tile(y1, (K, 1))
    W = np.zeros((K, problem.d))
    V = np.zeros((K, problem.p))
    ks = np.arange(K)
    for j in range(hp.q):
        GX, GY = problem.grad_stoch_rows(ks, items[:, j], X, Y)
        W += GX
        V += GY
    clients = Clients(X=X, Y=Y, W=W / hp.q, V=V / hp.q, items=_draw_items(rngs, n, hp.q, -(-hp.T // hp.q)))

    counters = Counters()
    counters.add_sfo(2 * hp.q)

    acc = AdaptiveAccumulator(mode=_MATRIX_MODE[hp.variant], rho=hp.rho, varrho=hp.varrho)
    w_bar = vec_mean(clients.W)
    v_bar = vec_mean(clients.V)
    A, B = acc.generate(w_bar, v_bar, varrho=hp.sync_varrho(hp.eta(K, 0)))
    server = ServerState(x_bar=x1, y_bar=y1, acc=acc, A=A, B=B)
    return clients, server, counters


def local_step(
    problem: ProblemInstance,
    hp: HyperParams,
    t: int,
    clients: Clients,
    A: Vector,
    B: Vector,
) -> Clients:
    """One purely local iteration of every client, one row each.

    Order: preconditioned ascent proposal on y and descent proposal on x,
    interpolated by eta_t (y projected); then one fresh sample per client
    (items[:, t // q, t % q - 1]) refreshes both estimates, from one oracle
    call on 2K rows: the new points, then the old points.
    """
    if t % hp.q == 0:
        raise ValueError(f"t={t} is a sync index (q={hp.q})")
    K = problem.K
    eta_t = hp.eta(K, t)
    alpha, beta = hp.momentum(eta_t)
    X, Y, W, V = clients.X, clients.Y, clients.W, clients.V

    Y_hat = Y + hp.lam * precondition(B, V)
    Y_new = problem.y_constraint.project(Y + eta_t * (Y_hat - Y))
    X_hat = X - hp.gamma * precondition(A, W)
    X_new = X + eta_t * (X_hat - X)

    ks = np.arange(K)
    items = clients.items[:, t // hp.q, t % hp.q - 1]
    if hp.variant == VARIANT_MOMENTUM_LOCAL_SGDA:
        GX_new, GY_new = problem.grad_stoch_rows(ks, items, X_new, Y_new)
        W_new = hp.beta_m * W + GX_new
        V_new = hp.beta_m * V + GY_new
    else:
        rows = [np.concatenate(pair) for pair in ((ks, ks), (items, items), (X_new, X), (Y_new, Y))]
        GX, GY = problem.grad_stoch_rows(*rows)
        V_new = storm_update(GY[:K], GY[K:], V, alpha)
        W_new = storm_update(GX[:K], GX[K:], W, beta)

    return replace(clients, X=X_new, Y=Y_new, W=W_new, V=V_new)


def sync_step(
    problem: ProblemInstance,
    hp: HyperParams,
    t: int,
    clients: Clients,
    server: ServerState,
    counters: Counters,
) -> None:
    """One synchronization round, mutating clients, server and counters.

    Averages (v, w, y, x) in fixed client order, regenerates the matrices,
    takes the server's preconditioned interpolated step, and broadcasts the
    new iterates together with the averaged estimates into every row, so
    all clients agree bitwise afterwards. It draws nothing: the next round's
    items are already in the item table that initialization drew.
    """
    if t % hp.q != 0:
        raise ValueError(f"t={t} is not a sync index (q={hp.q})")
    K = problem.K
    v_bar = vec_mean(clients.V)
    w_bar = vec_mean(clients.W)
    y_bar = vec_mean(clients.Y)
    x_bar = vec_mean(clients.X)

    eta_t = hp.eta(K, t)
    A, B = server.acc.generate(w_bar, v_bar, varrho=hp.sync_varrho(eta_t))

    y_hat = y_bar + hp.lam * precondition(B, v_bar)
    y_next = problem.y_constraint.project(y_bar + eta_t * (y_hat - y_bar))
    x_hat = x_bar - hp.gamma * precondition(A, w_bar)
    x_next = x_bar + eta_t * (x_hat - x_bar)

    clients.X[:] = x_next
    clients.Y[:] = y_next
    clients.W[:] = w_bar
    clients.V[:] = v_bar
    server.x_bar = x_next
    server.y_bar = y_next
    server.A = A
    server.B = B
    counters.add_comm()


@np.errstate(over="ignore", invalid="ignore")
def run(problem: ProblemInstance, hp: HyperParams, heavy_cadence: int = 1) -> RunTrace:
    """Execute initialization plus T steps and return the full trace.

    Also draws one uniformly random step index (the single-iterate output
    rule); analyses here use the full trace, the sampled index is reported
    alongside.

    Finiteness is checked once per step, on every client's iterates and
    estimates after the local or sync step and before the step is kept for
    the recorder: a diverging run raises FloatingPointError naming the
    first step t at which any of X, Y, W or V holds a NaN or Inf. Overflow
    warnings are silenced, since that check reports the divergence. The
    recorder measures the kept steps a chunk of them at a time, and the rest
    at the end.
    """
    t_start = time.perf_counter()
    clients, server, counters = init_round(problem, hp)
    recorder = TraceRecorder(problem, hp.q, hp.T, heavy_cadence=heavy_cadence)
    chunk = TraceChunk(problem, max(2, _RECORD_ROWS // problem.K))

    # Child K of the seed: the one after the client generators of _spawn_rngs.
    out_rng = np.random.default_rng(np.random.SeedSequence(hp.seed, spawn_key=(problem.K,)))
    final_index = int(out_rng.integers(1, hp.T + 1))

    for t in range(1, hp.T + 1):
        if t % hp.q == 0:
            sync_step(problem, hp, t, clients, server, counters)
            x_bar, y_bar = server.x_bar, server.y_bar
            is_sync = True
        else:
            clients = local_step(problem, hp, t, clients, server.A, server.B)
            counters.add_sfo(2)
            x_bar = vec_mean(clients.X)
            y_bar = vec_mean(clients.Y)
            is_sync = False
        if not all(np.isfinite(M).all() for M in (clients.X, clients.Y, clients.W, clients.V)):
            raise FloatingPointError(f"non-finite iterate or estimate at t={t}")
        if chunk.add(t, is_sync, clients, counters, x_bar, y_bar):
            recorder.record(chunk)
        if t == final_index:
            sampled_x, sampled_y = x_bar.copy(), y_bar.copy()
    recorder.record(chunk)

    return RunTrace(
        records=recorder.table(),
        config_echo={"problem": problem.describe().replace("\n", ";"), **asdict(hp)},
        final_sampled_index=final_index,
        wall_time_s=time.perf_counter() - t_start,
        final_x=x_bar.copy(),
        final_y=y_bar.copy(),
        sampled_x=sampled_x,
        sampled_y=sampled_y,
    )
