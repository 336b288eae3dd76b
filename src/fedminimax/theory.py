"""Machine-checkable hyperparameter constraint systems and numeric probes.

The convergence guarantees for the adaptive and non-adaptive variants hold
under a system of ten inequalities coupling the step sizes, the schedule
parameters (n, m, c1, c2), the sync period and the problem constants
(L_f, mu, and the preconditioner bounds rho, rho_u). validate_theorem1
evaluates the adaptive system; validate_theorem2 is the same system
specialized at identity preconditioners (rho = rho_l = rho_u = 1).

The step-size coupling is evaluated as tau = gamma / lam <= min(...): the
two step sizes satisfy gamma <= lam * mu / (16 rho_u L) in the same system,
which forces gamma < lam, so the smaller-over-larger ratio is the only
feasible reading of the coupling.

The system applies only to a family with a modulus mu > 0 in y (strong
concavity, or the gradient-growth condition): synthetic and AUC. The robust
family's inner problem is convex in y, so its constant set has mu=None and
its report is "not applicable", with no records.

The system reads the closed-form L_f and mu (theorem_constants). Probes
check, on concrete instances, the gradient-growth inequality behind the
analysis (probe_pl), the Lipschitz constants of the inner maximizer and the
value-function gradient (probe_lipschitz) and the analytic gradient oracles
(grad_check), and estimate the other constants (estimate_constants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .algorithms import HyperParams
from .core import Vector, expit, row_dots
from .problems import AucProblem, ProblemInstance, RobustProblem, SyntheticProblem, grad_F, grad_full
from .problems.base import _PROBE_ITEMS

CONSTRAINT_NAMES = (
    "m_min_two",
    "m_lower",
    "c_square_upper",
    "c1_lower",
    "c2_lower",
    "tau_coupling",
    "gamma_upper",
    "lambda_upper",
    "rho_range",
    "rho_u_range",
)


@dataclass
class ConstantSet:
    """Problem constants feeding the validator, with per-field provenance
    ("analytic", "estimated", "config", or "none" for a mu the family does
    not have). Only estimate_constants sets sigma and the deltas, and the
    robust L_f."""

    L_f: float | None
    mu: float | None
    sigma: float | None = None
    delta_x: float | None = None
    delta_y: float | None = None
    rho: float = 1.0
    rho_u: float = 1.0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mu is not None and (self.mu <= 0 or self.L_f < self.mu):
            raise ValueError("require L_f >= mu > 0")
        if self.rho <= 0 or self.rho_u <= 0:
            raise ValueError("rho and rho_u must be positive")

    @property
    def kappa(self) -> float | None:
        return None if self.mu is None else self.L_f / self.mu

    @property
    def L(self) -> float | None:
        return None if self.mu is None else self.L_f * (1.0 + self.L_f / self.mu)

    def with_safety_margin(self, factor: float = 1.1) -> "ConstantSet":
        """Inflate estimated fields (of L_f, sigma and the deltas; mu is
        never estimated) by `factor` before feeding the validator, so
        sampling error cannot understate a constant."""
        updates = {}
        for name in ("L_f", "sigma", "delta_x", "delta_y"):
            if self.provenance.get(name) == "estimated":
                updates[name] = getattr(self, name) * factor
        return replace(self, **updates) if updates else self


@dataclass
class ConstraintRecord:
    name: str
    lhs: float
    rhs: float
    satisfied: bool
    relation: str = "<="


@dataclass
class ConstraintReport:
    """The ten records, or none and the reason the system does not apply
    (never satisfied)."""

    constraints: list[ConstraintRecord]
    not_applicable: str | None = None

    @property
    def all_satisfied(self) -> bool:
        return self.not_applicable is None and all(c.satisfied for c in self.constraints)

    def by_name(self, name: str) -> ConstraintRecord:
        for c in self.constraints:
            if c.name == name:
                return c
        raise KeyError(name)

    def render(self) -> str:
        if self.not_applicable is not None:
            return f"not applicable: {self.not_applicable}"
        width = max(len(c.name) for c in self.constraints)
        lines = []
        for c in self.constraints:
            flag = "ok " if c.satisfied else "VIOLATED"
            lines.append(f"{c.name:<{width}}  {flag:<8} lhs={c.lhs:.6g} {c.relation} rhs={c.rhs:.6g}")
        lines.append(f"overall: {'satisfied' if self.all_satisfied else 'violated'}")
        return "\n".join(lines)

    def machine_lines(self) -> str:
        if self.not_applicable is not None:
            return f"theorem=not_applicable|{self.not_applicable}"
        return "\n".join(
            f"{c.name}={'satisfied' if c.satisfied else 'violated'}|{c.lhs:.17g}|{c.rhs:.17g}"
            for c in self.constraints
        )


def _theorem_system(hp: HyperParams, c: ConstantSet, K: int, rho: float, rho_l: float, rho_u: float) -> ConstraintReport:
    if c.mu is None:
        return ConstraintReport([], not_applicable="no modulus mu > 0 in y (neither strongly concave nor PL)")
    # A Python float's ** raises OverflowError where * gives inf.
    try:
        records = _constraint_records(hp, c, K, rho, rho_l, rho_u)
    except OverflowError as exc:
        raise ValueError(f"step-size constraint terms overflow a float (L_f={c.L_f:.6g}, mu={c.mu:.6g})") from exc
    assert [r.name for r in records] == list(CONSTRAINT_NAMES)
    return ConstraintReport(records)


def _constraint_records(hp: HyperParams, c: ConstantSet, K: int, rho: float, rho_l: float,
                        rho_u: float) -> list[ConstraintRecord]:
    n, m = hp.eta_n, hp.eta_m
    c1, c2, q = hp.c1, hp.c2, hp.q
    gamma, lam = hp.gamma, hp.lam
    L_f, mu, L = c.L_f, c.mu, c.L

    records = []

    def add(name: str, lhs: float, rhs: float, satisfied: bool, relation: str = "<="):
        records.append(ConstraintRecord(name, float(lhs), float(rhs), bool(satisfied), relation))

    add("m_min_two", m, 2.0, m >= 2.0, ">=")
    m_bound = max(
        n**3,
        (c1 * n) ** 3 * K,
        (c2 * n) ** 3 * K,
        K * (12.0 * math.sqrt(2.0) * n * lam * q * L_f) ** 3 / rho**3,
    )
    add("m_lower", m, m_bound, m >= m_bound, ">=")
    add(
        "c_square_upper",
        c1**2 + c2**2,
        12.0**4 * lam**4 * q**2 * L_f**2 / rho**4,
        c1**2 + c2**2 <= 12.0**4 * lam**4 * q**2 * L_f**2 / rho**4,
    )
    c1_bound = 2.0 / (3.0 * n**3 * K) + 9.0 * rho_u * L_f**2 / (2.0 * mu**2 * rho)
    add("c1_lower", c1, c1_bound, c1 >= c1_bound, ">=")
    c2_bound = 2.0 / (3.0 * n**3 * K) + 4.5
    add("c2_lower", c2, c2_bound, c2 >= c2_bound, ">=")

    Lam = 1.0 / 16.0 + L_f**2 * rho_u / (4.0 * mu**2) + 16.0 * lam**2 * L_f**2 / (K * rho**2)
    tau = gamma / lam if lam > 0 else math.inf
    tau_bound = min(math.sqrt(5.0 * K) / (4.0 * math.sqrt(2.0 * Lam)), 1.0)
    add("tau_coupling", tau, tau_bound, tau <= tau_bound)

    gamma_bound = min(
        m ** (1.0 / 3.0) * rho / (4.0 * L * n),
        lam * mu / (16.0 * rho_u * L),
        rho_l * mu / (16.0 * rho_u * L_f**2),
        2.0 * lam * mu**2 * rho / (27.0 * L_f**2 * rho_u),
        math.sqrt(K) * rho / (8.0 * math.sqrt(3.0) * L_f),
    )
    add("gamma_upper", gamma, gamma_bound, gamma <= gamma_bound)

    lam_bound = min(
        m ** (1.0 / 3.0) / (4.0 * L_f * n * rho_u),
        3.0 * math.sqrt(5.0 * K) / (32.0 * math.sqrt(2.0) * mu),
    )
    add("lambda_upper", lam, lam_bound, lam <= lam_bound)

    add("rho_range", rho, 1.0, 0.0 < rho <= 1.0)
    add("rho_u_range", rho_u, 135.0 / (64.0 * rho**2), 0.0 < rho_u <= 135.0 / (64.0 * rho**2))

    return records


def validate_theorem1(hp: HyperParams, c: ConstantSet, K: int) -> ConstraintReport:
    """Constraint system of the adaptive variant's convergence guarantee.

    rho (= rho_l) is taken from the run configuration, rho_u from the
    constant set. Violations are report entries, never errors.
    """
    return _theorem_system(hp, c, K, rho=hp.rho, rho_l=hp.rho, rho_u=c.rho_u)


def validate_theorem2(hp: HyperParams, c: ConstantSet, K: int) -> ConstraintReport:
    """Same system at identity preconditioners (rho = rho_l = rho_u = 1)."""
    return _theorem_system(hp, c, K, rho=1.0, rho_l=1.0, rho_u=1.0)


def pl_slack(inst: ProblemInstance, x: Vector, y: Vector, mu: float | None = None) -> float:
    """Slack ||grad_y f(x, y)||^2 - 2 mu (max_y' f(x, y') - f(x, y)) at one point."""
    if not inst.has_closed_form_inner_max:
        raise ValueError(f"{inst.name} has no closed-form inner maximum")
    if mu is None:
        mu = inst.mu
    _, gy = inst.global_grad(x, y)
    gap = inst.inner_max_value(x) - inst.global_value(x, y)
    return float(gy @ gy) - 2.0 * mu * gap


def probe_pl(inst: ProblemInstance, n_points: int, seed: int, mu: float | None = None) -> float:
    """Worst observed slack of the gradient-growth inequality

        ||grad_y f(x, y')||^2 >= 2 mu (max_y f(x, y) - f(x, y'))

    over sampled (x, y'). Requires a closed-form inner maximum. A result
    at or above a small negative numerical tolerance certifies the probe.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = math.inf
    for x, y in zip(*_draw_probes(inst, n_points, rng, scale=2.0)):
        worst = min(worst, pl_slack(inst, x, y, mu))
    return worst


@dataclass
class LipschitzReport:
    max_ratio_y_star: float
    kappa: float
    max_ratio_grad_F: float
    L: float
    n_pairs: int

    @property
    def ok(self) -> bool:
        return self.max_ratio_y_star <= self.kappa and self.max_ratio_grad_F <= self.L


def probe_lipschitz(inst: ProblemInstance, n_pairs: int, seed: int, c: ConstantSet | None = None) -> LipschitzReport:
    """Check || y*(x1) - y*(x2) || <= kappa ||x1 - x2|| and
    || grad F(x1) - grad F(x2) || <= L ||x1 - x2|| over random pairs.

    Requires closed forms for y* and grad F (synthetic, AUC)."""
    if not inst.has_closed_form_inner_max:
        raise ValueError(f"{inst.name} has no closed-form inner maximizer")
    if c is None:  # only kappa and L are read
        c = theorem_constants(inst)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    r_y = 0.0
    r_F = 0.0
    for _ in range(n_pairs):
        x1 = 2.0 * rng.standard_normal(inst.d)
        x2 = 2.0 * rng.standard_normal(inst.d)
        dx = float(np.linalg.norm(x1 - x2))
        if dx == 0.0:
            continue
        r_y = max(r_y, float(np.linalg.norm(inst.y_star(x1) - inst.y_star(x2))) / dx)
        r_F = max(r_F, float(np.linalg.norm(grad_F(inst, x1) - grad_F(inst, x2))) / dx)
    return LipschitzReport(r_y, c.kappa, r_F, c.L, n_pairs)


def grad_check(inst: ProblemInstance, k: int, x: Vector, y: Vector, h: float = 1e-6) -> float:
    """Central finite differences of f^k against the analytic partial
    gradients, both blocks; returns the max relative error."""
    if not 1e-8 < h < 1e-3:
        raise ValueError("h must lie in (1e-8, 1e-3)")
    if not 0 <= k < inst.K:  # a negative k would read another client's row
        raise IndexError(f"client index {k} out of range [0, {inst.K})")
    GX, GY = grad_full(inst, x, y)
    gx, gy = GX[k], GY[k]
    fd_x = np.zeros_like(gx)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        fd_x[i] = (inst.values(x + e, y)[k] - inst.values(x - e, y)[k]) / (2.0 * h)
    fd_y = np.zeros_like(gy)
    for i in range(len(y)):
        e = np.zeros_like(y)
        e[i] = h
        fd_y[i] = (inst.values(x, y + e)[k] - inst.values(x, y - e)[k]) / (2.0 * h)
    scale = max(1.0, float(np.abs(gx).max(initial=0.0)), float(np.abs(gy).max(initial=0.0)))
    err = max(float(np.abs(fd_x - gx).max(initial=0.0)), float(np.abs(fd_y - gy).max(initial=0.0)))
    return err / scale


def _draw_probes(inst: ProblemInstance, n_points: int, rng, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """n_points probe points as stacked (n_points, d) and (n_points, p)
    arrays, bitwise the draws of a loop that draws x and then y per point."""
    Z = scale * rng.standard_normal((n_points, inst.d + inst.p))
    return Z[:, :inst.d], Z[:, inst.d:]


# Exact-oracle rows per call of the heterogeneity probe: 50 probe points a
# call at K = 10, 5 at K = 100.
_PROBE_ROWS = 500


def _max_pairwise_distance(G: np.ndarray) -> float:
    """Largest Euclidean distance between two rows of one (K, m) slice of a
    finite (B, K, m) stack: the square root of the largest E_ab =
    row_dots(G[s, a] - G[s, b]), a < b, bitwise the max of np.linalg.norm per
    pair (max and sqrt are exact).

    Screen, then verify. With N = row_dots(G), one gemm of the augmented
    rows [G_a, N_a, 1] against the columns [-2 G_b; 1; N_b] gives
    S_ab = -2 G_a.G_b + N_a + N_b, every squared distance at once, but
    summed in another order, so it only screens: E_ab is taken, in chunks of
    at most B*K pairs, on the pairs with S_ab >= max S - slack.

    The slack. Let u = 2^-53, n = max N and T_ab the exact squared
    distance. A length-k dot product in any summation order, FMA or not, is
    within k*u*(sum of |terms|) of exact to first order, and a product that
    underflows adds at most 2^-1075. To first order in u:
    - |S_ab - T_ab| <= (6m + 8) u n: m u (N_a + N_b) from the norms, and
      (m + 2) u (4 n) from the gemm's sum of m + 2 terms (-2 G_b is exact),
      whose |terms| add to 2 sum |G_ai G_bi| + N_a + N_b <= 2 (N_a + N_b);
    - |E_ab - T_ab| <= (m + 2) u T_ab <= (4m + 8) u n: the rounded
      difference, then the dot, with T_ab <= 2 (N_a + N_b) <= 4 n;
    so |S_ab - E_ab| <= (10m + 16) u n + 4m 2^-1075. With M = 8 n,
    slack = 16 (m + 4) (u M + 2^-1074) = 128 (m + 4) u n + 32 (m + 4)
    2^-1075, and slack/2 is at least 6 times the bound, which leaves room
    for the second-order terms for m < 10^7. Then the maximizing pair ab of
    E survives: S_ab >= E_ab - slack/2 and max S <= E_ab + slack/2.

    Overflow. Every partial sum forming S stays within 4 n, so nothing
    overflows while M = 8 n is finite. Past that, slack is infinite, max S -
    slack is -inf or NaN, and the ~(<) form keeps every pair. (With M = n,
    -2 G_a.G_b can overflow to -inf on near-parallel rows of squared norm
    above 2^1023 and drop the maximizing pair; the tests hold such a stack.)
    """
    B, K, m = G.shape
    with np.errstate(over="ignore", invalid="ignore"):
        N = row_dots(G)
        rows, cols = np.empty((B, K, m + 2)), np.empty((B, m + 2, K))
        rows[..., :m], rows[..., m], rows[..., m + 1] = G, N, 1.0
        np.multiply(G.transpose(0, 2, 1), -2.0, out=cols[:, :m])
        cols[:, m], cols[:, m + 1] = 1.0, N
        S = np.matmul(rows, cols)
        slack = 16.0 * (m + 4) * (2.0**-53 * (8.0 * N.max()) + 2.0**-1074)
        keep = ~(S < S.max() - slack)
    s, a, b = np.unravel_index(np.flatnonzero(keep), S.shape)
    pairs = np.flatnonzero(a < b)
    worst = 0.0
    for i in range(0, len(pairs), B * K):
        j = pairs[i:i + B * K]
        worst = max(worst, float(row_dots(G[s[j], a[j]] - G[s[j], b[j]]).max()))
    return math.sqrt(worst)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite gradient raises below
def _estimate_heterogeneity(inst: ProblemInstance, n_samples: int, rng) -> tuple[float, float]:
    """Largest distance between two clients' exact x- and y-gradients over
    n_samples probe points, evaluated max(1, _PROBE_ROWS // K) points per
    grad_full_all call; the maximum is exact, so the chunks do not change
    its bits (_max_pairwise_distance)."""
    K = inst.K
    X, Y = _draw_probes(inst, n_samples, rng, scale=2.0)
    dx = dy = 0.0
    step = max(1, _PROBE_ROWS // K)
    for i in range(0, n_samples, step):
        x, y = X[i:i + step], Y[i:i + step]
        GX, GY = inst.grad_full_all(np.repeat(x, K, axis=0), np.repeat(y, K, axis=0))
        if not (np.isfinite(GX).all() and np.isfinite(GY).all()):
            raise ValueError(f"{inst.name}: non-finite exact gradient at a heterogeneity probe point")
        dx = max(dx, _max_pairwise_distance(GX.reshape(len(x), K, -1)))
        dy = max(dy, _max_pairwise_distance(GY.reshape(len(y), K, -1)))
    return dx, dy


def _estimate_sigma(inst: ProblemInstance, n_samples: int, rng) -> float:
    """Largest mean squared deviation of a client's stochastic gradients
    from its exact ones over sampled points, as its square root.

    Every client's items in client order, for as many probes a pass as keep
    its rows within _PROBE_ITEMS (one at least): one stochastic call per
    pass, one grad_full call per probe. Each client's sum is an
    np.add.accumulate along its items, one per size block, bitwise the
    sequential 1-D index_sum of one probe at a time."""
    sizes = inst.sizes
    n_rows = int(sizes.sum())
    starts = np.cumsum(sizes) - sizes
    ks = np.repeat(np.arange(inst.K), sizes)
    items = np.arange(n_rows) - np.repeat(starts, sizes)
    blocks = [(n, starts[sizes == n][:, None] + np.arange(n)) for n in np.unique(sizes)]
    X, Y = _draw_probes(inst, max(1, n_samples // 10), rng, scale=2.0)
    step = max(1, _PROBE_ITEMS // n_rows)
    worst = 0.0
    for i in range(0, len(X), step):
        x, y = X[i:i + step], Y[i:i + step]
        P = len(x)
        SX, SY = inst.grad_stoch_rows(np.tile(ks, P), np.tile(items, P),
                                      np.repeat(x, n_rows, axis=0), np.repeat(y, n_rows, axis=0))
        for j in range(P):
            GX, GY = grad_full(inst, x[j], y[j])
            SX[j * n_rows:(j + 1) * n_rows] -= np.repeat(GX, sizes, axis=0)
            SY[j * n_rows:(j + 1) * n_rows] -= np.repeat(GY, sizes, axis=0)
        sq = (row_dots(SX) + row_dots(SY)).reshape(P, n_rows)
        for n, idx in blocks:
            means = np.add.accumulate(sq[:, idx], axis=-1)[..., -1] / n
            worst = max(worst, *means.ravel().tolist())  # Python's max passes over a NaN
    return math.sqrt(worst)


def theorem_constants(inst: ProblemInstance, rho: float = 1.0, rho_u: float = 1.0) -> ConstantSet:
    """L_f and mu, the constants the step-size system reads, from the
    family's closed forms (synthetic, AUC). Robust has neither: it is convex
    in y, so it has no mu and its system does not apply."""
    prov = {"rho": "config", "rho_u": "config"}
    if isinstance(inst, RobustProblem):
        return ConstantSet(L_f=None, mu=None, rho=rho, rho_u=rho_u, provenance={**prov, "mu": "none"})
    if not isinstance(inst, (SyntheticProblem, AucProblem)):
        raise TypeError(f"unknown problem family {inst.name!r}")
    prov.update(L_f="analytic", mu="analytic")
    return ConstantSet(L_f=inst.lipschitz_L_f, mu=inst.mu, rho=rho, rho_u=rho_u, provenance=prov)


def estimate_constants(inst: ProblemInstance, n_samples: int, seed: int,
                       rho: float = 1.0, rho_u: float = 1.0) -> ConstantSet:
    """theorem_constants, plus max-over-probes estimates of sigma (analytic
    on synthetic), the heterogeneity deltas and the robust L_f; provenance
    recorded per field."""
    c = theorem_constants(inst, rho, rho_u)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    delta_x, delta_y = _estimate_heterogeneity(inst, n_samples, rng)
    prov = {**c.provenance, "delta_x": "estimated", "delta_y": "estimated"}
    if isinstance(inst, RobustProblem):
        c.L_f, prov["L_f"] = _estimate_robust_L_f(inst, n_samples, rng), "estimated"
        # Discarded: the draw of a retired mu probe, so sigma keeps its bits.
        rng.standard_normal((max(2, n_samples // 5), inst.d + 8 * inst.p))
    if isinstance(inst, SyntheticProblem):
        sigma, prov["sigma"] = inst.sigma_bound, "analytic"
    else:
        sigma, prov["sigma"] = _estimate_sigma(inst, n_samples, rng), "estimated"
    return replace(c, sigma=sigma, delta_x=delta_x, delta_y=delta_y, provenance=prov)


def _robust_curvatures(Xr: np.ndarray, lab: np.ndarray, w: Vector) -> tuple[np.ndarray, np.ndarray]:
    """l' and l'' of the logistic loss at each item's margin w.(x + rho),
    Xr holding the rows x + rho, (n, d) against w (d,), or (P, n, d)
    against P probes' w (P, 1, d); the sigmoid is libm's (core.expit)."""
    ez = expit(-lab * row_dots(Xr, np.tile(w, (Xr.shape[-2], 1))))
    return -lab * ez, ez * (1.0 - ez)


def _robust_hessian_norms(Xr: np.ndarray, lab: np.ndarray, w: Vector) -> np.ndarray:
    """Spectral norm of each item's Hessian of loss(w.(x+rho)) in (w, rho),
    Xr holding the rows a = x + rho, shaped as in _robust_curvatures (closed
    form: see _estimate_robust_L_f). Every item's arithmetic is its own, so
    a stack of probes has the bits of one probe at a time."""
    lp, lpp = _robust_curvatures(Xr, lab, w)
    W = np.tile(w, (Xr.shape[-2], 1))
    s = lpp * row_dots(Xr + W) / 4.0
    t = lpp * row_dots(Xr - W) / 4.0
    return s + t + np.sqrt((s - t + lp) ** 2 + 4.0 * s * t)


def _estimate_robust_L_f(inst: RobustProblem, n_samples: int, rng) -> float:
    """Largest spectral norm of the per-item Hessians over sampled (w, rho)
    and every item, within a few ulp of np.linalg.eigvalsh on each one.

    Each is H = l''uu^T + l'J, u = (a, w), a = x + rho, J = [[0, I], [I, 0]].
    In the frame (a+w, a+w), (a-w, w-a) of J's eigenvectors, H on span{u, Ju}
    is l''[p m]^T[p m] + l'diag(1, -1), p^2 = |a+w|^2/2, m^2 = |a-w|^2/2: with
    s = l''p^2/2, t = l''m^2/2 >= 0, its eigenvalues are s + t +- sqrt((s - t
    + l')^2 + 4st), and the + root also bounds H = l'J's +-l' off that span.

    The probes go as many a pass as keep its items within _PROBE_ITEMS (one
    at least), as (P, n, d) stacks.
    """
    X, lab = np.concatenate(inst.clients_X), np.concatenate(inst.clients_y)
    W, R = _draw_probes(inst, max(1, n_samples // 10), rng, scale=1.0)
    R = inst.y_constraint.project(R)
    step = max(1, _PROBE_ITEMS // len(X))
    worst = []
    for i in range(0, len(W), step):
        norms = _robust_hessian_norms(X + R[i:i + step, None], lab, W[i:i + step, None])
        worst += norms.max(axis=-1).tolist()
    return max(worst)  # probe by probe, as a loop: Python's max passes over a NaN
