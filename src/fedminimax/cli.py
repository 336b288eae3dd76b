"""Command-line entry point.

Subcommands:
    run       execute a configured experiment, one CSV + summary per seed
    validate  evaluate the step-size constraint system; exit 0 iff satisfied
    probe     run numeric assumption probes on the configured problem
    bench     run several variants on one config, print a merged table

Configurations come from a file or a named preset; any key can be
overridden with dotted flags, e.g. `--algorithm.gamma 0.05`.
Constraint violations at run time are warnings, not errors: experiment
rates are grid-searched and need not satisfy the worst-case constants.

Exit codes: 0 success, 1 validation or probe failure, 2 bad configuration or
unusable path, 3 some seed of `run` or some variant of `bench` diverged (the
others still run).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import metrics, theory
from .algorithms import (
    VARIANT_ADAFGDA_ADABELIEF,
    VARIANT_ADAFGDA_ADAM,
    VARIANTS,
    initial_point,
    run as run_algorithm,
)
from .config import (
    ALGORITHM_SCHEMA,
    OUTPUT_SCHEMA,
    PROBLEM_SCHEMAS,
    ConfigError,
    RunConfig,
    _render_value,
    apply_overrides,
    parse_config,
    render_config,
)
from .core import index_sum
from .presets import load_preset, preset_names
from .problems import grad_full

PROBE_CHECKS = ("pl", "lipschitz", "gradcheck", "unbiased", "constants")

# Problem-size defaults (k, dim, sample counts) are simulator choices made
# for desk-scale runtime; step sizes, tau, q and the imbalance ratio follow
# the experiment setups they reproduce.
_SIMULATOR_CHOSEN = {"k", "dim", "n_per_client", "n_test", "seed"}


def _defaults_epilog() -> str:
    """Every config default, written as the literal the config accepts."""
    lines = ["config defaults (missing keys take these values):"]
    for name, schema in PROBLEM_SCHEMAS.items():
        pairs = []
        for key, (_, default) in schema.items():
            mark = "*" if key in _SIMULATOR_CHOSEN else ""
            pairs.append(f"{key}={_render_value(default)}{mark}")
        lines.append(f"  [problem] name={name}: " + ", ".join(pairs))
    for section, schema in (("algorithm", ALGORITHM_SCHEMA), ("output", OUTPUT_SCHEMA)):
        lines.append(f"  [{section}]: " + ", ".join(f"{k}={_render_value(d)}" for k, (_, d) in schema.items()))
    lines.append("  (* = simulator-scale choice, not tied to any reproduced setup)")
    lines.append("overrides: --section.key value, e.g. --algorithm.gamma 0.05")
    return "\n".join(lines)


def _load_config(args, overrides: dict[str, str]) -> RunConfig:
    if args.preset and args.config:
        raise ConfigError("give either a config file or --preset, not both")
    if args.preset:
        cfg = load_preset(args.preset)
    elif args.config:
        cfg = parse_config(Path(args.config).read_text())
    else:
        raise ConfigError("a config file or --preset is required")
    return apply_overrides(cfg, overrides) if overrides else cfg


def _split_overrides(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    """Pull dotted-path overrides (--section.key value | --section.key=value)
    out of argv before standard argument parsing sees them."""
    rest: list[str] = []
    overrides: dict[str, str] = {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "." in tok.split("=", 1)[0]:
            key = tok[2:]
            if "=" in key:
                key, val = key.split("=", 1)
            else:
                i += 1
                if i >= len(argv):
                    raise ConfigError(f"override {tok!r} is missing a value")
                val = argv[i]
            overrides[key] = val
        else:
            rest.append(tok)
        i += 1
    return rest, overrides


def _constants_for(problem, hp) -> theory.ConstantSet:
    c = theory.estimate_constants(problem, n_samples=50, seed=hp.seed, rho=hp.rho, rho_u=hp.rho_u)
    return c.with_safety_margin()


def _validate(problem, hp, c: theory.ConstantSet) -> theory.ConstraintReport:
    if hp.variant in (VARIANT_ADAFGDA_ADAM, VARIANT_ADAFGDA_ADABELIEF):
        return theory.validate_theorem1(hp, c, problem.K)
    return theory.validate_theorem2(hp, c, problem.K)


def _check_out_dir(out_dir: Path) -> None:
    """Refuse a CSV directory that no seed could make: an existing file, or
    a path whose nearest existing ancestor is a file."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"output.csv_dir {str(out_dir)!r}: {str(path)!r} is not a directory")
            return


def cmd_run(args, overrides) -> int:
    cfg = _load_config(args, overrides)
    out_dir = Path(cfg.output.csv_dir)
    _check_out_dir(out_dir)  # before any seed; the directory is made at the first write
    cfg_text = render_config(cfg)
    chash = metrics.config_hash(cfg_text)
    diverged = False
    for seed in cfg.output.seeds:
        problem = cfg.build_problem(seed)
        hp = cfg.hp_for_seed(seed)
        report = _validate(problem, hp, _constants_for(problem, hp))
        if not report.all_satisfied:
            bad = [c.name for c in report.constraints if not c.satisfied]
            print(f"warning: constraint system not satisfied ({', '.join(bad)})", file=sys.stderr)
        try:
            trace = run_algorithm(problem, hp, heavy_cadence=cfg.output.heavy_cadence)
        except FloatingPointError as exc:
            print(f"seed {seed}: diverged: {exc}", file=sys.stderr)
            diverged = True
            continue
        stem = f"{problem.name}_{hp.variant}_seed{seed}"
        out_dir.mkdir(parents=True, exist_ok=True)  # only now: a seed may be refused or diverge
        metrics.emit_csv(trace, out_dir / f"{stem}.csv", config_hash=chash)
        (out_dir / f"{stem}.summary.txt").write_text(metrics.render_summary(trace) + "\n")
        last = trace.final()
        print(f"{stem}: T={last.t} objective={last.objective:.6g} sfo={last.sfo} comm={last.comm}")
    return 3 if diverged else 0


def cmd_validate(args, overrides) -> int:
    cfg = _load_config(args, overrides)
    seed = cfg.output.seeds[0]
    problem = cfg.build_problem(seed)
    hp = cfg.hp_for_seed(seed)
    c = _constants_for(problem, hp)
    report = _validate(problem, hp, c)
    print(report.render())
    print(report.machine_lines())
    sp = problem.saddle()
    if sp is not None and problem.has_closed_form_inner_max:
        x1, y1 = initial_point(problem, hp)
        G = theory.bound_constant_G(
            hp, c, problem.K,
            F_init=problem.inner_max_value(x1),
            f_init=problem.global_value(x1, y1),
            F_star=problem.inner_max_value(sp[0]),
        )
        print(f"bound scale constant (informational, never asserted): G={G:.6g}")
    return 0 if report.all_satisfied else 1


def cmd_probe(args, overrides) -> int:
    cfg = _load_config(args, overrides)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not checks:
        raise ConfigError("--checks names no check")
    unknown = set(checks) - set(PROBE_CHECKS)
    if unknown:
        raise ConfigError(f"unknown checks {sorted(unknown)}; available: {PROBE_CHECKS}")
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    seed = cfg.output.seeds[0]
    problem = cfg.build_problem(seed)
    any_fail = False
    for check in checks:
        if check == "pl":
            if not problem.has_closed_form_inner_max:
                print(f"pl: skipped (no closed-form inner max for {problem.name})", file=sys.stderr)
                continue
            slack = theory.probe_pl(problem, n_points=args.points, seed=seed)
            ok = slack >= -1e-9
            any_fail |= not ok
            print(f"pl: worst_slack={slack:.3e} {'ok' if ok else 'FAIL'}")
        elif check == "lipschitz":
            if not problem.has_closed_form_inner_max:
                print(f"lipschitz: skipped (no closed form for {problem.name})", file=sys.stderr)
                continue
            rep = theory.probe_lipschitz(problem, n_pairs=args.points, seed=seed)
            any_fail |= not rep.ok
            print(
                f"lipschitz: y* ratio {rep.max_ratio_y_star:.4g} <= kappa {rep.kappa:.4g}, "
                f"gradF ratio {rep.max_ratio_grad_F:.4g} <= L {rep.L:.4g} "
                f"{'ok' if rep.ok else 'FAIL'}"
            )
        elif check == "gradcheck":
            rng = np.random.default_rng(seed)
            worst = 0.0
            for _ in range(20):
                k = int(rng.integers(problem.K))
                x = rng.standard_normal(problem.d)
                y = rng.standard_normal(problem.p)
                worst = max(worst, theory.grad_check(problem, k, x, y))
            ok = worst < 1e-5
            any_fail |= not ok
            print(f"gradcheck: max_rel_err={worst:.3e} {'ok' if ok else 'FAIL'}")
        elif check == "unbiased":
            rng = np.random.default_rng(seed)
            worst = 0.0
            for k in range(problem.K):
                x = rng.standard_normal(problem.d)
                y = rng.standard_normal(problem.p)
                GX, GY = grad_full(problem, x, y)
                n_k = problem.sizes[k]
                SX, SY = problem.grad_stoch_rows(
                    np.full(n_k, k), np.arange(n_k), np.tile(x, (n_k, 1)), np.tile(y, (n_k, 1))
                )
                sx, sy = index_sum(SX), index_sum(SY)
                worst = max(
                    worst,
                    float(np.linalg.norm(sx / n_k - GX[k])),
                    float(np.linalg.norm(sy / n_k - GY[k])),
                )
            ok = worst < 1e-10
            any_fail |= not ok
            print(f"unbiased: worst_gap={worst:.3e} {'ok' if ok else 'FAIL'}")
        elif check == "constants":
            c = theory.estimate_constants(problem, n_samples=args.points, seed=seed)
            print("constants:")
            for name in ("L_f", "mu", "sigma", "delta_x", "delta_y"):
                prov = c.provenance.get(name, "?")
                print(f"  {name}={getattr(c, name):.6g} ({prov})")
            print(f"  kappa={c.kappa:.6g} L={c.L:.6g}")
    return 1 if any_fail else 0


def cmd_bench(args, overrides) -> int:
    cfg = _load_config(args, overrides)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError("--variants names no variant")
    unknown = set(variants) - set(VARIANTS)
    if unknown:
        raise ConfigError(f"unknown variants {sorted(unknown)}")
    seed = cfg.output.seeds[0]
    problem = cfg.build_problem(seed)
    rows = []
    diverged = False
    for variant in variants:
        hp = replace(cfg.hp_for_seed(seed), variant=variant)
        try:
            trace = run_algorithm(problem, hp, heavy_cadence=cfg.output.heavy_cadence)
        except FloatingPointError as exc:
            print(f"{variant}: diverged: {exc}", file=sys.stderr)
            diverged = True
            continue
        rows.append((variant, trace.final()))
    print(f"{'variant':<22} {'objective':>12} {'dist_sq':>12} {'auc':>8} {'sfo':>8} {'comm':>6}")
    for variant, last in rows:
        dist = "" if last.dist_x_sq is None else f"{last.dist_x_sq + last.dist_y_sq:.4e}"
        auc = "" if last.auc is None else f"{last.auc:.4f}"
        print(f"{variant:<22} {last.objective:>12.4e} {dist:>12} {auc:>8} {last.sfo:>8} {last.comm:>6}")
    return 3 if diverged else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmm",
        description="Deterministic federated minimax optimization simulator.",
        epilog=_defaults_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", nargs="?", help="path to a config file")
        p.add_argument("--preset", choices=preset_names(), help="named built-in config")

    p_run = sub.add_parser("run", help="run the configured experiment")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check the step-size constraint system")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_probe = sub.add_parser("probe", help="run assumption probes")
    common(p_probe)
    p_probe.add_argument("--checks", default=",".join(PROBE_CHECKS),
                         help="comma-separated subset of " + ",".join(PROBE_CHECKS))
    p_probe.add_argument("--points", type=int, default=200, help="probe sample count")
    p_probe.set_defaults(func=cmd_probe)

    p_bench = sub.add_parser("bench", help="compare variants on one config")
    common(p_bench)
    p_bench.add_argument(
        "--variants",
        default="local_sgda,momentum_local_sgda,fgda,adafgda_adam",
        help="comma-separated variant list",
    )
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        rest, overrides = _split_overrides(list(argv))
        args = parser.parse_args(rest)
        return args.func(args, overrides)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
