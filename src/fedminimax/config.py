"""Run configuration: INI-style text with [problem], [algorithm] and
[output] sections, `key = value` lines and `#` comments.

Parsing is strict: unknown sections or keys, duplicate keys and type
mismatches are errors. parse -> render -> parse is the identity.

Every section is derived from a dataclass: the [algorithm] and [output]
keys, their types and their defaults are the fields of HyperParams and
OutputConfig, and the [problem] keys of each family are the fields of its
problem class (SyntheticProblem, AucProblem, RobustProblem).
ALGORITHM_SCHEMA, OUTPUT_SCHEMA and PROBLEM_SCHEMAS are built from them.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

from .algorithms import VARIANTS, HyperParams
from .federation import SCHEMES
from .problems import PROBLEMS, ProblemInstance


class ConfigError(ValueError):
    pass


@dataclass
class ProblemConfig:
    name: str
    params: dict = field(default_factory=dict)


@dataclass
class OutputConfig:
    csv_dir: str = "out"
    seeds: tuple[int, ...] = (1,)
    heavy_cadence: int = 1


# Config type tag of each field annotation (a string, as annotations are
# postponed); a field of any other type fails here, at import.
_TAGS = {
    "int": "int",
    "float": "float",
    "str": "str",
    "bool": "bool",
    "int | None": "opt_int",
    "float | None": "opt_float",
    "tuple[int, ...]": "int_list",
}

# Config keys that differ from their field name.
_KEY_TO_FIELD = {"lambda": "lam", "t": "T", "k": "K"}
_FIELD_TO_KEY = {f: k for k, f in _KEY_TO_FIELD.items()}


def _schema(cls, skip: tuple[str, ...] = ()) -> dict:
    """key -> (type tag, default) for the fields of a config dataclass;
    "opt_int"/"opt_float" admit the literal none."""
    return {_FIELD_TO_KEY.get(f.name, f.name): (_TAGS[f.type], f.default) for f in fields(cls) if f.name not in skip}


# The seed is set per run from [output] seeds.
ALGORITHM_SCHEMA = _schema(HyperParams, skip=("seed",))
OUTPUT_SCHEMA = _schema(OutputConfig)
# A problem's seed is required by its constructor; in config it defaults
# to none, the run seed. center_b is a test-only switch, not a key.
PROBLEM_SCHEMAS = {
    name: {**_schema(cls, skip=("seed", "center_b")), "seed": ("opt_int", None)} for name, cls in PROBLEMS.items()
}


@dataclass
class RunConfig:
    problem: ProblemConfig
    algorithm: HyperParams
    output: OutputConfig

    def hp_for_seed(self, seed: int) -> HyperParams:
        return replace(self.algorithm, seed=seed)

    def build_problem(self, run_seed: int) -> ProblemInstance:
        params = {_KEY_TO_FIELD.get(key, key): val for key, val in self.problem.params.items()}
        if params["seed"] is None:
            params["seed"] = run_seed
        return PROBLEMS[self.problem.name](**params)


def _convert(raw: str, kind: str, key: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "opt_int":
            return None if raw.lower() == "none" else int(raw)
        if kind == "opt_float":
            return None if raw.lower() == "none" else float(raw)
        if kind == "int_list":
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}") from exc
    raise ConfigError(f"unknown type tag {kind}")


def _read_section(raw: dict, section: str, schema: dict) -> dict:
    """Typed values of every schema key, defaults filled; raw is consumed
    and any key left in it is an error."""
    vals = {
        key: _convert(raw.pop(key), kind, f"{section}.{key}") if key in raw else default
        for key, (kind, default) in schema.items()
    }
    if raw:
        raise ConfigError(f"unknown {section} keys: {sorted(raw)}")
    return vals


def _render_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def parse_config(text: str) -> RunConfig:
    """Parse config text into a typed RunConfig with defaults filled."""
    parser = configparser.ConfigParser(
        strict=True, interpolation=None, delimiters=("=",), comment_prefixes=("#",)
    )
    try:
        parser.read_string(text)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"duplicate key {exc.option!r} at line {exc.lineno}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    known = {"problem", "algorithm", "output"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    return _read_config({section: dict(parser[section]) for section in parser.sections()})


def _read_config(raw: dict[str, dict[str, str]]) -> RunConfig:
    """The typed RunConfig of the raw `key = value` strings of each section,
    keys lower-cased and values stripped, as the parser reads them; raw is
    consumed."""
    if "problem" not in raw:
        raise ConfigError("missing [problem] section")
    prob_raw = raw["problem"]
    name = prob_raw.pop("name", None)
    if name is None:
        raise ConfigError("[problem] must set name")
    if name not in PROBLEM_SCHEMAS:
        raise ConfigError(f"unknown problem {name!r}; expected one of {sorted(PROBLEM_SCHEMAS)}")
    params = _read_section(prob_raw, "problem", PROBLEM_SCHEMAS[name])
    if "scheme" in params and params["scheme"] not in SCHEMES:
        raise ConfigError(f"problem.scheme must be one of {SCHEMES}")

    algo = _read_section(raw.get("algorithm", {}), "algorithm", ALGORITHM_SCHEMA)
    if algo["variant"] not in VARIANTS:
        raise ConfigError(f"algorithm.variant must be one of {VARIANTS}")
    try:
        hp = HyperParams(**{_KEY_TO_FIELD.get(key, key): val for key, val in algo.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out = _read_section(raw.get("output", {}), "output", OUTPUT_SCHEMA)
    if not out["seeds"]:
        raise ConfigError("output.seeds must list at least one seed")
    if out["heavy_cadence"] < 0:
        raise ConfigError(f"output.heavy_cadence must be >= 0 (0 turns heavy metrics off), got {out['heavy_cadence']}")

    return RunConfig(ProblemConfig(name, params), hp, OutputConfig(**out))


def _rendered(cfg: RunConfig) -> dict[str, dict[str, str]]:
    """Every key of cfg and its rendered value, per section in order."""
    name, params = cfg.problem.name, cfg.problem.params
    sections = {"problem": {"name": name, **{key: _render_value(params[key]) for key in PROBLEM_SCHEMAS[name]}}}
    for section, schema, values in (
        ("algorithm", ALGORITHM_SCHEMA, cfg.algorithm),
        ("output", OUTPUT_SCHEMA, cfg.output),
    ):
        sections[section] = {key: _render_value(getattr(values, _KEY_TO_FIELD.get(key, key))) for key in schema}
    return sections


def render_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(render(cfg)) == cfg."""
    return "\n".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in kv.items())
        for section, kv in _rendered(cfg).items()
    )


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Apply dotted-path overrides like {"algorithm.gamma": "0.05"}: each
    replaces its key's rendered value, key lower-cased and value stripped as
    the parser reads them, and the result is read as parse_config reads a
    text, without rendering one."""
    raw = _rendered(cfg)
    paths = []
    for path, value in overrides.items():
        if "." not in path:
            raise ConfigError(f"override {path!r} must look like section.key")
        section, key = path.split(".", 1)
        if section not in raw:
            raise ConfigError(f"unknown override section {section!r}")
        paths.append((section, key.lower(), value))
    if any(section == "problem" and key == "name" for section, key, _ in paths):
        raise ConfigError("problem.name cannot be overridden")
    for section, key, value in paths:
        raw[section][key] = value.strip()
    return _read_config(raw)
