"""One structured configuration document for the whole pipeline.

A scenario config aggregates every tunable: sampling/batching, discovery
parameters, transfer-entropy filter settings, risk-proxy parameters, the
social-force model, the robot path, run duration and seed. Configs load from
JSON; missing sections fall back to defaults and CLI flags override fields.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .collector import CollectorConfig
from .discovery import DiscoveryParams
from .postprocess import POSTPROCESSORS, RiskParams
from .scm_bench import Edge, SCMSpec
from .sim import RobotPath, SFMParams
from .stats import KernelRegParams, TEParams


class ConfigError(ValueError):
    """Aggregated validation report; one line per problem."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in problems))


@dataclass
class ScenarioConfig:
    collector: CollectorConfig = field(default_factory=CollectorConfig)
    discovery: DiscoveryParams = field(
        default_factory=lambda: DiscoveryParams(ci_test="kridge_dcor", method="fpcmci"))
    te: TEParams = field(default_factory=TEParams)
    risk: RiskParams = field(default_factory=RiskParams)
    sfm: SFMParams = field(default_factory=SFMParams)
    robot_path: RobotPath = field(default_factory=RobotPath)
    duration: float = 150.0
    seed: int = 0
    output_dir: Path = Path("out")

    def __post_init__(self) -> None:
        self.output_dir = Path(self.output_dir)


def default_config(output_dir: str | Path = "out", seed: int = 0) -> ScenarioConfig:
    output_dir = Path(output_dir)
    cfg = ScenarioConfig(seed=seed, output_dir=output_dir)
    cfg.collector = dataclasses.replace(cfg.collector, pool_dir=output_dir / "pool")
    cfg.discovery = dataclasses.replace(cfg.discovery, seed=seed)
    return cfg


def validate(config: ScenarioConfig) -> list[str]:
    """Cross-field checks; nested invariants were enforced at construction."""
    problems = []
    if config.duration < config.collector.batch_seconds:
        problems.append(
            f"duration ({config.duration}s) must be >= collector.batch_seconds "
            f"({config.collector.batch_seconds}s)"
        )
    if not (isinstance(config.collector.postprocessor, str)
            and config.collector.postprocessor in POSTPROCESSORS):
        problems.append(
            f"unknown postprocessor {config.collector.postprocessor!r}; "
            f"registered: {sorted(POSTPROCESSORS)}"
        )
    return problems


def config_to_dict(config: ScenarioConfig) -> dict:
    payload = dataclasses.asdict(config)
    payload["collector"]["pool_dir"] = str(config.collector.pool_dir)
    payload["output_dir"] = str(config.output_dir)
    payload["robot_path"]["waypoints"] = [list(w) for w in config.robot_path.waypoints]
    return payload


# What a dataclass raises on a field of the wrong type or value; OverflowError
# comes from float() of an integer too large for a double.
PARSE_ERRORS = (TypeError, ValueError, OverflowError)


def json_kind(value) -> str:
    """The JSON name of a parsed value's type, for error messages."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return f"the number {value!r}"
    if isinstance(value, str):
        return "a string"
    return "an array" if isinstance(value, list) else "an object"


def is_integer(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


# Integer fields that their dataclass checks by comparison only: a float or a
# boolean would pass it and fail later, in the middle of an analysis.
_INTEGER_FIELDS = {
    DiscoveryParams: ("tau_min", "tau_max", "max_conditions"),
    TEParams: ("k", "bins", "shuffles"),
    KernelRegParams: ("permutations",),
    SCMSpec: ("n_vars", "n_samples"),
    Edge: ("source", "target", "lag"),
}


def from_json(cls, /, *values, **fields):
    """cls(*values, **fields) from a JSON array's values or a JSON object's
    fields; an integer field holding anything but a JSON integer is a
    TypeError that names the field."""
    given = dict(zip((f.name for f in dataclasses.fields(cls)), values)) | fields
    for name in _INTEGER_FIELDS.get(cls, ()):
        if name in given and not is_integer(given[name]):
            raise TypeError(f"{name} must be an integer, got {json_kind(given[name])}")
    return cls(*values, **fields)


def discovery_params(**fields) -> DiscoveryParams:
    """DiscoveryParams from a JSON object's fields, with a nested `kridge` object."""
    if "kridge" in fields:
        if not isinstance(fields["kridge"], dict):
            raise TypeError(f"kridge must be a JSON object, got {json_kind(fields['kridge'])}")
        fields["kridge"] = from_json(KernelRegParams, **fields["kridge"])
    return from_json(DiscoveryParams, **fields)


def _robot_path(**fields) -> RobotPath:
    if "waypoints" in fields:
        fields["waypoints"] = tuple(tuple(w) for w in fields["waypoints"])
    return RobotPath(**fields)


# Config section -> what builds it from the section's JSON object.
_SECTIONS = {
    "collector": CollectorConfig,
    "discovery": discovery_params,
    "te": lambda **fields: from_json(TEParams, **fields),
    "risk": RiskParams,
    "sfm": SFMParams,
    "robot_path": _robot_path,
}

# Top-level scalar -> (whether a JSON value is acceptable, what it must be).
_SCALARS = {
    "duration": (lambda v: is_integer(v) or (isinstance(v, float) and math.isfinite(v)),
                 "a finite number"),
    "seed": (is_integer, "an integer"),
    "output_dir": (lambda v: isinstance(v, str), "a string"),
}


def config_from_dict(payload, what: str = "config") -> ScenarioConfig:
    """Build a config from parsed JSON, aggregating every section's errors;
    `what` names the document in the error when it is not a JSON object."""
    if not isinstance(payload, dict):
        raise ConfigError([f"{what} must be a JSON object, got {json_kind(payload)}"])
    problems = [f"unknown config section {key!r}" for key in payload
                if key not in _SECTIONS and key not in _SCALARS]
    kwargs: dict = {}
    for section, build in _SECTIONS.items():
        if section not in payload:
            continue
        fields = payload[section]
        if not isinstance(fields, dict):
            problems.append(f"{section} must be a JSON object, got {json_kind(fields)}")
            continue
        try:
            kwargs[section] = build(**fields)
        except PARSE_ERRORS as exc:
            problems.append(f"{section}: {exc}")
    for name, (accepts, kind) in _SCALARS.items():
        if name not in payload:
            continue
        if accepts(payload[name]):
            kwargs[name] = payload[name]
        else:
            problems.append(f"{name} must be {kind}, got {json_kind(payload[name])}")
    if problems:
        raise ConfigError(problems)
    config = ScenarioConfig(**kwargs)
    problems = validate(config)
    if problems:
        raise ConfigError(problems)
    return config


def read_json_file(path: str | Path, what: str):
    """The parsed JSON of `path`; a ConfigError names it as `what` when the
    file cannot be read or is not valid JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError([f"{what} not found: {path}"]) from None
    except OSError as exc:
        raise ConfigError([f"{what} {path} cannot be read: {exc}"]) from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError([f"{what} {path} is not valid JSON: {exc}"]) from None


def load_config(path: str | Path) -> ScenarioConfig:
    return config_from_dict(read_json_file(path, "config file"), f"config file {path}")
