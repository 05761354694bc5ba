"""One structured configuration document for the whole pipeline.

A scenario config aggregates every tunable: sampling/batching, discovery
parameters, transfer-entropy filter settings, risk-proxy parameters, the
social-force model, the robot path, run duration and seed. Configs load from
JSON through from_json, which checks each value against its field's
annotation. A field the document leaves out, in a section it names or not,
keeps the default config's value, and a document that does not place
`collector.pool_dir` pools under `<output_dir>/pool`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .collector import CollectorConfig
from .discovery import DiscoveryParams
from .postprocess import POSTPROCESSORS, RiskParams
from .sim import RobotPath, SFMParams
from .stats import TEParams


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
    if config.seed < 0:
        problems.append(f"seed must be >= 0, got {config.seed}")
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
    """The config as a JSON document that config_from_dict reads back.

    A `pc_alpha` equal to `alpha` is written as null, as the parser takes
    it, so a document built from the default config lets `alpha` set both.
    """
    payload = dataclasses.asdict(config)
    if config.discovery.pc_alpha == config.discovery.alpha:
        payload["discovery"]["pc_alpha"] = None
    payload["collector"]["pool_dir"] = str(config.collector.pool_dir)
    payload["output_dir"] = str(config.output_dir)
    payload["robot_path"]["waypoints"] = [list(w) for w in config.robot_path.waypoints]
    return payload


# What from_json raises on a value of the wrong JSON type, and a dataclass on
# a field of the wrong value; OverflowError comes from an integer too large
# to be a size.
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


def _is_finite_number(value) -> bool:
    """A JSON number a double holds: not a boolean, nan, ±inf or an integer
    past the double range."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


# Annotated leaf type -> (whether a parsed JSON value is one, what it must be).
_LEAVES = {
    int: (is_integer, "an integer"),
    float: (_is_finite_number, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    str: (lambda v: isinstance(v, str), "a string"),
    Path: (lambda v: isinstance(v, str), "a string"),
    type(None): (lambda v: v is None, "null"),
}


def _what(tp) -> str:
    if dataclasses.is_dataclass(tp):
        return "a JSON object"
    return "a JSON array" if typing.get_origin(tp) is tuple else _LEAVES[tp][1]


def from_json(tp, value, name: str, in_array: bool = False):
    """`value`, parsed JSON, as a value of the annotated type `tp`.

    A dataclass is built from an object, field by field as its annotations
    say, and `in_array` also from an array of its fields in order; a tuple
    from an array, `X | Y` from whichever of X and Y the value is. The value
    is checked, never converted: an integer in a float field stays an
    integer. A value of the wrong JSON type is a TypeError that names `name`,
    or the innermost field at fault; the dataclasses check ranges themselves.
    """
    arms = typing.get_args(tp) if isinstance(tp, types.UnionType) else (tp,)
    for arm in arms:
        if dataclasses.is_dataclass(arm) and (
                isinstance(value, dict) or in_array and isinstance(value, list)):
            hints = typing.get_type_hints(arm)
            if isinstance(value, list):
                if len(value) > len(hints):
                    raise TypeError(f"{name} must have at most {len(hints)} values, "
                                    f"got {len(value)}")
                value = dict(zip(hints, value))
            unknown = [key for key in value if key not in hints]
            if unknown:
                raise TypeError(f"unknown field {unknown[0]!r}")
            return arm(**{key: from_json(hints[key], v, key) for key, v in value.items()})
        if typing.get_origin(arm) is tuple and isinstance(value, list):
            args = typing.get_args(arm)
            args = args[:1] * len(value) if args[-1] is Ellipsis else args
            if len(args) != len(value):
                raise TypeError(f"{name} must be an array of {len(args)} values, "
                                f"got {len(value)}")
            return tuple(from_json(arg, v, f"{name}[{i}]", in_array=True)
                         for i, (arg, v) in enumerate(zip(args, value)))
        if arm in _LEAVES and _LEAVES[arm][0](value):
            return value
    raise TypeError(f"{name} must be {' or '.join(map(_what, arms))}, got {json_kind(value)}")


def fields_from_json(fields: dict[str, tuple]) -> tuple[dict, list[str]]:
    """Each `name: (type, value)` of `fields` built with from_json, and one
    problem per field that failed; a problem inside a JSON object is prefixed
    with the object's name."""
    built, problems = {}, []
    for name, (tp, value) in fields.items():
        try:
            built[name] = from_json(tp, value, name)
        except PARSE_ERRORS as exc:
            inside = dataclasses.is_dataclass(tp) and isinstance(value, dict)
            problems.append(f"{name}: {exc}" if inside else str(exc))
    return built, problems


def config_from_dict(payload, what: str = "config") -> ScenarioConfig:
    """Build a config from parsed JSON, aggregating every section's errors;
    `what` names the document in the error when it is not a JSON object."""
    if not isinstance(payload, dict):
        raise ConfigError([f"{what} must be a JSON object, got {json_kind(payload)}"])
    hints = typing.get_type_hints(ScenarioConfig)
    problems = [f"unknown config section {key!r}" for key in payload if key not in hints]
    # A section object is written over the default config's section, so the
    # fields it leaves out keep the default config's values, not those of
    # the section's own dataclass (DiscoveryParams() is pcmci + parcorr).
    default = config_to_dict(ScenarioConfig())
    fields, more = fields_from_json({
        key: (hints[key], {**default[key], **value}
              if isinstance(default[key], dict) and isinstance(value, dict) else value)
        for key, value in payload.items() if key in hints})
    problems += more
    if problems:
        raise ConfigError(problems)
    config = ScenarioConfig(**fields)
    if "pool_dir" not in payload.get("collector", {}):
        # as in default_config: the pool lives in the run's output directory
        config.collector = dataclasses.replace(config.collector,
                                               pool_dir=config.output_dir / "pool")
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
