"""One structured configuration document for the whole pipeline.

A scenario config aggregates every tunable: sampling/batching, discovery
parameters, transfer-entropy filter settings, risk-proxy parameters, the
social-force model, the robot path, run duration and seed. Configs load from
JSON; missing sections fall back to defaults and CLI flags override fields.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .collector import CollectorConfig
from .discovery import DiscoveryParams
from .postprocess import POSTPROCESSORS, RiskParams
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
    if config.collector.postprocessor not in POSTPROCESSORS:
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


_SECTIONS = {
    "collector": CollectorConfig,
    "te": TEParams,
    "risk": RiskParams,
    "sfm": SFMParams,
}


def config_from_dict(payload: dict) -> ScenarioConfig:
    """Build a config from a plain dict, aggregating every section's errors."""
    problems: list[str] = []
    known = set(_SECTIONS) | {"discovery", "robot_path", "duration", "seed", "output_dir"}
    for key in payload:
        if key not in known:
            problems.append(f"unknown config section {key!r}")
    kwargs: dict = {}
    for section, cls in _SECTIONS.items():
        if section not in payload:
            continue
        try:
            kwargs[section] = cls(**payload[section])
        except (TypeError, ValueError) as exc:
            problems.append(f"{section}: {exc}")
    if "discovery" in payload:
        try:
            disc = dict(payload["discovery"])
            if "kridge" in disc:
                disc["kridge"] = KernelRegParams(**disc["kridge"])
            kwargs["discovery"] = DiscoveryParams(**disc)
        except (TypeError, ValueError) as exc:
            problems.append(f"discovery: {exc}")
    if "robot_path" in payload:
        try:
            rp = dict(payload["robot_path"])
            rp["waypoints"] = tuple(tuple(w) for w in rp.get("waypoints", ()))
            kwargs["robot_path"] = RobotPath(**rp)
        except (TypeError, ValueError) as exc:
            problems.append(f"robot_path: {exc}")
    for scalar in ("duration", "seed", "output_dir"):
        if scalar in payload:
            kwargs[scalar] = payload[scalar]
    if problems:
        raise ConfigError(problems)
    config = ScenarioConfig(**kwargs)
    problems = validate(config)
    if problems:
        raise ConfigError(problems)
    return config


def read_json_file(path: str | Path, what: str):
    """The parsed JSON of `path`; a ConfigError names it as `what` when the
    file is missing or not valid JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError([f"{what} not found: {path}"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{what} {path} is not valid JSON: {exc}"]) from None


def load_config(path: str | Path) -> ScenarioConfig:
    return config_from_dict(read_json_file(path, "config file"))
