import argparse
import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from causalpipe import cli
from causalpipe.cli import BENCH_METHODS
from causalpipe.collector import CollectorConfig
from causalpipe.config import (ConfigError, ScenarioConfig, config_from_dict,
                               config_to_dict, default_config, load_config)
from causalpipe.discovery import DiscoveryParams
from causalpipe.postprocess import RiskParams
from causalpipe.scm_bench import Edge, SCMSpec
from causalpipe.sim import RobotPath, SFMParams
from causalpipe.stats import KernelRegParams, TEParams

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_config() -> dict:
    block = re.search(r"```json\n(.*?)```", _readme_section("Config file"), re.DOTALL)
    assert block, "README's Config file section has no JSON block"
    return json.loads(block.group(1))


def _key_paths(payload: dict, prefix: str = "") -> set[str]:
    keys = set()
    for key, value in payload.items():
        keys.add(prefix + key)
        if isinstance(value, dict):
            keys |= _key_paths(value, f"{prefix}{key}.")
    return keys


def test_readme_config_matches_the_code():
    documented = _readme_config()
    config = config_from_dict(documented)
    assert _key_paths(documented) == _key_paths(config_to_dict(default_config()))
    # "defaults shown": the documented values are the defaults
    assert config_to_dict(config) == config_to_dict(default_config())
    # and the document the code writes for the defaults is the documented one
    assert config_to_dict(default_config()) == documented


def test_readme_cli_lists_every_option():
    cli_section = _readme_section("CLI")
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    missing = {(name, option) for name, command in commands.items()
               for action in command._actions if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings
               if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", cli_section)}
    assert not missing, f"options missing from README's CLI section: {sorted(missing)}"


# --- configs never crash -------------------------------------------------------

# Keys the parsers know, so that drawn objects reach into sections and fields.
KNOWN_KEYS = sorted(
    {f.name for cls in (ScenarioConfig, CollectorConfig, DiscoveryParams, KernelRegParams,
                        TEParams, RiskParams, SFMParams, RobotPath, SCMSpec, Edge)
     for f in dataclasses.fields(cls)}
    | {"specs", "methods", "seeds"})

# Integers stay below the sizes whose allocation a parser would attempt (a
# bench spec's n_vars sizes a tuple), except for values past any index size.
json_values = st.recursive(
    st.none() | st.booleans() | st.floats()
    | st.integers(min_value=-10**6, max_value=10**6)
    | st.sampled_from([2**63, 10**400, -10**400])
    | st.text(max_size=8) | st.sampled_from([*BENCH_METHODS, "linear", "hri_basic"]),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(KNOWN_KEYS) | st.text(max_size=8),
                                        children, max_size=5)),
    max_leaves=24)


def object_of(cls):
    """JSON objects keyed by the fields of a dataclass."""
    names = [f.name for f in dataclasses.fields(cls)]
    return st.dictionaries(st.sampled_from(names), json_values, max_size=4)


# Documents shaped like a scenario config or a bench config, with arbitrary
# values in their fields; a document with one key reaches the checks that run
# only when every other key is valid.
CONFIG_KEYS = {
    "collector": object_of(CollectorConfig), "discovery": object_of(DiscoveryParams),
    "te": object_of(TEParams), "risk": object_of(RiskParams), "sfm": object_of(SFMParams),
    "robot_path": object_of(RobotPath), "duration": json_values, "seed": json_values,
    "output_dir": json_values}
BENCH_KEYS = {
    "specs": st.lists(object_of(SCMSpec), max_size=3), "methods": json_values,
    "seeds": json_values, "seed": json_values, "discovery": object_of(DiscoveryParams)}
shaped = st.one_of([st.fixed_dictionaries({}, optional=keys) for keys in (CONFIG_KEYS, BENCH_KEYS)]
                   + [values.map(lambda v, key=key: {key: v})
                      for keys in (CONFIG_KEYS, BENCH_KEYS) for key, values in keys.items()])


@settings(max_examples=400, deadline=None)
@given(payload=json_values | shaped)
def test_config_parsers_return_or_raise_config_error(payload):
    parsers = (config_from_dict, load_config,
               lambda path: cli._parse_bench_config(path, None))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        for parse, arg in zip(parsers, (payload, path, path)):
            try:
                parse(arg)
            except ConfigError:
                pass


@pytest.mark.parametrize("payload, problem", [
    ({"collector": [1]}, "collector must be a JSON object, got an array"),
    ({"discovery": {"kridge": 5}}, "kridge must be a JSON object"),
    ({"discovery": {"kridge": {"ridge": "x"}}}, "discovery:"),
    ({"robot_path": {"waypoints": [[10**400, 0.0], [1.0, 1.0]]}}, "robot_path:"),
    ({"collector": {"postprocessor": [1]}},
     "collector: postprocessor must be a string, got an array"),
    ({"duration": "150"}, "duration must be a finite number, got a string"),
    ({"duration": float("nan")}, "duration must be a finite number"),
    ({"seed": True}, "seed must be an integer, got a boolean"),
    ({"seed": 1.5}, "seed must be an integer, got the number 1.5"),
    ({"output_dir": 5}, "output_dir must be a string"),
    ({"collector": {"postprocessor": "bogus"}}, "unknown postprocessor 'bogus'"),
    ({"robot_path": {"loop": True}}, "robot_path: unknown field 'loop'"),
    ({"collector": {"dt": True}}, "collector: dt must be a finite number, got a boolean"),
    ({"discovery": {"kridge": {"ridge": True}}},
     "discovery: ridge must be a finite number, got a boolean"),
    ({"sfm": {"noise_accel": True}}, "sfm: noise_accel must be a finite number, got a boolean"),
    ({"robot_path": {"cruise_speed": 1e400}},
     "robot_path: cruise_speed must be a finite number, got the number inf"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
])
def test_bad_config_is_a_config_error(payload, problem):
    with pytest.raises(ConfigError) as info:
        config_from_dict(payload)
    assert any(problem in p for p in info.value.problems), info.value.problems


# Integer fields with a float and a boolean: each must be a ConfigError that
# names the field.
INTEGER_FIELD_CASES = [
    ({"discovery": {"tau_min": 1.0}}, "tau_min", "the number 1.0"),
    ({"discovery": {"tau_max": 1.5}}, "tau_max", "the number 1.5"),
    ({"discovery": {"tau_max": True}}, "tau_max", "a boolean"),
    ({"discovery": {"max_conditions": 3.0}}, "max_conditions", "the number 3.0"),
    ({"discovery": {"max_conditions": False}}, "max_conditions", "a boolean"),
    ({"discovery": {"kridge": {"permutations": 200.0}}}, "permutations", "the number 200.0"),
    ({"te": {"k": 1.0}}, "k", "the number 1.0"),
    ({"te": {"bins": 8.5}}, "bins", "the number 8.5"),
    ({"te": {"bins": True}}, "bins", "a boolean"),
    ({"te": {"shuffles": 100.0}}, "shuffles", "the number 100.0"),
    ({"discovery": {"seed": 2.5}}, "seed", "the number 2.5"),
]


@pytest.mark.parametrize("payload, field, kind", INTEGER_FIELD_CASES)
def test_integer_field_rejects_floats_and_booleans(payload, field, kind):
    with pytest.raises(ConfigError) as info:
        config_from_dict(payload)
    section = next(iter(payload))
    assert info.value.problems == [f"{section}: {field} must be an integer, got {kind}"]


def test_integer_fields_accept_json_integers():
    config = config_from_dict({"discovery": {"tau_max": 2, "max_conditions": 0,
                                             "kridge": {"permutations": 60}},
                               "te": {"k": 2, "bins": 4, "shuffles": 10}})
    assert (config.discovery.tau_max, config.discovery.max_conditions) == (2, 0)
    assert config.discovery.kridge.permutations == 60
    assert config.te == TEParams(k=2, bins=4, shuffles=10)


def test_robot_path_section_without_waypoints_keeps_the_default_path():
    config = config_from_dict({"robot_path": {"cruise_speed": 0.8}})
    assert config.robot_path == RobotPath(cruise_speed=0.8)


def load_run_config(tmp_path, document, *flags):
    """`cli._load_config` for `run *flags`, with `document` as --config if
    it is not None."""
    argv = ["run", *flags]
    if document is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        argv += ["--config", str(path)]
    return cli._load_config(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("document", [None, _readme_config()], ids=["default", "readme"])
def test_alpha_flag_also_sets_pc_alpha_left_null(tmp_path, document):
    discovery = load_run_config(tmp_path, document, "--alpha", "0.01").discovery
    assert (discovery.alpha, discovery.pc_alpha) == (0.01, 0.01)


def test_alpha_flag_keeps_a_pc_alpha_the_document_sets(tmp_path):
    document = {"discovery": {"alpha": 0.1, "pc_alpha": 0.2}}
    discovery = load_run_config(tmp_path, document, "--alpha", "0.01").discovery
    assert (discovery.alpha, discovery.pc_alpha) == (0.01, 0.2)


@pytest.mark.parametrize("document,alpha", [({"discovery": {"alpha": 0.01}}, 0.01),
                                            ({"seed": 3}, 0.05)],
                         ids=["partial-discovery", "no-discovery"])
def test_partial_config_keeps_the_shipped_method_and_test(tmp_path, document, alpha):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for config in (load_config(path), load_run_config(tmp_path, document)):
        discovery = config.discovery
        assert (discovery.method, discovery.ci_test) == ("fpcmci", "kridge_dcor")
        assert (discovery.alpha, discovery.pc_alpha) == (alpha, alpha)


def test_flags_not_given_add_no_section():
    document = {"seed": 3}
    cli._write_flags(document, {"seed": None, "discovery": {"alpha": None},
                                "collector": {"dt": 0.5, "batch_seconds": None}})
    assert document == {"seed": 3, "collector": {"dt": 0.5}}


def test_config_echo_writes_pc_alpha_null_only_when_it_follows_alpha():
    config = default_config()
    assert config_to_dict(config)["discovery"]["pc_alpha"] is None
    config.discovery = dataclasses.replace(config.discovery, pc_alpha=0.2)
    assert config_to_dict(config)["discovery"]["pc_alpha"] == 0.2
    assert config_from_dict(config_to_dict(config)) == config


@pytest.mark.parametrize("document,pool_dir", [
    ({"output_dir": "x"}, "x/pool"),
    ({"output_dir": "x", "collector": {"dt": 0.5}}, "x/pool"),
    ({"output_dir": "x", "collector": {"pool_dir": "elsewhere"}}, "elsewhere"),
    ({}, "out/pool"),
])
def test_pool_follows_output_dir_unless_placed(tmp_path, document, pool_dir):
    assert config_from_dict(document).collector.pool_dir == Path(pool_dir)
    assert load_run_config(tmp_path, document).collector.pool_dir == Path(pool_dir)
    # --out places both, over whatever the document says
    config = load_run_config(tmp_path, document, "--out", "y")
    assert (config.output_dir, config.collector.pool_dir) == (Path("y"), Path("y/pool"))


@pytest.mark.parametrize("document,seed", [
    ({"seed": 7}, 7),
    ({"seed": 7, "discovery": {"alpha": 0.1}}, 7),
    ({"seed": 7, "discovery": {"seed": 3}}, 3),
    ({}, 0),
])
def test_discovery_seed_follows_seed_unless_set(tmp_path, document, seed):
    assert config_from_dict(document).discovery.seed == seed
    assert load_run_config(tmp_path, document).discovery.seed == seed
    # --seed sets both, over whatever the document says
    config = load_run_config(tmp_path, document, "--seed", "9")
    assert (config.seed, config.discovery.seed) == (9, 9)


def test_unreadable_config_file_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"seed": "\xe9"}')
    with pytest.raises(ConfigError, match="is not valid JSON"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot be read"):
        load_config(tmp_path)


# Each run flag that takes a number -> the config field it sets.
NUMBER_FLAGS = {"--alpha": ("discovery", "alpha"), "--tau-min": ("discovery", "tau_min"),
                "--tau-max": ("discovery", "tau_max"), "--dt": ("collector", "dt"),
                "--batch-seconds": ("collector", "batch_seconds"), "--duration": ("duration",)}
INTEGER_FLAGS = {"--tau-min", "--tau-max"}
numbers = (st.integers() | st.integers(min_value=-10**400, max_value=10**400)
           | st.floats() | st.sampled_from([0, 1, 2, 150, 0.05, 0.3, -0.0]))


@settings(max_examples=300, deadline=None)
@given(flags=st.dictionaries(st.sampled_from(sorted(NUMBER_FLAGS)), numbers, min_size=1))
def test_run_flags_return_a_config_or_raise_config_error(flags):
    argv = ["run"]
    for flag, value in flags.items():
        if flag in INTEGER_FLAGS and not (isinstance(value, int) or math.isfinite(value)):
            value = 1
        argv.append(f"{flag}={int(value) if flag in INTEGER_FLAGS else value!r}")
    args = cli.build_parser().parse_args(argv)
    try:
        config = cli._load_config(args)
    except ConfigError:
        return
    for flag in flags:  # a flag that passes lands on its field unchanged
        value = config_to_dict(config)
        for key in NUMBER_FLAGS[flag]:
            value = value[key]
        assert value == getattr(args, flag[2:].replace("-", "_"))
