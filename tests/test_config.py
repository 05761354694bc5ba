import json
import re
from pathlib import Path

from causalpipe.config import config_from_dict, config_to_dict, default_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_config() -> dict:
    section = README.read_text(encoding="utf-8").split("## Config file", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL)
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
