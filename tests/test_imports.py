import pkgutil

import pytest

import causalpipe

from conftest import run_python

# Every module of the package; `python -m causalpipe` guards its entry point.
MODULES = sorted(f"causalpipe.{m.name}" for m in pkgutil.iter_modules(causalpipe.__path__))

# Builds the default config's pipeline objects, then a parcorr watcher, then
# runs one parcorr test, and prints which SciPy modules are loaded after each.
BUILD = """
import dataclasses, sys
from pathlib import Path
from causalpipe.bus import MessageBus
from causalpipe.collector import Collector
from causalpipe.config import default_config
from causalpipe.discovery import MODEL_TOPIC, CausalModel, PoolWatcher
from causalpipe.postprocess import resolve_postprocessor
from causalpipe.sim import Simulator
from causalpipe.state import HUMAN_TOPIC, ROBOT_TOPIC, AgentState
from causalpipe.stats import parcorr_test

def loaded():
    return [m in sys.modules for m in ('scipy.stats', 'scipy.special')]

cfg = default_config(sys.argv[1])
cfg.collector.pool_dir.mkdir(parents=True)
bus = MessageBus()
for topic, kind in ((ROBOT_TOPIC, AgentState), (HUMAN_TOPIC, AgentState),
                    (MODEL_TOPIC, CausalModel)):
    bus.create_topic(topic, kind)
Simulator(sfm=cfg.sfm, path=cfg.robot_path, seed=cfg.seed, bus=bus)
Collector(bus, cfg.collector, resolve_postprocessor(cfg.collector.postprocessor, cfg.risk))
PoolWatcher(cfg.collector.pool_dir, cfg.discovery, cfg.te, bus=bus)
print(cfg.discovery.ci_test, *loaded())
parcorr = dataclasses.replace(cfg.discovery, ci_test='parcorr', method='pcmci')
PoolWatcher(cfg.collector.pool_dir, parcorr, cfg.te, bus=bus)
print(parcorr.ci_test, *loaded())
parcorr_test([0.0, 1.0, 3.0, 2.0], [1.0, 0.0, 2.0, 4.0])
print('parcorr_test', *loaded())
"""


@pytest.fixture(scope="module")
def scipy_loaded(tmp_path_factory):
    """{step: (scipy.stats loaded, scipy.special loaded)} after building
    each watcher (the step is its CI test) and after the first parcorr test,
    in a fresh interpreter: this one has scipy loaded by other tests."""
    script = "\n".join(f"import {m}" for m in MODULES) + BUILD
    proc = run_python("-c", script, str(tmp_path_factory.mktemp("out")), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "causalpipe.stats" in MODULES and "causalpipe.cli" in MODULES
    rows = [line.split() for line in proc.stdout.splitlines()]
    return {step: tuple(flag == "True" for flag in flags) for step, *flags in rows}


def test_the_package_does_not_import_scipy_stats(scipy_loaded):
    assert scipy_loaded["kridge_dcor"][0] is False
    assert scipy_loaded["parcorr"][0] is False
    assert scipy_loaded["parcorr_test"][0] is False


def test_scipy_special_loads_on_the_first_parcorr_test(scipy_loaded):
    assert scipy_loaded["kridge_dcor"][1] is False
    assert scipy_loaded["parcorr"][1] is False
    assert scipy_loaded["parcorr_test"][1] is True
