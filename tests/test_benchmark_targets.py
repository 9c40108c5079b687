"""Every name the benchmark traces must resolve on the package.

``perfbench/tracer.py`` wraps each (module, attribute path) of its
``TARGETS`` list; one that no longer resolves breaks every traced run. The
list is read from that file as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_targets_listed():
    assert len(tracer_targets()) > 0


@pytest.mark.parametrize("name, module, path",
                         [target[:3] for target in tracer_targets()])
def test_target_resolves(name, module, path):
    owner = importlib.import_module(f"uncmap.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"{name}: uncmap.{module} has no {path}"
        owner = getattr(owner, part)
    assert callable(owner)
