import importlib
import pkgutil
from pathlib import Path

import pytest

import crackdyn

MODULES = ["crackdyn"] + [f"crackdyn.{m.name}"
                          for m in pkgutil.iter_modules(crackdyn.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_benchmark_probe_target_resolves(monkeypatch):
    # perfbench wraps these crackdyn attributes by name; a rename under
    # src/ would silently drop the per-layer metrics built on one
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    probes = importlib.import_module("probes")
    missing = [(module, path) for _, module, path, _ in probes.LAYER_TARGETS
               if probes.resolve(module, path) is None]
    assert missing == []
    # the end-to-end probes (set-up and solve timestamps) install too
    notes = []
    with probes.e2e_probes(probes.RunClock(), notes):
        pass
    assert notes == []
