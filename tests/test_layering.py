"""Importing one layer loads that layer and the layers below it, and no
other kimap module: the package re-exports nothing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kimap

SRC = Path(kimap.__file__).resolve().parents[1]

LOADS = {
    "bits": {"bits"},
    "protocol": {"bits", "protocol"},
    "channel": {"bits", "protocol", "channel"},
    "storage": {"bits", "protocol", "storage"},
    "costs": {"bits", "protocol", "costs"},
    "games": {"bits", "protocol", "channel", "games"},
    "cli": {"bits", "protocol", "channel", "storage", "costs", "games", "cli"},
}


@pytest.mark.parametrize("module", list(LOADS))
def test_importing_a_layer_loads_only_the_layers_below(module):
    code = (f"import sys, kimap.{module}\n"
            "print(' '.join(m[6:] for m in sys.modules if m.startswith('kimap.')))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert set(out.split()) == LOADS[module]
