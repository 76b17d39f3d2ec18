import os

import numpy as np
import pytest

from latentedit.codec import CodecConfig
from latentedit.grid import LatentGrid, RngStream
from latentedit.sampler import SamplerConfig
from latentedit.schedule import build_schedule

# pyproject's pytest `pythonpath` puts src/ on this process's import path
# only; tests that run `python -m latentedit.cli` need it in PYTHONPATH.
_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


class StubRng:
    """Rng stand-in returning a fixed value for every normal draw."""

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def normal(self, shape=()):
        if shape == ():
            return self.value
        return np.full(shape, self.value)

    def uniform(self, shape=()):
        if shape == ():
            return 0.5
        return np.full(shape, 0.5)

    def spawn(self, *path):
        return StubRng(self.value)


@pytest.fixture
def sched200():
    return build_schedule("linear", 200, 1e-4, 0.02)


@pytest.fixture
def sched50():
    return build_schedule("linear", 50, 1e-3, 0.08)


@pytest.fixture
def sampler_cfg():
    return SamplerConfig()


@pytest.fixture
def codec_cfg():
    return CodecConfig()


@pytest.fixture
def rng():
    return RngStream(20240)


@pytest.fixture
def small_grid(rng):
    return LatentGrid(rng.normal((4, 4, 2)))
