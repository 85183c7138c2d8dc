import numpy as np
import pytest

from guiflux.geometry import BBox
from guiflux.policy import GroundingPolicy
from guiflux.simulator import TaskSpec


def random_bbox(rng: np.random.Generator) -> BBox:
    x1, x2 = sorted(rng.random(2))
    y1, y2 = sorted(rng.random(2))
    return BBox(x1, y1, x2, y2)


def oracle_policy(task: TaskSpec) -> GroundingPolicy:
    """Analytic inverse of a task's observation transform, as a batch of one.

    The observation's first two components are M @ logit-center + offset and
    the next two are M @ log-size, so the exact raw action is recovered by
    applying M^-1 and subtracting the mapped offset; the one-hot and kind
    features get zero weight.
    """
    m_inv = np.linalg.inv(np.asarray(task.matrix))
    W = np.zeros((task.state_dim, 4))
    W[0:2, 0:2] = m_inv.T
    W[2:4, 2:4] = m_inv.T
    b = np.zeros(4)
    b[0:2] = -m_inv @ np.asarray(task.offset)
    return GroundingPolicy(W[None], b[None], np.full((1, 4), -6.0))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
