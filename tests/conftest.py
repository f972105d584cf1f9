import numpy as np
import pytest

from casimir_mto.materials import DrudeOnly, DrudeParams, PerfectConductor


@pytest.fixture(scope="session")
def gold_drude():
    return DrudeOnly(DrudeParams(9.0, 0.035))


@pytest.fixture(scope="session")
def copper_drude():
    return DrudeOnly(DrudeParams(8.9, 0.030))


@pytest.fixture(scope="session")
def ideal():
    return PerfectConductor()


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
