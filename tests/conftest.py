"""Shared fixtures: the expensive series and grids, built once per session.

Hypothesis runs derandomized and without deadlines, so every property test
sees the same examples on every run and cannot fail on a slow machine.
"""
import pytest
from hypothesis import settings

from shallowwell.perturbation import energy_series
from shallowwell.potential import Potential
from shallowwell.quadrature import default_grid

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def gaussian_unit():
    return Potential("gaussian", 1.0)


@pytest.fixture(scope="session")
def gaussian_grid(gaussian_unit):
    return default_grid(gaussian_unit)


@pytest.fixture(scope="session")
def es_gaussian(gaussian_unit):
    return energy_series(gaussian_unit, order=6)


@pytest.fixture(scope="session")
def es_square_well():
    return energy_series(Potential("square_well", 1.0, a=1.0), order=6)


@pytest.fixture(scope="session")
def es_poschl_teller():
    return energy_series(Potential("poschl_teller", 1.0), order=6)
