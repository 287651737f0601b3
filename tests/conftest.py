"""Shared fixtures; the package memoizes heavy artifacts per configuration."""

import math

import numpy as np
import pytest

from clflats.geometry import space_config

SMALL_CONFIGS = (
    ("symplectic", 2, 1), ("symplectic", 3, 1),
    ("unitary", 4, 1), ("orthogonal", 3, 1), ("orthogonal", 5, 1),
)
MEDIUM_CONFIGS = SMALL_CONFIGS + (("symplectic", 2, 2), ("orthogonal", 3, 2))


@pytest.fixture(scope="session")
def s22():
    return space_config("symplectic", 2, 2)


@pytest.fixture(scope="session")
def s21():
    return space_config("symplectic", 2, 1)


@pytest.fixture(scope="session")
def o32():
    return space_config("orthogonal", 3, 2)


@pytest.fixture(scope="session")
def u41():
    return space_config("unitary", 4, 1)


@pytest.fixture(params=SMALL_CONFIGS, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}",
                scope="session")
def small_config(request):
    return space_config(*request.param)


@pytest.fixture(params=MEDIUM_CONFIGS, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}",
                scope="session")
def medium_config(request):
    return space_config(*request.param)


def in_row_span(N: np.ndarray, free, V: np.ndarray) -> bool:
    """Whether every row of V is a rational combination of the rows of N,
    given that N[:, free] is diagonal: then v = sum_f v[f] / N[f, f] * N[f].
    Exact: both sides are scaled by the lcm of the diagonal."""
    d = [int(x) for x in np.diagonal(N[:, free])]
    scale = math.lcm(*d) if d else 1
    coeff = V[:, free].astype(object) * np.array([scale // x for x in d], dtype=object)
    return bool((np.dot(coeff, N.astype(object)) == scale * V.astype(object)).all())
