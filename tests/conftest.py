"""Shared meshes and helpers for the test suite.

Session-scoped fixtures hold the most frequently used meshes so the
suite builds each geometry once.  Randomized property checks draw from
explicitly seeded generators for reproducibility.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from tmlab import assembly
from tmlab.surface import DomainSpec, build_domain, refine

PI = np.pi


@pytest.fixture(scope="session")
def unit_square():
    return build_domain(DomainSpec("rectangle", (1.0, 1.0)), 0.1)


@pytest.fixture(scope="session")
def unit_square_fine():
    return build_domain(DomainSpec("rectangle", (1.0, 1.0)), 0.05)


@pytest.fixture(scope="session")
def rect21():
    return build_domain(DomainSpec("rectangle", (2.0, 1.0)), 0.1)


@pytest.fixture(scope="session")
def half_disk():
    return build_domain(DomainSpec("half_disk", (1.0,)), 0.1)


@pytest.fixture(scope="session")
def half_disk_fine():
    return build_domain(DomainSpec("half_disk", (1.0,)), 0.05)


@pytest.fixture(scope="session")
def half_disk_refined(half_disk):
    return refine(refine(half_disk))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture()
def splu_sizes(monkeypatch):
    """Row counts of the sparse LU factorizations made during the test."""
    sizes = []
    splu = spla.splu

    def counted(mat, *args, **kwargs):
        sizes.append(mat.shape[0])
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    return sizes


@pytest.fixture()
def mass_rows(monkeypatch):
    """Row (triangle) counts of the mass element passes made during the test."""
    rows = []
    mass_element = assembly._mass_element

    def counted(w):
        rows.append(w.shape[0])
        return mass_element(w)

    monkeypatch.setattr(assembly, "_mass_element", counted)
    return rows
