"""Mean-zero Green function with a boundary log pole."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tmlab import assembly, green, spectrum, witness
from tmlab.errors import NumericalError, PreconditionError, UsageError
from tmlab.surface import DomainSpec, build_domain, refine

PI = math.pi


@pytest.fixture(scope="module")
def pole_vertex(half_disk_refined):
    return witness.smooth_boundary_vertex(half_disk_refined, (1.0, 0.0))


@pytest.fixture(scope="module")
def solved(half_disk_refined, pole_vertex):
    return green.green_function(half_disk_refined, pole_vertex, alpha=0.0)


def test_solve_residual_recorded_and_tiny(solved):
    assert solved.residual <= 1e-10


def test_solution_is_mean_zero(half_disk_refined, solved):
    a = assembly.area(half_disk_refined)
    assert abs(assembly.mean(half_disk_refined, solved.values)) <= 1e-10 * a


def test_defining_equation_holds(half_disk_refined, solved):
    k = assembly.stiffness(half_disk_refined)
    m1 = assembly.mass_row_of_ones(half_disk_refined)
    a = assembly.area(half_disk_refined)
    rhs = -m1 / a
    rhs[solved.vertex] += 1.0
    lhs = k @ solved.values
    # The stiffness equation holds up to the mean-constraint multiplier,
    # which acts through the mass row of ones.
    resid = lhs - rhs
    coeff = (resid @ m1) / (m1 @ m1)
    assert np.max(np.abs(resid - coeff * m1)) <= 1e-9


def test_reciprocity_between_two_poles(half_disk_refined, pole_vertex):
    other = witness.smooth_boundary_vertex(
        half_disk_refined, (math.cos(0.7), math.sin(0.7))
    )
    g1 = green.green_function(half_disk_refined, pole_vertex)
    g2 = green.green_function(half_disk_refined, other)
    assert abs(g1.values[other] - g2.values[pole_vertex]) <= 1e-8


def test_dense_solver_oracle(half_disk):
    vtx = witness.smooth_boundary_vertex(half_disk, (1.0, 0.0))
    got = green.green_function(half_disk, vtx, alpha=0.0)
    n = half_disk.num_vertices
    k = assembly.stiffness(half_disk).toarray()
    m1 = assembly.mass_row_of_ones(half_disk)
    a = assembly.area(half_disk)
    dense = np.zeros((n + 1, n + 1))
    dense[:n, :n] = k
    dense[:n, n] = m1
    dense[n, :n] = m1
    rhs = np.concatenate([-m1 / a, [0.0]])
    rhs[vtx] += 1.0
    sol = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(sol[:n] - got.values)) <= 1e-8


def test_corner_pole_rejected(half_disk_refined):
    corner = int(np.flatnonzero(half_disk_refined.boundary()[2])[0])
    with pytest.raises(PreconditionError):
        green.green_function(half_disk_refined, corner)


@pytest.mark.parametrize("vertex", [True, 1.0, np.float64(1.0)],
                         ids=["True", "1.0", "np.float64"])
def test_non_integer_pole_rejected(vertex):
    # rhs[True] += 1 would add 1 to every entry, and the solve would fail
    # after its CG steps with a misleading NumericalError.
    s = build_domain(DomainSpec("half_disk", (1.0,)), 0.2)
    with pytest.raises(UsageError, match="not an integer"):
        green.green_function(s, vertex)


def test_alpha_at_threshold_rejected(half_disk_refined, pole_vertex):
    lam1 = spectrum.first_eigenpair(half_disk_refined, tol=1e-8).value
    with pytest.raises(PreconditionError):
        green.green_function(half_disk_refined, pole_vertex, alpha=lam1)


def test_alpha_continuity(half_disk_refined, pole_vertex, solved):
    lam1 = spectrum.first_eigenpair(half_disk_refined, tol=1e-8).value
    diffs = []
    for frac in (0.1, 0.2, 0.3):
        ga = green.green_function(half_disk_refined, pole_vertex,
                                  alpha=frac * lam1)
        diffs.append(float(np.max(np.abs(ga.values - solved.values))))
    assert diffs == sorted(diffs)
    assert diffs[0] <= 0.1


# ---------------------------------------------------------------------------
# constant extraction
# ---------------------------------------------------------------------------


def test_extract_recovers_synthetic_constant(half_disk_refined, pole_vertex):
    x0 = half_disk_refined.vertices[pole_vertex].copy()
    r = np.hypot(
        half_disk_refined.vertices[:, 0] - x0[0],
        half_disk_refined.vertices[:, 1] - x0[1],
    )
    values = np.where(r > 0, green.LOG_COEFF * np.log(np.maximum(r, 1e-300)),
                      0.0) + 0.7
    synthetic = green.GreenResult(
        values=values, vertex=pole_vertex, x0=x0, alpha=0.0,
        norm_l2_sq=0.0, residual=0.0,
    )
    a, report = green.extract_A(half_disk_refined, synthetic)
    assert abs(a - 0.7) <= 1e-10
    assert report["residual_rms"] <= 1e-10
    assert report["n_points"] >= 30


def test_extract_reports_annulus(half_disk_refined, solved):
    a, report = green.extract_A(half_disk_refined, solved, 0.1, 0.2)
    assert report["r_inner"] == 0.1
    assert report["r_outer"] == 0.2
    assert report["residual_rms"] > 0


def test_pole_shift_moves_constant_slightly(half_disk_refined):
    t1 = witness.smooth_boundary_vertex(
        half_disk_refined, (math.cos(0.4), math.sin(0.4))
    )
    t2 = witness.smooth_boundary_vertex(
        half_disk_refined, (math.cos(0.5), math.sin(0.5))
    )
    a1, _ = green.extract_A(half_disk_refined,
                            green.green_function(half_disk_refined, t1))
    a2, _ = green.extract_A(half_disk_refined,
                            green.green_function(half_disk_refined, t2))
    assert abs(a2 - a1) <= 0.1 * 0.2


def test_log_coefficient_fit(half_disk_refined, solved):
    c_log, c0, n = green.log_coefficient_fit(
        half_disk_refined, solved, 0.1, 0.3
    )
    assert n >= 30
    assert abs(c_log - green.LOG_COEFF) <= 0.15 * abs(green.LOG_COEFF)


def test_sigma_field_zero_for_synthetic_log(half_disk_refined, pole_vertex):
    x0 = half_disk_refined.vertices[pole_vertex].copy()
    r = np.hypot(
        half_disk_refined.vertices[:, 0] - x0[0],
        half_disk_refined.vertices[:, 1] - x0[1],
    )
    values = np.where(r > 0, green.LOG_COEFF * np.log(np.maximum(r, 1e-300)),
                      0.0) + 0.7
    synthetic = green.GreenResult(
        values=values, vertex=pole_vertex, x0=x0, alpha=0.0,
        norm_l2_sq=0.0, residual=0.0,
    )
    sigma = green.sigma_field(half_disk_refined, synthetic, 0.7)
    assert np.max(np.abs(sigma)) <= 1e-10
    assert sigma[pole_vertex] == 0.0


def test_decomposition_summary(half_disk_refined, solved):
    d = green.green_decomposition(half_disk_refined, solved)
    assert len(d["A_estimates"]) == 2
    assert d["A_spread"] >= 0
    assert d["residual"] <= 1e-10
    assert len(d["A_reports"]) == 2
    assert np.all(np.isfinite(d["sigma"]))


# ---------------------------------------------------------------------------
# one factorization per surface: conjugate gradients on the bordered-K LU
# ---------------------------------------------------------------------------


def test_green_and_eigen_share_one_bordered_lu(splu_sizes):
    # Green at alpha = 0 factors K bordered with M·1; the eigen solve
    # borrows that LU and the alpha > 0 Green solve preconditions with it.
    # The only other LU is the K + M of the eigen residual.
    s = refine(refine(build_domain(DomainSpec("half_disk", (1.0,)), 0.1)))
    vertex = witness.smooth_boundary_vertex(s, (1.0, 0.0))
    green.green_function(s, vertex, alpha=0.0)
    lam1 = spectrum.lambda1(s).value
    green.green_function(s, vertex, alpha=0.05 * lam1)
    assert splu_sizes == [s.num_vertices + 1, s.num_vertices]


@pytest.mark.parametrize("frac", [0.0, 0.05, 0.5, 0.95])
def test_cg_matches_bordered_direct_solve(half_disk_refined, pole_vertex,
                                          frac, monkeypatch):
    s = half_disk_refined
    alpha = frac * spectrum.lambda1(s).value
    calls = []
    riesz = assembly.riesz_map

    def counted(surface, b):
        calls.append(b)
        return riesz(surface, b)

    monkeypatch.setattr(assembly, "riesz_map", counted)
    got = green.green_function(s, pole_vertex, alpha=alpha)
    iterations = len(calls) - 1  # the first map is the starting guess
    assert iterations == 0 if frac == 0.0 else 0 < iterations <= 25
    assert got.residual <= 1e-12

    k = assembly.stiffness(s)
    m = assembly.mass(s)
    m1 = assembly.mass_row_of_ones(s)
    rhs = np.append(-m1 / assembly.area(s), 0.0)
    rhs[pole_vertex] += 1.0
    mat = sp.bmat([[k - alpha * m, sp.csc_matrix(m1[:, None])],
                   [sp.csc_matrix(m1[None, :]), None]], format="csc")
    ref = spla.spsolve(mat, rhs)[:-1]
    assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_cg_iteration_cap_raises(half_disk, monkeypatch):
    vertex = witness.smooth_boundary_vertex(half_disk, (1.0, 0.0))
    alpha = 0.5 * spectrum.lambda1(half_disk).value
    monkeypatch.setattr(green, "CG_MAX_ITER", 2)
    with pytest.raises(NumericalError, match="conjugate-gradient steps"):
        green.green_function(half_disk, vertex, alpha=alpha)


def test_cg_nonpositive_curvature_raises(monkeypatch):
    # Claim a threshold far above the true lambda1 so that alpha passes the
    # precondition; K − αM is then indefinite on mean-zero fields.
    s = build_domain(DomainSpec("half_disk", (1.0,)), 0.1)
    vertex = witness.smooth_boundary_vertex(s, (1.0, 0.0))
    s.cache["lambda1"] = spectrum.Eigenpair(value=1e9, vector=None,
                                            residual=0.0, iterations=0)
    with pytest.raises(NumericalError, match="not positive"):
        green.green_function(s, vertex, alpha=1e3)
