"""First mean-zero Neumann eigenpair."""

from __future__ import annotations

import math
import weakref

import numpy as np
import pytest
import scipy.linalg as sla

from tmlab import assembly, green, moser, spectrum, witness
from tmlab.errors import NumericalError, PreconditionError, TmlabError, UsageError
from tmlab.surface import DomainSpec, Surface, adapt_for_point, build_domain, refine

PI = math.pi

# First positive root of the derivative of the first-order Bessel function;
# its square is the separation-of-variables eigenvalue of the unit half-disk.
BESSEL_J1_PRIME_ROOT = 1.8411837813406593


def test_unit_square_anchor(unit_square_fine):
    pair = spectrum.first_eigenpair(unit_square_fine, tol=1e-10)
    assert abs(pair.value - PI**2) <= 0.01 * PI**2


def test_rect21_anchor(rect21):
    pair = spectrum.first_eigenpair(rect21, tol=1e-10)
    assert abs(pair.value - PI**2 / 4) <= 0.01 * PI**2 / 4


def test_half_disk_anchor(half_disk_refined):
    pair = spectrum.first_eigenpair(half_disk_refined, tol=1e-10)
    exact = BESSEL_J1_PRIME_ROOT**2
    assert abs(pair.value - exact) <= 0.01 * exact


def test_eigenpair_normalization_and_sign(half_disk):
    pair = spectrum.first_eigenpair(half_disk, tol=1e-10)
    a = assembly.area(half_disk)
    assert abs(assembly.mean(half_disk, pair.vector)) <= 1e-10 * a
    assert abs(assembly.l2_norm(half_disk, pair.vector) - 1.0) <= 1e-10
    boundary_vals = pair.vector[half_disk.boundary()[1] >= 0]
    assert boundary_vals.max() > 0


def test_rayleigh_quotient_consistency(unit_square):
    pair = spectrum.first_eigenpair(unit_square, tol=1e-10)
    k = assembly.stiffness(unit_square)
    m = assembly.mass(unit_square)
    u = pair.vector
    rq = (u @ (k @ u)) / (u @ (m @ u))
    assert abs(rq - pair.value) <= 1e-8 * pair.value


def test_residual_small_and_grows_under_perturbation(unit_square, rng):
    pair = spectrum.first_eigenpair(unit_square, tol=1e-10)
    base = spectrum.eigen_residual(unit_square, pair.vector, pair.value)
    assert base <= 1e-8
    noise = rng.standard_normal(unit_square.num_vertices)
    noise = assembly.mean_zero_project(unit_square, noise)
    noise *= 1e-3 / assembly.l2_norm(unit_square, noise)
    perturbed = spectrum.eigen_residual(
        unit_square, pair.vector + noise, pair.value
    )
    assert perturbed >= 10.0 * base


def test_refinement_monotone_and_second_order():
    hs = [0.2, 0.1, 0.05]
    values = []
    for h in hs:
        s = build_domain(DomainSpec("rectangle", (1.0, 1.0)), h)
        values.append(spectrum.first_eigenpair(s, tol=1e-10).value)
    # Conforming P1 Rayleigh quotients over-approximate and improve with h.
    assert values[0] >= values[1] - 1e-8
    assert values[1] >= values[2] - 1e-8
    errs = [v - PI**2 for v in values]
    assert all(e > 0 for e in errs)
    rate = math.log(errs[1] / errs[2]) / math.log(2.0)
    assert rate >= 1.8


def test_domain_scaling_law():
    s1 = build_domain(DomainSpec("rectangle", (1.0, 1.0)), 0.1)
    s2 = build_domain(DomainSpec("rectangle", (2.0, 2.0)), 0.2)
    v1 = spectrum.first_eigenpair(s1, tol=1e-10).value
    v2 = spectrum.first_eigenpair(s2, tol=1e-10).value
    assert abs(v2 - v1 / 4.0) <= 1e-8 * v1


def test_tolerance_bounds_residual(unit_square):
    pair = spectrum.first_eigenpair(unit_square, tol=1e-12)
    assert pair.residual <= 1e-12


def test_unreachable_tol_raises(unit_square):
    with pytest.raises(NumericalError):
        spectrum.first_eigenpair(unit_square, tol=1e-18)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_non_positive_tol_rejected_before_solving(monkeypatch, tol):
    """Both solvers reject a tol not above 0 before any solve; before, the
    eigen solve ran and then failed, and the maximizer ran to both
    iteration caps."""
    s = build_domain(DomainSpec("half_disk", (1.0,)), 0.2)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved with a non-positive tol")

    monkeypatch.setattr(assembly, "neumann_solver", no_solve)
    monkeypatch.setattr(assembly, "stiffness", no_solve)
    with pytest.raises(UsageError, match="tol must be positive"):
        spectrum.first_eigenpair(s, tol=tol)
    with pytest.raises(UsageError, match="tol must be positive"):
        moser.maximize_subcritical(s, 0.0, 0.5, tol=tol)


@pytest.mark.parametrize("size, h", [((1.0, 1.0), 0.1), ((2.0, 1.0), 0.05)])
def test_sign_anchor_ignores_mirror_noise(size, h):
    # Vertex 0 is the corner (0, 0).  On both meshes |u| peaks there and at
    # a mirror corner to within solver noise; the lowest index must win.
    s = build_domain(DomainSpec("rectangle", size), h)
    u = spectrum.first_eigenpair(s).vector
    assert u[0] > 0


# (spec, h, whether λ₁ is simple); the unit square's λ₁ is a cluster of two
# eigenvalues split by about 1e-6 relative, so only the value is compared.
DENSE_CASES = {
    "unit square": (DomainSpec("rectangle", (1.0, 1.0)), 0.1, False),
    "2x1 rectangle": (DomainSpec("rectangle", (2.0, 1.0)), 0.1, True),
    "sector": (DomainSpec("disk_sector", (1.0, 2.0)), 0.1, True),
    "half-disk": (DomainSpec("half_disk", (1.0,)), 0.1, True),
    "half-disk, 92 vertices": (DomainSpec("half_disk", (1.0,)), 0.15, True),
    "half-disk with f": (
        DomainSpec("half_disk", (1.0,), "0.5*x1*x2 - 0.3*x2"), 0.1, True
    ),
}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_matches_dense_reference(case):
    spec, h, simple = DENSE_CASES[case]
    s = build_domain(spec, h)
    pair = spectrum.first_eigenpair(s)
    k = assembly.stiffness(s).toarray()
    m = assembly.mass(s).toarray()
    vals, vecs = sla.eigh(k, m)
    lam = vals[1]  # vals[0] is the constant mode
    assert abs(pair.value - lam) <= 1e-12 * lam
    assert ((vals[2] - lam) > 1e-3 * lam) == simple
    if simple:
        ref = vecs[:, 1]  # M-normalized, like pair.vector
        err = min(np.abs(pair.vector - ref).max(), np.abs(pair.vector + ref).max())
        assert err <= 1e-10


def test_eigen_solve_stores_no_lu_of_its_own(splu_sizes):
    s = build_domain(DomainSpec("half_disk", (1.0,)), 0.1)
    spectrum.first_eigenpair(s)
    # One bordered LU for the solve and one K + M for the residual, each
    # used and dropped.
    assert splu_sizes == [s.num_vertices + 1, s.num_vertices]
    assert "lu_K_bordered" not in s.cache
    assert "lu_K_plus_M" not in s.cache


class _HeldLU:
    """A weakly referenceable stand-in for a SuperLU object."""

    def __init__(self, lu):
        self.solve = lu.solve


def test_eigen_solve_drops_its_lu_before_the_residual_factor(monkeypatch):
    # A fresh surface never holds two factors of its own size at once.
    s = build_domain(DomainSpec("half_disk", (1.0,)), 0.1)
    held, alive = [], []
    neumann_lu, km_solver = assembly.neumann_lu, assembly.km_solver

    def held_lu(surface):
        lu = _HeldLU(neumann_lu(surface))
        held.append(weakref.ref(lu))
        return lu

    def watched_km_solver(surface):
        alive.append(held[0]() is not None)
        return km_solver(surface)

    monkeypatch.setattr(assembly, "neumann_lu", held_lu)
    monkeypatch.setattr(assembly, "km_solver", watched_km_solver)
    spectrum.first_eigenpair(s)
    assert alive == [False]


def test_eigen_solve_borrows_the_cached_lu(splu_sizes):
    s = build_domain(DomainSpec("half_disk", (1.0,)), 0.1)
    fresh = spectrum.first_eigenpair(s)
    assembly.neumann_solver(s)
    splu_sizes.clear()
    pair = spectrum.first_eigenpair(s)
    # No bordered LU of its own; the K + M of the residual, not kept.
    assert splu_sizes == [s.num_vertices]
    assert pair.value == fresh.value
    assert np.array_equal(pair.vector, fresh.vector)


def test_bordered_solve_deflates_the_constant_mode():
    # The shift-invert operator at σ = 0 sends M·1, the constant mode's
    # image, to 0, so no projection follows the solves.
    s = build_domain(DomainSpec("half_disk", (1.0,)), 0.15)
    m1 = assembly.mass_row_of_ones(s)
    x = assembly.neumann_lu(s).solve(np.append(m1, 0.0))[:-1]
    assert np.max(np.abs(x)) <= 1e-12


def test_one_alpha_rule_for_maximizer_and_green(splu_sizes):
    # alpha = 0 solves nothing; at alpha = lambda1 the maximizer and the
    # Green solve raise the rule's one message.
    s = build_domain(DomainSpec("half_disk", (1.0,)), 0.2)
    spectrum.require_below_lambda1(s, 0.0)
    assert splu_sizes == [] and "lambda1" not in s.cache
    lam1 = spectrum.lambda1(s).value
    spectrum.require_below_lambda1(s, lam1 * (1.0 - 1e-9))
    _, after, corner = s.boundary()
    vertex = int(np.flatnonzero((after >= 0) & ~corner)[0])
    want = f"alpha = {lam1} is not below the spectral threshold {lam1:.6f}"
    for check in (lambda: spectrum.require_below_lambda1(s, lam1),
                  lambda: moser.maximize_subcritical(s, lam1, 0.5),
                  lambda: green.green_function(s, vertex, alpha=lam1)):
        with pytest.raises(PreconditionError) as exc:
            check()
        assert str(exc.value) == want
    assert spectrum.reaches_threshold(lam1, lam1)
    assert spectrum.reaches_threshold(lam1 * (1.0 - 1e-13), lam1)
    assert not spectrum.reaches_threshold(lam1 * (1.0 - 1e-11), lam1)


# ---------------------------------------------------------------------------
# alpha < lambda1 certified by the convex-domain lower bound
# ---------------------------------------------------------------------------

# (domain, smooth boundary point the graded mesh adapts toward)
CONVEX_DOMAINS = {
    "2x1 rectangle": (("rectangle", (2.0, 1.0)), (1.0, 0.0)),
    "unit square": (("rectangle", (1.0, 1.0)), (0.5, 0.0)),
    "half-disk": (("half_disk", (1.0,)), (1.0, 0.0)),
}


def _mesh(kind, params, f_expr, level, point):
    spec = DomainSpec(kind, params, f_expr)
    if level == "refined":
        return refine(build_domain(spec, 0.1))
    if level == "graded":  # glued_bound's mesh on the half-disk
        return adapt_for_point(build_domain(spec, 0.04), point, 1e-4, 0.5)
    return build_domain(spec, float(level))


@pytest.mark.parametrize("f_expr", [None, "0.3*x1*x2", "0.5"])
@pytest.mark.parametrize("level", ["0.1", "0.05", "refined", "graded"])
@pytest.mark.parametrize("domain", sorted(CONVEX_DOMAINS))
def test_lower_bound_holds_on_convex_meshes(domain, level, f_expr):
    (kind, params), point = CONVEX_DOMAINS[domain]
    s = _mesh(kind, params, f_expr, level, point)
    bound = spectrum.lambda1_lower_bound(s)
    assert 0.0 < bound <= spectrum.first_eigenpair(s).value


def _notched_square():
    """The h = 0.1 unit square without the two triangles of its top-right
    cell: a valid mesh whose boundary turns right at (0.9, 0.9)."""
    s = build_domain(DomainSpec("rectangle", (1.0, 1.0)), 0.1)
    keep = ~np.all(s.tri_coords().mean(axis=1) > 0.9, axis=1)
    used = np.unique(s.triangles[keep])
    index = np.full(s.num_vertices, -1)
    index[used] = np.arange(used.size)
    tris = index[s.triangles[keep]]
    edges = {(int(a), int(b)) for t in tris for a, b in zip(t, np.roll(t, -1))}
    boundary = sorted(e for e in edges if e[::-1] not in edges)
    notched = Surface(s.vertices[used], tris, np.array(boundary),
                      np.zeros(used.size), s.spec)
    notched.validate()
    return notched


@pytest.mark.parametrize("name", ["sector 1.0", "sector 2.5", "notched square"])
def test_lower_bound_is_zero_off_convex_meshes(name):
    # The sectors' slanted side is straight only up to rounding, so they
    # read as not convex and fall back to the eigen solve.
    if name == "notched square":
        s = _notched_square()
    else:
        s = build_domain(DomainSpec("disk_sector", (1.0, float(name[-3:]))), 0.1)
    assert s.convex_diameter_bound() is None
    assert spectrum.lambda1_lower_bound(s) == 0.0


@pytest.fixture()
def eigen_calls(monkeypatch):
    """The surfaces ``first_eigenpair`` is called on during the test."""
    calls = []
    solve = spectrum.first_eigenpair

    def counted(surface, *args, **kwargs):
        calls.append(surface)
        return solve(surface, *args, **kwargs)

    monkeypatch.setattr(spectrum, "first_eigenpair", counted)
    return calls


def _graded_half_disk():
    base = build_domain(DomainSpec("half_disk", (1.0,)), 0.1)
    return base, adapt_for_point(base, (1.0, 0.0), 1e-4, 0.5)


def test_green_below_the_bound_solves_no_eigenpair(eigen_calls):
    base, fresh = _graded_half_disk()
    _, cached = _graded_half_disk()
    alpha = 0.05 * spectrum.lambda1(base).value
    vertex = witness.smooth_boundary_vertex(fresh, (1.0, 0.0))
    spectrum.lambda1(cached)
    eigen_calls.clear()
    g = green.green_function(fresh, vertex, alpha=alpha)
    assert eigen_calls == [] and "lambda1" not in fresh.cache
    want = green.green_function(cached, vertex, alpha=alpha)
    assert np.array_equal(g.values, want.values)


def test_maximizer_below_the_bound_solves_no_eigenpair(eigen_calls):
    base, fresh = _graded_half_disk()
    _, cached = _graded_half_disk()
    alpha = 0.3 * spectrum.lambda1(base).value
    u0 = fresh.vertices[:, 0] + 0.3 * fresh.vertices[:, 1]
    spectrum.lambda1(cached)
    eigen_calls.clear()
    res = moser.maximize_subcritical(fresh, alpha, 0.5, u0=u0)
    assert eigen_calls == [] and "lambda1" not in fresh.cache
    want = moser.maximize_subcritical(cached, alpha, 0.5, u0=u0)
    assert res.value == want.value and np.array_equal(res.u, want.u)


def test_alpha_between_bound_and_lambda1_solves(eigen_calls):
    s = build_domain(DomainSpec("half_disk", (1.0,)), 0.2)
    lam1 = spectrum.first_eigenpair(s, tol=1e-8).value
    bound = spectrum.lambda1_lower_bound(s)
    assert 0.0 < bound < lam1
    eigen_calls.clear()
    spectrum.require_below_lambda1(s, 0.5 * (bound + lam1))
    assert eigen_calls == [s] and s.cache["lambda1"].value == lam1
    # At lambda1 a fresh surface solves and raises the rule's message.
    fresh = build_domain(DomainSpec("half_disk", (1.0,)), 0.2)
    with pytest.raises(PreconditionError) as exc:
        spectrum.require_below_lambda1(fresh, lam1)
    assert str(exc.value) == (
        f"alpha = {lam1} is not below the spectral threshold {lam1:.6f}")
    assert eigen_calls == [s, fresh]
