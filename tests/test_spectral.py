import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diracsphere
from diracsphere.grid import QuadratureGrid, chart_a_coords, chart_b_coords
from diracsphere.spectral import (_BLOCK, _WEIGHTS, AliasingError, SphereBasis,
                                  SpectralSpinor, _atom, _jacobi_coefficients,
                                  dirac_apply, dirac_eigenvalue,
                                  dirac_multiplicity, h_inner, load_spinor,
                                  save_spinor)
from conftest import random_spinor, zero_spinor


@pytest.fixture(scope="module")
def basis5():
    return SphereBasis(5)


@pytest.fixture(scope="module")
def grid5():
    return QuadratureGrid(degree=18)


@pytest.mark.parametrize("n", [*range(1, 41), 73, 101, 251, 501])
def test_gauss_legendre_rule_from_recurrence(n):
    """The grid's rule in x = cos(theta), n = n_theta (501 is the bubble
    grid's degree cap of 1000): strictly descending nodes within 2.3e-16 of
    numpy's ``leggauss`` (a test-only oracle), sum_i w_i P_k(x_i) = 2 delta_k0
    for every k <= 2n - 1, and sphere weights summing to 4 pi (relative 1e-14)."""
    grid = QuadratureGrid(degree=max(1, 2 * n - 2))
    assert grid.n_theta == n
    x = grid.xyz[:: grid.n_phi, 2]
    w = grid.weights[:: grid.n_phi] * grid.n_phi / (2.0 * np.pi)
    assert np.all(np.diff(x) < 0.0)
    oracle = np.polynomial.legendre.leggauss(n)[0][::-1]
    assert np.max(np.abs(x - oracle)) <= 2.3e-16
    p_prev, p, moments = np.ones_like(x), x, [np.sum(w), np.sum(w * x)]
    for k in range(2, 2 * n):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        moments.append(np.sum(w * p))
    assert np.allclose(moments, [2.0] + [0.0] * (2 * n - 1), rtol=0, atol=1e-14)
    assert abs(np.sum(grid.weights) - 4.0 * np.pi) <= 1e-14 * 4.0 * np.pi


def test_spectrum_formulas_general_m():
    assert dirac_eigenvalue(2, 2, 1) == 3.0
    assert dirac_eigenvalue(3, 0, -1) == -1.5
    assert dirac_multiplicity(2, 0) == 2
    assert dirac_multiplicity(2, 2) == 6
    assert dirac_multiplicity(3, 0) == 2
    assert dirac_multiplicity(3, 1) == 6  # (j+1)(j+2) on S^3


def test_multiplicity_and_eigenvalues_of_basis(basis5):
    for j in range(6):
        for sigma in (1, -1):
            members = [ix for ix in basis5.indices
                       if ix.j == j and ix.sigma == sigma]
            assert len(members) == 2 * (j + 1) == dirac_multiplicity(2, j)
            assert all(ix.eigenvalue == sigma * (j + 1) for ix in members)
    # j = 0 has four basis spinors in total, two per sign
    j0 = [ix for ix in basis5.indices if ix.j == 0]
    assert len(j0) == 4


def test_gram_matrix_identity(basis5, grid5):
    S = basis5.evaluate_matrix(grid5.z_pref, grid5.use_a)
    wf = (grid5.weights / grid5.f_pref)[:, None, None]
    G = np.tensordot(np.conj(S) * wf, S, axes=([0, 1], [0, 1]))
    assert np.abs(G - np.eye(basis5.n_basis)).max() <= 1e-10


def test_analyze_matches_conjugate_table_formula(basis5, grid5):
    """analyze against the reference formula that contracts a conjugated
    copy of the synthesis table."""
    rng = np.random.default_rng(7)
    values = (rng.normal(size=(grid5.n_nodes, 2))
              + 1j * rng.normal(size=(grid5.n_nodes, 2)))
    mat = basis5.evaluate_matrix(grid5.z_pref, grid5.use_a)
    wf = (grid5.weights / grid5.f_pref)[:, None]
    ref = np.tensordot(np.conj(mat), values * wf, axes=([0, 1], [0, 1]))
    assert np.abs(basis5.analyze(values, grid5) - ref).max() <= 1e-14


# odd and even n_phi, and degree 2J+1, where the modes +-(J+1) share a bin
TRANSFORM_CASES = [(0, 1), (1, 3), (5, 11), (5, 12), (8, 17), (12, 36), (16, 48)]


@pytest.mark.parametrize("J, degree", TRANSFORM_CASES)
def test_transforms_match_dense_formulas(J, degree):
    """The separable transforms against the dense table contraction, on odd
    and even n_phi and at degree 2J+1, where the modes +-(J+1) share a bin."""
    basis = SphereBasis(J)
    grid = QuadratureGrid(degree=degree)
    mat = basis.evaluate_matrix(grid.z_pref, grid.use_a)
    rng = np.random.default_rng(J + degree)
    coeff = rng.normal(size=basis.n_basis) + 1j * rng.normal(size=basis.n_basis)
    values = (rng.normal(size=(grid.n_nodes, 2))
              + 1j * rng.normal(size=(grid.n_nodes, 2)))
    wf = (grid.weights / grid.f_pref)[:, None]
    tol = 1e-13 if J <= 5 else 1e-11
    ref = np.tensordot(mat, coeff, axes=([2], [0]))
    assert np.abs(basis.synthesize(coeff, grid) - ref).max() <= tol * np.abs(ref).max()
    ref = np.tensordot(np.conj(mat), values * wf, axes=([0, 1], [0, 1]))
    assert np.abs(basis.analyze(values, grid) - ref).max() <= tol * np.abs(ref).max()


@pytest.mark.parametrize("J, degree", [(5, 11), (5, 18), (16, 48)])
def test_transform_adjoint_identity(J, degree):
    """sum w/f (synthesize(a), v) = (a, analyze(v))."""
    basis = SphereBasis(J)
    grid = QuadratureGrid(degree=degree)
    rng = np.random.default_rng(degree)
    a = rng.normal(size=basis.n_basis) + 1j * rng.normal(size=basis.n_basis)
    v = rng.normal(size=(grid.n_nodes, 2)) + 1j * rng.normal(size=(grid.n_nodes, 2))
    wf = (grid.weights / grid.f_pref)[:, None]
    lhs = np.sum(wf * basis.synthesize(a, grid) * np.conj(v))
    rhs = np.sum(a * np.conj(basis.analyze(v, grid)))
    assert abs(lhs - rhs) <= 1e-13 * np.sqrt(np.sum(np.abs(a) ** 2) * np.sum(wf * np.abs(v) ** 2))


def test_columns_are_single_longitude_modes():
    """Turning the chart points by e^{i alpha} multiplies each column by
    e^{i mode alpha} in chart A and by e^{-i mode alpha} in chart B, where
    w ~ e^{-i phi}; the modes are k, k+1 per component in chart A and
    k+1, k in chart B."""
    basis = SphereBasis(16)
    k = np.array([ix.k for ix in basis.indices])
    modes = np.array([[k, k + 1], [k + 1, k]])
    rng = np.random.default_rng(13)
    z = 0.9 * (rng.normal(size=20) + 1j * rng.normal(size=20))
    rot = np.exp(0.7j)
    for chart, sign in ((0, 1), (1, -1)):
        use_a = chart == 0
        turned = basis.evaluate_matrix(rot * z, use_a)
        phase = np.exp(sign * 0.7j * modes[chart])
        assert np.abs(turned - phase * basis.evaluate_matrix(z, use_a)).max() <= 1e-13


def test_cached_transform_table_is_small():
    """The J=16, degree-48 ring map holds one real entry per ring, component
    and padded group slot, for E^- and E^+ (the dense table was 24 MB)."""
    basis = SphereBasis(16)
    grid = QuadratureGrid(degree=48)
    bins, phase, table, cols = basis.synthesis_matrix(grid)
    assert sum(a.nbytes for a in (bins, phase, table, cols)) < 2 * 2**20
    assert list(basis._matrix_cache) == [48]


def _dense_ring_map(basis, grid):
    """Reference ``synthesis_matrix``: the dense complex meridian table,
    padded, gathered by group and turned by a quarter turn per row."""
    n_p = grid.n_phi
    radial = basis.evaluate_matrix(grid.z_pref[::n_p], grid.use_a[::n_p])
    radial = np.pad(radial.reshape(2 * grid.n_theta, basis.n_basis), ((0, 0), (0, 1)))
    cols = np.array([np.concatenate([basis._cols[::-1, :, 3 - s], basis._cols[:, :, 1 - s]])
                     for s in range(2)])
    table = radial[:, cols].transpose(1, 2, 0, 3)
    imag = np.abs(table.imag).sum(axis=(0, 3)) > np.abs(table.real).sum(axis=(0, 3))
    phase = np.where(imag, 1j, 1.0)
    table = (table * np.conj(phase)[..., None]).real.copy()
    k = np.array([ix.k for ix in basis.indices])
    modes = np.array([[k, k + 1], [k + 1, k]])
    mode = modes[np.where(grid.use_a[::n_p], 0, 1)][..., cols[0][:, 0]]
    bins = np.arange(2 * grid.n_theta).reshape(-1, 2, 1) * n_p + mode % n_p
    return bins.reshape(-1, bins.shape[-1]).T, phase, table, cols


@pytest.mark.parametrize("J, degree", [(1, 3), (5, 11), (5, 15), (8, 24), (16, 48), (16, 54)])
def test_ring_table_bytes_match_dense_construction(J, degree):
    """The ring map written one angular index at a time has the bytes of the
    dense construction (a flipped sign of zero fails), on degree-3J grids,
    finer ones, and at degree 2J+1, where +-(J+1) share a bin."""
    basis = SphereBasis(J)
    grid = QuadratureGrid(degree=degree)
    got = basis.synthesis_matrix(grid)
    for a, b in zip(got, _dense_ring_map(basis, grid)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def test_ring_table_build_memory_is_bounded():
    """Building the J=32, degree-96 ring map allocates at its peak less than
    twice the table it keeps: one angular index is held at a time, never
    the dense complex meridian matrix (about 6 times the table)."""
    basis, grid = SphereBasis(32), QuadratureGrid(degree=96)
    tracemalloc.start()
    try:
        table = basis.synthesis_matrix(grid)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * table.nbytes, (peak, table.nbytes)


_THREAD_PROBE = """
import hashlib
import numpy as np
from diracsphere.grid import QuadratureGrid
from diracsphere.spectral import SphereBasis

basis, grid = SphereBasis(48), QuadratureGrid(degree=144)
rng = np.random.default_rng(17)
coeff = rng.normal(size=basis.n_basis) + 1j * rng.normal(size=basis.n_basis)
values = rng.normal(size=(grid.n_nodes, 2)) + 1j * rng.normal(size=(grid.n_nodes, 2))
for out in (basis.synthesize(coeff, grid), basis.analyze(values, grid)):
    print(hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_transforms_bit_equal_at_one_and_two_blas_threads():
    """At J=48 on the degree-144 grid, synthesize and analyze give the same
    bytes at 1 and at 2 BLAS threads."""
    src = str(Path(diracsphere.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert len(outputs[0].split()) == 2
    assert outputs[0] == outputs[1]


def test_eigen_relation_residual(basis5, grid5):
    """D eta_k = lambda_k eta_k with the chart Dirac operator applied through
    exact derivatives of the closed forms."""
    S = basis5.evaluate_matrix(grid5.z_pref, grid5.use_a)
    Dz = basis5.evaluate_matrix(grid5.z_pref, grid5.use_a, deriv=(1, 0))
    Dzb = basis5.evaluate_matrix(grid5.z_pref, grid5.use_a, deriv=(0, 1))
    Dphi = np.empty_like(S)
    Dphi[:, 0, :] = -2j * Dz[:, 1, :]
    Dphi[:, 1, :] = -2j * Dzb[:, 0, :]
    resid = Dphi / grid5.f_pref[:, None, None] - S * basis5.eigenvalues
    r = np.sqrt(np.einsum("n,nci->i", grid5.weights / grid5.f_pref,
                          np.abs(resid) ** 2).real)
    assert r.max() <= 1e-8


def test_dirac_apply_examples(ws8):
    basis = ws8.basis
    zero = zero_spinor(basis)
    assert np.all(dirac_apply(zero).coeff == 0)
    i = next(k for k, ix in enumerate(basis.indices) if ix.j == 2 and ix.sigma == 1)
    e = zero_spinor(basis)
    e.coeff[i] = 1.0
    out = dirac_apply(e)
    assert out.coeff[i] == 3.0  # lambda = 1 + j at j = 2
    assert np.count_nonzero(out.coeff) == 1


def _check_same_basis(a: SpectralSpinor, b: SpectralSpinor):
    if a.basis is not b.basis and a.basis.J != b.basis.J:
        raise ValueError("spinors live on different truncations")


def l2_inner(psi: SpectralSpinor, phi: SpectralSpinor) -> complex:
    """(psi, phi)_2, the complex L^2 pairing."""
    _check_same_basis(psi, phi)
    return complex(np.sum(psi.coeff * np.conj(phi.coeff)))


def h_half_inner(psi: SpectralSpinor, phi: SpectralSpinor) -> float:
    """<psi, phi> = real(|D|^{1/2} psi, |D|^{1/2} phi)_2."""
    _check_same_basis(psi, phi)
    return h_inner(psi.basis, psi.coeff, phi.coeff)


def test_dirac_self_adjoint(ws8):
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = ws8.spinor(random_spinor(ws8, rng))
        b = ws8.spinor(random_spinor(ws8, rng))
        lhs = l2_inner(dirac_apply(a), b)
        rhs = l2_inner(a, dirac_apply(b))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def _parts(psi):
    """psi^+ and psi^-, the parts on the positive and negative eigenvalues."""
    basis = psi.basis
    return (SpectralSpinor(basis, np.where(basis.plus_mask, psi.coeff, 0.0)),
            SpectralSpinor(basis, np.where(basis.minus_mask, psi.coeff, 0.0)))


def test_h_half_inner_examples(ws8):
    basis = ws8.basis
    i = next(k for k, ix in enumerate(basis.indices) if ix.j == 1 and ix.sigma == 1)
    e = zero_spinor(basis)
    e.coeff[i] = 1.0
    assert h_half_inner(e, e) == 2.0  # |lambda| = 2 at j = 1, unit L^2 norm
    rng = np.random.default_rng(6)
    psi = ws8.spinor(random_spinor(ws8, rng))
    plus, minus = _parts(psi)
    assert h_half_inner(plus, minus) == 0.0
    # ||psi||^2 >= ||psi||_{L^2}^2 since |lambda_k| >= 1
    assert h_half_inner(psi, psi) >= l2_inner(psi, psi).real - 1e-12


def test_split_properties(ws8):
    rng = np.random.default_rng(7)
    psi = ws8.spinor(random_spinor(ws8, rng))
    plus, minus = _parts(psi)
    assert np.allclose(plus.coeff + minus.coeff, psi.coeff)
    d_plus = np.sum(ws8.basis.eigenvalues * np.abs(plus.coeff) ** 2)
    d_minus = np.sum(ws8.basis.eigenvalues * np.abs(minus.coeff) ** 2)
    assert d_plus > 0 and d_minus < 0


def test_transform_round_trip_and_parseval():
    basis = SphereBasis(8)
    grid = QuadratureGrid(degree=2 * 8 + 8)  # 2x margin over the Nyquist bound
    rng = np.random.default_rng(8)
    coeff = (rng.normal(size=basis.n_basis) + 1j * rng.normal(size=basis.n_basis))
    values = basis.synthesize(coeff, grid)
    back = basis.analyze(values, grid)
    assert np.abs(back - coeff).max() <= 1e-10
    zero = basis.synthesize(np.zeros(basis.n_basis, complex), grid)
    assert np.all(zero == 0)
    l2_grid = float(grid.integrate(np.sum(np.abs(values) ** 2, 1) / grid.f_pref))
    assert abs(l2_grid - np.sum(np.abs(coeff) ** 2)) <= 1e-10 * np.sum(np.abs(coeff) ** 2)


def test_aliasing_guard():
    basis = SphereBasis(8)
    with pytest.raises(AliasingError):
        basis.synthesis_matrix(QuadratureGrid(degree=10))


def test_h_half_norm_stable_under_truncation_extension():
    rng = np.random.default_rng(9)
    small = SphereBasis(4)
    big = SphereBasis(6)
    coeff = rng.normal(size=small.n_basis) + 1j * rng.normal(size=small.n_basis)
    lookup = {(ix.j, ix.sigma, ix.k): i for i, ix in enumerate(big.indices)}
    embedded = np.zeros(big.n_basis, complex)
    for i, ix in enumerate(small.indices):
        embedded[lookup[(ix.j, ix.sigma, ix.k)]] = coeff[i]
    n_small = float(np.sum(small.abs_eigenvalues * np.abs(coeff) ** 2))
    n_big = float(np.sum(big.abs_eigenvalues * np.abs(embedded) ** 2))
    assert n_big >= n_small - 1e-14
    assert abs(n_big - n_small) < 1e-12


def test_coefficient_file_round_trip(tmp_path, ws8):
    rng = np.random.default_rng(10)
    psi = ws8.spinor(random_spinor(ws8, rng))
    path = tmp_path / "state.txt"
    save_spinor(path, psi)
    again = load_spinor(path)
    assert again.basis.J == ws8.basis.J
    assert np.array_equal(again.coeff, psi.coeff)
    header = path.read_text().splitlines()[:5]
    assert header[0].startswith("# diracsphere-spinor")
    assert any("J=8" in line for line in header)
    with pytest.raises(ValueError):
        load_spinor(path, SphereBasis(4))


def test_basis_chart_transition_consistency():
    """Chart A values at z = 1/w match the fixed SU(2) transition gauge of the
    chart B closed forms."""
    basis = SphereBasis(4)
    rng = np.random.default_rng(11)
    w = rng.normal(size=8) + 1j * rng.normal(size=8)
    z = 1.0 / w
    A = basis.evaluate_matrix(z, True)
    B = basis.evaluate_matrix(w, False)
    g = 1j * z
    assert np.abs(g[:, None] * A[:, 0, :] - B[:, 0, :]).max() < 1e-12
    assert np.abs(np.conj(g)[:, None] * A[:, 1, :] - B[:, 1, :]).max() < 1e-12


def test_evaluate_matches_table_contraction():
    """The recurrence-summed evaluator agrees with contracting the basis
    table, for the value and each Wirtinger derivative, all four asked for
    in one call and returned in the order asked: with both charts in one
    call, and with more points than one chunk, all in chart A."""
    rng = np.random.default_rng(12)
    for J, n_points, north in ((16, 200, False), (5, _BLOCK + 100, True)):
        basis = SphereBasis(J)
        coeff = rng.normal(size=basis.n_basis) + 1j * rng.normal(size=basis.n_basis)
        xyz = rng.normal(size=(n_points, 3))
        xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
        if north:
            xyz[:, 2] = np.abs(xyz[:, 2])
        use_a = xyz[:, 2] >= 0
        assert use_a.all() if north else 0 < use_a.sum() < use_a.size
        z = np.where(use_a, chart_a_coords(xyz), chart_b_coords(xyz))
        orders = ((0, 0), (1, 0), (0, 1), (1, 1))
        values = basis.evaluate(coeff, z, use_a, orders)
        assert len(values) == len(orders)
        for d, got in zip(orders, values):
            ref = np.tensordot(basis.evaluate_matrix(z, use_a, d), coeff,
                               axes=([2], [0]))
            assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def _jacobi_by_degree(x, k, n_max, order):
    """The Jacobi recurrence one degree at a time, as first written."""
    diag, off, scale, start = _jacobi_coefficients(k, n_max, order)
    p_prev, p = np.zeros((2, order + 1, 2, x.size))
    for n in range(n_max + 1):
        if n:
            p, p_prev = ((x - diag[n - 1]) * p - off[n - 2] * p_prev) / off[n - 1], p
        if n <= order:
            p[n] = start[n]
        yield scale[n] * p


def _table_by_degree(basis, z, use_a, deriv):
    """Reference ``evaluate_matrix``: the columns of each (k, d) pair
    computed and scattered on their own."""
    out = np.empty(z.shape + (2, basis.n_basis), dtype=complex)
    for chart, sel in enumerate((use_a, ~use_a)):
        v = z[sel]
        tab = np.zeros((v.size, 2, basis.n_basis + 1), dtype=complex)
        w = _WEIGHTS[chart].copy()
        w[:, 1] = np.conj(w[:, 1])
        rho = (v * np.conj(v)).real
        t = 1.0 / (1.0 + rho)
        omega = 2.0 * v * t
        base = prev = np.full(v.shape, math.pi ** -0.5, dtype=complex)
        for k in range(basis.J + 1):
            for d, P in enumerate(_jacobi_by_degree(t - rho * t, k, basis.J - k, sum(deriv))):
                S = (-1) ** (d * chart) * w[..., None] * P[:, :, None, None, :]

                def atom(e, h, dv):
                    return _atom(v, t, rho * t, k, e, base, prev, S[:, e, h], dv)

                comps = (atom(0, 0, deriv) + np.conj(atom(1, 1, deriv[::-1])),
                         atom(1, 0, deriv) + np.conj(atom(0, 1, deriv[::-1])))
                tab[:, :, basis._cols[k, d]] = np.transpose(comps, (2, 0, 1))
            prev, base = base, base * omega
        out[sel] = tab[:, :, :-1]
    return out


@pytest.mark.parametrize("J", [5, 16])
def test_evaluate_matrix_matches_per_degree_loop(J):
    """One Jacobi pass and one scatter per angular index k give the bits of
    the per-(k, d) loop, for the value and each Wirtinger derivative, at
    points of both charts (the grid transforms and stored states rely on
    the value table's bits)."""
    basis = SphereBasis(J)
    rng = np.random.default_rng(J)
    xyz = rng.normal(size=(60, 3))
    xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
    use_a = xyz[:, 2] >= 0
    assert 0 < use_a.sum() < use_a.size
    z = np.where(use_a, chart_a_coords(xyz), chart_b_coords(xyz))
    for d in ((0, 0), (1, 0), (0, 1), (1, 1)):
        got = np.ascontiguousarray(basis.evaluate_matrix(z, use_a, d))
        assert got.tobytes() == _table_by_degree(basis, z, use_a, d).tobytes()


@pytest.mark.parametrize("J, degree", [(5, 15), (16, 48), (5, 11)])
def test_ring_map_derivatives_match_evaluate(J, degree):
    """The values and the (1,0), (0,1) and (1,1) Wirtinger derivatives at
    the nodes from the ring modes agree with one off-grid evaluator call
    that asks for the same orders, in the chart-A and in the chart-B nodes,
    on degree-3J grids and at degree 2J+1, where a row's modes fill every
    bin; one array per order asked for, in its order; nothing is cached."""
    basis = SphereBasis(J)
    grid = QuadratureGrid(degree=degree)
    rng = np.random.default_rng(J + 3)
    coeff = rng.normal(size=basis.n_basis) + 1j * rng.normal(size=basis.n_basis)
    orders = ((1, 1), (0, 0), (1, 0), (0, 1))
    derivs = basis.synthesize_derivatives(coeff, grid, orders)
    assert not basis._matrix_cache and len(derivs) == len(orders)
    refs = basis.evaluate(coeff, grid.z_pref, grid.use_a, orders)
    assert len(refs) == len(orders)
    for got, ref in zip(derivs, refs):
        assert got.shape == ref.shape == (grid.n_nodes, 2)
        for sel in (grid.use_a, ~grid.use_a):
            assert np.abs(got[sel] - ref[sel]).max() <= 1e-13 * np.abs(ref[sel]).max()


# -- exact-rational oracle for the sign and phase convention ------------------
#
# The closed forms as they were first written: the radial polynomial p of
# the eigenvalue equation by its rational recursion, q = (1+rho) p' - (j+1) p,
# the norm from exact Beta integrals, and each component as a monomial sum
# c z^a zbar^b (1+|z|^2)^-M.  Stored coefficient files depend on this
# convention; float monomial sums are accurate only at small J.


def _oracle_radial(j, k):
    d = j - k
    p = [Fraction(1)]
    for n in range(d):
        num = n * (n - 1) + n * (k - 2 * j) + (j + 1) * (j - k)
        p.append(-p[n] * Fraction(num, (n + 1) * (n + k + 1)))
    q = [((n + 1) * p[n + 1] if n < d else 0) + (n - j - 1) * p[n] for n in range(d + 1)]
    return p, q


@pytest.mark.parametrize("j, k", [(5, 2), (7, 0), (9, 4)])
def test_radial_polynomials_are_jacobi_polynomials(j, k):
    """p = (1+rho)^d P^(k,k+1)_d(x) / C(j,d) and
    q = -(j+1) (1+rho)^d P^(k+1,k)_d(x) / C(j,d), x = (1-rho)/(1+rho),
    exactly, from P^(a,b)_d(x) = sum_s C(d+a, d-s) C(d+b, s)
    ((x-1)/2)^s ((x+1)/2)^(d-s)."""
    d = j - k
    p, q = _oracle_radial(j, k)

    def jacobi_in_rho(a, b):
        return [Fraction((-1) ** s * math.comb(d + a, d - s) * math.comb(d + b, s),
                         math.comb(j, d)) for s in range(d + 1)]

    assert p == jacobi_in_rho(k, k + 1)
    assert q == [-(j + 1) * c for c in jacobi_in_rho(k + 1, k)]


def _oracle_beta(t, coeffs, M):
    """integral_0^inf rho^t s(rho) (1+rho)^-M drho for polynomial s."""
    return sum(c * Fraction(math.factorial(t + n) * math.factorial(M - t - n - 2),
                            math.factorial(M - 1)) for n, c in enumerate(coeffs))


def _oracle_square(p):
    out = [Fraction(0)] * (2 * len(p) - 1)
    for i, a in enumerate(p):
        for l, b in enumerate(p):
            out[i + l] += a * b
    return out


def _oracle_components(ix):
    """{(a, b, M): coefficient} monomial sums of eta_{j,k,sigma}, as
    (chart A component 1, 2, chart B component 1, 2)."""
    j, k, sigma = ix.j, ix.k, ix.sigma
    khat = k if k >= 0 else -1 - k
    p, q = _oracle_radial(j, khat)
    M = 2 * j + 3
    norm = 1.0 / math.sqrt(2 * math.pi * float(
        _oracle_beta(khat, _oracle_square(p), M)
        + _oracle_beta(khat + 1, _oracle_square(q), M) / (j + 1) ** 2))
    c2 = sigma / (j + 1.0)
    a, d = j + 1, j - khat
    if k >= 0:
        parts = ((norm, p, False, khat, 0), (-1j * norm * c2, q, False, khat + 1, 0),
                 (1j * norm, p, True, 0, khat + 1), (-norm * c2, q, True, 0, khat))
    else:
        parts = ((1j * norm * c2, q, False, 0, khat + 1), (-norm, p, False, 0, khat),
                 (-norm * c2, q, True, khat, 0), (1j * norm, p, True, khat + 1, 0))
    out = []
    for c, poly, rev, za, zb in parts:
        coeffs = poly[::-1] if rev else poly
        out.append({(za + n, zb + n, a): c * float(coeffs[n]) for n in range(d + 1)})
    return out


def _oracle_derivative(terms, nz, nzbar):
    """Exact Wirtinger derivative of a monomial sum: d/dz of
    z^a zbar^b u^-M is a z^(a-1) zbar^b u^-M - M z^a zbar^(b+1) u^-(M+1)."""
    for wrt in (0,) * nz + (1,) * nzbar:
        out = {}
        for (a, b, M), c in terms.items():
            e = (a, b)[wrt]
            if e:
                key = (a - 1, b, M) if wrt == 0 else (a, b - 1, M)
                out[key] = out.get(key, 0) + e * c
            key = (a, b + 1, M + 1) if wrt == 0 else (a + 1, b, M + 1)
            out[key] = out.get(key, 0) - M * c
        terms = out
    return terms


def _oracle_matrix(basis, z, use_a, deriv):
    u = 1.0 + np.abs(z) ** 2
    tab = np.empty(z.shape + (2, basis.n_basis), dtype=complex)
    for i, ix in enumerate(basis.indices):
        comps = _oracle_components(ix)
        for c in range(2):
            for chart, sel in ((0, use_a), (2, ~use_a)):
                terms = _oracle_derivative(comps[chart + c], *deriv)
                zs, us = z[sel], u[sel]
                tab[sel, c, i] = sum(coef * zs ** a * np.conj(zs) ** b / us ** M
                                     for (a, b, M), coef in terms.items())
    return tab


@pytest.mark.parametrize("J", [0, 2, 5])
def test_basis_matches_exact_rational_closed_forms(J):
    """evaluate_matrix and evaluate, and their (1,0), (0,1) and (1,1)
    Wirtinger derivatives, against the exact-rational monomial closed forms
    at points of both charts, z = 0 of each chart among them."""
    basis = SphereBasis(J)
    rng = np.random.default_rng(14)
    xyz = rng.normal(size=(40, 3))
    xyz = np.vstack([xyz / np.linalg.norm(xyz, axis=1, keepdims=True),
                     [[0, 0, 1.0], [0, 0, -1.0]]])
    use_a = xyz[:, 2] >= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(use_a, chart_a_coords(xyz), chart_b_coords(xyz))
    assert z[-1] == 0 and z[-2] == 0 and not use_a[-1]
    coeff = rng.normal(size=basis.n_basis) + 1j * rng.normal(size=basis.n_basis)
    for d in ((0, 0), (1, 0), (0, 1), (1, 1)):
        ref = _oracle_matrix(basis, z, use_a, d)
        got = basis.evaluate_matrix(z, use_a, d)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        ref_field = np.tensordot(ref, coeff, axes=([2], [0]))
        got_field, = basis.evaluate(coeff, z, use_a, (d,))
        assert np.abs(got_field - ref_field).max() <= 1e-13 * np.abs(ref_field).max()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(J=st.integers(0, 64), extra=st.integers(0, 64), seed=st.integers(0, 2**32 - 1))
@example(J=64, extra=63, seed=0)  # degree 192
def test_gram_and_round_trip_property(J, extra, seed):
    """At any J <= 64 on a degree-(2J+1) or finer grid: analyze inverts
    synthesize (the Gram matrix is the identity on the coefficients) and
    the quadrature L^2 norm of the field is the coefficient norm."""
    basis = SphereBasis(J)
    grid = QuadratureGrid(degree=2 * J + 1 + min(extra, J + 1))
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=basis.n_basis) + 1j * rng.normal(size=basis.n_basis)
    values = basis.synthesize(coeff, grid)
    assert np.abs(basis.analyze(values, grid) - coeff).max() <= 1e-12
    l2 = float(grid.integrate(np.sum(np.abs(values) ** 2, axis=1) / grid.f_pref))
    assert abs(l2 - np.sum(np.abs(coeff) ** 2)) <= 1e-12 * np.sum(np.abs(coeff) ** 2)
