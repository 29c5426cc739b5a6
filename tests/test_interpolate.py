"""The spline kernel against `scipy.ndimage.map_coordinates`, its oracle."""

import numpy as np
import pytest
from scipy import ndimage

from fluxlab import GridMesh
from fluxlab.interpolate import (PeriodicInterpolator, VectorInterpolator,
                                 evaluate, spline_values, wrap_pad)
from fluxlab.maps import TorusMap


def _oracle(coeffs, coords, order):
    return ndimage.map_coordinates(coeffs, np.stack(coords), order=order,
                                   mode="grid-wrap", prefilter=False)


def _edge_coords(m):
    """Knot coordinates at and around the ends of one period, of both signs."""
    return np.array([0.0, m - 1, m - 1 + 1e-12, m - 1e-12, m, -0.0, -1e-300,
                     -1e-17, -m, 2 * m, 3 * m - 1e-13, 0.5, -0.5, m - 0.5,
                     -m - 1e-12, 1e-300, 7.25 * m, -5.75 * m])


@pytest.mark.parametrize("upsample", [2, 4])
@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("M", [1, 2, 5, 65, 32 * 32])
def test_kernel_is_ndimage_bit_for_bit(upsample, order, M):
    rng = np.random.default_rng(M + 10 * order + upsample)
    m = 32 * upsample
    coeffs = rng.standard_normal((m, m))
    # several periods of both signs
    coords = rng.uniform(-3.0 * m, 3.0 * m, (2, M))
    got = spline_values([wrap_pad(coeffs)], coords, order)[0]
    want = _oracle(coeffs, coords, order)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("upsample", [2, 4])
@pytest.mark.parametrize("order", [1, 3])
def test_kernel_matches_ndimage_at_the_period_ends(upsample, order):
    rng = np.random.default_rng(order + upsample)
    m = 32 * upsample
    coeffs = rng.standard_normal((m, m))
    edge = _edge_coords(m)
    c0, c1 = np.meshgrid(edge, edge, indexing="ij")
    coords = (c0.ravel(), c1.ravel())
    assert np.array_equal(spline_values([wrap_pad(coeffs)], coords, order)[0],
                          _oracle(coeffs, coords, order))
    # one point per call as well: a single point takes the same route
    for p in zip(*coords):
        one = (np.array([p[0]]), np.array([p[1]]))
        assert np.array_equal(spline_values([wrap_pad(coeffs)], one, order)[0],
                              _oracle(coeffs, one, order))


def test_kernel_blocks_are_independent(monkeypatch):
    # points are read in blocks; a block edge inside the points changes nothing
    import fluxlab.interpolate as interpolate
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((64, 64))
    coords = rng.uniform(-200.0, 200.0, (2, 65))
    monkeypatch.setattr(interpolate, "BLOCK", 7)
    for order in (1, 3):
        assert np.array_equal(spline_values([wrap_pad(coeffs)], coords, order)[0],
                              _oracle(coeffs, coords, order))


def test_kernel_keeps_the_sign_of_zero():
    # a running sum from +0.0 never ends at -0.0
    coeffs = np.zeros((8, 8))
    coeffs[3, 3] = -0.0
    coords = (np.array([3.0, -0.0]), np.array([3.0, 2.5]))
    got = spline_values([wrap_pad(coeffs)], coords, 3)[0]
    assert not np.signbit(got).any()
    assert np.array_equal(np.signbit(got), np.signbit(_oracle(coeffs, coords, 3)))


def test_kernel_rejects_other_orders():
    with pytest.raises(ValueError, match="order must be 1 or 3"):
        spline_values([wrap_pad(np.ones((4, 4)))], (np.zeros(1), np.zeros(1)), 2)


def test_interpolator_is_ndimage_on_its_coefficients():
    mesh = GridMesh(N=32)
    rng = np.random.default_rng(4)
    ip = PeriodicInterpolator(rng.standard_normal(mesh.shape), mesh)
    pts = rng.uniform(-2.0, 3.0, (2, 7, 5))
    scaled = (pts[0] * ip._scale[0], pts[1] * ip._scale[1])
    coeffs = ip._coeffs[2:-3, 2:-3]  # without the border wrap_pad adds
    want = ndimage.map_coordinates(coeffs, np.stack(scaled), order=3,
                                   mode="grid-wrap", prefilter=False)
    assert np.array_equal(ip(pts), want)
    assert ip(pts).shape == (7, 5)
    one = ip(pts[:, 0, 0])
    assert np.ndim(one) == 0 and one == want[0, 0]


def test_shared_read_equals_per_component_reads():
    mesh = GridMesh(N=32)
    rng = np.random.default_rng(5)
    fields = [rng.standard_normal(mesh.shape), np.full(mesh.shape, 0.25),
              rng.standard_normal(mesh.shape), rng.standard_normal(mesh.shape)]
    parts = [PeriodicInterpolator(f, mesh) for f in fields]
    for pts in (rng.uniform(-1.0, 2.0, (2, 33)), rng.uniform(0.0, 1.0, (2, 4, 3)),
                np.array([0.3, -0.7])):
        shared = evaluate(parts, pts)
        assert shared.shape == (4, *pts.shape[1:])
        for k, ip in enumerate(parts):
            assert np.array_equal(shared[k], ip(pts))
    vec = VectorInterpolator(np.stack(fields[:2]), mesh)
    pts = rng.uniform(0.0, 1.0, (2, 17))
    assert np.array_equal(vec(pts), np.stack([parts[0](pts), parts[1](pts)]))


def test_map_reads_equal_per_component_reads():
    mesh = GridMesh(N=32)
    x, y = mesh.points
    phi = TorusMap(mesh, np.stack([0.05 * np.sin(2 * np.pi * y),
                                   0.04 * np.cos(2 * np.pi * (x + y))]))
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1.0, 2.0, (2, 40))
    J = phi.jac
    disp = phi.interp_disp(pts)
    jac = phi.interp_jac(pts)
    rough = phi.interp_jac_rough(pts, J)
    scaled = (pts[0] * (mesh.N / mesh.L[0]), pts[1] * (mesh.N / mesh.L[1]))
    for k in range(2):
        assert np.array_equal(disp[k], PeriodicInterpolator(phi.disp[k], mesh)(pts))
        for l in range(2):
            assert np.array_equal(jac[k, l], PeriodicInterpolator(J[k, l], mesh)(pts))
            assert np.array_equal(rough[k, l], _oracle(J[k, l], scaled, 1))
