"""Periodic off-grid interpolation of grid-sampled fields.

The trigonometric interpolant is evaluated on a grid refined by the
mesh's `upsample` factor (exact zero-padding in Fourier space, Nyquist
split) and an interpolating periodic cubic spline is fitted there.  On
the refined grid the spline error is far below every tolerance in this
package while evaluation stays O(1) per point; values at the original
nodes are reproduced exactly.  The upsampling and the cubic B-spline
prefilter are fused into a single pair of real FFTs.

Splines are evaluated here, in numpy, by `spline_values`: the arithmetic
of `scipy.ndimage.map_coordinates(..., mode="grid-wrap", prefilter=False)`
step for step, so every value is that function's to the last bit (the
tests hold it to scipy as the oracle).  Fields read at the same points
share one set of tap indices and weights (`evaluate`).
"""

from __future__ import annotations

import numpy as np

from .mesh import GridMesh


def _spline_coeffs(values: np.ndarray, factor: int) -> np.ndarray:
    """Cubic-spline coefficient array of the `factor`-refined trigonometric
    interpolant: zero-pad in Fourier space and divide by the periodic
    B-spline transfer function, all in one rfft2/irfft2 pair."""
    v = np.asarray(values, dtype=float)
    n0, n1 = v.shape
    m0, m1 = factor * n0, factor * n1
    spec = np.fft.rfft2(v)
    if n0 % 2 == 0:
        spec[n0 // 2, :] *= 0.5
    if n1 % 2 == 0:
        spec[:, n1 // 2] *= 0.5
    pad = np.zeros((m0, m1 // 2 + 1), dtype=complex)
    h0 = n0 // 2
    ncol = n1 // 2 + 1
    pad[:h0 + 1, :ncol] = spec[:h0 + 1]
    neg = n0 - (h0 + 1)
    if neg:
        pad[m0 - neg:, :ncol] = spec[h0 + 1:]
    if n0 % 2 == 0:
        pad[m0 - h0, :ncol] = spec[h0]
    # periodic cubic B-spline prefilter: per-axis transfer 2/3 + cos/3
    t0 = (2.0 / 3.0) + (1.0 / 3.0) * np.cos(2 * np.pi * np.fft.fftfreq(m0))
    t1 = (2.0 / 3.0) + (1.0 / 3.0) * np.cos(2 * np.pi * np.fft.rfftfreq(m1))
    pad /= t0[:, None]
    pad /= t1[None, :]
    return np.fft.irfft2(pad, s=(m0, m1)) * (factor * factor)


#: Points per block of `spline_values`: its work arrays stay small enough
#: that the allocator reuses them instead of mapping fresh pages.
BLOCK = 4096


def _weights(c: np.ndarray, m: np.ndarray, order: int):
    """For points c of shape (2, B) in knot units of a periodic array with
    axis lengths m, shape (2, 1): floor(c) as an index array, and the
    order + 1 B-spline weights of order 1 or 3 on the taps from
    floor(c) - order // 2, each of shape (2, B).  c is overwritten.

    c is first mapped into one period as grid-wrap does: shifted by
    m (trunc(-c / m) + 1) where c < 0 and by -m trunc(c / m) elsewhere (no
    shift inside [0, m)), which can leave it at m or just below 0, so
    floor(c) lies in [-1, m].  The weights are formed as scipy's spline
    code forms them, the last one as 1 minus the others in order; the
    operations are written in place, in that order."""
    # the shift is the integer m ((c < 0) - trunc(c / m)), exact in floats
    shift = np.trunc(c / m)
    np.subtract(c < 0, shift, out=shift)
    shift *= m
    c += shift
    f = np.floor(c)
    t = np.subtract(c, f, out=c)
    if order == 1:
        w0 = 1.0 - t
        return f.astype(np.intp), [w0, 1.0 - w0]
    if order != 3:
        raise ValueError(f"spline order must be 1 or 3, got {order}")
    z = 1.0 - t
    w0 = z * z
    w0 *= z
    w0 /= 6.0
    weights = [w0]
    for y in (t, z):
        # (y y (y - 2) 3 + 4) / 6
        w = y * y
        w *= np.subtract(y, 2.0, out=shift)
        w *= 3.0
        w += 4.0
        w /= 6.0
        weights.append(w)
    w3 = 1.0 - w0
    w3 -= weights[1]
    w3 -= weights[2]
    weights.append(w3)
    return f.astype(np.intp), weights


#: Wrapped rows and columns `wrap_pad` puts before and after an array: the
#: taps floor(c) - order // 2 + k of `spline_values` lie in [-2, m + 2].
PAD = (2, 3)


def wrap_pad(a: np.ndarray) -> np.ndarray:
    """The periodic array a with `PAD` rows and columns of its wrap-around
    before and after, as `spline_values` reads it: every tap of a point
    wrapped into one period then lies inside, and the order + 1 taps along
    axis 1 are contiguous."""
    m0, m1 = a.shape
    return (a.take(np.arange(-PAD[0], m0 + PAD[1]) % m0, axis=0)
            .take(np.arange(-PAD[0], m1 + PAD[1]) % m1, axis=1))


def spline_values(padded, coords, order: int) -> np.ndarray:
    """Values of the periodic B-splines of `order` (1 or 3) whose
    coefficient arrays, all of one shape (m0, m1), are given padded by
    `wrap_pad`, at the coordinates (c0, c1) in knot units, each of M values
    in any shape; shape (len(padded), M).

    This is `scipy.ndimage.map_coordinates(a, coords, order=order,
    mode="grid-wrap", prefilter=False)` for each coefficient array a, bit
    for bit: the value is the running sum from +0.0, over the taps in
    row-major order, of (coefficient * axis-0 weight) * axis-1 weight.
    The taps and weights are computed once for all arrays; the points are
    read in blocks of `BLOCK`, one axis-0 tap at a time, which gathers the
    contiguous axis-1 taps at once, so the work memory is
    O(min(M, BLOCK)) per array.
    """
    flats = [np.ravel(a) for a in padded]
    p0, p1 = np.shape(padded[0])
    m = np.array([[p0], [p1]], dtype=float) - sum(PAD)
    pts = np.array([np.ravel(coords[0]), np.ravel(coords[1])], dtype=float)
    # flat offsets of the axis-1 taps of each axis-0 tap, from the first tap
    offsets = [a * p1 + np.arange(order + 1)[:, None] for a in range(order + 1)]
    out = np.zeros((len(flats), pts.shape[1]))
    for lo in range(0, pts.shape[1], BLOCK):
        f, weights = _weights(pts[:, lo:lo + BLOCK], m, order)
        # the first tap, floor(c) - order // 2, sits PAD[0] in from the edge
        first = (f[0] + (PAD[0] - order // 2)) * p1 + (f[1] + (PAD[0] - order // 2))
        axis1 = np.array([w[1] for w in weights])
        acc = out[:, lo:lo + BLOCK]
        idx = np.empty(axis1.shape, dtype=np.intp)
        term = np.empty(axis1.shape)
        for offset, w in zip(offsets, weights):
            np.add(first, offset, out=idx)
            for flat, total in zip(flats, acc):
                # idx is in range by construction: skip the check
                flat.take(idx, out=term, mode="clip")
                term *= w[0]
                term *= axis1
                for part in term:
                    total += part
    return out


class PeriodicInterpolator:
    """Evaluate a periodic grid field at arbitrary physical coordinates."""

    def __init__(self, values: np.ndarray, mesh: GridMesh):
        self.mesh = mesh
        values = np.asarray(values, dtype=float)
        lo, hi = values.min(), values.max()
        if lo == hi:
            # constant fields interpolate to themselves
            self._const = float(lo)
            self._coeffs = None
            return
        self._const = None
        coeffs = _spline_coeffs(values, mesh.upsample)
        m0, m1 = coeffs.shape
        self._scale = (m0 / mesh.L[0], m1 / mesh.L[1])
        self._coeffs = wrap_pad(coeffs)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Interpolate at `points` of shape (2,) or (2, ...); periodic."""
        return evaluate((self,), points)[0]


def evaluate(interps, points: np.ndarray) -> np.ndarray:
    """The values of several interpolators of one mesh at `points` of shape
    (2,) or (2, ...), stacked: shape (len(interps),) + points.shape[1:].

    A constant field gives its constant; the splines of the others share
    one set of taps and weights.  Each value equals the one its
    interpolator gives alone.
    """
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(2, -1)
    live = [k for k, ip in enumerate(interps) if ip._const is None]
    if live:
        s0, s1 = interps[live[0]]._scale
        values = spline_values([interps[k]._coeffs for k in live],
                               (flat[0] * s0, flat[1] * s1), order=3)
    if len(live) < len(interps):
        out = np.empty((len(interps), flat.shape[1]))
        for k, ip in enumerate(interps):
            if ip._const is not None:
                out[k] = ip._const
        if live:
            out[live] = values
        values = out
    return values.reshape(len(interps), *pts.shape[1:])


class VectorInterpolator:
    """Componentwise interpolation of a (2, N, N) vector field."""

    def __init__(self, components: np.ndarray, mesh: GridMesh):
        self._parts = [PeriodicInterpolator(components[k], mesh) for k in range(2)]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return evaluate(self._parts, points)
