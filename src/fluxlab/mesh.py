"""Uniform periodic grids on the flat 2-torus R^2 / (L0 Z x L1 Z)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridMesh:
    """Flat torus discretized by an N x N periodic grid.

    Grid points are x[i, j] = (i * L0 / N, j * L1 / N); fields live on
    (N, N) arrays indexed [i, j] with axis 0 along x and axis 1 along y.
    The metric is the flat diagonal one, the volume form is dx ^ dy, and
    the orientation is (dx, dy) positive.

    `upsample` sets the off-grid interpolation used by everything built
    on this mesh: the grid is refined by that factor through the
    trigonometric interpolant before a periodic cubic spline is fitted.
    It must be at least 2: the fused spline prefilter splits the Nyquist
    mode for a refined grid and is not the raw-grid spline at factor 1.
    """

    N: int = 128
    L: tuple[float, float] = (1.0, 1.0)
    upsample: int = 2

    def __post_init__(self):
        if not _is_power_of_two(self.N) or self.N < 16:
            raise ValueError(f"N must be a power of two >= 16, got {self.N}")
        object.__setattr__(self, "L", (float(self.L[0]), float(self.L[1])))
        if any(l <= 0 for l in self.L):
            raise ValueError(f"periods must be positive, got {self.L}")
        if self.upsample < 2:
            raise ValueError(f"upsample must be at least 2, got {self.upsample}")

    # -- geometry -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.N, self.N)

    @property
    def spacing(self) -> tuple[float, float]:
        return (self.L[0] / self.N, self.L[1] / self.N)

    @property
    def volume(self) -> float:
        return self.L[0] * self.L[1]

    @property
    def cell_volume(self) -> float:
        return self.volume / (self.N * self.N)

    @property
    def injectivity_radius(self) -> float:
        return min(self.L) / 2.0

    @cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.arange(self.N) * (l / self.N) for l in self.L)

    @cached_property
    def points(self) -> np.ndarray:
        """Grid coordinates, shape (2, N, N)."""
        X, Y = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
        pts = np.stack([X, Y])
        pts.setflags(write=False)
        return pts

    @cached_property
    def flat_points(self) -> np.ndarray:
        """Grid coordinates flattened to (2, N*N)."""
        pts = self.points.reshape(2, -1).copy()
        pts.setflags(write=False)
        return pts

    # -- spectral helpers ---------------------------------------------------

    @cached_property
    def _rfft_wavenumbers(self) -> tuple[np.ndarray, np.ndarray]:
        """Wavenumber grids matching the rfft2 half spectrum."""
        k0 = 2 * np.pi * np.fft.fftfreq(self.N, d=self.spacing[0])
        k1 = 2 * np.pi * np.fft.rfftfreq(self.N, d=self.spacing[1])
        K0, K1 = np.meshgrid(k0, k1, indexing="ij")
        K0.setflags(write=False)
        K1.setflags(write=False)
        return K0, K1

    def derivative(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Spectral partial derivative along the given axis."""
        K = self._rfft_wavenumbers[axis]
        return np.fft.irfft2(1j * K * np.fft.rfft2(values), s=self.shape)

    def gradient(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Both spectral partials, shape (2, N, N), from a single forward
        transform; written into `out` when given."""
        spec = np.fft.rfft2(values)
        K0, K1 = self._rfft_wavenumbers
        if out is None:
            out = np.empty((2, *self.shape))
        out[0] = np.fft.irfft2(1j * K0 * spec, s=self.shape)
        out[1] = np.fft.irfft2(1j * K1 * spec, s=self.shape)
        return out

    def line_derivative(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Spectral derivative along `axis` of a field stored on one grid
        line, the 1-D array of its N values along that axis; its derivative
        along the other axis is 0.

        The transforms are those `rfft2` and `irfft2` apply to that axis, so
        each value equals the full-grid `gradient` of the line's broadcast
        view: `rfft` and `irfft` along axis 1, a complex `fft` and `ifft`
        along axis 0, keeping the real part.  A plain `rfft` along axis 0
        differs by round-off.
        """
        K = self._rfft_wavenumbers[axis]
        if axis == 1:
            return np.fft.irfft(1j * K[0] * np.fft.rfft(values), n=self.N)
        return np.fft.ifft(1j * K[:, 0] * np.fft.fft(values)).real

    def potential(self, ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
        """Mean-zero F whose gradient is the curl-free part of the 1-form
        (ax, ay): the Poisson problem lap F = div a solved in Fourier
        space."""
        K0, K1 = self._rfft_wavenumbers
        k2 = K0 * K0 + K1 * K1
        k2[0, 0] = 1.0
        Fh = (K0 * np.fft.rfft2(ax) + K1 * np.fft.rfft2(ay)) / (1j * k2)
        Fh[..., 0, 0] = 0.0
        return np.fft.irfft2(Fh, s=self.shape)

    # -- quadrature ---------------------------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        """Cell-average quadrature, exact for trig polynomials below Nyquist."""
        return float(np.sum(values) * self.cell_volume)

    def mean(self, values: np.ndarray) -> float:
        return float(np.mean(values))

    # -- torus arithmetic ----------------------------------------------------

    def wrap_delta(self, deltas: np.ndarray) -> np.ndarray:
        """Wrap per-axis differences into (-L/2, L/2], ties broken toward +L/2.

        `deltas` has shape (2, ...).
        """
        out = np.empty_like(deltas, dtype=float)
        for k in range(2):
            l = self.L[k]
            # ceil(d/l - 1/2) maps the representative into (-l/2, l/2]
            out[k] = deltas[k] - l * np.ceil(deltas[k] / l - 0.5)
        return out

    def torus_distance(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Flat-torus distance between point arrays of shape (2, ...)."""
        d = self.wrap_delta(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))
        return np.sqrt(d[0] ** 2 + d[1] ** 2)

    def same_grid(self, other: "GridMesh") -> bool:
        return self.N == other.N and self.L == other.L
