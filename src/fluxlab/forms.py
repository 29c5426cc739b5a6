"""Discrete exterior calculus on flat periodic grids.

Differential forms are stored by components on a GridMesh and
differentiated spectrally, so all identities (d o d = 0, Hodge
orthogonality, exactness of quadrature on trig polynomials) hold to
round-off for band-limited fields.

Harmonic 1-forms on the flat torus are exactly the constant-component
forms, so the harmonic part of a Hodge split is componentwise mean
extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .interpolate import PeriodicInterpolator, evaluate
from .mesh import GridMesh

#: Relative tolerance scale for closedness and Hodge residuals; spectral
#: differentiation leaves only round-off on smooth fields.
TOL_SCALE = 1e-8


class NonClosedFormError(ValueError):
    """Raised when an operation requires a closed form and the residual is
    above tolerance, i.e. the caller passed a non-cohomological object."""


def tol_closed(alpha: "OneForm") -> float:
    return TOL_SCALE * (1.0 + sup_norm(alpha))


def _check_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite values in field data")


def _frozen(values) -> np.ndarray:
    """A read-only float copy: forms are values, and what a form caches
    (its closedness residual, its interpolators) relies on its arrays
    never changing.  An array whose strides are all zero, as
    `_constant_field` builds, is a constant field: only its one value is
    copied, and it stays a read-only stride-0 view of its shape."""
    if isinstance(values, np.ndarray) and values.size and not any(values.strides):
        one = np.array(values.flat[0], dtype=float)
        one.setflags(write=False)
        return np.broadcast_to(one, values.shape)
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _constant_field(mesh: GridMesh, c: float) -> np.ndarray:
    """The constant c on the grid, stored once: a stride-0 view, as
    `TorusMap` stores a translation."""
    return np.broadcast_to(float(c), mesh.shape)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A 0-form: real values on the grid."""

    mesh: GridMesh
    values: np.ndarray

    def __post_init__(self):
        v = _frozen(self.values)
        if v.shape != self.mesh.shape:
            raise ValueError(f"field shape {v.shape} != mesh shape {self.mesh.shape}")
        _check_finite(v)
        object.__setattr__(self, "values", v)

    @cached_property
    def _interp(self) -> PeriodicInterpolator:
        return PeriodicInterpolator(self.values, self.mesh)

    def at(self, points: np.ndarray) -> np.ndarray:
        """Interpolated values at physical coordinates, shape (2, ...)."""
        return self._interp(np.asarray(points, dtype=float))

    def mean(self) -> float:
        return self.mesh.mean(self.values)

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(self.mesh, self.values - other.values)
        return ScalarField(self.mesh, self.values - other)


@dataclass(frozen=True, eq=False)
class OneForm:
    """A 1-form a_x dx + a_y dy with component grids (ax, ay)."""

    mesh: GridMesh
    ax: np.ndarray
    ay: np.ndarray

    def __post_init__(self):
        ax = _frozen(self.ax)
        ay = _frozen(self.ay)
        if ax.shape != self.mesh.shape or ay.shape != self.mesh.shape:
            raise ValueError("component shape does not match mesh")
        _check_finite(ax, ay)
        object.__setattr__(self, "ax", ax)
        object.__setattr__(self, "ay", ay)

    @classmethod
    def constant(cls, mesh: GridMesh, cx: float, cy: float) -> "OneForm":
        return cls(mesh, _constant_field(mesh, cx), _constant_field(mesh, cy))

    @property
    def components(self) -> np.ndarray:
        return np.stack([self.ax, self.ay])

    @cached_property
    def closedness_residual(self) -> float:
        """Cached sup norm of the exterior derivative."""
        return sup_norm(exterior_derivative(self))

    def require_closed(self, tol: float | None = None, what: str = "operation"):
        t = tol if tol is not None else tol_closed(self)
        if self.closedness_residual > t:
            raise NonClosedFormError(
                f"{what} requires a closed 1-form: d-residual "
                f"{self.closedness_residual:.3e} exceeds {t:.3e}")

    @cached_property
    def _interp(self):
        return (PeriodicInterpolator(self.ax, self.mesh),
                PeriodicInterpolator(self.ay, self.mesh))

    def at(self, points: np.ndarray) -> np.ndarray:
        """Interpolated components at physical coordinates; shape (2, ...)."""
        return evaluate(self._interp, points)

    def is_zero(self) -> bool:
        return not (np.any(self.ax) or np.any(self.ay))

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.mesh, self.ax - other.ax, self.ay - other.ay)


@dataclass(frozen=True, eq=False)
class TwoForm:
    """A 2-form rho dx ^ dy stored by its density rho."""

    mesh: GridMesh
    density: np.ndarray

    def __post_init__(self):
        d = _frozen(self.density)
        if d.shape != self.mesh.shape:
            raise ValueError("density shape does not match mesh")
        _check_finite(d)
        object.__setattr__(self, "density", d)


@dataclass(frozen=True)
class CohomologyClass1:
    """Period vector of a closed 1-form over the two generator loops."""

    periods: tuple[float, float]

    def __getitem__(self, k):
        return self.periods[k]

    def max_abs(self) -> float:
        return max(abs(self.periods[0]), abs(self.periods[1]))


@dataclass(frozen=True, eq=False)
class HodgeSplit:
    """The potential F and harmonic part h of the orthogonal splitting
    alpha = dF + delta(beta) + h on the flat torus."""

    potential: ScalarField  # F, mean zero
    harmonic: OneForm       # constant components


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def exterior_derivative(obj):
    """d on 0-forms and 1-forms (spectral).

    ScalarField -> OneForm (f_x, f_y); OneForm -> TwoForm with density
    d(a dx + b dy) = (b_x - a_y) dx ^ dy.
    """
    mesh = obj.mesh
    if isinstance(obj, ScalarField):
        return OneForm(mesh, *mesh.gradient(obj.values))
    if isinstance(obj, OneForm):
        return TwoForm(mesh, mesh.derivative(obj.ay, 0) - mesh.derivative(obj.ax, 1))
    raise TypeError(f"cannot apply d to {type(obj).__name__}")


def sup_norm(obj) -> float:
    """Uniform norm: pointwise flat-metric length for 1-forms, max |value|
    for scalars and densities."""
    if isinstance(obj, OneForm):
        return float(np.sqrt(obj.ax ** 2 + obj.ay ** 2).max())
    if isinstance(obj, ScalarField):
        return float(np.abs(obj.values).max())
    if isinstance(obj, TwoForm):
        return float(np.abs(obj.density).max())
    raise TypeError(f"no sup norm for {type(obj).__name__}")


def l2_norm(obj) -> float:
    """L2 norm by cell-average quadrature."""
    mesh = obj.mesh
    if isinstance(obj, OneForm):
        return float(np.sqrt(mesh.integrate(obj.ax ** 2 + obj.ay ** 2)))
    if isinstance(obj, ScalarField):
        return float(np.sqrt(mesh.integrate(obj.values ** 2)))
    raise TypeError(f"no L2 norm for {type(obj).__name__}")


def wedge_integral(a: OneForm, b: OneForm) -> float:
    """Integral of a ^ b over the torus (orientation dx ^ dy positive)."""
    return a.mesh.integrate(a.ax * b.ay - a.ay * b.ax)


def hodge_decompose(alpha: OneForm) -> HodgeSplit:
    """Split alpha = dF + coexact + harmonic (L2-orthogonal) and return
    F and the harmonic part.

    The harmonic part is the componentwise mean, F solves the Poisson
    problem for the curl-free part in Fourier space, and the coexact part
    is the remainder alpha - dF - h.  For closed alpha the coexact part
    vanishes to round-off.
    """
    mesh = alpha.mesh
    harmonic = OneForm.constant(mesh, float(alpha.ax.mean()), float(alpha.ay.mean()))
    return HodgeSplit(potential=ScalarField(mesh, mesh.potential(alpha.ax, alpha.ay)),
                      harmonic=harmonic)


def harmonic_periods(alpha: OneForm) -> CohomologyClass1:
    """Periods of the harmonic part of alpha, with no closedness check; the
    periods of alpha itself when alpha is closed."""
    return CohomologyClass1((float(alpha.ax.mean()) * alpha.mesh.L[0],
                             float(alpha.ay.mean()) * alpha.mesh.L[1]))


def harmonic_representative(mesh: GridMesh, cls: CohomologyClass1) -> OneForm:
    """The constant-component form with the given periods."""
    return OneForm.constant(mesh, cls.periods[0] / mesh.L[0],
                            cls.periods[1] / mesh.L[1])


def oscillation(f: ScalarField) -> float:
    """osc(f) = max f - min f over the grid."""
    return float(f.values.max() - f.values.min())
