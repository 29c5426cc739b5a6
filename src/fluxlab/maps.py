"""Diffeomorphisms of the flat torus as periodic displacement fields.

A map is stored as x -> x + u(x) mod L with u a smooth periodic
displacement sampled on the grid.  Its Jacobian is stored, or computed
by a function on every read and never kept.  Closed-form constructions
(see `catalog`) supply analytic Jacobians, as arrays or as functions of
their parameters, and builders of their analytic inverses; any other map,
composites included, gets the default function, the spectral derivative
I + du of its displacement, and its inverse comes from a damped Newton
iteration on the lift.

Maps are immutable after construction; interpolators, the inverse and
the determinant are cached lazily, so sharing across threads is safe once
built.  A map refers to its inverse, never the other way round, so no
map is part of a reference cycle and each is freed as soon as it is
dropped.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .forms import OneForm, hodge_decompose, sup_norm
from .interpolate import (PeriodicInterpolator, VectorInterpolator,
                          evaluate, spline_values, wrap_pad)
from .mesh import GridMesh

#: Newton inversion: residual target is TOL_INV_SCALE * max(L), at most
#: MAX_NEWTON_ITER iterations, step halving on overshoot.
TOL_INV_SCALE = 1e-10
MAX_NEWTON_ITER = 50


class DiffeomorphismError(ValueError):
    """The displacement field does not define an orientation-preserving
    diffeomorphism (det J <= 0 somewhere)."""


class InversionError(RuntimeError):
    """Newton iteration for the inverse map failed to converge."""


def _lattice_normalize(disp: np.ndarray, L) -> np.ndarray:
    """Shift each component by the integer multiple of the period that puts
    its midrange into (-L/2, L/2] (ties toward +L/2).

    A constant lattice shift keeps the field smooth; wrapping pointwise
    would tear it along level sets.
    """
    out = disp.copy()
    for k in range(2):
        mid = 0.5 * (out[k].max() + out[k].min())
        out[k] -= L[k] * np.ceil(mid / L[k] - 0.5)
    return out


#: The identity Jacobian as a constant field (see TorusMap).
UNIT_JAC = np.eye(2).reshape(2, 2, 1, 1)
UNIT_JAC.setflags(write=False)


def _check_field(field: np.ndarray, lead: tuple, N: int, name: str) -> None:
    """A field is `lead` components over grid axes of length 1 or N each."""
    shape = field.shape
    if not (len(shape) == len(lead) + 2 and shape[:-2] == lead
            and all(n in (1, N) for n in shape[-2:])):
        raise ValueError(f"{name} shape {shape} is not {lead} + (a, b) "
                         f"with a, b in (1, {N})")


def _frozen(field: np.ndarray, shape: tuple) -> np.ndarray:
    """Freeze a fresh float array; one with unit grid axes becomes a
    read-only stride-0 view of `shape`."""
    field.setflags(write=False)
    return field if field.shape == shape else np.broadcast_to(field, shape)


class TorusMap:
    """A diffeomorphism x -> x + u(x) mod L of the flat torus.

    The displacement is given with shape (2, a, b), where each grid axis
    a, b is N or 1; it is copied and frozen.  A unit grid axis marks a
    field that is constant along that axis: it is stored once on the
    remaining grid line (or point) and read as a read-only stride-0 view of
    the full shape (2, N, N) or (2, 2, N, N).  So a translation holds no
    grid arrays and a shear one grid line.

    The Jacobian is stored or computed on read.  An array of shape
    (2, 2, a, b) is copied, frozen and stored the same way: closed-form
    builders supply one.  A zero-argument function returning the field on
    grid axes of length 1 or N is called on every `jac` read, which
    returns it as a read-only view of the full shape, and nothing is kept:
    a bump rotation passes its closed form, and a map given no Jacobian
    (integrated flow samples, Newton inverses, composites) gets the
    default function, the spectral I + du of its stored displacement
    (`_spectral_jac`).  So a composite stored on one grid line is
    differentiated on that line, and a constant one has Jacobian I.  Such
    a function should close over parameters only, not grid arrays, or it
    keeps them alive.  A caller that reads one map's Jacobian more than
    once takes it once into a local.
    `check=False` skips the determinant validation for maps whose
    invertibility is guaranteed by construction (e.g. converged Newton
    inverses).

    `inverse`, which closed-form builders supply, is a zero-argument
    function building the inverse map; it closes over parameters only.
    """

    def __init__(self, mesh: GridMesh, disp: np.ndarray,
                 jac: np.ndarray | Callable[[], np.ndarray] | None = None,
                 provenance: dict | None = None, normalize: bool = False,
                 check: bool = True,
                 inverse: Callable[[], TorusMap] | None = None):
        disp = np.array(disp, dtype=float)
        _check_field(disp, (2,), mesh.N, "displacement")
        if not np.all(np.isfinite(disp)):
            raise ValueError("non-finite displacement")
        if normalize:
            disp = _lattice_normalize(disp, mesh.L)
        self.mesh = mesh
        # the stored fields, on their (a, b) grid axes, and their full views
        self._stored_disp = disp
        self.disp = _frozen(disp, (2, mesh.N, mesh.N))
        if jac is None:
            # the default: the spectral I + du on the stored axes, read
            # late, so a rebound `_spectral_jac` is the one called
            jac = lambda: _spectral_jac(mesh, disp)
        if callable(jac):
            self._jac_fn, self._stored_jac, self._jac = jac, None, None
        else:
            jac = np.array(jac, dtype=float)
            _check_field(jac, (2, 2), mesh.N, "jacobian")
            self._jac_fn, self._stored_jac = None, jac
            self._jac = _frozen(jac, (2, 2, mesh.N, mesh.N))
        self._det = None
        self.provenance = dict(provenance or {})
        self._interp: dict[str, object] = {}
        # the inverse once built, else its builder (None: Newton)
        self._inverse: TorusMap | Callable[[], TorusMap] | None = inverse
        # displacement-layer results: id(form) -> (form, potential) and
        # sampler key -> report; the form is kept so that ids stay unique
        self._potential_cache: dict = {}
        self._norm_cache: dict = {}
        if check:
            self._validate()

    @property
    def jac(self) -> np.ndarray:
        """The Jacobian field (2, 2, N, N): a stored one as its view, else
        a fresh one from the Jacobian function on every read, viewed at the
        full shape."""
        if self._jac is None:
            return _frozen(self._jac_fn(), (2, 2, self.mesh.N, self.mesh.N))
        return self._jac

    def _jac_field(self) -> np.ndarray:
        """The Jacobian on the grid axes it is stored or computed on."""
        return self._jac_fn() if self._jac is None else self._stored_jac

    @property
    def det(self) -> np.ndarray:
        return self._det if self._det is not None else self._det_from(self._jac_field())

    def _det_from(self, J: np.ndarray) -> np.ndarray:
        """`det`, computed on its first read from J, this map's Jacobian,
        which a caller that holds it passes in."""
        if self._det is None:
            self._det = _frozen(_det2(J), self.mesh.shape)
        return self._det

    def _validate(self):
        # neither det nor a Jacobian computed on read is kept here: most
        # validated maps never read them again
        require_positive_det(self.mesh, self._jac_field())

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, mesh: GridMesh) -> "TorusMap":
        return cls(mesh, np.zeros((2, 1, 1)), jac=UNIT_JAC,
                   provenance={"kind": "identity"})

    # -- cached interpolators --------------------------------------------------

    def _get_interp(self, key: str, values: np.ndarray) -> PeriodicInterpolator:
        ip = self._interp.get(key)
        if ip is None:
            ip = PeriodicInterpolator(values, self.mesh)
            self._interp[key] = ip
        return ip

    def interp_disp(self, points: np.ndarray) -> np.ndarray:
        return evaluate((self._get_interp("u0", self.disp[0]),
                         self._get_interp("u1", self.disp[1])), points)

    def interp_jac(self, points: np.ndarray) -> np.ndarray:
        entries = [(k, l) for k in range(2) for l in range(2)]
        # the Jacobian is read once, and only to build a missing interpolator
        J = None if all(f"j{k}{l}" in self._interp for k, l in entries) else self.jac
        out = evaluate([self._get_interp(f"j{k}{l}", None if J is None else J[k, l])
                        for k, l in entries], points)
        return out.reshape(2, 2, *out.shape[1:])

    def interp_jac_rough(self, points: np.ndarray, J: np.ndarray) -> np.ndarray:
        """Bilinear lookup of J, this map's Jacobian field, which the caller
        reads once; enough to steer Newton steps."""
        coords = (points[0] * (self.mesh.N / self.mesh.L[0]),
                  points[1] * (self.mesh.N / self.mesh.L[1]))
        values = spline_values([wrap_pad(J[k, l]) for k in range(2) for l in range(2)],
                               coords, order=1)
        return values.reshape(2, 2, *np.shape(points)[1:])

    # -- evaluation --------------------------------------------------------------

    @property
    def position(self) -> np.ndarray:
        """Image of the grid on the lift: grid + u, shape (2, N, N)."""
        return self.mesh.points + self.disp

    @property
    def flat_position(self) -> np.ndarray:
        return self.position.reshape(2, -1)

    def is_identity(self, tol: float = 1e-12) -> bool:
        return bool(np.abs(self._stored_disp).max() <= tol)

    def inverse(self, near: "TorusMap | None" = None) -> "TorusMap":
        """The inverse map, built on the first call and kept: the closed
        form if the map was given one, else `_newton_inverse`, warm-started
        from `near`, the inverse of a nearby map, when one is given.  A map
        whose stored displacement is exactly 0 is its own inverse and keeps
        nothing.  The inverse keeps no reference to this map."""
        inv = self._inverse
        if isinstance(inv, TorusMap):
            return inv
        if not self._stored_disp.any():
            return self
        inv = _newton_inverse(self, near) if inv is None else inv()
        self._inverse = inv
        return inv


def _spectral_jac(mesh: GridMesh, disp: np.ndarray) -> np.ndarray:
    """I + du for a displacement field (2, a, b) with grid axes a, b of
    length 1 or N, read-only, on the same axes.

    A full field (2, N, N) gets each component's gradient written into the
    Jacobian itself: a stacked gradient, or one transform of all
    components, makes temporaries large enough that the allocator maps and
    unmaps them on every read.  A field stored on one grid line is
    differentiated on that line (`GridMesh.line_derivative`), and a
    constant one has Jacobian I.  Each value equals the full-grid result
    for the field's broadcast view; an entry that is 0 there may be -0.0.
    """
    shape = disp.shape[1:]
    if shape == mesh.shape:
        jac = np.empty((2, 2, *shape))
        for k in range(2):
            mesh.gradient(disp[k], out=jac[k])
    else:
        jac = np.zeros((2, 2, *shape))
        if shape != (1, 1):
            axis = 0 if shape[1] == 1 else 1
            for k in range(2):
                jac[k, axis] = mesh.line_derivative(disp[k].ravel(), axis).reshape(shape)
    for k in range(2):
        jac[k, k] += 1.0
    jac.setflags(write=False)
    return jac


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def evaluate_lift(phi: TorusMap, x) -> np.ndarray:
    """phi on the lift: x + u(x), no reduction mod L."""
    pts = np.asarray(x, dtype=float)
    return pts + phi.interp_disp(pts)


def compose(phi: TorusMap, psi: TorusMap, normalize: bool = True,
            chain_jac: bool = False, check: bool = True) -> TorusMap:
    """Grid-sampled phi o psi.

    The composite displacement is lifted to the branch with minimal
    midrange (nearest lift); a failed diffeomorphism check raises rather
    than silently accepting the composite.  The composite keeps no
    Jacobian: it differentiates its own displacement spectrally on each
    `jac` read, so a composite the grid cannot resolve fails the check
    even when its factors have well-behaved closed forms.

    When phi is a translation (a constant stored displacement c) the
    composite displacement is psi's stored displacement plus c, on psi's
    stored grid axes: the interpolators of constant fields return the
    constants, so this equals the interpolated displacement bit for bit.

    `chain_jac` accepts only False and raises ValueError otherwise.  It
    exists only for the perfbench norm-sweep workload, which still passes
    `chain_jac=False`, and goes when that workload stops passing it.
    """
    if chain_jac is not False:
        raise ValueError("compose chains no Jacobians: chain_jac must be False")
    if not phi.mesh.same_grid(psi.mesh):
        raise ValueError("maps live on different meshes")
    if psi.is_identity():
        return phi
    if phi.is_identity():
        return psi
    if phi._stored_disp.shape == (2, 1, 1):
        u = psi._stored_disp + phi._stored_disp
    else:
        u = psi.disp + phi.interp_disp(psi.flat_position).reshape(2, *psi.mesh.shape)
    return TorusMap(phi.mesh, u, normalize=normalize, check=check)


def _det2(J: np.ndarray) -> np.ndarray:
    """Pointwise determinant of a (2, 2, ...) matrix field."""
    return J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]


def require_positive_det(mesh: GridMesh, J: np.ndarray) -> None:
    """Raise DiffeomorphismError unless det J > 0 at every grid point of
    the Jacobian field J, given on the grid axes it is stored on."""
    det = _det2(J)
    if det.min() <= 0.0:
        # on a unit grid axis index 0 is a grid point of the minimum too
        i, j = np.unravel_index(np.argmin(det), det.shape)
        raise DiffeomorphismError(
            f"det J = {det.min():.3e} <= 0 at grid point "
            f"({mesh.axes[0][i]:.4f}, {mesh.axes[1][j]:.4f})")


def _solve_2x2(J: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise J^{-1} v for a (2, 2, ...) matrix field and a (2, ...)
    vector field."""
    det = _det2(J)
    return np.stack([(J[1, 1] * v[0] - J[0, 1] * v[1]) / det,
                     (-J[1, 0] * v[0] + J[0, 0] * v[1]) / det])


def _newton_inverse(phi: TorusMap, near: TorusMap | None = None) -> TorusMap:
    """Solve phi(y) = x per grid point by damped Newton on the lift,
    starting from x - u(x), or from `near`, the inverse of a nearby map."""
    mesh = phi.mesh
    tol = TOL_INV_SCALE * max(mesh.L)
    x = mesh.flat_points
    y = x - phi.disp.reshape(2, -1) if near is None else x + near.disp.reshape(2, -1)

    def residual(yy):
        r = yy + phi.interp_disp(yy) - x
        return r, np.abs(r).max(axis=0)

    J = phi.jac  # read once: phi may compute it on every read
    r, rn = residual(y)
    for _ in range(MAX_NEWTON_ITER):
        if rn.max() <= tol:
            # the inverse's Jacobian is the spectral one of its (smooth)
            # displacement; Newton convergence certifies invertibility
            return TorusMap(mesh, (y - x).reshape(2, *mesh.shape), check=False)
        dy = _solve_2x2(phi.interp_jac_rough(y, J), r)
        step = np.ones_like(rn)
        for _ in range(8):
            y_try = y - step * dy
            r_try, rn_try = residual(y_try)
            worse = rn_try > rn
            if not worse.any():
                break
            step = np.where(worse, step * 0.5, step)
        y, r, rn = y_try, r_try, rn_try
    i = int(np.argmax(rn))
    raise InversionError(
        f"Newton inversion stalled at x = ({x[0, i]:.4f}, {x[1, i]:.4f}) "
        f"with residual {rn[i]:.3e} (target {tol:.1e})")


def pullback_oneform(phi: TorusMap, alpha_at) -> OneForm:
    """(phi^* alpha)_x = alpha_{phi(x)} o d(phi)_x, sampled on the grid.

    `alpha_at` evaluates the components of alpha at points of shape
    (2, M): `OneForm.at` (a spline of the grid form), or a closed-form
    evaluator, so that alpha is read at phi(x) without interpolation.
    """
    a = alpha_at(phi.flat_position).reshape(2, *phi.mesh.shape)
    return OneForm(phi.mesh, *_pulled_components(a, phi.jac))


def _pulled_components(a: np.ndarray, J: np.ndarray) -> tuple:
    """The components a o J = (a[0] J[0, k] + a[1] J[1, k]) for k = 0, 1 of
    covector values a (2, ...) pulled back by a matrix field J (2, 2, ...)."""
    return (a[0] * J[0, 0] + a[1] * J[1, 0],
            a[0] * J[0, 1] + a[1] * J[1, 1])


def chord_integral(psi: TorusMap, alpha: OneForm) -> np.ndarray:
    """Integral of a closed 1-form along the straight chord from each grid
    point x to the lift x + u(x) of psi(x), on the grid.

    For alpha = dF + h the integral depends only on the endpoints: it is
    F o psi - F + h.u, from one Hodge split and one interpolator of F.
    The same array is the potential of psi^* alpha - alpha up to a
    constant.
    """
    split = hodge_decompose(alpha)
    F, h, u = split.potential, split.harmonic, psi.disp
    return F.at(psi.position) - F.values + h.ax * u[0] + h.ay * u[1]


def max_singular_value(phi: TorusMap) -> float:
    """sup over the grid of the largest singular value of d(phi)."""
    J = phi._jac_field()  # read once, for the det too
    t = J[0, 0] ** 2 + J[0, 1] ** 2 + J[1, 0] ** 2 + J[1, 1] ** 2
    disc = np.clip(t * t - 4.0 * phi._det_from(J) ** 2, 0.0, None)
    smax2 = 0.5 * (t + np.sqrt(disc))
    return float(np.sqrt(smax2.max()))


def pullback_bound_constant(phi: TorusMap) -> float:
    """The constant C with ||phi^* alpha||_L2 <= C ||alpha||_L2.

    C = (sup of the largest squared singular value of d(phi))^{1/2} times
    (sup of the density of (phi^{-1})^* dVol)^{1/2}; the second factor is
    1 / min det J, evaluated without needing the inverse map.
    """
    return max_singular_value(phi) / float(np.sqrt(phi.det.min()))


def pullback_vector(g: TorusMap, X_at, jac: np.ndarray | None = None) -> np.ndarray:
    """(g^* X)(x) = d(g)_x^{-1} X(g(x)) on the grid; `X_at` evaluates X at
    points of shape (2, M), and `jac` is g's Jacobian field when the caller
    already holds it."""
    Xg = X_at(g.flat_position).reshape(2, *g.mesh.shape)
    return _solve_2x2(g.jac if jac is None else jac, Xg)


def pushforward_at(phi: TorusMap, X_at, points: np.ndarray) -> np.ndarray:
    """(phi_* X) at points of shape (2, ...): d(phi^{-1})^{-1} X(phi^{-1} p),
    read through the inverse map's cached interpolators (constants, so no
    spline is evaluated, when phi^{-1} is a translation); `X_at` evaluates X
    at points."""
    g = phi.inverse()
    return _solve_2x2(g.interp_jac(points), X_at(points + g.interp_disp(points)))


def c0_distance(phi: TorusMap, psi: TorusMap) -> float:
    """Uniform distance max(sup d(phi, psi), sup d(phi^{-1}, psi^{-1}))."""
    mesh = phi.mesh
    d1 = mesh.torus_distance(phi.position, psi.position).max()
    d2 = mesh.torus_distance(phi.inverse().position, psi.inverse().position).max()
    return float(max(d1, d2))


def interior_components(X: np.ndarray) -> np.ndarray:
    """Components (-X_y, X_x) of i_X (dx ^ dy), for X of shape (2, ...):
    grid samples or values at points."""
    return np.stack([-X[1], X[0]])


def interior_product(X: np.ndarray, mesh: GridMesh) -> OneForm:
    """i_X (dx ^ dy) on the grid."""
    return OneForm(mesh, *interior_components(X))


def divergence(X: np.ndarray, mesh: GridMesh) -> np.ndarray:
    return mesh.derivative(X[0], 0) + mesh.derivative(X[1], 1)


def volume_defect(phi: TorusMap, Y: np.ndarray) -> float:
    """sup norm of i_{phi_* Y} Omega - (phi^{-1})^*(i_Y Omega).

    Vanishes for every conservative (divergence-free) Y exactly when phi
    preserves Omega; a nonzero value witnesses the volume defect.  Rejects
    Y with divergence above tolerance.

    Both sides come from one spline read of Y at g(x), g = phi^{-1}, and
    one read of J = d(g): phi_* Y is J^{-1} Y(g), and i_Y Omega at g(x) is
    (-Y_y, Y_x)(g), pulled back by J.  That equals reading a spline of the
    form i_Y Omega bit for bit, since a spline of -f is minus the spline
    of f.
    """
    mesh = phi.mesh
    Y = np.asarray(Y, dtype=float)
    div_max = np.abs(divergence(Y, mesh)).max()
    if div_max > 1e-8 * (1.0 + float(np.abs(Y).max())):
        raise ValueError(f"vector field is not conservative: |div Y| = {div_max:.3e}")
    g = phi.inverse()
    Yg = VectorInterpolator(Y, mesh)(g.flat_position).reshape(2, *mesh.shape)
    J = g.jac
    lhs = interior_product(_solve_2x2(J, Yg), mesh)
    rhs = OneForm(mesh, *_pulled_components(interior_components(Yg), J))
    return sup_norm(lhs - rhs)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

class Region:
    """An open subset of the torus: the periodic axis-aligned rectangle
    [lo, hi), wrapped mod L."""

    def __init__(self, lo, hi):
        self.lo = (float(lo[0]), float(lo[1]))
        self.width = (float(hi[0]) - float(lo[0]), float(hi[1]) - float(lo[1]))
        if min(self.width) <= 0:
            raise ValueError("empty rectangle")

    @classmethod
    def rectangle(cls, lo, hi) -> "Region":
        return cls(lo, hi)

    def distance(self, points: np.ndarray, mesh: GridMesh) -> np.ndarray:
        """Flat-torus distance from points (2, ...) to the region (0 inside)."""
        pts = np.asarray(points, dtype=float)
        d2 = np.zeros(pts.shape[1:])
        for k in range(2):
            c = np.mod(pts[k] - self.lo[k], mesh.L[k])
            ax = np.where(c <= self.width[k], 0.0,
                          np.minimum(c - self.width[k], mesh.L[k] - c))
            d2 += ax ** 2
        return np.sqrt(d2)

    def contains(self, points: np.ndarray, mesh: GridMesh) -> np.ndarray:
        """Membership test for points (2, ...)."""
        pts = np.asarray(points, dtype=float)
        ok = np.ones(pts.shape[1:], dtype=bool)
        for k in range(2):
            c = np.mod(pts[k] - self.lo[k], mesh.L[k])
            ok &= c < self.width[k]
        return ok

    def grid_points(self, mesh: GridMesh) -> np.ndarray:
        """Grid points inside the region, shape (2, M)."""
        mask = self.contains(mesh.points, mesh).ravel()
        return mesh.flat_points[:, mask]

    def measure(self, mesh: GridMesh) -> float:
        return float(self.contains(mesh.points, mesh).sum()) * mesh.cell_volume

    def __repr__(self):
        hi = (self.lo[0] + self.width[0], self.lo[1] + self.width[1])
        return f"Region.rectangle({self.lo}, {hi})"
