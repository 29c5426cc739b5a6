"""Time-dependent families of torus maps and their generator calculus.

An isotopy is a path of diffeomorphisms sampled at t_j = j/K starting at
the identity, stored with continuous-in-time displacement lifts so that
homotopy-class constructions (mass flow, orbit lifts, minimizing chords)
are well defined.  A path is given by its maps and its generating vector
field, a `TimeField`, which is either its point values or its grid
samples: the catalog, reparametrization and concatenation attach one with
point values, the flow integrator the field it integrates, and the
commutator path one known only by its samples (`TimeField.from_samples`).
The generator calculus (fluxes, mass flow, splits, orbit integrals) reads
every generator the same way, at the sample times; its area form omega is
dx ^ dy.  Finite differences of the maps appear only as the independent
certificate of the commutator generating function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .forms import (CohomologyClass1, OneForm, ScalarField,
                    exterior_derivative, harmonic_periods, hodge_decompose,
                    oscillation, sup_norm)
from .interpolate import PeriodicInterpolator, VectorInterpolator
from .maps import (DiffeomorphismError, TorusMap, chord_integral, compose,
                   divergence, interior_components, interior_product,
                   pullback_vector, pushforward_at, require_positive_det)
from .mesh import GridMesh


class NonSymplecticError(ValueError):
    """A path failed its symplectic / volume-preserving certification."""


class LiftError(RuntimeError):
    """Orbit or homotopy lift tracking became ambiguous (K too small)."""


def _sample_index(t: float, K: int) -> int | None:
    """The index j of t as a sample time j/K of K steps (within 1e-9 of
    j), else None."""
    j = round(float(t) * K)
    return j if abs(t * K - j) <= 1e-9 and 0 <= j <= K else None


def simpson_weights(K: int, dt: float) -> np.ndarray:
    if K % 2 != 0:
        raise ValueError(f"composite Simpson needs an even number of steps, got K={K}")
    w = np.ones(K + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dt / 3.0)


def _running_simpson(integrand, K: int, dt: float):
    """Yield the running time integrals F(t_0), ..., F(t_K) of the samples
    integrand(0), ..., integrand(K) by the cumulative Simpson rule of equal
    intervals.

    Interval i, from t_i to t_(i+1), gets the integral of the parabola
    through three neighbouring samples, dt/3 (5 f1/4 + 2 f2 - f3/4): forwards
    (f1, f2, f3 = y_i, y_(i+1), y_(i+2)) on even intervals, backwards
    (f1, f2, f3 = y_(i+1), y_i, y_(i-1)) on odd ones and on the last; then a
    running sum from 0.  This is scipy's `cumulative_simpson(y, dx=dt,
    axis=0, initial=0.0)` operation for operation, so every value is
    bit-identical to it, signed zeros included.

    `integrand(i)` is called once per sample, in order, and at most one
    sample ahead of the value yielded: F(t_j) needs y_(j+1).  Only the three
    samples of the current parabola and the running sum are held; each
    yielded value is a new array.  Needs at least three samples.
    """
    if K < 2:
        raise ValueError(f"cumulative Simpson needs at least 3 samples, got {K + 1}")
    c = dt / 3
    window, first = [integrand(0)], 0  # the samples first, first + 1, first + 2
    # a sum from +0.0 is never -0.0, as scipy's added `initial` makes it
    running = np.zeros(np.shape(window[0]))
    yield running
    for i in range(K):
        # forwards from i on an even interval, backwards from i + 1 on an
        # odd one and on the last interval of an odd K
        lo = i if i % 2 == 0 and i + 2 <= K else i - 1
        del window[:lo - first]
        first = lo
        while len(window) < 3:
            window.append(integrand(first + len(window)))
        a, b, d = window
        if lo == i:
            running = running + c * (5 * a / 4 + 2 * b - d / 4)
        else:
            running = running + c * (5 * d / 4 + 2 * b - a / 4)
        yield running


def _time_derivative(samples, j: int, K: int) -> np.ndarray:
    """d/dt at t_j = j/K of samples[0], ..., samples[K] at t_i = i/K: a
    centred difference inside, one-sided second-order differences at the
    endpoints."""
    h = 1.0 / K
    if j == 0:
        return (-3 * samples[0] + 4 * samples[1] - samples[2]) / (2 * h)
    if j == K:
        return (3 * samples[K] - 4 * samples[K - 1] + samples[K - 2]) / (2 * h)
    return (samples[j + 1] - samples[j - 1]) / (2 * h)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

class TimeField:
    """A time-dependent vector field t -> X_t on the mesh: the one type of a
    path's generator.

    A field is one of two things.  It is its point values `at(t, points)`,
    at physical coordinates of shape (2, ...), and its grid samples are
    `at(t, mesh.points)`; a steady one keeps its one sample, read-only.  Or
    it is its grid samples alone (`from_samples`): one (2, N, N) sample of a
    steady field, read off the grid through one spline of it built on the
    first off-grid read, or K+1 samples at t_j = j/K, read at the sample
    times alone through a transient spline of the sample read.  Builders
    whose fields are divergence-free in closed form may set
    `certified_symplectic`, which lets the closedness gate trust the
    construction instead of a spectral residual that only measures aliasing
    on marginally resolved profiles.
    """

    def __init__(self, at, mesh: GridMesh, autonomous: bool = False,
                 certified_symplectic: bool = False):
        self.at = at
        self.mesh = mesh
        self.autonomous = autonomous
        self.certified_symplectic = certified_symplectic
        # the one steady sample, or the K+1 samples of a sampled field
        self._samples: np.ndarray | None = None
        self._spline: VectorInterpolator | None = None

    @classmethod
    def from_samples(cls, samples, mesh: GridMesh) -> "TimeField":
        """The field known only by its grid samples: one sample of shape
        (2, N, N), a steady field, or K+1 >= 2 samples at t_j = j/K of
        shape (K+1, 2, N, N), such as the generator of a commutator path.
        The samples are kept, not copied.  A time-dependent one is read at
        the sample times alone; a read at any other time raises
        `ValueError`."""
        s = np.asarray(samples, dtype=float)
        steady = s.shape == (2, *mesh.shape)
        if not steady and (s.ndim != 4 or len(s) < 2 or s.shape[1:] != (2, *mesh.shape)):
            raise ValueError("samples must have shape (K+1, 2, N, N) with K >= 1, "
                             "or (2, N, N) for a steady field")
        if not np.all(np.isfinite(s)):
            raise ValueError("non-finite vector field samples")
        tf = cls(None, mesh, autonomous=steady)
        tf._samples = s
        return tf

    @property
    def sampled(self) -> bool:
        """Time-dependent and known only by its samples (`from_samples`)."""
        return self.at is None and not self.autonomous

    def closedness_tol(self, vmax: float) -> float:
        """The tolerance of sup |div X| in `_certified_generator`, the one
        closedness gate, scaled by vmax, the largest |X| over the samples:
        a sampled field carries the interpolation noise of its assembly, any
        other leaves round-off."""
        return (1e-4 if self.sampled else 1e-8) * (1.0 + vmax)

    def field(self, t: float) -> np.ndarray:
        """The grid samples at time t.  Only a steady field keeps its one
        sample; a time-dependent one with point values is computed on every
        read, since its readers take one sample at a time and a cache would
        hold all K + 1."""
        if self._samples is None:
            X = np.asarray(self.at(t, self.mesh.points), dtype=float)
            if not self.autonomous:
                return X
            X.setflags(write=False)
            self._samples = X
        if self.autonomous:
            return self._samples
        j = _sample_index(t, len(self._samples) - 1)
        if j is None:
            raise ValueError(f"t = {t} is not a sample time of this field")
        return self._samples[j]

    def __call__(self, t: float, points: np.ndarray) -> np.ndarray:
        if self.at is not None:
            return self.at(t, points)
        if self.sampled:
            # nothing is cached: at N = 128 a spline holds about 1 MB, and a
            # path at K = 64 has 65 samples
            return VectorInterpolator(self.field(t), self.mesh)(points)
        if self._spline is None:
            self._spline = VectorInterpolator(self.field(t), self.mesh)
        return self._spline(points)

    @classmethod
    def wrap(cls, X, mesh: GridMesh) -> "TimeField":
        """Accept a TimeField on `mesh`'s grid, returned as it is, or a steady
        (2, N, N) field array, which becomes the steady field of that one
        sample (`from_samples`).  A TimeField on another grid raises
        `ValueError`, and so does anything else, a bare callable t -> field
        included: a time-dependent field is a TimeField with point values.
        """
        if isinstance(X, TimeField):
            if not X.mesh.same_grid(mesh):
                raise ValueError("field lives on a different mesh")
            return X
        arr = np.asarray(X)
        if arr.shape != (2, mesh.N, mesh.N):
            raise ValueError(
                f"constant field must have shape (2, N, N), got {type(X).__name__} "
                f"of shape {arr.shape}; a time-dependent field is a TimeField "
                "with point values")
        return cls.from_samples(arr, mesh)


# ---------------------------------------------------------------------------
# isotopies
# ---------------------------------------------------------------------------

class Isotopy:
    """K+1 map samples phi_{t_j}, phi_0 = id, with continuous lifts."""

    def __init__(self, mesh: GridMesh, maps: list[TorusMap], generator: TimeField,
                 map_fn=None, provenance: dict | None = None):
        """`maps` are the samples at t_j = j/K and `generator` the field
        that moves them: fluxes, splits, lengths and the orbits of
        arbitrary points (`_orbit_points`) read it.  `map_fn` is an
        optional exact time-t map constructor.  `provenance` is set only
        by `commutator_generator`, to its `certified_residual`."""
        if len(maps) < 2:
            raise ValueError("an isotopy needs at least two time samples")
        if not maps[0].is_identity(1e-10):
            raise ValueError("sample 0 of an isotopy must be the identity")
        if not generator.mesh.same_grid(mesh):
            raise ValueError("field lives on a different mesh")
        if not all(m.mesh.same_grid(mesh) for m in maps):
            raise ValueError("map sample lives on a different mesh")
        # pair by pair, on the stored axes: a (K+1)-sample stack would be
        # built for one maximum, and constant or line samples need no grid
        jump = max(np.abs(b._stored_disp - a._stored_disp).max()
                   for a, b in zip(maps, maps[1:]))
        if jump > mesh.injectivity_radius / 2.0:
            raise LiftError(
                f"consecutive samples jump by {jump:.3f} > r(g)/2 = "
                f"{mesh.injectivity_radius / 2.0:.3f}; use more time samples")
        self.mesh = mesh
        self.maps = list(maps)
        self.generator = generator
        self._map_fn = map_fn
        self.provenance = dict(provenance or {})
        # "sym" or "vol" -> periods; see _cached_flux
        self._flux_cache: dict = {}
        # the pulled flux integrand an integrated flow summed while
        # integrating (see integrate_flow)
        self._pulled_flux: np.ndarray | None = None

    @property
    def K(self) -> int:
        return len(self.maps) - 1

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.K + 1)

    @property
    def end_map(self) -> TorusMap:
        return self.maps[-1]

    @classmethod
    def from_time_function(cls, mesh: GridMesh, map_fn, K: int,
                           generator: TimeField) -> "Isotopy":
        maps = [map_fn(t) for t in np.linspace(0.0, 1.0, K + 1)]
        return cls(mesh, maps, generator=generator, map_fn=map_fn)

    # -- sampling -------------------------------------------------------------

    def at_time(self, t: float) -> TorusMap:
        """Map at an arbitrary time: the stored sample at a sample time,
        else the path's exact constructor."""
        j = _sample_index(t, self.K)
        if j is not None:
            return self.maps[j]
        if self._map_fn is None:
            raise ValueError(f"t = {t} is not a sample time and the path has "
                             "no exact constructor")
        return self._map_fn(float(t))

    # -- inverses -------------------------------------------------------------

    def _inverses(self) -> list[TorusMap]:
        """Pointwise inverse maps, Newton warm-started along the path."""
        out = []
        prev = None
        for m in self.maps:
            prev = m.inverse(near=prev)
            out.append(prev)
        return out


# ---------------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------------

def _rk4_step(tf: TimeField, t: float, y: np.ndarray, h: float,
              k1: np.ndarray | None = None) -> np.ndarray:
    """One classical fourth-order step of dy/dt = X(t, y) from lifted
    points y of shape (2, M).  `k1` is the first stage X(t, y) when the
    caller has already evaluated it; it is read, not changed.  The stages
    are summed as they come, k1 + 2 k2 + 2 k3 + k4 in that order, so only
    two of them are alive."""
    k = tf(t, y) if k1 is None else k1
    acc = k.copy()
    k = tf(t + 0.5 * h, y + 0.5 * h * k)
    acc += 2.0 * k
    k = tf(t + 0.5 * h, y + 0.5 * h * k)
    acc += 2.0 * k
    k = tf(t + h, y + h * k)
    acc += k
    return y + (h / 6.0) * acc


def integrate_flow(X, K: int, mesh: GridMesh) -> Isotopy:
    """Integrate dy/dt = X(t, y) per grid point with the classical
    fourth-order one-step method on the lift.

    `X` may be a TimeField on the mesh's grid or a steady (2, N, N) field
    array (`TimeField.wrap`).  Every resulting sample must pass the
    diffeomorphism check; a failure suggests a larger K.  A field with point
    values (a TimeField with `at`, such as `catalog.hamiltonian_field`) is
    evaluated in closed form at every stage; a steady field without them
    through the one spline of its sample that its TimeField keeps.  A
    time-dependent field known only by its samples
    (`TimeField.from_samples`) has no values between them and is rejected.

    Each step starts from the stored sample phi_(t_j), the grid plus its
    stored displacement, and X(t_j) is read there once: it is the step's
    first stage and, with the sample's spectral Jacobian J, which the
    determinant check reads and nothing keeps, the term w_j J^T (-X_y, X_x)
    of the pulled flux integral (`_FluxSum`).  The path keeps that sum,
    which `symplectic_flux` returns after its generator gate, bit for bit
    what the same maps and generator give without it.  At an odd K,
    Simpson's rule has no weights and nothing is summed.  Orbits of
    arbitrary points are integrated by the same step of the same generator
    (`_orbit_points`).
    """
    if K < 16:
        raise ValueError(f"K must be at least 16, got {K}")
    tf = TimeField.wrap(X, mesh)
    if tf.sampled:
        raise ValueError("a time-dependent TimeField needs point values `at`")
    h = 1.0 / K
    times = np.linspace(0.0, 1.0, K + 1)  # j * h for j < K, and 1.0
    total = _FluxSum(tf, K) if K % 2 == 0 else None
    maps = [TorusMap.identity(mesh)]
    if total is not None:
        total.add_grid(0, 0.0)
    y = mesh.flat_points.copy()
    k1 = tf(0.0, y)
    for j in range(1, K + 1):
        disp = _rk4_step(tf, (j - 1) * h, y, h, k1) - mesh.flat_points
        m = TorusMap(mesh, disp.reshape(2, *mesh.shape), check=False)
        J = m.jac
        try:
            require_positive_det(mesh, J)
        except DiffeomorphismError as exc:
            raise DiffeomorphismError(
                f"flow sample {j}/{K} failed the diffeomorphism check "
                f"({exc}); increase K") from exc
        maps.append(m)
        y = m.flat_position
        if j < K or total is not None:
            k1 = tf(times[j], y)
        if total is not None:
            if m.is_identity():
                total.add_grid(j, times[j])
            else:
                total.add_pulled(j, k1, J)
        del J
    iso = Isotopy(mesh, maps, generator=tf)
    iso._pulled_flux = None if total is None else total.acc
    return iso


# ---------------------------------------------------------------------------
# flux homomorphisms and mass flow
# ---------------------------------------------------------------------------

def _certified_generator(gen: TimeField, K: int, what: str) -> None:
    """Certify that i_{X_t} omega is closed, i.e. div X_t = 0, at the
    sample times t_j = j/K.  A generator certified by construction is
    trusted.  Any other is read one sample at a time (once when steady):
    its worst sup |div X| is gated at `closedness_tol` of the largest |X|,
    so no reader stacks all K + 1 fields.  Nothing is kept: every reader
    that needs the hypothesis calls this."""
    if gen.certified_symplectic:
        return
    times = np.linspace(0.0, 1.0, K + 1)
    vmax = worst = 0.0
    for t in times[:1] if gen.autonomous else times:
        X = gen.field(t)
        vmax = max(vmax, float(np.abs(X).max()))
        worst = max(worst, float(np.abs(divergence(X, gen.mesh)).max()))
    tol = gen.closedness_tol(vmax)
    if worst > tol:
        raise NonSymplecticError(
            f"{what}: worst closedness residual of i_X omega over the path is "
            f"{worst:.3e} > {tol:.3e}")


def _cached_flux(phi_path: Isotopy, kind: str, compute) -> CohomologyClass1:
    """Look up or compute the flux class of one kind, "sym" or "vol"."""
    if kind not in phi_path._flux_cache:
        phi_path._flux_cache[kind] = compute()
    return phi_path._flux_cache[kind]


class _FluxSum:
    """The composite Simpson sum over t_j of the samples of i_{X_t} omega,
    each on the grid or pulled back by its map phi_(t_j).

    Both routes to a pulled flux form every term here, `integrate_flow`
    while it integrates and `_flux_form` from a path's stored maps, so
    they sum the same bits.  A pulled term is d(phi)_x^T (-X_y, X_x)(phi x):
    the generator is read at the image points, not off a spline of the grid
    form i_X omega.  Each component of each weighted term is formed in one
    of two reused grid buffers and added into the sum, in the order
    `pullback_oneform` forms it, so no form is built per sample.  Simpson's
    rule needs an even K; an odd one raises `ValueError`.
    """

    def __init__(self, gen: TimeField, K: int):
        self.w = simpson_weights(K, 1.0 / K)
        self.acc = np.zeros((2, *gen.mesh.shape))
        self._term, self._part = np.empty(gen.mesh.shape), np.empty(gen.mesh.shape)
        self._gen = gen
        # a steady generator reuses one grid sample
        self._steady = interior_components(gen.field(0.0)) if gen.autonomous else None

    def add_grid(self, j: int, t: float) -> None:
        """Add the unpulled sample j, read off the grid samples of X at t."""
        a = self._steady
        if a is None:
            a = interior_components(self._gen.field(t))
        for k in range(2):
            np.multiply(a[k], self.w[j], out=self._term)
            self.acc[k] += self._term

    def add_pulled(self, j: int, X: np.ndarray, J: np.ndarray) -> None:
        """Add sample j pulled back by its map: X is the generator at the
        map's image points, shape (2, N * N), and J the map's Jacobian."""
        a = interior_components(X).reshape(self.acc.shape)
        for k in range(2):
            np.multiply(a[0], J[0, k], out=self._term)
            np.multiply(a[1], J[1, k], out=self._part)
            self._term += self._part
            self._term *= self.w[j]
            self.acc[k] += self._term


def _flux_form(phi_path: Isotopy, what: str, pull: bool) -> OneForm:
    """The Simpson time integral of i_{X_t} omega, each sample pulled back by
    phi_t when `pull` is set (`_FluxSum`); the sum is a `OneForm`, which
    rejects it if a sample was not finite.

    Either integral passes `_certified_generator` first.  The pulled one is
    then the sum an integrated flow formed while integrating, when there is
    one; else each non-identity sample reads X at its map's image points and
    the map's Jacobian, stored or computed on read (a bump rotation's closed
    form, else the spectral one), so the pulled and unpulled integrals stay
    two different computations.  The unpulled integral reads each grid
    sample once.
    """
    mesh, gen = phi_path.mesh, phi_path.generator
    _certified_generator(gen, phi_path.K, what)
    if pull and phi_path._pulled_flux is not None:
        return OneForm(mesh, *phi_path._pulled_flux)
    total = _FluxSum(gen, phi_path.K)
    for j, t in enumerate(phi_path.times):
        m = phi_path.maps[j]
        if pull and not m.is_identity():
            total.add_pulled(j, gen(t, m.flat_position), m.jac)
        else:
            total.add_grid(j, t)
    return OneForm(mesh, *total.acc)


def symplectic_flux(phi_path: Isotopy) -> CohomologyClass1:
    """Period vector of the flux integral of the path.

    Composite Simpson over the samples of phi_t^*(i_{X_t} omega), with X_t
    read at phi_t(x) from the generator itself (from its point values when
    it has them, as every catalog flow and their concatenations and
    reparametrizations do, else from a spline of its samples), then the
    periods of the result; an integrated flow summed these samples while
    it integrated (`integrate_flow`).  Errors if some sample generator is
    not symplectic to tolerance; a generator certified by construction is
    trusted.  The integral is not gated again: its d-residual is the
    samples' plus the aliasing of the pulled-back forms, at N = 32 up to
    1e-4 for a named-potential flow and 8.6e-2 for a certified rotation
    flow, so no gate on it could be tighter than the one on the samples.
    """
    return _cached_flux(phi_path, "sym", lambda: harmonic_periods(
        _flux_form(phi_path, "symplectic_flux", pull=True)))


def volume_flux(phi_path: Isotopy) -> CohomologyClass1:
    """Period vector of the volume flux, via the unpulled integral of
    i_{X_t} Omega.

    On the 2-torus this class coincides with the symplectic flux: for
    closed samples phi_t^* beta_t - beta_t is exact.  The agreement of the
    two period vectors, one read through the stored maps and Jacobians and
    one not, is asserted to 1e-8 (the gap is interpolation-level, well
    below 1e-10 for fully resolved generators).  A generator certified by
    construction whose samples are not closed shows here: its pulled and
    unpulled integrals no longer differ by an exact form.
    """
    def compute() -> CohomologyClass1:
        p = harmonic_periods(_flux_form(phi_path, "volume_flux", pull=False))
        q = symplectic_flux(phi_path)
        gap = max(abs(p[0] - q[0]), abs(p[1] - q[1]))
        allowed = 1e-8 * (1.0 + p.max_abs())
        if gap > allowed:
            raise AssertionError(
                f"volume flux {p.periods} disagrees with symplectic flux "
                f"{q.periods} by {gap:.3e} (allowed {allowed:.3e})")
        return p

    return _cached_flux(phi_path, "vol", compute)


@dataclass(frozen=True)
class HomologyClass1:
    """Winding vector (average displacement per unit period) of a path."""

    components: tuple[float, float]

    def __getitem__(self, k):
        return self.components[k]


def fathi_mass_flow(phi_path: Isotopy) -> HomologyClass1:
    """Mass flow of a volume-preserving path.

    For each axis the coordinate circle map f = x_k / L_k is transported
    along the path; the continuous lift of f o phi_t - f starting at 0 is
    u_{t,k} / L_k, so the class is the volume average of the endpoint lift.
    The constructor's jump check keeps consecutive samples within L/4, so
    the stored end displacement is that continuous lift.
    """
    mesh = phi_path.mesh
    _certified_generator(phi_path.generator, phi_path.K, "fathi_mass_flow")
    u1 = phi_path.end_map.disp
    return HomologyClass1((mesh.integrate(u1[0]) / mesh.L[0],
                           mesh.integrate(u1[1]) / mesh.L[1]))


# ---------------------------------------------------------------------------
# generator splitting, Hofer-like length
# ---------------------------------------------------------------------------

@dataclass
class GeneratorSplit:
    """Per-sample splitting i_{X_t} omega = dU_t + H_t."""

    potentials: list[ScalarField]   # mean-zero U_t
    harmonics: list[OneForm]        # constant-component H_t

    def harmonic_sup_norms(self) -> np.ndarray:
        return np.array([sup_norm(h) for h in self.harmonics])

    def oscillations(self) -> np.ndarray:
        return np.array([oscillation(u) for u in self.potentials])


def _hodge_split(gen: TimeField, K: int, mesh: GridMesh, what: str) -> GeneratorSplit:
    """Hodge-split the generator at t_j = j/K: i_{X_t} omega = dU_t + H_t,
    with U_t the mean-zero potential and H_t the harmonic part.

    The generator passes `_certified_generator` first: a closed i_X omega
    has no coexact part, whose amplitude in each mode is |div X| / (2 pi |k|
    / L).  It is then read one sample at a time (once when steady).
    """
    _certified_generator(gen, K, what)
    steady = gen.autonomous
    times = np.linspace(0.0, 1.0, K + 1)
    potentials, harmonics = [], []
    for t in times[:1] if steady else times:
        split = hodge_decompose(interior_product(gen.field(t), mesh))
        potentials.append(split.potential)
        harmonics.append(split.harmonic)
    if steady:
        potentials = potentials * (K + 1)
        harmonics = harmonics * (K + 1)
    return GeneratorSplit(potentials, harmonics)


def generator_hodge_split(phi_path: Isotopy) -> GeneratorSplit:
    """Hodge-split the path generator at the path's K + 1 sample times
    (`_hodge_split`), after its closedness gate; it reads the generator and
    K only, never the maps."""
    return _hodge_split(phi_path.generator, phi_path.K, phi_path.mesh,
                        "generator_hodge_split")


def generator_length(X, K: int, mesh: GridMesh) -> float:
    """Hofer-like length of the path that X generates, sampled at
    t_j = j/K: the Simpson sum over t_j of osc(U_t) + |H_t|_0 for the
    generator split i_{X_t} omega = dU_t + H_t.

    It reads the generator and K only, so no flow is integrated: `X` is
    anything `integrate_flow` takes (`TimeField.wrap`), and the length is
    bit for bit `hofer_like_length(integrate_flow(X, K, mesh))`.  K must be
    even (composite Simpson).
    """
    w = simpson_weights(K, 1.0 / K)
    split = _hodge_split(TimeField.wrap(X, mesh), K, mesh, "generator_length")
    return float(np.sum(w * (split.oscillations() + split.harmonic_sup_norms())))


def hofer_like_length(phi_path: Isotopy) -> float:
    """Length of a symplectic path (`generator_length`): it reads the path's
    generator and K only, never its maps."""
    return generator_length(phi_path.generator, phi_path.K, phi_path.mesh)


# ---------------------------------------------------------------------------
# orbit integrals and the two path functionals
# ---------------------------------------------------------------------------

def _orbit_points(phi_path: Isotopy, x) -> np.ndarray:
    """Lifted orbit t_j -> x + u_{t_j}(x), shape (K+1, 2, M): the integral
    curve of the path's generator through x, by the classical RK4 step that
    `integrate_flow` takes, K steps of 1/K.

    For an integrated flow this is the same step of the same generator, so
    the orbit of a grid point reproduces the stored maps to about 1e-16 (the
    flow restarted each step from its stored sample).  RK4 is exact on the
    affine-in-t orbits of the catalog translation, shear and
    translation-shear flows; on any other path it carries the integrator's
    fourth-order error.  A generator known only by its samples has no
    values between them and raises `ValueError`.  The grid jumps the
    Isotopy constructor bounds by L/4 do not bound the increments between
    grid points, so they are checked here.
    """
    gen = phi_path.generator
    if gen.sampled:
        raise ValueError("an orbit needs a generator with values between its "
                         "samples; this one is known only by its samples")
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(2, 1)
    K = phi_path.K
    h = 1.0 / K
    orbit = np.empty((K + 1, *pts.shape))
    orbit[0] = pts
    for j in range(K):
        orbit[j + 1] = _rk4_step(gen, j * h, orbit[j], h)
    inc = np.abs(np.diff(orbit, axis=0)).max()
    if inc >= min(phi_path.mesh.L) / 4.0:
        raise LiftError(
            f"orbit lift increment {inc:.3f} >= L/4; use a finer K")
    return orbit


def orbit_integral(phi_path: Isotopy, x, alpha: OneForm):
    """Line integral of a closed 1-form along the lifted orbit of x, with the
    velocity read off the path's generator at the orbit points.

    x is one point of shape (2,), which gives a float, or M points of shape
    (2, M), which give M values, each the one its point gives alone."""
    alpha.require_closed(what="orbit_integral")
    tf = phi_path.generator
    pts = np.asarray(x, dtype=float)
    orbit = _orbit_points(phi_path, pts)  # (K+1, 2, M)
    K = phi_path.K
    # alpha, and a steady generator, are looked up at all orbit points at
    # once; point values are pointwise, so this equals a per-sample loop
    path = orbit.transpose(1, 0, 2)  # (2, K+1, M)
    if tf.autonomous:
        vel = tf(0.0, path)
    else:
        vel = np.stack([tf(t, p) for t, p in zip(phi_path.times, orbit)], axis=1)
    integrand = (alpha.at(path) * vel).sum(axis=0)  # (K+1, M)
    w = simpson_weights(K, 1.0 / K)
    # one contiguous sum per point, as numpy sums a lone orbit
    values = np.array([np.sum(w * integrand[:, i]) for i in range(orbit.shape[2])])
    return float(values[0]) if pts.ndim == 1 else values


def f_functional(phi_path: Isotopy, alpha: OneForm, t: float = 1.0) -> ScalarField:
    """F^t = integral_0^t phi_s^*(alpha(X_s)) ds at a sample time t_j.

    F^t is the value at t_j of `_running_simpson`, the streamed cumulative
    Simpson rule, which holds the three integrands of the current parabola
    and one running sum and stops there; it is bit-identical to scipy's
    rule applied to the stacked integrands.  The generator is read one
    sample at a time too, and a steady one gives one integrand and one
    interpolator for all samples.
    """
    K = phi_path.K
    j = _sample_index(t, K)
    if j is None:
        raise ValueError(f"t = {t} is not a sample time of this path")
    alpha.require_closed(what="f_functional")
    mesh = phi_path.mesh
    gen = phi_path.generator
    times = phi_path.times
    g = ip = None

    def integrand(i: int) -> np.ndarray:
        """phi_{t_i}^*(alpha(X_{t_i})) on the grid; called for i = 0, 1, ..."""
        nonlocal g, ip
        if i == 0 or not gen.autonomous:
            v = gen.field(times[i])
            g = alpha.ax * v[0] + alpha.ay * v[1]
            ip = None
        m = phi_path.maps[i]
        if m.is_identity():
            return g
        if ip is None:
            ip = PeriodicInterpolator(g, mesh)
        return ip(m.flat_position).reshape(mesh.shape)

    return ScalarField(mesh, next(islice(_running_simpson(integrand, K, 1.0 / K), j, None)))


def geodesic_functional(h_path: Isotopy, alpha: OneForm) -> ScalarField:
    """Integral of a closed form along the minimizing chord homotopic to
    each orbit.

    On the flat torus the minimizing geodesic rel endpoints homotopic to
    the orbit of x is the straight segment from x to the continuously
    tracked lift x + u_1(x) of h_1(x); the constructor's jump check keeps
    the stored end displacement on that lift.  For alpha = dF + h the
    integral depends only on the endpoints, F o h_1 - F + h.u_1
    (`maps.chord_integral`).
    """
    alpha.require_closed(what="geodesic_functional")
    return ScalarField(h_path.mesh, chord_integral(h_path.end_map, alpha))


def orbit_length_bound(phi_path: Isotopy) -> float:
    """kappa: the largest lifted orbit length over all grid points; the
    steps are taken on the samples' stored axes and broadcast."""
    total = sum(np.sqrt(((b._stored_disp - a._stored_disp) ** 2).sum(axis=0))
                for a, b in zip(phi_path.maps, phi_path.maps[1:]))
    return float(total.max())


# ---------------------------------------------------------------------------
# boundary-flat reparametrization and concatenation
# ---------------------------------------------------------------------------

def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, flat to all orders."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gx = np.where(x > 0, np.exp(-1.0 / np.where(x > 0, x, 1.0)), 0.0)
        g1 = np.where(x < 1, np.exp(-1.0 / np.where(x < 1, 1.0 - x, 1.0)), 0.0)
    return gx / (gx + g1)


def _smooth_step_deriv(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    inside = (x > 0) & (x < 1)
    out = np.zeros_like(x)
    xi = x[inside]
    with np.errstate(over="ignore"):
        g = np.exp(-1.0 / xi)
        gm = np.exp(-1.0 / (1.0 - xi))
        gp = g / xi ** 2
        gmp = gm / (1.0 - xi) ** 2
        out[inside] = (gp * gm + g * gmp) / (g + gm) ** 2
    return out


def _profile(s):
    """The transition profile of every concatenation: a monotone smooth
    u: [0, 1] -> [0, 1], identically 0 on [0, 1/8] and identically 1 on
    [7/8, 1], with all derivatives flat there."""
    return _smooth_step((np.asarray(s, dtype=float) - 0.125) / 0.75)


def _profile_rate(s):
    """The derivative du/ds of `_profile`."""
    return _smooth_step_deriv((np.asarray(s, dtype=float) - 0.125) / 0.75) / 0.75


def concat_reparam(a_path: Isotopy, b_path: Isotopy,
                   oversample: int = 1) -> Isotopy:
    """Boundary-flat concatenation: run A on [0, 1/2] and A(1) o B on
    [1/2, 1], each reparametrized through the bump profile so the velocity
    vanishes identically near s in {0, 1/2, 1}.

    The endpoint is exactly A(1) o B(1).  The transition profile is only
    Gevrey-regular, so quadratures over the result converge subgeometrically
    in the sample count; `oversample` refines the output sampling when
    quadrature accuracy matters more than cost.  Both generators must have
    point values, and so does the result's: rate X_A on the first half and
    the push-forward rate (A(1))_* X_B, evaluated at points, on the second.
    """
    if not a_path.mesh.same_grid(b_path.mesh):
        raise ValueError("paths live on different meshes")
    tfa, tfb = a_path.generator, b_path.generator
    if tfa.at is None or tfb.at is None:
        raise ValueError("concat_reparam needs two generators with point values")
    mesh = a_path.mesh
    a_end = a_path.end_map
    K_out = oversample * (a_path.K + b_path.K)

    def map_at(s: float) -> TorusMap:
        if s <= 0.5:
            return a_path.at_time(float(_profile(2.0 * s)))
        return compose(a_end, b_path.at_time(float(_profile(2.0 * s - 1.0))),
                       normalize=False)

    maps = [map_at(j / K_out) for j in range(K_out + 1)]

    def gen_at(s: float, points: np.ndarray) -> np.ndarray:
        r = 2.0 * s if s <= 0.5 else 2.0 * s - 1.0
        rate, lam = 2.0 * float(_profile_rate(r)), float(_profile(r))
        if rate == 0.0:
            return np.zeros((2, *points.shape[1:]))
        if s <= 0.5:
            return rate * tfa.at(lam, points)
        return rate * pushforward_at(a_end, partial(tfb.at, lam), points)

    gen = TimeField(
        gen_at, mesh,
        certified_symplectic=tfa.certified_symplectic and tfb.certified_symplectic)
    return Isotopy(mesh, maps, generator=gen, map_fn=map_at)


# ---------------------------------------------------------------------------
# the commutator generating function
# ---------------------------------------------------------------------------

def _pointwise_matvec(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.stack([J[0, 0] * X[0] + J[0, 1] * X[1],
                     J[1, 0] * X[0] + J[1, 1] * X[1]])


def commutator_generator(phi_path: Isotopy, psi_path: Isotopy, tol: float = 1e-3):
    """Commutator path Theta_t = phi_t psi_t phi_t^{-1} psi_t^{-1} and the
    generating function Pi_t of its (exact) generator.

    Pi is assembled from the generator splits of the two paths, the
    compositions with the inverse conjugation paths, and running integrals
    of the harmonic parts along those inverse paths:

        Pi_t = U_t + V_t o phi_t^{-1} + F_K(phi) - U_t o h_t^{-1}
               - F_H(L) - V_t o theta_t^{-1} - F_K(theta),

    normalized to mean zero.  The assembly is certified against the
    independent finite-difference velocity of the composed maps: the
    certified residual max_t sup |dPi_t - i_{Theta'_t} omega| is recorded
    in the returned path's provenance, and a residual above `tol` raises
    NonSymplecticError.

    Returns (theta_path, pi_fields).
    """
    mesh = phi_path.mesh
    if phi_path.K != psi_path.K:
        raise ValueError("paths must share the same time sampling")
    K = phi_path.K
    times = phi_path.times
    X, Y = phi_path.generator, psi_path.generator
    split_x = generator_hodge_split(phi_path)
    split_y = generator_hodge_split(psi_path)

    theta_maps, theta_invs = [], []
    vel_theta = np.empty((K + 1, 2, *mesh.shape))
    # sample j -> (V o phi^-1, U o h^-1, V o theta^-1), until Pi_j is formed
    comps = {}

    phi_invs = phi_path._inverses()
    psi_invs = psi_path._inverses()

    # interpolators of the split potentials; built once when the path is
    # steady, per sample otherwise
    u_ip0 = (PeriodicInterpolator(split_x.potentials[0].values, mesh)
             if X.autonomous else None)
    v_ip0 = (PeriodicInterpolator(split_y.potentials[0].values, mesh)
             if Y.autonomous else None)

    def cc(a: TorusMap, b: TorusMap) -> TorusMap:
        return compose(a, b, normalize=False, check=False)

    def integrand(j: int) -> np.ndarray:
        """Build theta_j, its velocity and compositions; return the three
        G-integrands along Phi^{-1}, L^{-1} and Theta^{-1}, (3, 2, N, N)."""
        phi, psi = phi_path.maps[j], psi_path.maps[j]
        phi_i, psi_i = phi_invs[j], psi_invs[j]
        h = cc(cc(phi, psi), phi_i)          # phi psi phi^-1
        theta = cc(h, psi_i)
        h_inv = cc(phi, cc(psi_i, phi_i))    # phi psi^-1 phi^-1
        theta_inv = cc(psi, h_inv)           # psi phi psi^-1 phi^-1
        theta_maps.append(theta)
        theta_invs.append(theta_inv)

        Xj, Yj = X.field(times[j]), Y.field(times[j])
        x_at, y_at = partial(X, times[j]), partial(Y, times[j])
        u_ip = u_ip0 or PeriodicInterpolator(split_x.potentials[j].values, mesh)
        v_ip = v_ip0 or PeriodicInterpolator(split_y.potentials[j].values, mesh)

        # each inverse's Jacobian is read once: the inverses keep none
        J_phi_i, J_h_inv, J_theta_inv = phi_i.jac, h_inv.jac, theta_inv.jac

        # exact velocity of the composed paths; g_* V is the pull-back by g^-1
        push_y_phi = Yj if phi.is_identity() else pullback_vector(phi_i, y_at, J_phi_i)
        push_x_h = Xj if h.is_identity() else pullback_vector(h_inv, x_at, J_h_inv)
        vL = Xj + push_y_phi - push_x_h
        push_y_theta = (Yj if theta.is_identity()
                        else pullback_vector(theta_inv, y_at, J_theta_inv))
        vT = vL - push_y_theta
        vel_theta[j] = vT

        comps[j] = (v_ip(phi_i.flat_position).reshape(mesh.shape),
                    u_ip(h_inv.flat_position).reshape(mesh.shape),
                    v_ip(theta_inv.flat_position).reshape(mesh.shape))
        # -(J_g)^{-1} at g^{-1} equals J_{g^{-1}} on the grid
        return -np.stack([_pointwise_matvec(J_phi_i, Xj),
                          _pointwise_matvec(J_h_inv, vL),
                          _pointwise_matvec(J_theta_inv, vT)])

    hx = np.array([h.ax[0, 0] for h in split_x.harmonics])
    hy = np.array([h.ay[0, 0] for h in split_x.harmonics])
    kx = np.array([h.ax[0, 0] for h in split_y.harmonics])
    ky = np.array([h.ay[0, 0] for h in split_y.harmonics])

    # one pass: Pi_j is formed as soon as the running integrals reach t_j,
    # which is at most one sample behind the integrands
    pi_fields = []
    for j, (GP, GL, GT) in enumerate(_running_simpson(integrand, K, 1.0 / K)):
        FK_phi = kx[j] * GP[0] + ky[j] * GP[1]
        FH_l = hx[j] * GL[0] + hy[j] * GL[1]
        FK_t = kx[j] * GT[0] + ky[j] * GT[1]
        v_phi, u_h, v_theta = comps.pop(j)
        pi = split_x.potentials[j].values + v_phi + FK_phi - u_h - FH_l - v_theta - FK_t
        pi_fields.append(ScalarField(mesh, pi - pi.mean()))

    # certify each Pi_t against the independent finite-difference velocity
    # of the composed maps
    disps = [m.disp for m in theta_maps]
    worst, worst_t = 0.0, 0.0
    for j in range(K + 1):
        pts = theta_invs[j].flat_position
        vfd = VectorInterpolator(_time_derivative(disps, j, K), mesh)(pts)
        beta_fd = interior_product(vfd.reshape(2, *mesh.shape), mesh)
        r = sup_norm(exterior_derivative(pi_fields[j]) - beta_fd)
        if r > worst:
            worst, worst_t = r, j / K
    if worst > tol:
        raise NonSymplecticError(
            f"commutator generating function failed certification: residual "
            f"{worst:.3e} > {tol:.3e} at t = {worst_t:.3f}")

    theta = Isotopy(mesh, theta_maps,
                    generator=TimeField.from_samples(vel_theta, mesh),
                    provenance={"certified_residual": worst})
    return theta, pi_fields
