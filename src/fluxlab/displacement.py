"""Displacement calculus for volume-preserving torus maps.

The central objects: the displacement potential of a closed 1-form under a
map isotopic to the identity, its volume average (the invariant Delta),
the norm obtained by maximizing over the unit sphere of closed forms, and
the displacement-energy machinery built from supported commutators.

Every displacement potential comes from composition: for psi = x + u(x)
with u periodic and closed alpha = dF + h, psi^* alpha - alpha is exact
with potential F o psi - F + h.u.  This holds for every stored map and
every closed form, so no isotopy gate is needed and no Jacobian is read.

The sup over the unit sphere is truncated to the span of the harmonic
forms and the exact forms with potentials in the Fourier band |k| <= m.
On that subspace the objective is linear in the form, so the exact
maximizer has a closed form: the table of random sphere samples is
reported together with the exact subspace maximizer, and the estimate is
a certified lower bound for the full norm.  By Cauchy-Schwarz no unit
sample can exceed the subspace maximizer (the best of 64 reads about a
quarter of it), so when the maximizer is computed the samples' table is
computed only when a report's table is read.  The estimator streams over
blocks of grid rows, so its memory does not grow with the number of basis
forms times the number of grid points.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .forms import (OneForm, ScalarField, harmonic_representative, l2_norm,
                    sup_norm, wedge_integral)
from .isotopy import Isotopy, orbit_integral, volume_flux
from .maps import (Region, TorusMap, c0_distance, chord_integral, compose,
                   max_singular_value, pullback_bound_constant,
                   pullback_oneform)
from .mesh import GridMesh

TWO_PI = 2.0 * np.pi

#: Relative slack of the sampled triangle and duality axioms, of the
#: energy positivity chain and of the two-sided norm equivalence under
#: conjugation (the norm estimates are sampled lower bounds).
AXIOM_SLACK = 0.05
CHAIN_SLACK = 0.05
CONJUGATION_SLACK = 0.05

#: Separation axiom: a map farther than SEPARATION_DISTANCE from the
#: identity in d0 must have a sampled norm above SEPARATION_NORM.
SEPARATION_DISTANCE = 0.05
SEPARATION_NORM = 1e-3

#: Rigidity pattern: premises below RIGIDITY_PREMISE with a final d0
#: distance above RIGIDITY_DISTANCE violate the uniform-limit statement.
RIGIDITY_PREMISE = 1e-3
RIGIDITY_DISTANCE = 5e-2


# ---------------------------------------------------------------------------
# the displacement potential and Delta
# ---------------------------------------------------------------------------

def _displacement_potential(psi: TorusMap, alpha: OneForm) -> ScalarField:
    """Mean-zero potential of psi^* alpha - alpha, F o psi - F + h.u for
    alpha = dF + h; cached per (map, form) pair."""
    cache = psi._potential_cache
    hit = cache.get(id(alpha))
    if hit is not None and hit[0] is alpha:
        return hit[1]
    vals = chord_integral(psi, alpha)
    P = ScalarField(psi.mesh, vals - vals.mean())
    if len(cache) < 64:
        cache[id(alpha)] = (alpha, P)  # keep the form alive so ids stay unique
    return P


def nu_function(psi: TorusMap, alpha: OneForm, p,
                closed_tol: float | None = None) -> ScalarField:
    """The displacement potential normalized to vanish at the base point:
    nu(z) = integral from p to z of (psi^* alpha - alpha).

    Computed by composition, F o psi - F + h.u for alpha = dF + h, which
    equals the geodesic line integral by path independence and avoids
    cut-locus ties.  `closed_tol` loosens the closedness gate for forms
    that already carry numerical noise (e.g. pull-backs); the Hodge split
    projects that noise out either way.
    """
    alpha.require_closed(tol=closed_tol, what="nu_function")
    P = _displacement_potential(psi, alpha)
    return P - float(P.at(np.asarray(p, dtype=float)))


def delta(psi: TorusMap, alpha: OneForm, p, closed_tol: float | None = None) -> float:
    """Volume average of nu over the torus, normalized by ||alpha||_L2;
    identically 0 for alpha = 0."""
    if alpha.is_zero():
        return 0.0
    return delta_tilde(psi, alpha, p, closed_tol) / l2_norm(alpha)


def delta_tilde(psi: TorusMap, alpha: OneForm, p,
                closed_tol: float | None = None) -> float:
    """The unnormalized invariant ||alpha|| * delta."""
    if alpha.is_zero():
        return 0.0
    nu = nu_function(psi, alpha, p, closed_tol)
    return psi.mesh.integrate(nu.values)


def delta_via_flux(psi: TorusMap, alpha: OneForm, x, phi_path: Isotopy):
    """Independent route to delta: cohomology pairing with the flux of an
    isotopy ending at psi, minus the volume-weighted orbit integral.

    The value does not depend on the choice of the isotopy.  x is one base
    point of shape (2,), which gives a float, or M points of shape (2, M),
    which give M values from one orbit integration.
    """
    mesh = psi.mesh
    gap = mesh.torus_distance(phi_path.end_map.position, psi.position).max()
    if gap > 1e-6:
        raise ValueError(
            f"isotopy endpoint differs from psi by {gap:.3e} > 1e-6")
    alpha.require_closed(what="delta_via_flux")
    if alpha.is_zero():
        return 0.0 if np.ndim(x) == 1 else np.zeros(np.shape(x)[1])
    sigma = harmonic_representative(mesh, volume_flux(phi_path))
    pairing = wedge_integral(alpha, sigma)
    orbit = orbit_integral(phi_path, x, alpha)
    return (pairing - mesh.volume * orbit) / l2_norm(alpha)


# ---------------------------------------------------------------------------
# the unit sphere sampler and the norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitSphereSampler:
    """Random draws from the L2 unit sphere of a closed-form subspace:
    harmonic directions plus exact directions dG with G in the Fourier band
    |k|_inf <= max_mode."""

    mesh: GridMesh
    max_mode: int = 8
    count: int = 64
    refine: int = 1
    seed: int = 0

    @cached_property
    def wavevectors(self) -> list[tuple[int, int]]:
        """Half lattice (one representative per +-k pair)."""
        out = []
        m = self.max_mode
        for k1 in range(0, m + 1):
            for k2 in range(-m, m + 1):
                if k1 == 0 and k2 <= 0:
                    continue
                out.append((k1, k2))
        return out

    @property
    def dimension(self) -> int:
        return 2 + 2 * len(self.wavevectors)

    def coefficient_index(self, k1: int, k2: int, trig: str = "cos") -> int:
        """Position of the (k1, k2) cosine/sine exact direction in the
        coefficient vector (harmonic dx, dy occupy slots 0 and 1)."""
        if (k1, k2) not in self._wave_index:
            raise KeyError(f"wavevector {(k1, k2)} outside the sampled band")
        return 2 + 2 * self._wave_index[(k1, k2)] + (0 if trig == "cos" else 1)

    @cached_property
    def _wave_index(self) -> dict:
        return {k: i for i, k in enumerate(self.wavevectors)}

    def _omega(self, k: tuple[int, int]) -> tuple[float, float]:
        return (TWO_PI * k[0] / self.mesh.L[0], TWO_PI * k[1] / self.mesh.L[1])

    def _amp(self, k: tuple[int, int]) -> float:
        w = self._omega(k)
        return math.sqrt(2.0 / self.mesh.volume) / math.hypot(*w)

    def draw_coefficients(self, rng: np.random.Generator) -> np.ndarray:
        c = rng.standard_normal(self.dimension)
        return c / np.linalg.norm(c)

    @cached_property
    def _grid_ladders(self) -> tuple[np.ndarray, np.ndarray]:
        """`_ladder` of the two grid axes, each of shape (2m + 1, N): the
        mode exp(i w.x) at grid point (i, j) is gx[m + k1, i] gy[m + k2, j]."""
        return tuple(_ladder(a, l, self.max_mode)
                     for a, l in zip(self.mesh.axes, self.mesh.L))

    @cached_property
    def _amps(self) -> np.ndarray:
        return np.array([self._amp(k) for k in self.wavevectors])

    @cached_property
    def _grid_sums(self) -> np.ndarray:
        """sum_x X^k1 Y^k2 over the grid points, shape (m + 1, 2m + 1), summed
        block by block as `_potential_means` sums the image points."""
        m, N = self.max_mode, self.mesh.N
        gx, gy = self._grid_ladders
        sums = np.zeros((m + 1, 2 * m + 1), dtype=complex)
        for rows in _row_blocks(self.mesh):
            sums += _gram(np.repeat(gx[:, rows], N, axis=1),
                          np.tile(gy, (1, rows.stop - rows.start)), m)
        return sums

    def materialize(self, coeffs: np.ndarray) -> OneForm:
        """The closed unit form with the given basis coefficients."""
        mesh = self.mesh
        root_vol = math.sqrt(mesh.volume)
        ax = np.full(mesh.shape, coeffs[0] / root_vol)
        ay = np.full(mesh.shape, coeffs[1] / root_vol)
        gx, gy = self._grid_ladders
        m = self.max_mode
        for i, k in enumerate(self.wavevectors):
            W = gx[m + k[0], :, None] * gy[m + k[1]]
            w = self._omega(k)
            a = self._amp(k)
            c_cos, c_sin = coeffs[2 + 2 * i], coeffs[3 + 2 * i]
            # d(a cos) = -a sin(w.x) w ; d(a sin) = a cos(w.x) w
            val = -c_cos * a * W.imag + c_sin * a * W.real
            ax += val * w[0]
            ay += val * w[1]
        return OneForm(mesh, ax, ay)


def _ladder(coord: np.ndarray, period: float, m: int) -> np.ndarray:
    """exp(2 pi i j coord / period) for j = -m..m at index j + m, shape
    (2m + 1, *coord.shape): powers of one exponential, the negative ones
    their conjugates."""
    base = np.exp(2j * np.pi * coord / period)
    lad = np.empty((2 * m + 1,) + base.shape, dtype=complex)
    lad[m] = 1.0
    for j in range(m + 1, 2 * m + 1):
        lad[j] = lad[j - 1] * base
    lad[:m] = lad[:m:-1].conj()
    return lad


#: Grid points per block of the streamed norm estimator, taken as whole
#: grid rows (4 rows at N = 128): its working set is a few (D, block)
#: arrays instead of the (D, N*N) basis-potential matrix.
BLOCK_POINTS = 512


def _row_blocks(mesh: GridMesh) -> list[slice]:
    """The grid rows in consecutive blocks of about BLOCK_POINTS points."""
    rows = min(mesh.N, max(1, BLOCK_POINTS // mesh.N))
    return [slice(r, r + rows) for r in range(0, mesh.N, rows)]


def _image_ladders(disp: np.ndarray, sampler: UnitSphereSampler,
                   rows: slice) -> list[np.ndarray]:
    """x and y ladders, each (2m + 1, B), of the image points x + disp(x)
    of the grid points in grid rows `rows`, flattened in grid order."""
    mesh = sampler.mesh
    pos = (mesh.points[:, rows] + disp[:, rows]).reshape(2, -1)
    return [_ladder(pos[k], mesh.L[k], sampler.max_mode) for k in range(2)]


def _gram(lx: np.ndarray, ly: np.ndarray, m: int) -> np.ndarray:
    """sum over the points of X^k1 Y^k2, k1 = 0..m, k2 = -m..m, from the
    x and y ladders (2m + 1, B)."""
    return lx[m:] @ ly.T


def _potential_means(disp: np.ndarray, sampler: UnitSphereSampler
                     ) -> np.ndarray:
    """Grid means of the D uncentred basis potentials under the map
    x + disp(x) on the sampler's grid.

    Slots 0 and 1 hold the means of u_x and u_y.  An exact direction with
    mode W has the mean a (sum_x W(psi x) - sum_x W(x)) / N^2.  Both sums
    of every mode come from (m+1) x (2m+1) products of the ladders, summed
    over the row blocks in the same order for the image and the grid, so
    the identity's means are exactly 0.
    """
    m, N = sampler.max_mode, sampler.mesh.N
    sums = np.zeros((m + 1, 2 * m + 1), dtype=complex)
    for rows in _row_blocks(sampler.mesh):
        sums += _gram(*_image_ladders(disp, sampler, rows), m)
    diff = (sums - sampler._grid_sums).ravel()[m + 1:]
    mu = sampler._amps * diff / (N * N)
    means = np.empty(sampler.dimension)
    means[0], means[1] = disp[0].mean(), disp[1].mean()
    means[2::2], means[3::2] = mu.real, mu.imag
    return means


def _basis_potentials(disp: np.ndarray, sampler: UnitSphereSampler,
                      rows: slice, means: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Displacement potentials of every basis form under the map
    psi = x + disp(x) at the grid points of grid rows `rows`, centred by
    `_potential_means`; shape (D, B) with B = N points per grid row,
    written into `out` when given.

    Harmonic rows are (u - mean)/sqrt(vol); an exact basis form dG has the
    potential G o psi - G minus its mean, read off the Fourier modes at the
    image points and at the grid points, so no row carries interpolation
    error.
    """
    m = sampler.max_mode
    lx, ly = _image_ladders(disp, sampler, rows)
    gx, gy = sampler._grid_ladders
    P = np.empty((sampler.dimension, lx.shape[1])) if out is None else out
    root_vol = math.sqrt(sampler.mesh.volume)
    for k in range(2):
        # harmonic directions: psi^* dx - dx = d(u_x), exactly
        P[k] = ((disp[k, rows] - means[k]) / root_vol).ravel()
    # G = a cos(w.x) and a sin(w.x): a real times the real and imaginary
    # parts of W(psi x) - W(x), for W = X^k1 Y^k2 one k1 at a time, in
    # `wavevectors` order (k2 = -m..m, from 1 when k1 = 0)
    w = 0
    for k1 in range(m + 1):
        k2 = slice(m + 1 if k1 == 0 else 0, 2 * m + 1)
        d = lx[m + k1] * ly[k2]
        d -= (gx[m + k1, rows, None] * gy[k2, None, :]).reshape(d.shape)
        n = len(d)
        amp = sampler._amps[w:w + n, None]
        np.multiply(d.real, amp, out=P[2 + 2 * w:2 + 2 * (w + n):2])
        np.multiply(d.imag, amp, out=P[3 + 2 * w:3 + 2 * (w + n):2])
        w += n
    P[2:] -= means[2:, None]
    return P


def _stream(disp: np.ndarray, sampler: UnitSphereSampler, means: np.ndarray,
            C, refine: bool):
    """One pass over the basis potentials P (D, N*N) of the map x + disp(x):
    the largest |C @ P| of each draw (row of C, possibly none) with its grid
    index, and when `refine` also the largest column norm of P with its grid
    index and its column.

    P is never formed: the grid is walked in blocks of whole grid rows
    (`BLOCK_POINTS`), each block's columns are built by `_basis_potentials`
    and folded into the running maxima, so memory is O(D * block) rather
    than O(D * N*N + count * N*N).  Strict > keeps the first grid index of
    a tie, as a dense argmax would.
    """
    count = len(C)
    top, top_at = np.full(count, -1.0), np.zeros(count, dtype=int)
    gmax, g_at, column = -1.0, 0, None
    start = 0
    # one buffer each for the block's potentials and its |C @ P|, reused by
    # every block: arrays made afresh per block are handed back to the OS
    # and faulted in again each block (8.7k page faults a call at N = 128)
    blocks = _row_blocks(sampler.mesh)
    width = sampler.mesh.N * (blocks[0].stop - blocks[0].start)
    P = np.empty((sampler.dimension, width))
    a = np.empty((count, width))
    for block in blocks:
        _basis_potentials(disp, sampler, block, means, out=P)
        if count:
            np.abs(np.matmul(C, P, out=a), out=a)
            j = a.argmax(axis=1)
            v = a[np.arange(count), j]
            better = v > top
            top[better], top_at[better] = v[better], start + j[better]
        if refine:
            G = np.sqrt(np.einsum("dx,dx->x", P, P))
            j = int(G.argmax())
            if G[j] > gmax:
                gmax, g_at, column = G[j], start + j, P[:, j].copy()
        start += P.shape[1]
    return top, top_at, gmax, g_at, column


def _draws(sampler: UnitSphereSampler) -> np.ndarray:
    """The (count, D) coefficients of the table's random unit draws, drawn
    afresh from the sampler's seed, so every call gives the same draws."""
    rng = np.random.default_rng(sampler.seed)
    return np.array([sampler.draw_coefficients(rng)
                     for _ in range(sampler.count)])


def _row(sample: str, value: float, mesh: GridMesh, at: int) -> dict:
    pt = mesh.flat_points[:, at]
    return {"sample": sample, "value": value,
            "point": (float(pt[0]), float(pt[1]))}


def _draw_table(disp: np.ndarray, sampler: UnitSphereSampler,
                means: np.ndarray, tail: list[dict]) -> list[dict]:
    """The table of the map x + disp(x): one row per draw of `_draws`, its
    largest Vol |c . P(:, x)| and the grid point x where it is taken, then
    the rows of `tail`.  It reads no map, so a report that defers it keeps
    no reference to the map it measures."""
    mesh = sampler.mesh
    top, top_at, *_ = _stream(disp, sampler, means, _draws(sampler),
                              refine=False)
    return [_row(f"draw-{s:03d}", float(mesh.volume * top[s]), mesh, top_at[s])
            for s in range(sampler.count)] + tail


@dataclass
class DisplacementReport:
    """Outcome of the sup-norm estimation for one map.

    `table` lists the per-sample rows.  A report may hold a function that
    computes them instead (see `psi_norm`); the first read of `table`
    calls it and keeps its rows.
    """

    norm_lower_bound: float
    witness_coeffs: np.ndarray
    witness_point: tuple[float, float]
    sampler_meta: dict
    map_provenance: dict
    _table: list[dict] | Callable[[], list[dict]] = field(repr=False)

    @property
    def table(self) -> list[dict]:
        if callable(self._table):
            self._table = self._table()
        return self._table

    def write_table(self, path) -> str:
        """Dump the per-sample table to CSV; returns the path."""
        lines = ["sample,value,point_x,point_y"]
        for r in self.table:
            lines.append(f"{r['sample']},{r['value']!r},"
                         f"{r['point'][0]!r},{r['point'][1]!r}")
        from pathlib import Path
        Path(path).write_text("\n".join(lines) + "\n")
        return str(path)


def psi_norm(psi: TorusMap, sampler: UnitSphereSampler) -> DisplacementReport:
    """Certified lower bound of the displacement norm of psi.

    Evaluates sup_z |Delta-tilde(psi, alpha)_z| = Vol * sup |P_alpha| on
    `count` random unit forms and, when `refine` is set, on the exact
    maximizer over the sampled subspace (the potential map is linear in
    alpha, so for each point the optimal coefficients are the normalized
    potential vector and the subspace sup is max_x ||P(:, x)||_2).  The
    reported value is the table maximum, hence monotone in the sample
    budget.  The table lists the draws, then the `subspace-max` row.

    With `refine` set, the subspace row is the maximum and no draw can set
    the estimate: for a unit c, Cauchy-Schwarz gives
    |c . P(:, x)| <= ||P(:, x)||_2.  The best of 64 draws reads 0.21-0.28
    of the subspace value on the test maps at N = 128 (seeds 0 and 3), a
    gap no rounding (about D eps relative) can close, so nothing checks it
    at run time.  So one pass over the grid (`_stream`) computes the column
    norms only, and the draws' rows are computed on the first read of
    `report.table` by a second pass through the same blocks with the same
    draws from the sampler's seed (`_draw_table`), each row as one pass
    would give it.  The deferred table holds the displacement, the sampler
    and the means, never the map: the map's norm cache holds the report.
    Without `refine` the draws are the estimate, and the table is built in
    the one pass.  Ties keep the first grid index, and the first draw.
    """
    if not sampler.mesh.same_grid(psi.mesh):
        raise ValueError("sampler and map live on different meshes")
    if sampler.count <= 0 and not sampler.refine:
        raise ValueError("sampler budget is zero: nothing to estimate")
    cache = psi._norm_cache
    key = (sampler.max_mode, sampler.count, sampler.refine, sampler.seed)
    hit = cache.get(key)
    if hit is not None:
        return hit

    mesh = psi.mesh
    means = _potential_means(psi.disp, sampler)
    if sampler.refine:
        _, _, gmax, at, column = _stream(psi.disp, sampler, means, [],
                                         refine=True)
        if gmax > 0:
            witness = column / gmax
        else:
            witness = np.zeros(sampler.dimension)
            witness[0] = 1.0
        best = _row("subspace-max", mesh.volume * float(gmax), mesh, at)
        table = (partial(_draw_table, psi.disp, sampler, means, [best])
                 if sampler.count else [best])
    else:
        table = _draw_table(psi.disp, sampler, means, [])
        s = max(range(sampler.count), key=lambda i: table[i]["value"])
        best, witness = table[s], _draws(sampler)[s].copy()
    report = DisplacementReport(
        norm_lower_bound=float(best["value"]),
        witness_coeffs=witness,
        witness_point=best["point"],
        sampler_meta={"m": sampler.max_mode, "count": sampler.count,
                      "seed": sampler.seed, "refine": sampler.refine},
        map_provenance=dict(psi.provenance),
        _table=table,
    )
    cache[key] = report
    return report


# ---------------------------------------------------------------------------
# norm axioms, conjugation
# ---------------------------------------------------------------------------

@dataclass
class AxiomViolation:
    axiom: str
    detail: str
    excess: float


@dataclass
class NormAxiomReport:
    norms: list[float]
    margins: dict[str, float]
    violations: list[AxiomViolation]


def norm_axiom_report(maps: list[TorusMap],
                      sampler: UnitSphereSampler) -> NormAxiomReport:
    """Check positivity, the triangle inequality, duality, and separation
    on sampled norm estimates.

    Each instance has a margin that is positive when it violates its
    axiom (separation also at margin 0: a norm must exceed SEPARATION_NORM);
    the report keeps the worst margin of each axiom (-inf when no instance
    was checked) and every violation with its witness.
    """
    norms = [psi_norm(m, sampler).norm_lower_bound for m in maps]
    margins = dict.fromkeys(("positivity", "triangle", "duality",
                             "separation"), -math.inf)
    violations = []

    def record(axiom, detail, margin):
        margins[axiom] = max(margins[axiom], margin)
        if margin > 0 or (axiom == "separation" and margin == 0):
            violations.append(AxiomViolation(axiom, detail, margin))

    for i, n in enumerate(norms):
        record("positivity", f"map {i}", -n)
    for i, a in enumerate(maps):
        for j, b in enumerate(maps):
            if i != j:
                n_ab = psi_norm(compose(a, b), sampler).norm_lower_bound
                record("triangle", f"maps ({i}, {j})", n_ab - norms[i]
                       - norms[j] - AXIOM_SLACK * (norms[i] + norms[j]))
    for i, a in enumerate(maps):
        n_inv = psi_norm(a.inverse(), sampler).norm_lower_bound
        record("duality", f"map {i}", abs(n_inv - norms[i])
               - AXIOM_SLACK * max(norms[i], n_inv, 1e-30))
    ident = TorusMap.identity(maps[0].mesh) if maps else None
    for i, a in enumerate(maps):
        if c0_distance(a, ident) > SEPARATION_DISTANCE:
            record("separation", f"map {i}", SEPARATION_NORM - norms[i])
    return NormAxiomReport(norms=norms, margins=margins, violations=violations)


@dataclass
class ConjugationReport:
    identity_residual: float
    lhs: float
    rhs: float
    sandwich_ok: bool
    norm_h: float
    norm_conj: float
    c_phi: float
    c_phi_inv: float


def _require_vanishing_flux(phi: TorusMap):
    fp = phi.provenance.get("flux_periods")
    if fp is None:
        raise ValueError(
            "phi carries no vanishing-flux certificate (build it from a "
            "Hamiltonian generator in the catalog)")
    if max(abs(fp[0]), abs(fp[1])) > 1e-6:
        raise ValueError(f"phi has nonzero flux {fp}; not Hamiltonian-class")


def conjugation_check(h: TorusMap, phi: TorusMap, x, alpha: OneForm,
                      sampler: UnitSphereSampler) -> ConjugationReport:
    """The conjugation identity for the unnormalized invariant:
    Delta~(phi h phi^{-1}, alpha) at phi(x) equals Delta~(h, phi^* alpha)
    at x, for vanishing-flux phi; plus the two-sided norm equivalence
    through the pull-back constants of phi.

    The normalized invariant transforms with the extra factor
    ||phi^* alpha|| / ||alpha||, which the unnormalized form absorbs.
    """
    _require_vanishing_flux(phi)
    from .maps import evaluate_lift
    conj = compose(compose(phi, h), phi.inverse())
    x = np.asarray(x, dtype=float)
    beta = pullback_oneform(phi, alpha.at)
    # pulled-back forms carry interpolation-level d-residuals; closed in
    # exact arithmetic, so the gate only needs to reject genuine non-closedness
    loose = 1e-4 * (1.0 + max(sup_norm(alpha), sup_norm(beta)))
    lhs = delta_tilde(conj, alpha, evaluate_lift(phi, x), closed_tol=loose)
    rhs = delta_tilde(h, beta, x, closed_tol=loose)
    n_h = psi_norm(h, sampler).norm_lower_bound
    n_c = psi_norm(conj, sampler).norm_lower_bound
    c_phi = pullback_bound_constant(phi)
    c_phi_inv = pullback_bound_constant(phi.inverse())
    ok = (n_h / c_phi_inv <= n_c + CONJUGATION_SLACK * max(n_h, 1e-30)
          and n_c <= c_phi * n_h + CONJUGATION_SLACK * max(n_h, 1e-30))
    return ConjugationReport(identity_residual=abs(lhs - rhs), lhs=lhs,
                             rhs=rhs, sandwich_ok=ok, norm_h=n_h,
                             norm_conj=n_c, c_phi=c_phi, c_phi_inv=c_phi_inv)


# ---------------------------------------------------------------------------
# displacement and displacement energy
# ---------------------------------------------------------------------------

@dataclass
class DisplacementCheck:
    displaced: bool
    marginal: bool
    min_distance: float
    margin: float

    def __bool__(self) -> bool:
        return self.displaced


def displaces(psi: TorusMap, region: Region) -> DisplacementCheck:
    """True iff the image of a dense grid sample of the region stays away
    from the region by more than the interpolation safety margin.

    Near-boundary outcomes within the margin come back as false with the
    marginal flag set, never as a silent true.
    """
    mesh = psi.mesh
    pts = region.grid_points(mesh)
    if pts.shape[1] == 0:
        raise ValueError("region contains no grid points at this resolution")
    margin = math.hypot(*mesh.spacing) * (1.0 + max_singular_value(psi))
    images = pts + psi.interp_disp(pts)
    dmin = float(region.distance(images, mesh).min())
    return DisplacementCheck(displaced=dmin > margin,
                             marginal=(0.0 < dmin <= margin),
                             min_distance=dmin, margin=margin)


def displacement_energy_upper(region: Region, candidates: list[TorusMap],
                              sampler: UnitSphereSampler) -> float:
    """Smallest sampled norm among the candidates that displace the region;
    +inf when none does."""
    best = math.inf
    for psi in candidates:
        if displaces(psi, region):
            best = min(best, psi_norm(psi, sampler).norm_lower_bound)
    return best


def _pair_geometry(region: Region):
    """Centers and support radius for two overlapping bumps inside the
    rectangle, placed along its long axis, and the margin `gap` by which
    each support stays inside it."""
    lo, w = region.lo, region.width
    c = (lo[0] + w[0] / 2.0, lo[1] + w[1] / 2.0)
    short = min(w) / 2.0
    axis = 0 if w[0] >= w[1] else 1
    rho = 0.85 * short
    off = 0.6 * rho
    gap = min(short - rho, max(w) / 2.0 - (off + rho))
    d = np.zeros(2)
    d[axis] = off
    return (c[0] - d[0], c[1] - d[1]), (c[0] + d[0], c[1] + d[1]), rho, gap


def supported_commutator_pair(region: Region, mesh: GridMesh,
                              angle: float = 0.5) -> tuple[TorusMap, TorusMap]:
    """Two Hamiltonian time-1 maps supported inside the region with
    partially overlapping supports and a commutator far from the identity.

    Both are bump rotations: exactly the identity outside the region,
    volume preserving with vanishing flux by construction.  The default
    rotation angle keeps the bump Jacobians resolved on the grid so that
    composition chains stay well conditioned.
    """
    from .catalog import bump_rotation
    if region.measure(mesh) < 4.0 * mesh.cell_volume:
        raise ValueError("region smaller than 4 grid cells at this resolution")
    c1, c2, rho, gap = _pair_geometry(region)
    if gap < max(mesh.spacing):
        raise ValueError(
            f"region too small at N = {mesh.N}: support margin {gap:.4f} "
            f"is under one grid cell")
    # each support lies `gap` (at least a cell) inside the region, and a
    # bump rotation's displacement is exactly zero off its support
    phi = bump_rotation(mesh, c1, rho, angle)
    psi = bump_rotation(mesh, c2, rho, angle)
    for m in (phi, psi):
        m.provenance["supported_in"] = repr(region)
    comm = map_commutator(phi, psi)
    d0 = c0_distance(comm, TorusMap.identity(mesh))
    if d0 <= 1e-3:
        raise AssertionError(
            f"commutator of the supported pair is too close to the identity "
            f"(d0 = {d0:.2e}); increase the rotation angle")
    return phi, psi


def map_commutator(a: TorusMap, b: TorusMap) -> TorusMap:
    """[a, b] = b^{-1} a^{-1} b a.

    Like every composite, its Jacobian is differentiated spectrally from
    the sampled displacement: for marginally resolved factors this keeps
    positions and Jacobian mutually consistent.
    """
    return compose(compose(compose(b.inverse(), a.inverse()), b), a)


def commutator_collapse_check(f: TorusMap, phi: TorusMap, psi: TorusMap,
                              region: Region) -> float:
    """Uniform distance between [[f, phi^{-1}], psi] and [phi, psi] for
    phi, psi supported in the region and f displacing it; the two sides
    agree up to the composition error budget.

    Raises when f does not displace the region (a precondition, not a
    residual).
    """
    mesh = f.mesh
    outside = ~region.contains(mesh.points, mesh)
    for name, m in (("phi", phi), ("psi", psi)):
        worst = float(np.abs(m.disp[:, outside]).max()) if outside.any() else 0.0
        if worst > 1e-10:
            raise ValueError(f"{name} is not supported in the region "
                             f"(displacement {worst:.2e} outside)")
    if not displaces(f, region):
        raise ValueError("f does not displace the region")
    # [f, phi^{-1}] = phi f^{-1} phi^{-1} f, inverted by reversing factors
    c = compose(compose(compose(phi, f.inverse()), phi.inverse()), f)
    c_inv = compose(compose(compose(f.inverse(), phi), f), phi.inverse())
    lhs = compose(compose(compose(psi.inverse(), c_inv), psi), c)
    rhs = map_commutator(phi, psi)
    return float(mesh.torus_distance(lhs.position, rhs.position).max())


@dataclass
class EnergyChainReport:
    lower_bound: float
    chain_ok: bool
    norm_commutator: float
    norm_f: float
    c_phi: float
    c_psi_inv: float
    collapse_residual: float


def energy_chain_check(region: Region, f: TorusMap,
                       sampler: UnitSphereSampler) -> EnergyChainReport:
    """The positivity chain for the displacement energy of the region.

    Builds a supported commutator pair, verifies the collapse identity and
    the inequality  ||[phi, psi]|| <= (C_{psi^{-1}} + 1)(C_phi + 1) ||f||
    on sampled estimates, and reports the implied positive lower bound
    ||[phi, psi]|| / ((C_{psi^{-1}} + 1)(C_phi + 1)) for the energy.
    """
    check = displaces(f, region)
    if not check:
        raise ValueError("f does not displace the region (precondition)")
    mesh = f.mesh
    phi, psi = supported_commutator_pair(region, mesh)
    collapse = commutator_collapse_check(f, phi, psi, region)
    comm = map_commutator(phi, psi)
    n_comm = psi_norm(comm, sampler).norm_lower_bound
    n_f = psi_norm(f, sampler).norm_lower_bound
    c_phi = pullback_bound_constant(phi)
    c_psi_inv = pullback_bound_constant(psi.inverse())
    const = (c_psi_inv + 1.0) * (c_phi + 1.0)
    chain_ok = n_comm <= const * n_f * (1.0 + CHAIN_SLACK)
    return EnergyChainReport(lower_bound=n_comm / const, chain_ok=chain_ok,
                             norm_commutator=n_comm, norm_f=n_f,
                             c_phi=c_phi, c_psi_inv=c_psi_inv,
                             collapse_residual=collapse)


# ---------------------------------------------------------------------------
# rigidity pattern
# ---------------------------------------------------------------------------

@dataclass
class RigidityReport:
    distances: list[float]
    norm_premises: list[float]
    final_distance: float
    pattern_violated: bool


def rigidity_limit_check(sequence: list[TorusMap], phi: TorusMap,
                         sampler: UnitSphereSampler) -> RigidityReport:
    """Track the two premises of the uniform-limit rigidity statement along
    a sequence: d0(phi_i, phi) and the sampled norm of phi_i o phi^{-1}.

    The forbidden pattern is premises below threshold while the final
    distance stays large; the report records whether it ever occurs.
    """
    phi_inv = phi.inverse()
    distances, premises = [], []
    for m in sequence:
        distances.append(c0_distance(m, phi))
        # the same object composes with its inverse to the identity exactly
        g = TorusMap.identity(phi.mesh) if m is phi else compose(m, phi_inv)
        premises.append(psi_norm(g, sampler).norm_lower_bound)
    final_distance = distances[-1] if distances else 0.0
    violated = (premises and premises[-1] < RIGIDITY_PREMISE
                and final_distance > RIGIDITY_DISTANCE)
    return RigidityReport(distances=distances, norm_premises=premises,
                          final_distance=final_distance,
                          pattern_violated=bool(violated))
