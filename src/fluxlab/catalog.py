"""Named map and flow generators with closed-form data.

Every builder here supplies analytic displacement, Jacobian, and (where a
closed form exists) the inverse map, so determinants and pull-back data
are exact to round-off rather than limited by spectral differentiation of
barely resolved fields.  Flow builders attach the exact generating vector
field, a `TimeField` with point values, to the isotopies they produce;
flows of the named potentials integrate their field in closed form
(`hamiltonian_field`).
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import partial

import numpy as np

from .forms import ScalarField
from .isotopy import Isotopy, TimeField, integrate_flow, symplectic_flux
from .maps import UNIT_JAC, TorusMap, require_positive_det
from .mesh import GridMesh

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# elementary closed-form maps
# ---------------------------------------------------------------------------

def _line(mesh: GridMesh, axis: int) -> np.ndarray:
    """Grid coordinate `axis` on the one grid line it varies along: shape
    (N, 1) for x, (1, N) for y.  A field of it alone is stored on that
    line (see TorusMap)."""
    a = mesh.axes[axis]
    return a.reshape(-1, 1) if axis == 0 else a.reshape(1, -1)


def translation(mesh: GridMesh, c: float, d: float) -> TorusMap:
    """x -> x + (c, d); an isometry with J = I, both fields stored once."""
    return TorusMap(mesh, np.reshape((c, d), (2, 1, 1)), jac=UNIT_JAC,
                    provenance={"kind": "translation", "c": c, "d": d},
                    inverse=lambda: translation(mesh, -c, -d))


def shear(mesh: GridMesh, eps: float, axis: int = 0, mode: int = 1,
          phase: float = 0.0) -> TorusMap:
    """Shear along `axis` with a sinusoidal profile of the other coordinate.

    axis=0: (x, y) -> (x + eps sin(2 pi m y / L1 + phase), y).  The time-1
    map of a Hamiltonian flow, so volume preserving with vanishing flux.
    """
    w = TWO_PI * mode / mesh.L[1 - axis]
    coord = _line(mesh, 1 - axis)
    disp = np.zeros((2, *coord.shape))
    disp[axis] = eps * np.sin(w * coord + phase)
    jac = np.zeros((2, 2, *coord.shape))
    jac[0, 0] = jac[1, 1] = 1.0
    jac[axis, 1 - axis] = eps * w * np.cos(w * coord + phase)
    return TorusMap(mesh, disp, jac=jac,
                    provenance={"kind": "shear", "eps": eps, "axis": axis,
                                "mode": mode, "flux_periods": (0.0, 0.0)},
                    inverse=lambda: shear(mesh, -eps, axis, mode, phase))


def _twist_data(mesh: GridMesh, e1: float, e2: float, m1: int, m2: int,
                first_axis: int):
    """Displacement and Jacobian of a composite of two transverse shears.

    first_axis = 0: apply the x-shear first, then the y-shear.
    """
    X, Y = mesh.points
    w1 = TWO_PI * m1 / mesh.L[1]
    w2 = TWO_PI * m2 / mesh.L[0]
    N = mesh.N
    disp = np.empty((2, N, N))
    jac = np.zeros((2, 2, N, N))
    if first_axis == 0:
        u1 = e1 * np.sin(w1 * Y)
        u2 = e2 * np.sin(w2 * (X + u1))
        a = e1 * w1 * np.cos(w1 * Y)
        b = e2 * w2 * np.cos(w2 * (X + u1))
        disp[0], disp[1] = u1, u2
        jac[0, 0] = 1.0
        jac[0, 1] = a
        jac[1, 0] = b
        jac[1, 1] = 1.0 + a * b
    else:
        u2 = e2 * np.sin(w2 * X)
        u1 = e1 * np.sin(w1 * (Y + u2))
        b = e2 * w2 * np.cos(w2 * X)
        a = e1 * w1 * np.cos(w1 * (Y + u2))
        disp[0], disp[1] = u1, u2
        jac[0, 0] = 1.0 + a * b
        jac[0, 1] = a
        jac[1, 0] = b
        jac[1, 1] = 1.0
    return disp, jac


def twist(mesh: GridMesh, e1: float, e2: float, m1: int = 1, m2: int = 1,
          first_axis: int = 0) -> TorusMap:
    """Composite of an x-shear and a y-shear; det J = 1 exactly.

    A product of two Hamiltonian time-1 maps, hence volume preserving with
    vanishing flux.
    """
    disp, jac = _twist_data(mesh, e1, e2, m1, m2, first_axis)
    return TorusMap(mesh, disp, jac=jac,
                    provenance={"kind": "twist", "e1": e1, "e2": e2,
                                "m1": m1, "m2": m2,
                                "flux_periods": (0.0, 0.0)},
                    inverse=lambda: twist(mesh, -e1, -e2, m1, m2,
                                          first_axis=1 - first_axis))


def _bump_chi(s: np.ndarray):
    """chi(s) = exp(1 - 1/(1-s)) on [0, 1), identically 0 for s >= 1;
    returns (chi, dchi/ds)."""
    s = np.asarray(s, dtype=float)
    inside = s < 1.0
    chi = np.zeros_like(s)
    dchi = np.zeros_like(s)
    si = s[inside]
    with np.errstate(over="ignore", under="ignore"):
        c = np.exp(1.0 - 1.0 / (1.0 - si))
    chi[inside] = c
    dchi[inside] = -c / (1.0 - si) ** 2
    return chi, dchi


def _bump_fields(mesh: GridMesh, center, radius: float, angle: float):
    """The grid offsets v from `center` (wrapped), chi((|v|/radius)^2), its
    derivative, and cos and sin of the angle angle * chi."""
    v = mesh.wrap_delta(mesh.points - np.asarray(center, dtype=float).reshape(2, 1, 1))
    s = (v[0] ** 2 + v[1] ** 2) / radius ** 2
    chi, dchi = _bump_chi(s)
    theta = angle * chi
    return v, chi, dchi, np.cos(theta), np.sin(theta)


def _bump_jac_of(v, dchi, ct, st, radius: float, angle: float) -> np.ndarray:
    """The Jacobian of `bump_rotation`, read-only, from the fields of
    `_bump_fields`: J = R(theta) + (R'(theta) v) (grad theta)^T, with
    grad theta = angle chi' 2v/r^2."""
    g0 = angle * dchi * (2.0 / radius ** 2) * v[0]
    g1 = angle * dchi * (2.0 / radius ** 2) * v[1]
    rp0 = -st * v[0] - ct * v[1]
    rp1 = ct * v[0] - st * v[1]
    jac = np.empty((2, 2, *v.shape[1:]))
    jac[0, 0] = ct + rp0 * g0
    jac[0, 1] = -st + rp0 * g1
    jac[1, 0] = st + rp1 * g0
    jac[1, 1] = ct + rp1 * g1
    jac.setflags(write=False)
    return jac


def _bump_jac(mesh: GridMesh, center, radius: float, angle: float) -> np.ndarray:
    """The Jacobian of `bump_rotation`, computed from its four parameters
    alone."""
    v, _, dchi, ct, st = _bump_fields(mesh, center, radius, angle)
    return _bump_jac_of(v, dchi, ct, st, radius, angle)


def bump_rotation(mesh: GridMesh, center, radius: float, angle: float) -> TorusMap:
    """Rotate each circle r = const about `center` by angle(r) =
    angle * chi((r/radius)^2); identity outside the radius.

    The time-1 map of a compactly supported Hamiltonian flow: each circle
    is rotated rigidly, so areas are preserved (det J = 1 analytically)
    and the flux vanishes.  The map stores its displacement only; its
    closed-form Jacobian is computed on every read (see TorusMap), and so
    is its inverse's, which is the bump rotation by -angle.
    """
    if radius >= mesh.injectivity_radius:
        raise ValueError("support radius must be below the injectivity radius")
    v, chi, dchi, ct, st = _bump_fields(mesh, center, radius, angle)
    disp = np.stack([ct * v[0] - st * v[1] - v[0],
                     st * v[0] + ct * v[1] - v[1]])
    # det J is checked once, on the fields in hand, so the map skips its own
    # check, which would compute them again
    require_positive_det(mesh, _bump_jac_of(v, dchi, ct, st, radius, angle))
    return TorusMap(mesh, disp, jac=partial(_bump_jac, mesh, center, radius, angle),
                    check=False,
                    provenance={"kind": "bump_rotation", "center": tuple(center),
                                "radius": radius, "angle": angle,
                                "flux_periods": (float(np.mean(-angle * chi * v[1])),
                                                 float(np.mean(angle * chi * v[0])))},
                    inverse=lambda: bump_rotation(mesh, center, radius, -angle))


def non_volume_preserving(mesh: GridMesh, eps: float = 0.1, mode: int = 1) -> TorusMap:
    """(x, y) -> (x, y + eps sin(2 pi m y / L1)): det J = 1 + eps w cos != 1."""
    Y = _line(mesh, 1)
    w = TWO_PI * mode / mesh.L[1]
    disp = np.zeros((2, *Y.shape))
    disp[1] = eps * np.sin(w * Y)
    jac = np.zeros((2, 2, *Y.shape))
    jac[0, 0] = 1.0
    jac[1, 1] = 1.0 + eps * w * np.cos(w * Y)
    return TorusMap(mesh, disp, jac=jac,
                    provenance={"kind": "non_volume_preserving", "eps": eps})


# ---------------------------------------------------------------------------
# closed-form flows
# ---------------------------------------------------------------------------

def translation_flow(mesh: GridMesh, c: float, d: float, K: int = 64) -> Isotopy:
    def gen_at(t: float, points: np.ndarray) -> np.ndarray:
        out = np.empty((2, *points.shape[1:]))
        out[0], out[1] = c, d
        return out

    return Isotopy.from_time_function(
        mesh, lambda t: translation(mesh, t * c, t * d), K,
        generator=TimeField(gen_at, mesh, autonomous=True,
                            certified_symplectic=True),
        provenance={"kind": "translation_flow", "c": c, "d": d})


def shear_flow(mesh: GridMesh, eps: float, axis: int = 0, mode: int = 1,
               K: int = 64) -> Isotopy:
    """Hamiltonian flow whose time-1 map is shear(eps, axis, mode)."""
    w = TWO_PI * mode / mesh.L[1 - axis]

    def gen_at(t: float, points: np.ndarray) -> np.ndarray:
        out = np.zeros((2, *points.shape[1:]))
        out[axis] = eps * np.sin(w * points[1 - axis])
        return out

    return Isotopy.from_time_function(
        mesh, lambda t: shear(mesh, t * eps, axis, mode), K,
        generator=TimeField(gen_at, mesh, autonomous=True,
                            certified_symplectic=True),
        provenance={"kind": "shear_flow", "eps": eps, "axis": axis})


def translation_shear_flow(mesh: GridMesh, c: float, d: float, eps: float,
                           mode: int = 1, K: int = 64) -> Isotopy:
    """Phi_t = T_{(tc, td)} o S_{t eps}: a volume-preserving flow with
    nonzero flux and a genuinely time-dependent generator."""
    Y = _line(mesh, 1)
    w = TWO_PI * mode / mesh.L[1]

    def map_at(t: float) -> TorusMap:
        disp = np.empty((2, *Y.shape))
        disp[0] = t * c + t * eps * np.sin(w * Y)
        disp[1] = t * d
        jac = np.zeros((2, 2, *Y.shape))
        jac[0, 0] = jac[1, 1] = 1.0
        jac[0, 1] = t * eps * w * np.cos(w * Y)

        def inv():
            dinv = np.empty((2, *Y.shape))
            dinv[0] = -t * c - t * eps * np.sin(w * (Y - t * d))
            dinv[1] = -t * d
            jinv = np.zeros((2, 2, *Y.shape))
            jinv[0, 0] = jinv[1, 1] = 1.0
            jinv[0, 1] = -t * eps * w * np.cos(w * (Y - t * d))
            return TorusMap(mesh, dinv, jac=jinv)

        return TorusMap(mesh, disp, jac=jac, inverse=inv)

    def gen_at(t: float, points: np.ndarray) -> np.ndarray:
        out = np.empty((2, *points.shape[1:]))
        out[0] = c + eps * np.sin(w * (points[1] - t * d))
        out[1] = d
        return out

    return Isotopy.from_time_function(
        mesh, map_at, K,
        generator=TimeField(gen_at, mesh, certified_symplectic=True),
        provenance={"kind": "translation_shear_flow", "c": c, "d": d, "eps": eps})


def rotation_flow(mesh: GridMesh, center, radius: float, angle: float,
                  K: int = 64) -> Isotopy:
    """Compactly supported Hamiltonian flow of rigid circle rotations."""
    c = np.asarray(center, dtype=float)

    def gen_at(t: float, points: np.ndarray) -> np.ndarray:
        v = mesh.wrap_delta(points - c.reshape(2, *[1] * (points.ndim - 1)))
        chi, _ = _bump_chi((v[0] ** 2 + v[1] ** 2) / radius ** 2)
        return np.stack([-angle * chi * v[1], angle * chi * v[0]])

    return Isotopy.from_time_function(
        mesh, lambda t: bump_rotation(mesh, center, radius, t * angle), K,
        generator=TimeField(gen_at, mesh, autonomous=True,
                            certified_symplectic=True),
        provenance={"kind": "rotation_flow", "center": tuple(center),
                    "radius": radius, "angle": angle})


# named smooth potentials for generic Hamiltonian flows (unit amplitudes),
# each a Fourier table of terms (a, tx, m, ty, n) that stand for
# a / (2 pi) * tx(2 pi m x) * ty(2 pi n y) with tx, ty in {"cos", "sin"};
# X_H = (dH/dy, -dH/dx) so that i_{X_H} omega = dH for omega = dx ^ dy
POTENTIALS = {
    "cos_x_cos_y": ((1.0, "cos", 1, "cos", 1),),
    "sin_x_plus_sin_y": ((1.0, "sin", 1, "cos", 0), (1.0, "cos", 0, "sin", 1)),
    "mix_mode2": ((1.0, "cos", 1, "cos", 1), (0.5, "sin", 2, "cos", 1)),
}

#: d/ds of each table function at 2 pi m s, over 2 pi m: (sign, function)
_DERIVATIVE = {"cos": (-1.0, "sin"), "sin": (1.0, "cos")}


def _check_potentials(names) -> None:
    for name in names:
        if name not in POTENTIALS:
            raise KeyError(f"unknown potential {name!r}; have {sorted(POTENTIALS)}")


def _harmonics(s: np.ndarray, top: int) -> dict[str, list]:
    """cos(2 pi m s) and sin(2 pi m s) for m = 0..top from one cos/sin pair,
    the higher harmonics by the angle-addition products."""
    c1, s1 = np.cos(TWO_PI * s), np.sin(TWO_PI * s)
    cos, sin = [1.0, c1], [0.0, s1]
    for _ in range(top - 1):
        cos.append(cos[-1] * c1 - sin[-1] * s1)
        sin.append(sin[-1] * c1 + cos[-2] * s1)
    return {"cos": cos, "sin": sin}


def _evaluate(amps, points: np.ndarray, field: bool) -> np.ndarray:
    """sum over {name: amp} of amp * H_name at `points` of shape (2, ...):
    the potential itself, or with `field` its X_H = (dH/dy, -dH/dx) of
    shape (2, ...).  The grid samples, the point values and the potential
    of every named flow come from here."""
    top = max((max(t[2], t[4]) for name in amps for t in POTENTIALS[name]),
              default=1)
    hx, hy = (_harmonics(points[k], top) for k in range(2))
    out = np.zeros((2, *points.shape[1:]) if field else points.shape[1:])
    for name, amp in amps.items():
        if not field:
            H = sum(a * hx[tx][m] * hy[ty][n] for a, tx, m, ty, n in POTENTIALS[name])
            out += amp * (H / TWO_PI)
            continue
        dHx = dHy = 0.0
        for a, tx, m, ty, n in POTENTIALS[name]:
            if m:
                sign, dtx = _DERIVATIVE[tx]
                dHx = dHx + sign * a * m * hx[dtx][m] * hy[ty][n]
            if n:
                sign, dty = _DERIVATIVE[ty]
                dHy = dHy + sign * a * n * hx[tx][m] * hy[dty][n]
        out[0] += amp * dHy
        out[1] += -amp * dHx
    return out


def hamiltonian_potential(mesh: GridMesh, name: str, amp: float = 1.0):
    """Grid samples of a named potential, scaled by amp."""
    _check_potentials([name])
    return ScalarField(mesh, _evaluate({name: amp}, mesh.points, field=False))


def hamiltonian_field(mesh: GridMesh, amps: Mapping[str, float]) -> TimeField:
    """The steady field X_H of H = sum of amp * POTENTIALS[name] over `amps`
    ({name: amp}), in closed form: its grid samples and its values at any
    point both come from the closed-form gradient, so a flow of it
    integrates the true vector field.  It is not certified symplectic; the
    closedness gate measures it."""
    _check_potentials(amps)
    amps = {name: float(a) for name, a in amps.items()}

    def at(t: float, points: np.ndarray) -> np.ndarray:
        return _evaluate(amps, np.asarray(points, dtype=float), field=True)

    return TimeField(at, mesh, autonomous=True)


def hamiltonian_flow(mesh: GridMesh, name: str, amp: float = 1.0,
                     K: int = 64) -> Isotopy:
    """Flow of a named potential, integrated from its closed-form field."""
    return integrate_flow(hamiltonian_field(mesh, {name: amp}), K, mesh,
                          provenance={"kind": "hamiltonian_flow",
                                      "potential": name, "amp": amp})


def hamiltonian_time1(mesh: GridMesh, name: str, amp: float = 1.0,
                      K: int = 64) -> TorusMap:
    """Time-1 map of a named Hamiltonian flow, tagged with its vanishing
    flux certificate."""
    iso = hamiltonian_flow(mesh, name, amp, K)
    p = symplectic_flux(iso)
    m = iso.end_map
    m.provenance.update({"kind": "hamiltonian_time1", "potential": name,
                         "amp": amp, "flux_periods": tuple(p.periods)})
    return m


def perturbation_map(mesh: GridMesh, amplitude: float,
                     base_eps: tuple[float, float] = (1.0, 1.0)) -> TorusMap:
    """The standard perturbation: a twist with both shear strengths scaled
    by `amplitude`.  A product of Hamiltonian time-1 maps, so volume
    preserving with vanishing flux; the uniform distance to the identity is
    proportional to `amplitude`."""
    if amplitude == 0.0:
        return TorusMap.identity(mesh)
    m = twist(mesh, amplitude * base_eps[0], amplitude * base_eps[1])
    m.provenance["kind"] = "perturbation"
    m.provenance["amplitude"] = amplitude
    return m

