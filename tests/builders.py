"""Grid fields and path readings that the test modules share."""

import numpy as np

from fluxlab.forms import OneForm, ScalarField, exterior_derivative


def grid_scalar(mesh, fn):
    """The 0-form with values fn(x, y) at the grid points."""
    return ScalarField(mesh, np.asarray(fn(*mesh.points), dtype=float))


def plus_constant(alpha, cx, cy):
    """alpha + cx dx + cy dy, by components."""
    return OneForm(alpha.mesh, alpha.ax + cx, alpha.ay + cy)


def closed_form(mesh, h, fn):
    """The closed 1-form h + dG, for constant components h = (hx, hy) and
    G = fn(x, y) on the grid."""
    return plus_constant(exterior_derivative(grid_scalar(mesh, fn)), *h)


def sup_displacement(m):
    """The largest flat length of a map's displacement over the grid."""
    return float(np.sqrt(m.disp[0] ** 2 + m.disp[1] ** 2).max())


def stacked_samples(path):
    """The (K+1, 2, N, N) grid samples of a path's generator, stacked over
    the sample times."""
    return np.stack([path.generator.field(t) for t in path.times])
