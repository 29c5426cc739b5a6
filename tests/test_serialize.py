"""Round trips through the JSON grid format."""

import json

import numpy as np
import pytest

from fluxlab import catalog, serialize
from fluxlab.forms import OneForm, ScalarField, TwoForm
from fluxlab.mesh import GridMesh

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def mesh():
    return GridMesh(N=16)


def test_scalar_roundtrip(tmp_path, mesh):
    f = ScalarField.from_function(mesh, lambda x, y: np.sin(TWO_PI * x) + y)
    path = tmp_path / "scalar.json"
    serialize.save(f, path)
    g = serialize.load(path)
    assert isinstance(g, ScalarField)
    assert np.array_equal(f.values, g.values)
    assert g.mesh.same_grid(mesh)


def test_header_contents(mesh):
    payload = serialize.to_payload(OneForm.constant(mesh, 1.0, 2.0))
    assert payload["header"] == {"n": 2, "N": 16, "L": [1.0, 1.0],
                                 "upsample": 2, "kind": "oneform"}


def test_oneform_roundtrip(tmp_path, mesh):
    a = OneForm.from_functions(mesh, lambda x, y: np.cos(TWO_PI * y),
                               lambda x, y: x * 0 + 0.5)
    path = tmp_path / "oneform.json"
    serialize.save(a, path)
    b = serialize.load(path)
    assert np.array_equal(a.ax, b.ax) and np.array_equal(a.ay, b.ay)


def test_twoform_roundtrip(tmp_path, mesh):
    w = TwoForm.standard(mesh)
    serialize.save(w, tmp_path / "w.json")
    w2 = serialize.load(tmp_path / "w.json")
    assert np.array_equal(w.density, w2.density)


def test_map_roundtrip(tmp_path, mesh):
    m = catalog.twist(mesh, 0.05, 0.04)
    serialize.save(m, tmp_path / "map.json")
    m2 = serialize.load(tmp_path / "map.json")
    assert np.array_equal(m.disp, m2.disp)
    # reconstructed Jacobian is spectral; agrees with the analytic one
    assert np.abs(m.jac - m2.jac).max() < 1e-10


def test_map_roundtrip_keeps_upsample(tmp_path):
    # the refinement factor sets off-grid values, so it must survive a reload
    m = catalog.twist(GridMesh(N=16, upsample=4), 0.05, 0.04)
    serialize.save(m, tmp_path / "map.json")
    m2 = serialize.load(tmp_path / "map.json")
    assert m2.mesh.upsample == 4
    pts = np.random.default_rng(5).uniform(0.0, 1.0, (2, 50))
    assert np.array_equal(m.interp_disp(pts), m2.interp_disp(pts))


def test_isotopy_roundtrip(tmp_path, mesh):
    iso = catalog.translation_flow(mesh, 0.2, 0.1, K=16)
    serialize.save(iso, tmp_path / "iso.json")
    iso2 = serialize.load(tmp_path / "iso.json")
    assert iso2.K == 16
    for a, b in zip(iso.maps, iso2.maps):
        assert np.array_equal(a.disp, b.disp)


def test_payload_is_json(mesh):
    payload = serialize.to_payload(ScalarField.constant(mesh, 1.0))
    text = json.dumps(payload)
    assert serialize.from_payload(json.loads(text)) is not None


def test_unknown_kind_rejected(mesh):
    with pytest.raises(ValueError):
        serialize.from_payload({"header": {"n": 2, "N": 16, "L": [1, 1],
                                           "kind": "threeform"}})
