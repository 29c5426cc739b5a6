"""JSON grid serialization for forms, maps, and isotopies.

Every record carries a header {n, N, L, upsample, kind} followed by
row-major component arrays; a header without `upsample` reads as the
mesh default, 2.  Maps serialize their displacement (Jacobians are
reconstructed spectrally on load), isotopies serialize K plus the map
records.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .forms import OneForm, ScalarField, TwoForm
from .isotopy import Isotopy
from .maps import TorusMap
from .mesh import GridMesh


def _header(mesh: GridMesh, kind: str) -> dict:
    return {"n": 2, "N": mesh.N, "L": list(mesh.L), "upsample": mesh.upsample,
            "kind": kind}


def _mesh_from_header(h: dict) -> GridMesh:
    if h.get("n") != 2:
        raise ValueError(f"unsupported dimension {h.get('n')}")
    return GridMesh(N=int(h["N"]), L=tuple(h["L"]),
                    upsample=int(h.get("upsample", 2)))


def to_payload(obj) -> dict:
    if isinstance(obj, ScalarField):
        return {"header": _header(obj.mesh, "scalar"),
                "values": obj.values.ravel().tolist()}
    if isinstance(obj, OneForm):
        return {"header": _header(obj.mesh, "oneform"),
                "ax": obj.ax.ravel().tolist(), "ay": obj.ay.ravel().tolist()}
    if isinstance(obj, TwoForm):
        return {"header": _header(obj.mesh, "twoform"),
                "density": obj.density.ravel().tolist()}
    if isinstance(obj, TorusMap):
        return {"header": _header(obj.mesh, "map"),
                "ux": obj.disp[0].ravel().tolist(),
                "uy": obj.disp[1].ravel().tolist()}
    if isinstance(obj, Isotopy):
        return {"header": _header(obj.mesh, "isotopy"), "K": obj.K,
                "maps": [to_payload(m) for m in obj.maps]}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_payload(data: dict):
    h = data["header"]
    mesh = _mesh_from_header(h)
    shape = mesh.shape
    kind = h["kind"]
    if kind == "scalar":
        return ScalarField(mesh, np.asarray(data["values"]).reshape(shape))
    if kind == "oneform":
        return OneForm(mesh, np.asarray(data["ax"]).reshape(shape),
                       np.asarray(data["ay"]).reshape(shape))
    if kind == "twoform":
        return TwoForm(mesh, np.asarray(data["density"]).reshape(shape))
    if kind == "map":
        disp = np.stack([np.asarray(data["ux"]).reshape(shape),
                         np.asarray(data["uy"]).reshape(shape)])
        return TorusMap(mesh, disp)
    if kind == "isotopy":
        maps = [from_payload(m) for m in data["maps"]]
        return Isotopy(mesh, maps)
    raise ValueError(f"unknown kind {kind!r}")


def save(obj, path) -> None:
    Path(path).write_text(json.dumps(to_payload(obj)))


def load(path):
    return from_payload(json.loads(Path(path).read_text()))
