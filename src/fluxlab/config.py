"""Experiment configuration: JSON in, validated dataclasses out.

Unknown keys are rejected with their path, the seed is mandatory
(reproducibility), and everything else has defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .displacement import UnitSphereSampler
from .mesh import GridMesh


class ConfigError(ValueError):
    pass


@dataclass
class MeshConfig:
    N: int = 128
    L: tuple[float, float] = (1.0, 1.0)

    def build(self) -> GridMesh:
        return GridMesh(N=self.N, L=tuple(self.L))


@dataclass
class SamplerConfig:
    m: int = 8
    count: int = 64
    refine: int = 1
    seed: int | None = None  # defaults to the experiment seed


@dataclass
class ExperimentConfig:
    suite: str
    seed: int
    mesh: MeshConfig = field(default_factory=MeshConfig)
    K: int = 64
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    out: str = "fluxlab-out"

    def __post_init__(self):
        if self.sampler.seed is None:
            self.sampler.seed = self.seed

    def echo(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        """Raise `ConfigError`, naming the key, for an unknown suite, a `K`
        that is odd (Simpson's rule) or below `integrate_flow`'s 16, or a
        mesh, sampler or seed value that `GridMesh` or `UnitSphereSampler`
        rejects."""
        from .suites import SUITE_REGISTRY
        if self.suite != "all" and self.suite not in SUITE_REGISTRY:
            raise ConfigError(f"unknown suite {self.suite!r}; registered: "
                              f"{sorted(SUITE_REGISTRY)} + ['all']")
        if self.K < 16 or self.K % 2:
            raise ConfigError(f"'K' must be an even integer >= 16, got {self.K}")
        L = self.mesh.L
        if len(L) != 2 or not all(type(v) in (int, float) and 0 < v < math.inf
                                  for v in L):
            raise ConfigError(f"'mesh.L' must be two positive numbers, got {L!r}")
        mesh = _checked("mesh.N", self.mesh.build)
        _checked("seed", UnitSphereSampler, mesh, seed=self.seed)
        for key, name in (("m", "max_mode"), ("count", "count"), ("refine", "refine"),
                          ("seed", "seed")):
            _checked(f"sampler.{key}", UnitSphereSampler, mesh,
                     **{name: getattr(self.sampler, key)})


def _checked(key: str, build, *args, **kwargs):
    """`build(*args, **kwargs)`, a ValueError made a ConfigError naming key."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key!r}: {exc}") from None


_SCHEMA = {
    "suite": str,
    "seed": int,
    "mesh": {"N": int, "L": list},
    "K": int,
    "sampler": {"m": int, "count": int, "refine": int, "seed": int},
    "out": str,
}


def _check_keys(data: dict, schema: dict, path: str = ""):
    for key, val in data.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown key {where!r}")
        expected = schema[key]
        if isinstance(expected, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{where!r} must be an object")
            _check_keys(val, expected, where)
        elif expected is int:
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"{where!r} must be an integer")
        elif not isinstance(val, expected):
            raise ConfigError(f"{where!r} must be {expected.__name__}")


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a raw mapping and fill defaults."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _check_keys(data, _SCHEMA)
    if "suite" not in data:
        raise ConfigError("missing required key 'suite'")
    if "seed" not in data:
        raise ConfigError("missing required key 'seed' (runs must be reproducible)")
    mesh = MeshConfig(**data.get("mesh", {}))
    sampler = SamplerConfig(**data.get("sampler", {}))
    config = ExperimentConfig(
        suite=data["suite"],
        seed=data["seed"],
        mesh=mesh,
        K=data.get("K", 64),
        sampler=sampler,
        out=data.get("out", "fluxlab-out"),
    )
    config.validate()
    return config


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {p}: {exc}") from exc
    return parse_config(data)
