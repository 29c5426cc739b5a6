"""Experiment configuration: JSON in, validated dataclasses out.

Unknown keys are rejected with their path, the seed is mandatory
(reproducibility), and everything else has defaults.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

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
class ScheduleConfig:
    amplitudes: list[float] = field(
        default_factory=lambda: [1.0 / i for i in range(1, 17)])


@dataclass
class ExperimentConfig:
    suite: str
    seed: int
    mesh: MeshConfig = field(default_factory=MeshConfig)
    K: int = 64
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    out: str = "fluxlab-out"

    def __post_init__(self):
        if self.sampler.seed is None:
            self.sampler.seed = self.seed

    def echo(self) -> dict:
        return asdict(self)


_SCHEMA = {
    "suite": str,
    "seed": int,
    "mesh": {"N": int, "L": list},
    "K": int,
    "sampler": {"m": int, "count": int, "refine": int, "seed": int},
    "schedule": {"amplitudes": list},
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
    from .suites import SUITE_REGISTRY
    suite = data["suite"]
    if suite != "all" and suite not in SUITE_REGISTRY:
        raise ConfigError(
            f"unknown suite {suite!r}; registered: {sorted(SUITE_REGISTRY)} + ['all']")
    mesh = MeshConfig(**data.get("mesh", {}))
    sampler = SamplerConfig(**data.get("sampler", {}))
    schedule = ScheduleConfig(**data.get("schedule", {}))
    return ExperimentConfig(
        suite=suite,
        seed=data["seed"],
        mesh=mesh,
        K=data.get("K", 64),
        sampler=sampler,
        schedule=schedule,
        out=data.get("out", "fluxlab-out"),
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {p}: {exc}") from exc
    return parse_config(data)
