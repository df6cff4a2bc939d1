"""Settings of the pipeline, and the number formatting of its text outputs.

The three parameter dataclasses (:class:`HydroParams`, :class:`CostParams`
and :class:`OptimizerConfig`) and :class:`RunConfig`, the resolved
configuration of one CLI invocation that holds one of each, validate
themselves on construction, and ``_format_value`` writes the shortest
decimal that parses back to the same float. This module imports the
standard library alone, so the CLI can parse and check a configuration
without loading numpy; the modules that use these names import them from
here and export them unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

__all__ = ["HydroParams", "CostParams", "OptimizerConfig", "RunConfig"]


def _format_value(x: float) -> str:
    # shortest decimal that parses back to the same float
    x = float(x)
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _settle_floats(params) -> None:
    """Check the float fields of a frozen dataclass, and give each one zero.

    Raises ValueError naming the first field that is inf or NaN. A -0.0
    becomes +0.0 (``value + 0.0``), so equal settings act alike and a
    manifest, which writes either zero as ``0``, reads back the same bits.
    """
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            object.__setattr__(params, f.name, value + 0.0)


@dataclass(frozen=True)
class HydroParams:
    """Parameters of the runoff pipeline.

    ``manning_n`` is the surface roughness coefficient, ``channel_width``
    the rectangular channel area parameter B (m^2) the discharge is
    divided by, ``rain_intensity`` the design storm in m/s (the default
    1e-5 m/s is 36 mm/h) and ``accumulation_threshold_fraction`` the
    share of the maximum accumulation that delineates the flow path.
    ``fill_epsilon`` is the drainage gradient applied on filled flats and
    ``slope_as_percent`` switches the velocity formula to percent slope
    (0-100) instead of the default rise/run fraction.
    """

    manning_n: float = 0.1
    channel_width: float = 1.0
    rain_intensity: float = 1e-5
    accumulation_threshold_fraction: float = 0.02
    fill_epsilon: float = 1e-5
    slope_as_percent: bool = False

    def __post_init__(self):
        _settle_floats(self)
        if not self.manning_n > 0:
            raise ValueError("manning_n must be > 0")
        if not self.channel_width > 0:
            raise ValueError("channel_width must be > 0")
        if self.rain_intensity < 0:
            raise ValueError("rain_intensity must be >= 0")
        if not 0 < self.accumulation_threshold_fraction <= 1:
            raise ValueError("accumulation_threshold_fraction must be in (0, 1]")
        if self.fill_epsilon < 0:
            raise ValueError("fill_epsilon must be >= 0")


@dataclass(frozen=True)
class CostParams:
    """Earthwork pricing: currency units per m^3 moved, and cell area in m^2."""

    unit_price: float = 100.0
    cell_area: float = 100.0

    def __post_init__(self):
        _settle_floats(self)
        if not self.unit_price > 0:
            raise ValueError("unit_price must be > 0")
        if not self.cell_area > 0:
            raise ValueError("cell_area must be > 0")


@dataclass(frozen=True)
class OptimizerConfig:
    """NSGA-II settings.

    ``mutation_probability`` of None resolves to 1/n_variables at run
    time; :meth:`mutation_rate` applies that rule. ``snapshot_generations``
    lists the generations at which callers typically persist intermediate
    fronts (see the CLI); the loop itself reports every generation through
    the history and the optional callback.
    """

    population_size: int = 200
    offspring_size: int = 100
    generations: int = 300
    crossover_probability: float = 0.9
    crossover_eta: float = 15.0
    mutation_probability: Optional[float] = None
    mutation_eta: float = 20.0
    rng_seed: int = 0
    lower_bound: float = -2.0
    upper_bound: float = 2.0
    seed_with_zero_plan: bool = True
    snapshot_generations: tuple[int, ...] = (50, 100, 200, 300)

    def __post_init__(self):
        _settle_floats(self)
        if self.population_size <= 0 or self.offspring_size <= 0:
            raise ValueError("population_size and offspring_size must be > 0")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if not 0 <= self.crossover_probability <= 1:
            raise ValueError("crossover_probability must be in [0, 1]")
        if self.mutation_probability is not None and not 0 <= self.mutation_probability <= 1:
            raise ValueError("mutation_probability must be in [0, 1]")
        if self.crossover_eta < 0 or self.mutation_eta < 0:
            raise ValueError("distribution indices must be >= 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be a non-negative integer")
        if not self.lower_bound < self.upper_bound:
            raise ValueError("lower_bound must be < upper_bound")

    def mutation_rate(self, n_var: int) -> float:
        """Per-variable mutation probability for plans of ``n_var`` variables."""
        return self.mutation_probability if self.mutation_probability is not None else 1.0 / n_var


@dataclass
class RunConfig:
    """Resolved configuration of one CLI invocation."""

    dem_path: str = ""
    output_dir: str = "run"
    hydro: HydroParams = HydroParams()
    cost: CostParams = CostParams()
    optimizer: OptimizerConfig = OptimizerConfig()
    write_snapshot_rasters: bool = False
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    rho: float = 1e-4
    every_k: int = 10

    def __post_init__(self):
        # checked here so a bad picking setting fails before any optimization runs
        if len(self.weights) != 3 or not all(0 < w < math.inf for w in self.weights):
            raise ValueError("weights must be three finite positive numbers")
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be finite and > 0")
        if self.every_k < 1:
            raise ValueError("every_k must be >= 1")
