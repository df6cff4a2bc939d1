"""Workload table of the terrainopt benchmark.

Each workload is one synthetic DEM plus one optimizer configuration. The
workload seed passed on the command line is added to both the DEM noise
seed and the optimizer seed, so every seed gives a different but equally
sized problem, and ``DEFAULT_SEED`` gives exactly the problem described
in ``why``. Why each workload exists, with the layer shares it was chosen
for, is recorded in ``README.md`` next to this file.
"""
from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_rows: int
    n_cols: int
    dem_seed: int
    population: int
    offspring: int
    generations: int
    opt_seed: int
    bound: float
    dem_kwargs: dict = field(default_factory=dict)

    def dem_args(self, seed: int) -> dict:
        return dict(
            n_rows=self.n_rows, n_cols=self.n_cols, seed=self.dem_seed + seed, **self.dem_kwargs
        )

    def config_text(self, seed: int, dem_path: str, run_dir: str) -> str:
        lines = [
            f"dem_path = {dem_path}",
            f"output_dir = {run_dir}",
            f"population = {self.population}",
            f"offspring = {self.offspring}",
            f"generations = {self.generations}",
            f"seed = {self.opt_seed + seed}",
            f"lower_bound = {-self.bound}",
            f"upper_bound = {self.bound}",
            "snapshot_generations =",
        ]
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="canonical-40x40",
            why="the frozen acceptance-7 problem: 1,240 evaluations on 1,600 cells, "
            "dominated by fill and accumulation",
            n_rows=40,
            n_cols=40,
            dem_seed=0,
            population=40,
            offspring=20,
            generations=60,
            opt_seed=13,
            bound=0.5,
            # the same generator arguments as the acceptance suite's benchmark DEM
            dem_kwargs=dict(
                cell_size=10.0, east_drop=0.1, south_drop=0.05, noise_std=1.0, noise_smoothing=2.0
            ),
        ),
        Workload(
            name="wide-front-12x12",
            why="6,300 evaluations of 144 cells and a 100-member front: per-call overhead, "
            "NSGA-II bookkeeping and many small genome files",
            n_rows=12,
            n_cols=12,
            dem_seed=3,
            # 100 x 62 rather than 300 x 20: the same 6,300 evaluations, but the
            # final front fills the population on every seed (300 x 20 left it
            # anywhere from 89 to 226 members, so pick_s varied 2x across seeds)
            population=100,
            offspring=100,
            generations=62,
            opt_seed=5,
            bound=2.0,
        ),
        # runnable, but not declared in BENCHMARK.json: on a shared host its
        # memory-heavy 40,000-cell commands spread too much between runs to
        # serve as a regression gate (see README.md)
        Workload(
            name="large-dem-200x200",
            why="32 evaluations of 40,000 cells: per-cell kernel cost and 40,000-value "
            "raster writes and parses",
            n_rows=200,
            n_cols=200,
            dem_seed=7,
            population=8,
            offspring=4,
            generations=6,
            opt_seed=7,
            bound=2.0,
        ),
    ]
}
