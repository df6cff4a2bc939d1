"""Choosing solutions from a Pareto front.

After an optimization, the archive holds dozens of trade-off plans.
This demo selects the usual decision set: the three single-objective
optima, the equal-weight balanced solution (augmented achievement
scalarizing function) and an every-k sample along the cost axis.
"""
import numpy as np

from terrainopt import (
    CostParams,
    HydroParams,
    OptimizerConfig,
    aasf_pick,
    best_per_objective,
    normalize_front,
    run_nsga2,
    sample_interval,
    synthetic_dem,
)

if __name__ == "__main__":
    base = synthetic_dem(30, 30, seed=1)
    cfg = OptimizerConfig(
        population_size=24,
        offspring_size=12,
        generations=30,
        rng_seed=7,
        lower_bound=-0.5,
        upper_bound=0.5,
        snapshot_generations=(),
    )
    archive = run_nsga2(base, HydroParams(), CostParams(), cfg)
    print(f"archive: {len(archive.members)} non-dominated plans")


    def describe(label, member):
        o = member.objectives
        print(f"  {label:<18} path {o.path_cells:>4}  v_max {o.v_max:.4f}  cost {o.cost:>11,.0f}")


    best_path, best_vmax, best_cost = best_per_objective(archive)
    print("\nsingle-objective optima:")
    describe("longest path", best_path)
    describe("slowest runoff", best_vmax)
    describe("cheapest", best_cost)

    # The balanced solution minimizes max(f'_i / w_i) + rho * sum(f'_i / w_i)
    # over front-normalized objectives. Equal weights treat all three alike;
    # a small weight tightens an objective's tolerance instead.
    balanced = aasf_pick(archive, weights=(1.0, 1.0, 1.0), rho=1e-4)
    print("\nbalanced compromise:")
    describe("equal weights", balanced)
    describe("velocity-leaning", aasf_pick(archive, weights=(1.0, 0.05, 1.0)))

    front = normalize_front(archive.objectives_matrix())
    print(f"\nnormalization ranges (min-sense): ideal {np.round(front.ideal, 3)}, nadir {np.round(front.nadir, 3)}")

    print("\nevery-4th solution along the cost axis:")
    for member in sample_interval(archive, 4):
        describe("sample", member)
