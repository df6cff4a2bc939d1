"""Searching terrain modifications with NSGA-II.

Runs a compact optimization on a synthetic terrain and shows how the
non-dominated front grows and improves over the generations. The three
objectives: maximize flow-path length, minimize peak runoff velocity,
minimize earthwork cost.
"""
import numpy as np

from terrainopt import (
    CostParams,
    HydroParams,
    OptimizerConfig,
    evaluate,
    plan_length,
    run_nsga2,
    synthetic_dem,
)

if __name__ == "__main__":
    hp = HydroParams()
    cp = CostParams()  # 100 currency units per m^3 over 100 m^2 cells

    base = synthetic_dem(30, 30, seed=1)
    baseline = evaluate(base, np.zeros(plan_length(base)), hp, cp)
    print(f"baseline: path {baseline.path_cells} cells, v_max {baseline.v_max:.4f} m/s")

    cfg = OptimizerConfig(
        population_size=24,
        offspring_size=12,
        generations=30,
        rng_seed=7,
        lower_bound=-0.5,   # cut at most 0.5 m
        upper_bound=0.5,    # fill at most 0.5 m
        snapshot_generations=(),
    )
    archive = run_nsga2(base, hp, cp, cfg)

    print(f"\n{'gen':>4} {'front':>6} {'path max':>9} {'v_max min':>10} {'cost range (k)':>18}")
    for h in archive.history:
        if h.generation % 5 == 0 or h.generation == cfg.generations:
            print(
                f"{h.generation:>4} {h.front_size:>6} {h.path_cells_max:>9} "
                f"{h.v_max_min:>10.4f} {h.cost_min / 1e3:>8.1f}..{h.cost_max / 1e3:<8.1f}"
            )

    print(f"\nfinal front: {len(archive.members)} mutually non-dominated plans")
    print("cheapest five, sorted by cost:")
    members = sorted(archive.members, key=lambda m: m.objectives.cost)
    for m in members[:5]:
        o = m.objectives
        print(
            f"  cost {o.cost:>10.0f}  path {o.path_cells:>4}  v_max {o.v_max:.4f}"
            f"  (born gen {m.born}, |delta| up to {np.abs(m.plan).max():.2f} m)"
        )

    best_path = max(archive.members, key=lambda m: m.objectives.path_cells)
    print(
        f"\nlongest-path plan: {best_path.objectives.path_cells} cells "
        f"(+{best_path.objectives.path_cells - baseline.path_cells} over baseline) "
        f"for {best_path.objectives.cost:,.0f} units"
    )
