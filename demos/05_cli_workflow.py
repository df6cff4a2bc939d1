"""The batch workflow end to end: analyze -> optimize -> pick.

Drives the command-line interface programmatically in a scratch
directory and walks through the files each step produces. The same
commands work from a shell:

    terrainopt analyze  --dem dem.asc --out analysis
    terrainopt optimize --config run.cfg
    terrainopt pick     RUN_DIR --weights 1,1,1 --every-k 10
"""
import tempfile
from pathlib import Path

from terrainopt import save_ascii_grid, synthetic_dem
from terrainopt.cli import main

if __name__ == "__main__":
    workdir = Path(tempfile.mkdtemp(prefix="terrainopt_demo_"))
    dem_path = workdir / "site.asc"
    save_ascii_grid(dem_path, synthetic_dem(20, 20, seed=11))
    print(f"scratch directory: {workdir}\n")

    print("== analyze: hydrology of the unmodified terrain ==")
    main(["analyze", "--dem", str(dem_path), "--out", str(workdir / "analysis")])
    print("rasters:", sorted(p.name for p in (workdir / "analysis").glob("*.asc")))

    print("\n== optimize: a short seeded run from a config file ==")
    config = workdir / "run.cfg"
    config.write_text(
        f"dem_path = {dem_path}\n"
        f"output_dir = {workdir / 'run'}\n"
        "population = 16\n"
        "offspring = 8\n"
        "generations = 12\n"
        "seed = 5\n"
        "lower_bound = -0.5\n"
        "upper_bound = 0.5\n"
        "snapshot_generations = 6,12\n"
    )
    main(["optimize", "--config", str(config)])

    run_dir = workdir / "run"
    print("\nrun directory:")
    for path in sorted(run_dir.rglob("*")):
        if path.is_file():
            print("  ", path.relative_to(workdir))
    print("\nmanifest echoes the resolved configuration and can be reused via --config.")

    print("\n== pick: re-select from the stored archive, leaning on velocity ==")
    main(["pick", str(run_dir), "--weights", "1,0.05,1", "--every-k", "5",
          "--out", str(workdir / "repick")])
