"""The numpy Gaussian blur behind ``synthetic_dem``, and running without scipy."""
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import terrainopt
from terrainopt import synthetic_dem
from terrainopt.synthetic import _gaussian_blur

# lines of 1-3 cells are shorter than every radius below but 0.3's, so the
# mirrored edge wraps round them more than once
SHAPES = [(1, 1), (1, 9), (9, 1), (2, 3), (3, 60), (17, 11), (40, 40), (5, 90)]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_blur_equals_scipy_gaussian_filter_byte_for_byte(shape):
    gaussian_filter = pytest.importorskip("scipy.ndimage").gaussian_filter
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for sigma in (0.3, 0.5, 1, 2, 3.7, 10):
        image = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5)
        kept = image.copy()
        blurred = _gaussian_blur(image, sigma)
        assert blurred.tobytes() == gaussian_filter(image, sigma=sigma).tobytes(), sigma
        # synthetic_dem's std sums in memory order, so the layout is part of its bits
        assert blurred.flags.c_contiguous
        assert image.tobytes() == kept.tobytes()
    for sigma in (0, -1, math.nan, 1e-16):
        image = rng.standard_normal(shape)
        blurred = _gaussian_blur(image, sigma)
        assert blurred.tobytes() == image.tobytes() == gaussian_filter(image, sigma=sigma).tobytes()


def test_dem_and_optimize_run_without_scipy(tmp_path):
    # an import of scipy or any of its submodules raises ImportError in the child
    script = (
        "import hashlib, sys\n"
        "sys.modules['scipy'] = None\n"
        "from terrainopt import save_ascii_grid, synthetic_dem\n"
        "from terrainopt.cli import main\n"
        "dem = synthetic_dem(40, 40, seed=0)\n"
        "save_ascii_grid(sys.argv[1], dem)\n"
        "args = ['optimize', '--dem', sys.argv[1], '--out', sys.argv[2],\n"
        "        '--population', '8', '--offspring', '4', '--generations', '2']\n"
        "code = main(args)\n"
        "print(hashlib.sha256(dem.values.tobytes()).hexdigest())\n"
        "sys.exit(code)\n"
    )
    src = str(Path(terrainopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "dem.asc"), str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    digest = hashlib.sha256(synthetic_dem(40, 40, seed=0).values.tobytes()).hexdigest()
    assert done.stdout.splitlines()[-1] == digest
    assert (tmp_path / "run" / "pareto.csv").is_file()
