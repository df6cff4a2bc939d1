"""Synthetic test terrains.

The benchmark DEM is a tilted plane plus seeded smooth noise: Gaussian
white noise is blurred with a Gaussian kernel, rescaled to a target
standard deviation and added to a plane falling toward the southeast.
The construction is fully determined by its arguments, so benchmark runs
are reproducible from the seed alone.
"""
from __future__ import annotations

import numpy as np

from .raster import Grid

__all__ = ["synthetic_dem"]


def synthetic_dem(
    n_rows: int = 40,
    n_cols: int = 40,
    cell_size: float = 10.0,
    *,
    base_elevation: float = 45.0,
    east_drop: float = 0.1,
    south_drop: float = 0.05,
    noise_std: float = 1.0,
    noise_smoothing: float = 2.0,
    seed: int = 0,
) -> Grid:
    """Tilted plane plus seeded smooth noise.

    Parameters
    ----------
    east_drop, south_drop : float
        Elevation loss in meters per cell toward the east and south.
    noise_std : float
        Standard deviation in meters of the smoothed noise field.
    noise_smoothing : float
        Gaussian blur sigma in cells; larger values give broader bumps
        and hollows.
    seed : int
        Seed of the noise field.
    """
    # imported here: scipy.ndimage is slow to import and only this function needs it
    from scipy.ndimage import gaussian_filter

    rows = np.arange(n_rows, dtype=np.float64)[:, None]
    cols = np.arange(n_cols, dtype=np.float64)[None, :]
    plane = base_elevation - east_drop * cols - south_drop * rows
    rng = np.random.default_rng(seed)
    noise = gaussian_filter(rng.standard_normal((n_rows, n_cols)), sigma=noise_smoothing)
    std = noise.std()
    if std > 0 and noise_std > 0:
        noise = noise * (noise_std / std)
    else:
        noise = np.zeros_like(noise)
    return Grid(plane + noise, cell_size)
