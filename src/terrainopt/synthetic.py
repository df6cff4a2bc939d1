"""Synthetic test terrains.

The benchmark DEM is a tilted plane plus seeded smooth noise: Gaussian
white noise is blurred with a Gaussian kernel, rescaled to a target
standard deviation and added to a plane falling toward the southeast.
The construction is fully determined by its arguments, so benchmark runs
are reproducible from the seed alone.

The blur is plain numpy. It repeats, in the same order, the
floating-point operations of ``ndimage.gaussian_filter`` with its
defaults (``mode="reflect"``, ``truncate=4.0``), so every DEM made here
is byte-identical to one blurred by that filter; ``tests/test_synthetic.py``
checks the two against each other.
"""
from __future__ import annotations

import numpy as np

from .raster import Grid

__all__ = ["synthetic_dem"]


def _gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """``image`` blurred along axis 0, then axis 1, by a Gaussian of ``sigma`` cells.

    As ``ndimage.gaussian_filter`` does: the kernel ``exp(-x^2 / (2
    sigma^2))`` over ``|x| <= int(4 sigma + 0.5)``, divided by its sum;
    edges mirrored with the edge cell repeated; each output ``x0 w0`` plus
    ``(x-j + x+j) wj`` for j from the radius down to 1. A sigma that is not
    > 1e-15 (0, negative, NaN) leaves ``image`` as it is.
    """
    if not sigma > 1e-15:
        return image
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = weights / weights.sum()
    h, w = image.shape
    # every padding column copies an image column, so blurring the padded
    # columns along axis 0 also pads the result for the pass along axis 1
    padded = np.pad(image, r, mode="symmetric")
    down = padded[r : r + h] * weights[r]
    for j in range(r, 0, -1):
        down += (padded[r - j : r - j + h] + padded[r + j : r + j + h]) * weights[r + j]
    out = down[:, r : r + w] * weights[r]
    for j in range(r, 0, -1):
        out += (down[:, r - j : r - j + w] + down[:, r + j : r + j + w]) * weights[r + j]
    return out


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
    rows = np.arange(n_rows, dtype=np.float64)[:, None]
    cols = np.arange(n_cols, dtype=np.float64)[None, :]
    plane = base_elevation - east_drop * cols - south_drop * rows
    rng = np.random.default_rng(seed)
    noise = _gaussian_blur(rng.standard_normal((n_rows, n_cols)), noise_smoothing)
    std = noise.std()
    if std > 0 and noise_std > 0:
        noise = noise * (noise_std / std)
    else:
        noise = np.zeros_like(noise)
    return Grid(plane + noise, cell_size)
