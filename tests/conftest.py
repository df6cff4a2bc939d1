import numpy as np
import pytest

from terrainopt import Grid


@pytest.fixture
def east_plane():
    """3x3 plane dropping 10 m per 10 m cell toward the east."""
    return Grid(np.array([[20.0, 10.0, 0.0]] * 3), 10.0)


def make_nodata_grid(values, mask, cell_size=10.0, sentinel=-9999.0):
    vals = np.where(mask, values, sentinel)
    return Grid(vals, cell_size, nodata_sentinel=sentinel)


@pytest.fixture
def nodata_grid_factory():
    return make_nodata_grid
