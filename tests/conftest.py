import numpy as np
import pytest

from pspectra import (build_circle, build_icosphere, build_interval,
                      load_mesh_csv)


@pytest.fixture(scope="session")
def sphere2():
    return build_icosphere(2)


@pytest.fixture(scope="session")
def sphere3():
    return build_icosphere(3)


@pytest.fixture(scope="session")
def sphere4():
    return build_icosphere(4)


@pytest.fixture(scope="session")
def sphere5():
    return build_icosphere(5)


@pytest.fixture(scope="session")
def circle400():
    return build_circle(400, 2.0 * np.pi)


@pytest.fixture(scope="session")
def interval1000():
    return build_interval(1000, -1.0, 1.0)


@pytest.fixture
def csv_interval(tmp_path):
    """A 1-D CSV mesh of (-1, 1) with 40 segments of unequal length."""
    gaps = np.random.default_rng(8).uniform(0.5, 1.5, 40)
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    x = 2.0 * x / x[-1] - 1.0
    path = tmp_path / "mesh.csv"
    path.write_text("# kind=interval\nvertex,coordinate,boundary\n" + "".join(
        f"{i},{v:.17g},{int(i in (0, 40))}\n" for i, v in enumerate(x)))
    return load_mesh_csv(path)
