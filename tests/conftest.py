import numpy as np
import pytest

import perevo
from perevo.evolve import prepare
from perevo.spectral import monodromy

# Neumann ends with drift inside the mesh-Peclet bound (12 h = 1.71 <= 2):
# the period map has entries of both signs and its two largest eigenvalues
# are a complex pair, so power iteration cannot converge on it
STALL = """
[grid]
x_lo = 0.0
x_hi = 1.0
n = 6

[time]
T = 1.0
M = 4

[coefficients]
D = 1.0
a = -12.0
b = 12.0

[boundary]
bc = neumann

[weight]
weight = const(0)
"""


@pytest.fixture(scope="session")
def heat_small():
    return perevo.builtin_scenario("heat_baseline", n=32, M=64)


@pytest.fixture(scope="session")
def heat_unit():
    return perevo.builtin_scenario("heat_baseline", x_lo=0.0, x_hi=1.0, n=24, M=48)


@pytest.fixture(scope="session")
def du_peng_small():
    return perevo.builtin_scenario("du_peng", n=32, M=64)


@pytest.fixture(scope="session")
def stall_cfg(tmp_path_factory):
    """Path of the STALL document, after checking that its period map's two
    largest eigenvalues are still a complex pair on this platform."""
    path = tmp_path_factory.mktemp("stall") / "stall.cfg"
    path.write_text(STALL)
    with pytest.warns(UserWarning, match="positivity not certified"):
        P = monodromy(prepare(perevo.build_problem(str(path)), 0.0)).P
    first, second = sorted(np.linalg.eigvals(P), key=abs)[:-3:-1]
    assert first == np.conj(second), (first, second)
    assert abs(first.imag) >= 1e-3 * abs(first), first
    return str(path)
