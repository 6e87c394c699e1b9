"""The in-repo J1/J3 are validated against scipy.special as an independent
high-precision oracle, plus frozen reference values."""

import numpy as np
import pytest
import scipy.special as sp

from firesat.bessel import j1_j3

# Frozen from scipy.special at development time.
J1_REFERENCE = {
    0.5: 0.24226845767487387,
    1.0: 0.44005058574493355,
    2.0: 0.5767248077568734,
    5.0: -0.3275791375914653,
    10.0: 0.04347274616886141,
    14.0: 0.13337515469879344,
    20.0: 0.0668331241758502,
}
J3_REFERENCE = {
    0.5: 0.002563729994587244,
    1.0: 0.019563353982668414,
    2.0: 0.12894324947440208,
    5.0: 0.364831230613667,
    10.0: 0.05837937930518667,
    14.0: -0.1768094068650961,
    20.0: -0.09890139456044958,
}


@pytest.mark.parametrize("x,expected", sorted(J1_REFERENCE.items()))
def test_j1_frozen_values(x, expected):
    assert j1_j3(x)[0] == pytest.approx(expected, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("x,expected", sorted(J3_REFERENCE.items()))
def test_j3_frozen_values(x, expected):
    assert j1_j3(x)[1] == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_against_scipy_sweep():
    xs = np.linspace(0.01, 40.0, 797)
    for x in xs:
        j1, j3 = j1_j3(float(x))
        assert j1 == pytest.approx(float(sp.j1(x)), rel=1e-9, abs=1e-11)
        assert j3 == pytest.approx(float(sp.jn(3, x)), rel=1e-9, abs=1e-11)


def test_odd_symmetry_and_origin():
    assert j1_j3(0.0) == (0.0, 0.0)
    for x in (0.7, 3.3, 17.0):
        j1, j3 = j1_j3(x)
        assert j1_j3(-x) == (-j1, -j3)


def test_small_argument_leading_order():
    # J1 ~ x/2 and J3 ~ x^3/48 near zero.
    x = 1e-8
    j1, j3 = j1_j3(x)
    assert j1 == pytest.approx(x / 2.0, rel=1e-12)
    assert j3 == pytest.approx(x**3 / 48.0, rel=1e-10)
