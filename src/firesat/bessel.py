"""Bessel functions of the first kind, orders 1 and 3.

Ascending power series below the cancellation limit of float64, Hankel
asymptotic expansion (optimally truncated) above it, with J3 obtained from
the stable upward recurrence when the asymptotic branch is active. j1_j3
gives both orders from one pass; j1 and j3 take one element of it.
"""

from __future__ import annotations

import math

from .errors import NumericError

_SERIES_LIMIT = 15.0
_MAX_TERMS = 200


# Denominators k (n + k) of the ascending series' term ratio, for n in {1, 3}.
_SERIES_DENOMS = {n: [float(k * (n + k)) for k in range(_MAX_TERMS)] for n in (1, 3)}


def _j01_asymptotic(n: int, x: float) -> float:
    """Hankel expansion truncated at its smallest term; valid for n in {0, 1}."""
    mu = 4.0 * n * n
    # P accumulates even terms, Q odd terms of the a_k(n)/x^k sequence.
    p_sum = 1.0
    q_sum = (mu - 1.0) / (8.0 * x)
    term = q_sum
    prev = abs(term)
    sign = -1.0
    k = 1
    while k < 40:
        k += 1
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(term) >= prev:
            break  # divergent tail reached; stop at the smallest term
        prev = abs(term)
        if k % 2 == 0:
            p_sum += sign * term
        else:
            q_sum += sign * term
            sign = -sign
    chi = x - (0.5 * n + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (
        p_sum * math.cos(chi) - q_sum * math.sin(chi)
    )


def j1(x: float) -> float:
    """Bessel function of the first kind, order 1."""
    return j1_j3(x)[0]


def j3(x: float) -> float:
    """Bessel function of the first kind, order 3."""
    return j1_j3(x)[1]


def j1_j3(x: float) -> tuple[float, float]:
    """(J1(x), J3(x)) from one pass.

    Within the series limit both ascending series
    sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!) run in one loop over the same
    (x/2)^2 until each has met its convergence test. A term within 1e-17 of
    its sum is under half an ulp of it, so the later terms of the series
    that met its test first leave its sum unchanged.
    """
    ax = abs(x)
    if ax <= _SERIES_LIMIT:
        half = ax / 2.0
        neg_q = -(half * half)
        t1 = s1 = half  # half**1 / 1!
        t3 = s3 = half**3 / 6  # half**3 / 3!
        d1, d3 = _SERIES_DENOMS[1], _SERIES_DENOMS[3]
        for k in range(1, _MAX_TERMS):
            t1 *= neg_q / d1[k]
            s1 += t1
            t3 *= neg_q / d3[k]
            s3 += t3
            if abs(t1) <= 1e-17 * abs(s1) and abs(t3) <= 1e-17 * abs(s3):
                break
        else:
            raise NumericError(f"Bessel series for J1/J3({ax}) did not converge")
    else:  # NaN too
        # Upward recurrence J_{n+1} = (2n/x) J_n - J_{n-1}, stable for n < x.
        j_0 = _j01_asymptotic(0, ax)
        s1 = _j01_asymptotic(1, ax)
        j_2 = (2.0 / ax) * s1 - j_0
        s3 = (4.0 / ax) * j_2 - s1
    return (-s1, -s3) if x < 0 else (s1, s3)
