"""The least-squares line of a series sampled at whole multiples of one log.

``slice`` and ``sweep`` regress log N_k on k log n, and ``scenery``'s
``gamma_proxy`` regresses grid entropy on level log n.  Both abscissae are
integers times one logarithm, so the fit is taken over those integers.
"""

from __future__ import annotations

import math
from typing import Sequence

# Veltkamp's constant 2**27 + 1: it splits a double into two halves of at
# most 26 significant bits each
_SPLIT = 134217729.0


def log_scale_fit(ks: Sequence[int], ys: Sequence[float], base: int) -> tuple[float, float]:
    """Least-squares slope of ``ys`` against ``k * log(base)``, and its
    standard error.

    With N points and K = sum(k), each d_i = N k_i - K is N times the
    abscissa's distance from its mean, in units of log(base), and it and
    sum(d_i**2) are exact ints.  The slope is
    N sum(d_i y_i) / (log(base) sum(d_i**2)).  Each product d_i y_i is
    split exactly into d_i hi_i + d_i lo_i (y_i = hi_i + lo_i, each half of
    at most 26 bits, so both products are exact while |d_i| < 2**27 and
    the split does not overflow), and ``math.fsum`` rounds their sum once;
    a constant series therefore has slope 0.0 exactly.

    The standard error is sqrt(sum(r_i**2) / (N - 2) / sxx), with
    sxx = log(base)**2 sum(d_i**2) / N**2, over the residuals
    r_i = y_i - mean(y) - slope log(base) d_i / N.  They are taken from y_0,
    so a constant series has residuals of exactly 0, and summed by
    ``math.fsum``.  It is 0.0 for fewer than three points.

    Raises ``ValueError`` unless the ks hold two distinct values.
    """
    count = len(ks)
    total = sum(ks)
    ds = [count * k - total for k in ks]
    sdd = sum(d * d for d in ds)
    if not sdd:
        raise ValueError("a line fit needs at least two distinct abscissae")
    products = []
    for d, y in zip(ds, ys):
        c = _SPLIT * y
        hi = c - (c - y)
        products += (d * hi, d * (y - hi))
    sdy = math.fsum(products)
    log_base = math.log(base)
    slope = count * sdy / (log_base * sdd)
    if count < 3:
        return slope, 0.0
    # slope * log(base) * d_i / N is sdy * d_i / sdd
    per_d = sdy / sdd
    y0 = ys[0]
    shifted = [y - y0 for y in ys]
    mean = math.fsum(shifted) / count
    rss = math.fsum([(e - mean - per_d * d) ** 2 for d, e in zip(ds, shifted)])
    return slope, math.sqrt(rss / (count - 2) / sdd) * count / log_base
