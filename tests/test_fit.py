"""The closed-form least-squares fit against a 60-digit mpmath fit."""

import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from carpetlab import (
    DiscreteMeasure,
    GridPartition,
    Line,
    entropy,
    estimate_slice_dimension,
    finite_scale_dimension,
    load_carpet,
    slice_counts,
)
from carpetlab.fit import log_scale_fit

CARPETS = Path(__file__).resolve().parents[1] / "carpets"
# the slope takes four roundings of at most half an ulp (the fsum, N times
# it, log(base) times sum(d**2) and the quotient) and math.log's error of
# under one ulp, so it lies within 3 ulps of the exact fit of the same
# doubles; the standard error passes through residuals that cancel, and
# over the 339 fits of the seed-1 and seed-2 sweep and scenery-report
# rounds of the benchmark it stayed within 12.3 ulps
SLOPE_ULPS = 3
STDERR_ULPS = 16


def mp_fit(ks, ys, base):
    """Least-squares slope and standard error of the doubles ``ys`` against
    k log(base), at 60 digits."""
    with mp.workdps(60):
        xs = [k * mp.log(base) for k in ks]
        yv = [mp.mpf(y) for y in ys]
        x_mean, y_mean = mp.fsum(xs) / len(xs), mp.fsum(yv) / len(yv)
        sxx = mp.fsum((x - x_mean) ** 2 for x in xs)
        slope = mp.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, yv)) / sxx
        rss = mp.fsum((y - y_mean - slope * (x - x_mean)) ** 2 for x, y in zip(xs, yv))
        return slope, mp.sqrt(rss / (len(xs) - 2) / sxx)


def ulps(got: float, exact) -> float:
    with mp.workdps(60):
        return float(abs(mp.mpf(got) - exact) / math.ulp(float(exact)))


def readme_slice():
    # carpetlab slice --carpet carpets/example.txt --u0 0.4 --t 0.2 --depths 4..12
    c = load_carpet(CARPETS / "example.txt")
    return c, slice_counts(c, Line.from_exponent(c.m, 0.4, 0.2), range(4, 13)), 3


def three_points():
    return load_carpet(CARPETS / "example.txt"), [(4, 37), (7, 290), (8, 611)], 0


def near_int64():
    # counts up to just below 2**62, with scatter about the line
    counts = [(k, 2 ** (43 + k) - (k % 3) * 2 ** (41 + k) - k) for k in range(10, 20)]
    assert max(nk for _, nk in counts) < 2**62
    return load_carpet(CARPETS / "full_3x2.txt"), counts, 0


@pytest.mark.parametrize("series", [readme_slice, three_points, near_int64])
def test_slice_fit_matches_mpmath(series):
    c, counts, drop_head = series()
    est = estimate_slice_dimension(c, counts, drop_head=drop_head)
    usable = counts[drop_head:]
    slope, stderr = mp_fit([k for k, _ in usable], [math.log(nk) for _, nk in usable], c.n)
    assert est.depths == [k for k, _ in usable]
    assert slope > 0 and ulps(est.slope, slope) <= SLOPE_ULPS
    assert ulps(est.stderr, stderr) <= STDERR_ULPS


def test_slice_fit_constant_series_is_zero():
    # uneven depths: the rounded products d_i y_i would not cancel, the
    # exact ones do
    c = load_carpet(CARPETS / "example.txt")
    ks = [5, 6, 9, 11, 12]
    slope, stderr = log_scale_fit(ks, [math.log(7)] * len(ks), 3)
    assert (slope, stderr) == (0.0, 0.0)
    assert math.copysign(1.0, slope) == 1.0
    est = estimate_slice_dimension(c, [(k, 7) for k in ks], drop_head=0)
    assert (est.slope, est.stderr) == (0.0, 0.0)
    # a falling series fits a negative slope, which the estimate clamps
    falling = [(k, 100 - k) for k in range(5, 10)]
    assert log_scale_fit([k for k, _ in falling], [math.log(n) for _, n in falling], 2)[0] < 0
    assert estimate_slice_dimension(c, falling, drop_head=0).slope == 0.0


def test_finite_scale_dimension_matches_mpmath():
    mu = DiscreteMeasure.uniform_on(np.random.default_rng(7).random((500, 2)))
    levels = range(2, 9)
    hs = [entropy(mu, GridPartition(3, level)).entropy for level in levels]
    slope, _ = mp_fit(levels, hs, 3)
    assert ulps(finite_scale_dimension(mu, 3, levels), slope) <= SLOPE_ULPS


def test_fit_rejects_degenerate_abscissae():
    with pytest.raises(ValueError, match="distinct"):
        log_scale_fit([4, 4, 4], [1.0, 2.0, 3.0], 2)
