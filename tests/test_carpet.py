import math

import mpmath as mp
import numpy as np
import pytest

from carpetlab import (
    box_packing_dimension,
    dimension_report,
    hausdorff_chain,
    hausdorff_dimension,
    independence_check,
    marstrand_bound,
    new_carpet,
    optimize_tradeoff,
    packing_chain,
    prior_slice_bound,
    slice_dimension_bound,
    star_dimension,
)
from carpetlab.errors import BadExponent, DigitOutOfRange, DomainError, EmptyDigits


def mp_dimensions(c):
    """Independent 60-digit evaluation of the three closed-form dimensions."""
    with mp.workdps(60):
        log_m, log_n = mp.log(c.m), mp.log(c.n)
        theta = log_n / log_m
        total = mp.fsum(mp.mpf(a) ** theta for a in c.row_count.values())
        dim_h = mp.log(total) / log_n
        r = len(c.rows)
        dim_bp = mp.log(r) / log_n + (mp.log(c.size) - mp.log(r)) / log_m
        dim_star = mp.log(r) / log_n + mp.log(max(c.row_count.values())) / log_m
        return float(dim_h), float(dim_bp), float(dim_star)


def grid_search_tradeoff(dim_star, dim_x, step=1e-6):
    g = np.arange(0.0, 1.0 + step, step)
    values = np.minimum(g * (dim_star - 1.0), dim_x - g)
    i = int(np.argmax(values))
    return float(g[i]), float(values[i])


# -- construction and validation --


def test_row_counts(example):
    assert example.rows == (0, 1)
    assert example.row_count == {0: 2, 1: 1}


def test_transposed_input_canonicalized():
    c = new_carpet(2, 3, {(0, 0), (0, 2), (1, 1)})
    assert (c.m, c.n) == (3, 2)
    assert c.digits == frozenset({(0, 0), (2, 0), (1, 1)})


def test_validation_errors():
    with pytest.raises(EmptyDigits):
        new_carpet(3, 2, [])
    with pytest.raises(DigitOutOfRange):
        new_carpet(3, 2, [(3, 0)])
    with pytest.raises(BadExponent):
        new_carpet(1, 2, [(0, 0)])


def test_independence_examples():
    assert independence_check(new_carpet(3, 2, [(0, 0)]))
    assert not independence_check(new_carpet(4, 2, [(0, 0)]))
    assert not independence_check(new_carpet(8, 4, [(0, 0)]))
    assert not independence_check(new_carpet(5, 5, [(0, 0)]))


# -- dimension formulas against the high-precision oracle --


def test_example_dimensions(example):
    dh, dbp, ds = mp_dimensions(example)
    assert abs(hausdorff_dimension(example) - dh) < 1e-12
    assert abs(box_packing_dimension(example) - dbp) < 1e-12
    assert abs(star_dimension(example) - ds) < 1e-12
    # five-decimal sanity values
    assert abs(hausdorff_dimension(example) - 1.34968) < 1e-4
    assert abs(box_packing_dimension(example) - 1.36907) < 1e-5
    assert abs(star_dimension(example) - 1.63093) < 1e-5


def test_full_square_and_point():
    full = new_carpet(3, 2, [(x, y) for x in range(3) for y in range(2)])
    assert abs(hausdorff_dimension(full) - 2.0) < 1e-12
    assert abs(box_packing_dimension(full) - 2.0) < 1e-12
    assert abs(star_dimension(full) - 2.0) < 1e-12
    point = new_carpet(3, 2, [(1, 1)])
    assert hausdorff_dimension(point) == 0.0
    assert box_packing_dimension(point) == 0.0
    assert star_dimension(point) == 0.0


def test_product_carpet_box_dimension():
    # {0,2} x {0,1}: a product of a middle-thirds-type set with a full
    # interval, so the box dimension is log2/log3 + 1
    c = new_carpet(3, 2, [(0, 0), (0, 1), (2, 0), (2, 1)])
    expected = 1.0 + math.log(2) / math.log(3)
    assert abs(box_packing_dimension(c) - expected) < 1e-12
    assert abs(star_dimension(c) - expected) < 1e-12  # uniform rows


def test_uniform_rows_collapse_all_dimensions():
    c = new_carpet(3, 2, [(0, 0), (2, 0), (0, 1), (1, 1)])
    assert c.uniform_rows
    assert abs(hausdorff_dimension(c) - box_packing_dimension(c)) < 1e-12
    assert abs(box_packing_dimension(c) - star_dimension(c)) < 1e-12


# -- slice bounds --


def test_slice_bound_example(example):
    dh, dbp, ds = mp_dimensions(example)
    assert abs(slice_dimension_bound(example, "hausdorff") - dh / ds * (ds - 1)) < 1e-12
    assert abs(slice_dimension_bound(example, "packing") - dbp / ds * (ds - 1)) < 1e-12
    assert abs(slice_dimension_bound(example, "hausdorff") - 0.52213) < 1e-4
    assert abs(prior_slice_bound(example) - 0.63093) < 1e-5


def test_slice_bound_edge_cases():
    full = new_carpet(3, 2, [(x, y) for x in range(3) for y in range(2)])
    assert abs(slice_dimension_bound(full, "hausdorff") - 1.0) < 1e-12
    flat = new_carpet(3, 2, [(0, 0), (1, 1)])  # one digit per row: star dim 1
    assert abs(star_dimension(flat) - 1.0) < 1e-12
    assert slice_dimension_bound(flat, "hausdorff") == 0.0
    point = new_carpet(3, 2, [(0, 0)])
    assert slice_dimension_bound(point, "packing") == 0.0
    with pytest.raises(DomainError):
        slice_dimension_bound(full, "boxcounting")


def test_marstrand_bound():
    assert abs(marstrand_bound(1.34968) - 0.34968) < 1e-12
    assert marstrand_bound(0.7) == 0.0


# -- tradeoff optimization --


def test_tradeoff_examples():
    w, value = optimize_tradeoff(1.63093, 1.36907)
    gw, gv = grid_search_tradeoff(1.63093, 1.36907)
    assert abs(w - 0.83944) < 1e-5
    assert abs(value - 0.52963) < 1e-5
    assert abs(value - gv) < 1e-6
    assert abs(w - gw) < 2e-6
    assert optimize_tradeoff(2.0, 2.0) == (1.0, 1.0)
    for d in (0.0, 0.4, 1.0):
        _, v = optimize_tradeoff(1.0, d)
        assert v == 0.0
    with pytest.raises(DomainError):
        optimize_tradeoff(0.0, 0.0)
    with pytest.raises(DomainError):
        optimize_tradeoff(1.0, 1.5)


# -- ordering and report invariants --


def test_report_fields_and_transpose(example):
    rep = dimension_report(example)
    assert set(rep.to_dict()) == {
        "theta",
        "dim_h",
        "dim_bp",
        "dim_star",
        "independent",
        "ahlfors_regular",
        "slice_bound_h",
        "slice_bound_p",
        "prior_bound",
        "marstrand_h",
        "marstrand_p",
    }
    swapped = new_carpet(2, 3, [(y, x) for x, y in example.digits])
    assert dimension_report(swapped) == rep


# -- entropy chain functionals --


def test_chain_equality_cases(example):
    a = np.array([float(example.row_count[j]) for j in example.rows])
    v_p = a / a.sum()
    v_h = a**example.theta / (a**example.theta).sum()
    assert abs(float(packing_chain(example, v_p)) - box_packing_dimension(example)) < 1e-12
    assert abs(float(hausdorff_chain(example, v_h)) - hausdorff_dimension(example)) < 1e-12


def test_chain_handles_zero_entries(example):
    v = np.array([1.0, 0.0])
    assert np.isfinite(float(packing_chain(example, v)))
    assert np.isfinite(float(hausdorff_chain(example, v)))
