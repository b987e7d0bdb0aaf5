import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from carpetlab import (
    RETURN_CONSTANT,
    ApproxSquare,
    RotationOrbit,
    SymbolWord,
    approx_square_at,
    carry_shift,
    coding_interval,
    cylinder_cover_count,
    new_carpet,
    shift,
)
from carpetlab.errors import (
    EmptyWord,
    SymbolOutOfRange,
    UnoccupiedRowSymbol,
    WordTooShort,
)

THETA = math.log(2) / math.log(3)


def mp_return_count(theta_str, u0, k):
    """Direct high-precision iteration of the membership count."""
    with mp.workdps(50):
        theta = mp.mpf(theta_str)
        count = 0
        for i in range(k + 1):
            frac = mp.frac(mp.mpf(u0) + i * theta)
            if frac >= 1 - theta:
                count += 1
        return count


def test_return_count_example():
    orbit = RotationOrbit(THETA, 0.0)
    assert orbit.return_count(10) == 6
    assert mp_return_count(mp.log(2) / mp.log(3), 0, 10) == 6
    assert orbit.return_count(0) == 0


def test_return_count_matches_high_precision(rng):
    with mp.workdps(50):
        theta_hp = mp.log(2) / mp.log(3)
    for _ in range(25):
        u0 = float(rng.random())
        k = int(rng.integers(0, 300))
        orbit = RotationOrbit(THETA, u0)
        assert orbit.return_count(k) == mp_return_count(theta_hp, u0, k)


def test_return_count_cumulative_consistency():
    orbit = RotationOrbit(THETA, 0.33)
    counts = orbit.return_counts(200)
    for k in (0, 1, 57, 200):
        assert counts[k] == orbit.return_count(k)


def test_return_count_floor_bracket(rng):
    for theta in (THETA, math.log(2) / math.log(7), math.log(6) / math.log(7)):
        for _ in range(100):
            u0 = float(rng.random())
            k = int(rng.integers(0, 5000))
            r = RotationOrbit(theta, u0).return_count(k)
            assert 0 <= r - math.floor(theta * k) <= RETURN_CONSTANT


def test_return_counts_exact_near_carry():
    # u0 within 4 ulps of N - j*theta puts a carry at index j - 1 within
    # rounding of the window edge, where a float64 floor cannot decide it
    th = Fraction(THETA)
    for j, big_n in ((3, 2), (5, 4), (7, 5), (11, 7), (19, 12)):
        u0 = float(big_n - j * th)
        for _ in range(4):
            u0 = float(np.nextafter(u0, 0.0))
        for _ in range(9):
            orbit = RotationOrbit(THETA, u0)
            ref = [math.floor(Fraction(u0) + (i + 1) * th) for i in range(21)]
            assert orbit.return_counts(20).tolist() == ref
            assert orbit.near_boundary(20)
            u0 = float(np.nextafter(u0, 1.0))


def test_near_boundary_flag():
    # u0 exactly at the membership endpoint is flagged
    assert RotationOrbit(THETA, 1.0 - THETA).near_boundary(0)
    assert not RotationOrbit(THETA, 0.1).near_boundary(5)


# -- words and shifts --


def test_word_validation_and_serialization():
    assert SymbolWord(3, (0, 1, 2)).symbols == (0, 1, 2)
    with pytest.raises(SymbolOutOfRange):
        SymbolWord(2, (0, 2))
    with pytest.raises(SymbolOutOfRange, match=r"^symbol 2 outside alphabet of size 2$"):
        SymbolWord(2, (0, 1, 2, 5, -1))
    with pytest.raises(SymbolOutOfRange, match=r"^symbol -1 outside alphabet of size 3$"):
        SymbolWord(3, (1, -1, 3))
    with pytest.raises(SymbolOutOfRange, match=r"^word longer than 1000000$"):
        SymbolWord(2, (0,) * (10**6 + 1))


def test_shift_examples():
    assert shift(SymbolWord(2, (0, 1, 1, 0))).symbols == (1, 1, 0)
    with pytest.raises(EmptyWord):
        shift(SymbolWord(2, ()))


def test_shifted_word_equals_sliced_word(rng):
    symbols = tuple(int(s) for s in rng.integers(0, 3, size=30))
    w = SymbolWord(3, symbols)
    for k in range(len(symbols) + 1):
        ref = SymbolWord(3, symbols[k:])
        assert w == ref and hash(w) == hash(ref)
        assert len(w) == len(ref) and w.symbols == ref.symbols == symbols[k:]
        assert [w[i] for i in range(len(w))] == [w[i - len(w)] for i in range(len(w))]
        assert list(w) == list(symbols[k:])
        with pytest.raises(IndexError):
            w[len(w)]
        for j in (0, len(w) // 2, len(w)):
            assert w.prefix(j) == ref.prefix(j) == SymbolWord(3, symbols[k : k + j])
            assert hash(w.prefix(j)) == hash(SymbolWord(3, symbols[k : k + j]))
            assert len(w.prefix(j)) == j
        with pytest.raises(WordTooShort):
            w.prefix(len(w) + 1)
        assert w != SymbolWord(4, symbols[k:])
        if k < len(symbols):
            nxt = shift(w)
            assert nxt._data is w._data  # a view: the validated tuple is shared
            assert carry_shift(w, 0.9, 0.63) == nxt
            w = nxt
    with pytest.raises(EmptyWord):
        shift(w)
    with pytest.raises(EmptyWord):
        carry_shift(w, 0.0, 0.63)


def test_carry_shift_examples():
    w = SymbolWord(2, (0, 1, 1))
    assert carry_shift(w, 0.0, 0.63) is w
    assert carry_shift(w, 0.9, 0.63).symbols == (1, 1)


# -- coding intervals --


def test_coding_interval_examples():
    assert coding_interval(SymbolWord(2, (1,))) == (Fraction(1, 2), Fraction(1))
    assert coding_interval(SymbolWord(2, (0, 1))) == (Fraction(1, 4), Fraction(1, 2))
    lo, hi = coding_interval(SymbolWord(3, (2, 0, 1)))
    assert (lo, hi) == (Fraction(19, 27), Fraction(20, 27))
    with pytest.raises(SymbolOutOfRange):
        coding_interval(SymbolWord(3, (2,)), base=2)


# -- approximate squares --


def test_approx_square_example():
    orbit = RotationOrbit(THETA, 0.0)
    xw = SymbolWord(3, (0, 1, 2, 0, 1, 2, 0))
    yw = SymbolWord(2, (0, 1) * 6)
    sq = approx_square_at(xw, yw, 10, orbit)
    assert sq.x_depth == 6 and sq.depth == 10
    with pytest.raises(WordTooShort):
        approx_square_at(SymbolWord(3, (0,)), yw, 10, orbit)


def test_approx_square_depth_zero():
    orbit = RotationOrbit(THETA, 0.0)  # no carry at index 0
    sq = approx_square_at(SymbolWord(3, ()), SymbolWord(2, ()), 0, orbit)
    assert sq.rect() == (0.0, 1.0, 0.0, 1.0)


def test_approx_square_diameter_bracket(rng):
    # the approx_square_diameter proptest family covers depths 1..15
    geo = math.sqrt(2.0) * 3**RETURN_CONSTANT
    for _ in range(200):
        u0 = float(rng.random())
        k = int(rng.integers(16, 20))
        orbit = RotationOrbit(THETA, u0)
        p = orbit.return_count(k)
        sq = ApproxSquare(
            SymbolWord(3, tuple(int(s) for s in rng.integers(0, 3, size=p))),
            SymbolWord(2, tuple(int(s) for s in rng.integers(0, 2, size=k))),
        )
        ratio = sq.diameter() * 2**k
        assert 1.0 / geo <= ratio <= geo


# -- cylinder covers --


def test_cylinder_cover_examples(example, full_square):
    lower, upper = cylinder_cover_count(example, SymbolWord(2, (0, 1, 0, 1)), 4)
    assert (lower, upper) == (4, 20)
    thin = new_carpet(3, 2, [(0, 0), (1, 1)])
    lower, upper = cylinder_cover_count(thin, SymbolWord(2, (0, 1, 0, 1, 1)), 5)
    assert lower == 1
    lower, _ = cylinder_cover_count(full_square, SymbolWord(2, (1, 0, 1)), 3)
    assert lower == 27
    with pytest.raises(WordTooShort):
        cylinder_cover_count(example, SymbolWord(2, (0,)), 3)
    missing_row = new_carpet(3, 2, [(0, 0)])
    with pytest.raises(UnoccupiedRowSymbol):
        cylinder_cover_count(missing_row, SymbolWord(2, (1,)), 1)

