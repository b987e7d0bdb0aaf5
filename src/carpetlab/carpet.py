"""Grid carpets and their closed-form dimension quantities.

A carpet is determined by integer expansion bases ``m`` (horizontal) and
``n`` (vertical) together with a nonempty set of allowed digit pairs
``(x, y)`` with ``0 <= x < m`` and ``0 <= y < n``.  Everything in this
module is an exact formula of ``(m, n, digits)``; the only approximation
anywhere is double-precision arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import BadExponent, DigitOutOfRange, DomainError, EmptyDigits

Digit = tuple[int, int]


@dataclass(frozen=True)
class Carpet:
    """Carpet with exponents ``m >= n`` (canonical orientation) and digit set.

    Use :func:`new_carpet` to construct; it validates and transposes
    ``m < n`` inputs so that ``theta = log n / log m`` is always in (0, 1].
    """

    m: int
    n: int
    digits: frozenset[Digit]

    @cached_property
    def theta(self) -> float:
        return math.log(self.n) / math.log(self.m)

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Occupied row indices, ascending."""
        return tuple(sorted({y for _, y in self.digits}))

    @cached_property
    def row_count(self) -> dict[int, int]:
        """Row index -> number of digits in that row (zero rows omitted)."""
        counts: dict[int, int] = {}
        for _, y in self.digits:
            counts[y] = counts.get(y, 0) + 1
        return counts

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Occupied column indices, ascending."""
        return tuple(sorted({x for x, _ in self.digits}))

    def row_digits(self, j: int) -> frozenset[int]:
        """Allowed x-digits in row ``j`` (empty for unoccupied rows)."""
        return frozenset(x for x, y in self.digits if y == j)

    def column_rows(self, a: int) -> frozenset[int]:
        """Rows j such that the pair (a, j) is allowed."""
        return frozenset(y for x, y in self.digits if x == a)

    @property
    def size(self) -> int:
        return len(self.digits)

    @property
    def uniform_rows(self) -> bool:
        counts = set(self.row_count.values())
        return len(counts) == 1


def new_carpet(m: int, n: int, digits: Iterable[Digit]) -> Carpet:
    """Validate and canonicalize a carpet definition.

    Inputs with ``m < n`` are transposed (axes and digit coordinates
    swapped), which changes nothing geometrically relevant here.  ``m == n``
    is accepted: the formulas still evaluate, but the exponents are never
    independent in that case.
    """
    if m < 2 or n < 2:
        raise BadExponent(f"exponents must be >= 2, got ({m}, {n})")
    digit_set = frozenset((int(x), int(y)) for x, y in digits)
    if not digit_set:
        raise EmptyDigits("digit set is empty")
    for x, y in digit_set:
        if not (0 <= x < m and 0 <= y < n):
            raise DigitOutOfRange(f"digit ({x}, {y}) outside {m}x{n} grid")
    if m < n:
        m, n = n, m
        digit_set = frozenset((y, x) for x, y in digit_set)
    return Carpet(m=m, n=n, digits=digit_set)


def independence_check(c: Carpet) -> bool:
    """True iff no integer a >= 2 has both m and n as integer powers.

    Exact integer test, equivalent to log m / log n being irrational.
    """
    for a in range(2, c.n + 1):
        if _is_power_of(c.m, a) and _is_power_of(c.n, a):
            return False
    return True


def _is_power_of(x: int, a: int) -> bool:
    while x % a == 0:
        x //= a
    return x == 1


def hausdorff_dimension(c: Carpet) -> float:
    """log(sum over occupied rows of a(j)^theta) / log n."""
    total = sum(a ** c.theta for a in c.row_count.values())
    return math.log(total) / math.log(c.n)


def box_packing_dimension(c: Carpet) -> float:
    """log(#rows)/log n + log(|D| / #rows)/log m.

    Box and packing dimensions coincide for these carpets.
    """
    r = len(c.rows)
    return math.log(r) / math.log(c.n) + math.log(c.size / r) / math.log(c.m)


def star_dimension(c: Carpet) -> float:
    """log(#rows)/log n + log(max row count)/log m.

    Largest dimension seen in any blow-up limit; for these carpets it is
    driven by the fullest row.
    """
    r = len(c.rows)
    a_max = max(c.row_count.values())
    return math.log(r) / math.log(c.n) + math.log(a_max) / math.log(c.m)


def marstrand_bound(dim: float) -> float:
    """max(0, dim - 1): the almost-every-line slice bound for a planar set."""
    return max(0.0, dim - 1.0)


def prior_slice_bound(c: Carpet) -> float:
    """max(star dimension - 1, 0)."""
    return max(star_dimension(c) - 1.0, 0.0)


def slice_dimension_bound(c: Carpet, which: str = "hausdorff") -> float:
    """Upper bound for the dimension of any non-axis-parallel line slice.

    Returns ``max(0, dim_X / dim_star * (dim_star - 1))`` where ``dim_X``
    is the Hausdorff or box/packing dimension of the carpet.  Degenerate
    single-digit carpets (star dimension 0) get bound 0.
    """
    if which == "hausdorff":
        dim_x = hausdorff_dimension(c)
    elif which == "packing":
        dim_x = box_packing_dimension(c)
    else:
        raise DomainError(f"which must be 'hausdorff' or 'packing', got {which!r}")
    star = star_dimension(c)
    if star == 0.0:
        return 0.0
    return max(0.0, dim_x / star * (star - 1.0))


def optimize_tradeoff(dim_star: float, dim_x: float) -> tuple[float, float]:
    """Maximize min(w * (dim_star - 1), dim_x - w) over weights w in [0, 1].

    Returns ``(w_star, value)``.  The maximal value is the closed form
    ``max(0, dim_x / dim_star * (dim_star - 1))``, reached at
    ``w = dim_x / dim_star`` when ``dim_star >= 1`` and at ``w = 0`` otherwise.
    """
    if not (0.0 <= dim_x <= dim_star <= 2.0) or dim_star <= 0.0:
        raise DomainError(
            f"need 0 <= dim_x <= dim_star <= 2 and dim_star > 0, got ({dim_star}, {dim_x})"
        )
    if dim_star >= 1.0:
        w = dim_x / dim_star
        value = w * (dim_star - 1.0)
    else:
        # both branches are <= 0 for any positive weight; w = 0 yields 0
        w = 0.0
        value = 0.0
    return w, value


def packing_chain(c: Carpet, v: np.ndarray) -> np.ndarray:
    """Row-energy/entropy functional bounded by the box/packing dimension.

    For probability vectors ``v`` over occupied rows (in ``c.rows`` order):

        sum_j v_j log a(j) / log m + theta * H(v) / log n
            + (1 - theta) * log(#rows) / log n

    This never exceeds ``box_packing_dimension(c)``, with equality exactly
    at v_j = a(j) / |D|.  Accepts a single vector or a matrix of rows.
    """
    v = np.asarray(v, dtype=float)
    log_a = np.log([float(c.row_count[j]) for j in c.rows])
    log_m = math.log(c.m)
    log_n = math.log(c.n)
    r = len(c.rows)
    h = _entropy_rows(v)
    energy = v @ log_a
    return (energy + h) / log_m + (1.0 - c.theta) * math.log(r) / log_n


def hausdorff_chain(c: Carpet, v: np.ndarray) -> np.ndarray:
    """Analogous functional bounded by the Hausdorff dimension.

        sum_j v_j log a(j) / log m + H(v) / log n

    Maximal exactly at v_j proportional to a(j)^theta.
    """
    v = np.asarray(v, dtype=float)
    log_a = np.log([float(c.row_count[j]) for j in c.rows])
    h = _entropy_rows(v)
    return (v @ log_a) / math.log(c.m) + h / math.log(c.n)


def _entropy_rows(v: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(v > 0.0, -v * np.log(np.where(v > 0.0, v, 1.0)), 0.0)
    return terms.sum(axis=-1)


@dataclass(frozen=True)
class DimensionReport:
    """All closed-form quantities for one carpet, as reported by the CLI."""

    theta: float
    dim_h: float
    dim_bp: float
    dim_star: float
    independent: bool
    ahlfors_regular: bool
    slice_bound_h: float
    slice_bound_p: float
    prior_bound: float
    marstrand_h: float
    marstrand_p: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def dimension_report(c: Carpet) -> DimensionReport:
    return DimensionReport(
        theta=c.theta,
        dim_h=hausdorff_dimension(c),
        dim_bp=box_packing_dimension(c),
        dim_star=star_dimension(c),
        independent=independence_check(c),
        ahlfors_regular=c.uniform_rows,
        slice_bound_h=slice_dimension_bound(c, "hausdorff"),
        slice_bound_p=slice_dimension_bound(c, "packing"),
        prior_bound=prior_slice_bound(c),
        marstrand_h=marstrand_bound(hausdorff_dimension(c)),
        marstrand_p=marstrand_bound(box_packing_dimension(c)),
    )
