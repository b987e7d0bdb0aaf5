"""Symbol words, rotation orbits, and approximate-square cell addressing.

Points of the unit square are addressed by base-m and base-n digit words.
The rotation by ``theta = log n / log m`` decides, step by step, whether the
horizontal digit word advances together with the vertical one; the running
count of those advances is what keeps the addressed cells roughly square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyWord, SymbolOutOfRange, WordTooShort

MAX_WORD_LEN = 10**6


class SymbolWord:
    """Finite word over the alphabet {0, ..., alphabet_size - 1}.

    The symbols are validated once, at construction.  ``shift``,
    ``carry_shift`` and ``prefix`` return views: the parent's validated
    tuple, shared, with new bounds, so they neither copy nor re-validate.
    Length, indexing, ``symbols``, equality and hashing are those of the
    viewed slice.  Words are immutable.
    """

    __slots__ = ("alphabet_size", "_data", "_start", "_stop")

    def __init__(self, alphabet_size: int, symbols: tuple[int, ...]):
        symbols = tuple(symbols)
        if len(symbols) > MAX_WORD_LEN:
            raise SymbolOutOfRange(f"word longer than {MAX_WORD_LEN}")
        if symbols and (min(symbols) < 0 or max(symbols) >= alphabet_size):
            s = next(s for s in symbols if not (0 <= s < alphabet_size))
            raise SymbolOutOfRange(f"symbol {s} outside alphabet of size {alphabet_size}")
        self._set(alphabet_size, symbols, 0, len(symbols))

    @classmethod
    def _of_valid(cls, alphabet_size: int, symbols: tuple[int, ...]) -> "SymbolWord":
        """Word of symbols already known to lie in the alphabet.

        For words built from a validated carpet's digits: the length cap is
        checked, the scan of every symbol is skipped.
        """
        if len(symbols) > MAX_WORD_LEN:
            raise SymbolOutOfRange(f"word longer than {MAX_WORD_LEN}")
        w = object.__new__(cls)
        w._set(alphabet_size, symbols, 0, len(symbols))
        return w

    def _set(self, alphabet_size: int, data: tuple[int, ...], start: int, stop: int):
        setattr_ = object.__setattr__
        setattr_(self, "alphabet_size", alphabet_size)
        setattr_(self, "_data", data)
        setattr_(self, "_start", start)
        setattr_(self, "_stop", stop)

    def _view(self, start: int, stop: int) -> "SymbolWord":
        """Word of ``_data[start:stop]``, with no copy and no validation."""
        w = object.__new__(SymbolWord)
        w._set(self.alphabet_size, self._data, start, stop)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("SymbolWord is immutable")

    def __reduce__(self):
        return SymbolWord, (self.alphabet_size, self.symbols)

    @property
    def symbols(self) -> tuple[int, ...]:
        return self._data[self._start : self._stop]

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.symbols[i]
        return self._data[range(self._start, self._stop)[i]]

    def __eq__(self, other):
        if other.__class__ is not SymbolWord:
            return NotImplemented
        return (
            self.alphabet_size == other.alphabet_size
            and len(self) == len(other)
            and self.symbols == other.symbols
        )

    def __hash__(self) -> int:
        return hash((self.alphabet_size, self.symbols))

    def __repr__(self) -> str:
        return f"SymbolWord(alphabet_size={self.alphabet_size!r}, symbols={self.symbols!r})"

    def prefix(self, k: int) -> "SymbolWord":
        if k < 0:
            raise ValueError(f"prefix length must be >= 0, got {k}")
        if k > len(self):
            raise WordTooShort(f"need {k} symbols, have {len(self)}")
        return self._view(self._start, self._start + k)


def shift(w: SymbolWord) -> SymbolWord:
    """Drop the first symbol."""
    if len(w) == 0:
        raise EmptyWord("cannot shift the empty word")
    return w._view(w._start + 1, w._stop)


def carry_shift(w: SymbolWord, phase: float, theta: float) -> SymbolWord:
    """Shift exactly when the rotation phase is about to wrap.

    The word advances iff ``phase`` lies in [1 - theta, 1); otherwise it is
    returned unchanged.
    """
    if len(w) == 0:
        raise EmptyWord("cannot shift the empty word")
    if phase >= 1.0 - theta:
        return shift(w)
    return w


def digits_to_index(digits: tuple[int, ...], base: int) -> int:
    """Integer with the given base-``base`` digits, most significant first."""
    idx = 0
    for d in digits:
        idx = idx * base + d
    return idx


# R(k) - floor(theta*k) = floor(theta*k + u0 + theta) - floor(theta*k), and
# u0 + theta lies in [0, 2), so the difference is always 0, 1 or 2.
RETURN_CONSTANT = 2


class RotationOrbit:
    """Orbit of ``u0`` under repeated addition of ``theta`` mod 1.

    The phase at index i lies in the carry window [1 - theta, 1) exactly
    when floor(u0 + (i+1)*theta) exceeds floor(u0 + i*theta), so the number
    of carries at indices 0..k telescopes to R(k) = floor(u0 + (k+1)*theta).
    ``theta`` and ``u0`` are taken as the exact rationals their doubles
    represent, and every carry is exact for those doubles: float64 decides
    the floors it can certify and ``Fraction`` the rest.
    """

    def __init__(self, theta: float, u0: float = 0.0):
        if not (0.0 < theta < 1.0):
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        if not (0.0 <= u0 < 1.0):
            raise ValueError(f"u0 must be in [0, 1), got {u0}")
        self.theta = float(theta)
        self.u0 = float(u0)

    def phase(self, i: int) -> float:
        """frac(u0 + i*theta), computed exactly and rounded once."""
        return float((Fraction(self.u0) + i * Fraction(self.theta)) % 1)

    def _floors(self, j: np.ndarray) -> np.ndarray:
        """floor(u0 + j*theta) for integers j >= 1.

        The float64 value v carries two roundings, each at most ulp(v) / 2,
        so its floor is certified unless v lies within 4 * spacing(v) of an
        integer; those undecided floors are recomputed exactly.
        """
        v = self.u0 + j * self.theta
        floors = np.floor(v).astype(np.int64)
        undecided = np.abs(v - np.rint(v)) <= 4.0 * np.spacing(v)
        if undecided.any():
            u, th = Fraction(self.u0), Fraction(self.theta)
            floors[undecided] = [math.floor(u + int(x) * th) for x in j[undecided]]
        return floors

    def return_count(self, k: int) -> int:
        """Number of i in 0..k with frac(u0 + i*theta) in [1 - theta, 1)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return int(self._floors(np.array([k + 1.0]))[0])

    def return_counts(self, k: int) -> np.ndarray:
        """Cumulative return counts: entry i equals return_count(i)."""
        return self._floors(np.arange(1, k + 2, dtype=np.float64))


@dataclass(frozen=True)
class ApproxSquare:
    """Grid cell D_{m^p} x D_{n^k} addressed by digit words.

    ``x_word`` has base m and length p, ``y_word`` base n and length k; the
    cell is the half-open rectangle of points whose expansions extend both
    words.  When p is a return count for k the two side lengths are
    comparable, which is the whole point of the construction.
    """

    x_word: SymbolWord
    y_word: SymbolWord

    @property
    def x_depth(self) -> int:
        return len(self.x_word)

    @property
    def depth(self) -> int:
        return len(self.y_word)

    @property
    def x_index(self) -> int:
        return digits_to_index(self.x_word.symbols, self.x_word.alphabet_size)

    @property
    def y_index(self) -> int:
        return digits_to_index(self.y_word.symbols, self.y_word.alphabet_size)

    @property
    def x_scale(self) -> int:
        return self.x_word.alphabet_size ** self.x_depth

    @property
    def y_scale(self) -> int:
        return self.y_word.alphabet_size ** self.depth

    def center(self) -> tuple[float, float]:
        return ((self.x_index + 0.5) / self.x_scale, (self.y_index + 0.5) / self.y_scale)

    def diameter(self) -> float:
        return math.hypot(1.0 / self.x_scale, 1.0 / self.y_scale)

