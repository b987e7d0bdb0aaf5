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

    The symbols are one read-only 1-D numpy array, ``array``, of the
    narrowest dtype that holds ``alphabet_size - 1`` (uint8 up to 256
    symbols).  They are checked once, at construction, from a tuple or an
    array: integers (bool, int or numpy integer) in range.  ``shift``,
    ``carry_shift`` and ``prefix`` return views: numpy slices of the
    parent's array, so they neither copy nor re-validate.  Length, indexing, ``symbols`` (a tuple of Python ints),
    equality and hashing are those of the viewed symbols.  Words are
    immutable.
    """

    __slots__ = ("alphabet_size", "array")

    def __init__(self, alphabet_size: int, symbols: tuple[int, ...] | np.ndarray):
        if len(symbols) > MAX_WORD_LEN:
            raise SymbolOutOfRange(f"word longer than {MAX_WORD_LEN}")
        given = np.asarray(symbols)
        if len(given) and given.dtype.kind not in "biu":  # an object array may hold ints
            for s in symbols:
                if not isinstance(s, (int, np.integer)):
                    raise SymbolOutOfRange(f"symbol {s} is not an integer")
        if len(given) and (given.min() < 0 or given.max() >= alphabet_size):
            s = symbols[int(((given < 0) | (given >= alphabet_size)).argmax())]
            raise SymbolOutOfRange(f"symbol {s} outside alphabet of size {alphabet_size}")
        array = given.astype(np.min_scalar_type(alphabet_size - 1))
        array.flags.writeable = False
        object.__setattr__(self, "alphabet_size", alphabet_size)
        object.__setattr__(self, "array", array)

    def _view(self, array: np.ndarray) -> "SymbolWord":
        """Word of a slice of ``self.array``, with no copy and no validation."""
        w = object.__new__(SymbolWord)
        object.__setattr__(w, "alphabet_size", self.alphabet_size)
        object.__setattr__(w, "array", array)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("SymbolWord is immutable")

    def __reduce__(self):
        return SymbolWord, (self.alphabet_size, self.symbols)

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self.array[i].tolist())
        return int(self.array[i])

    def __eq__(self, other):
        if other.__class__ is not SymbolWord:
            return NotImplemented
        return self.alphabet_size == other.alphabet_size and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.alphabet_size, self.symbols))

    def __repr__(self) -> str:
        return f"SymbolWord(alphabet_size={self.alphabet_size!r}, symbols={self.symbols!r})"

    def prefix(self, k: int) -> "SymbolWord":
        if k < 0:
            raise ValueError(f"prefix length must be >= 0, got {k}")
        if k > self.array.size:
            raise WordTooShort(f"need {k} symbols, have {len(self)}")
        return self._view(self.array[:k])


def shift(w: SymbolWord) -> SymbolWord:
    """Drop the first symbol."""
    if w.array.size == 0:
        raise EmptyWord("cannot shift the empty word")
    return w._view(w.array[1:])


def carry_shift(w: SymbolWord, phase: float, theta: float) -> SymbolWord:
    """Shift exactly when the rotation phase is about to wrap.

    The word advances iff ``phase`` lies in [1 - theta, 1); otherwise it is
    returned unchanged.
    """
    if w.array.size == 0:
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
        if k < 0:
            raise ValueError("k must be >= 0")
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

