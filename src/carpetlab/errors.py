"""Exception types shared across the package.

Every error raised by library code derives from CarpetLabError so the CLI
can map failures onto its documented exit codes in one place.
"""


class CarpetLabError(Exception):
    pass


# -- carpet construction and formula domain --

class EmptyDigits(CarpetLabError):
    pass


class DigitOutOfRange(CarpetLabError):
    pass


class BadExponent(CarpetLabError):
    pass


class DomainError(CarpetLabError):
    pass


class CarpetFileError(CarpetLabError):
    """Malformed carpet text file (syntax, not validation)."""


# -- symbolic words and orbits --

class SymbolOutOfRange(CarpetLabError):
    pass


class EmptyWord(CarpetLabError):
    pass


class WordTooShort(CarpetLabError):
    pass


# -- measures --

class UnnormalizedMeasure(CarpetLabError):
    pass


class ZeroMassCell(CarpetLabError):
    pass


class InsufficientLevels(CarpetLabError):
    pass


# -- slicer --

class AxisParallelLine(CarpetLabError):
    pass


class CellBudgetExceeded(CarpetLabError):
    pass


class InsufficientData(CarpetLabError):
    pass


# -- scenery --

class BlockTooDeep(CarpetLabError):
    pass
