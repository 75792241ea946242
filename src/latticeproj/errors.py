"""Exception types raised across the package.

Every error message names the invariant or precondition that was violated,
so CLI output and test failures stay diagnosable.
"""


class LatticeProjError(Exception):
    """Base class for all package-specific errors."""


# --- graph construction and validation ---

class InvalidSize(LatticeProjError):
    pass


class SelfLoop(LatticeProjError):
    pass


class DuplicateEdge(LatticeProjError):
    pass


class IndexOutOfRange(LatticeProjError):
    pass


class OddCycle(LatticeProjError):
    """Raised when a 2-coloring is requested for a non-bipartite graph."""


class NotALattice(LatticeProjError):
    """Raised when the lattice-only column engine meets a non-lattice graph."""


# --- algebra ---

class OccupiedSlotOutsideDomain(LatticeProjError):
    """A word carries a non-identity letter on a slot outside the trace domain."""


# --- factorization and evaluation ---

class InvalidPermutation(LatticeProjError):
    pass


class RetirementBeforeOwner(LatticeProjError):
    """A trace slot was retired before its owner factor contributed U or D."""


class NonScalarResidue(LatticeProjError):
    """The sweep finished with unretired slots; internal invariant breach."""


class TooSmall(LatticeProjError):
    pass


class SizeMismatch(LatticeProjError):
    pass


class ColumnTooWide(LatticeProjError):
    """A center column holds more slots than the configured boundary cap."""


# --- oracles ---

class TooLarge(LatticeProjError):
    pass


class NotBipartite(LatticeProjError):
    pass


class TooManyControls(LatticeProjError):
    pass


# --- measurement patterns ---

class ZeroBranch(LatticeProjError):
    """Post-selecting the pattern's fixed outcomes annihilated the state."""


class ArityMismatch(LatticeProjError):
    pass


class QubitCollision(LatticeProjError):
    pass


class CircuitParseError(LatticeProjError):
    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
