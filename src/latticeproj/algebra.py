"""Exact algebra of the diagonal 2x2 letters I, Z, U, D and sparse tensor words.

The four letters are the diagonal matrices

    I = diag(1, 1)    Z = diag(1, -1)    U = diag(1, 0)    D = diag(0, 1)

so U and D are the |0><0| and |1><1| projectors, U = (I+Z)/2 and D = (I-Z)/2.
The set is closed under multiplication up to a sign and a zero element
(UZ = U, DZ = -D, UD = DU = 0), which keeps products of tensor words exact:
no floating point enters until complex coefficients do.

A tensor word is a Kronecker product of letters over integer "slots", stored
sparsely: slots absent from the word hold I.  Words are immutable, hashable
and normalized (no explicit I entries), so they serve as dict keys in
word -> coefficient term sums such as the test suite's word-dict sweep.  Signs produced by letter
products are returned separately so the words themselves stay canonical.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, NamedTuple, Union

import numpy as np

from .errors import OccupiedSlotOutsideDomain


class Letter(IntEnum):
    I = 0
    Z = 1
    U = 2
    D = 3


class SignedLetter(NamedTuple):
    sign: int
    letter: Letter


class _ZeroType:
    """Distinguished value for products that hit the 2x2 zero matrix."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ZERO"


ZERO = _ZeroType()

_I, _Z, _U, _D = Letter.I, Letter.Z, Letter.U, Letter.D

# Products indexed [a][b]; None encodes the zero matrix.  The table is
# commutative; the only signs come from DZ = ZD = -D.
_MUL: tuple[tuple[Union[SignedLetter, None], ...], ...] = (
    (SignedLetter(1, _I), SignedLetter(1, _Z), SignedLetter(1, _U), SignedLetter(1, _D)),
    (SignedLetter(1, _Z), SignedLetter(1, _I), SignedLetter(1, _U), SignedLetter(-1, _D)),
    (SignedLetter(1, _U), SignedLetter(1, _U), SignedLetter(1, _U), None),
    (SignedLetter(1, _D), SignedLetter(-1, _D), None, SignedLetter(1, _D)),
)

_TRACE = (2.0, 0.0, 1.0, 1.0)

_DIAG = (
    np.array([1.0, 1.0]),
    np.array([1.0, -1.0]),
    np.array([1.0, 0.0]),
    np.array([0.0, 1.0]),
)


def letter_mul(a: Letter, b: Letter) -> Union[SignedLetter, _ZeroType]:
    """Exact product of two letters as (sign, letter), or ZERO for UD/DU."""
    out = _MUL[a][b]
    return ZERO if out is None else out


def letter_trace(a: Letter) -> float:
    """Trace of a letter: I -> 2, Z -> 0, U -> 1, D -> 1."""
    return _TRACE[a]


def letter_matrix(a: Letter) -> np.ndarray:
    """The explicit 2x2 matrix of a letter (for oracles and debugging)."""
    return np.diag(_DIAG[a])


class TensorWord:
    """Sparse Kronecker product of letters; absent slots are implicitly I.

    ``entries`` is a tuple of (slot, letter) pairs sorted by slot, holding
    no I letters.  Two words are equal iff their entries are equal.
    """

    __slots__ = ("entries", "_hash")

    def __init__(self, entries: Iterable[tuple[int, Letter]] = ()):
        seen: dict[int, Letter] = {}
        for slot, letter in entries:
            slot = int(slot)
            if slot < 0:
                raise ValueError(f"slot ids must be non-negative, got {slot}")
            if slot in seen:
                raise ValueError(f"duplicate slot {slot} in tensor word")
            letter = Letter(letter)
            if letter is not Letter.I:
                seen[slot] = letter
        self.entries = tuple(sorted(seen.items()))
        self._hash = hash(self.entries)

    @classmethod
    def _from_sorted(cls, entries: tuple[tuple[int, Letter], ...]) -> "TensorWord":
        # Internal fast path: entries already sorted, deduplicated, I-free.
        word = cls.__new__(cls)
        word.entries = entries
        word._hash = hash(entries)
        return word

    def split_slot(self, slot: int) -> tuple[Letter, "TensorWord"]:
        """Return (letter at slot, the word with that slot removed)."""
        for i, (s, letter) in enumerate(self.entries):
            if s == slot:
                return letter, TensorWord._from_sorted(self.entries[:i] + self.entries[i + 1:])
        return Letter.I, self

    def slots(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.entries)

    @property
    def is_identity(self) -> bool:
        return not self.entries

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TensorWord) and self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.entries:
            return "TensorWord()"
        body = ", ".join(f"{s}:{letter.name}" for s, letter in self.entries)
        return f"TensorWord({{{body}}})"


EMPTY_WORD = TensorWord()


def word_mul(w1: TensorWord, w2: TensorWord) -> Union[_ZeroType, tuple[int, TensorWord]]:
    """Slot-wise product of two words; total sign separate, ZERO if any slot dies."""
    a, b = w1.entries, w2.entries
    if not a:
        return 1, w2
    if not b:
        return 1, w1
    out: list[tuple[int, Letter]] = []
    sign = 1
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        sa, la = a[i]
        sb, lb = b[j]
        if sa < sb:
            out.append(a[i])
            i += 1
        elif sb < sa:
            out.append(b[j])
            j += 1
        else:
            prod = _MUL[la][lb]
            if prod is None:
                return ZERO
            if prod.sign < 0:
                sign = -sign
            if prod.letter is not Letter.I:
                out.append((sa, prod.letter))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, TensorWord._from_sorted(tuple(out))


def word_trace(w: TensorWord, slots: Iterable[int]) -> float:
    """Trace of a word over a slot domain; absent slots contribute trace(I) = 2.

    The empty domain gives 1 (empty product).  Raises
    OccupiedSlotOutsideDomain if the word touches a slot not in the domain.
    """
    domain = frozenset(slots)
    occupied = w.slots()
    outside = [s for s in occupied if s not in domain]
    if outside:
        raise OccupiedSlotOutsideDomain(
            f"word occupies slots {outside} outside trace domain"
        )
    result = float(2 ** (len(domain) - len(occupied)))
    for _, letter in w.entries:
        result *= _TRACE[letter]
        if result == 0.0:
            return 0.0
    return result
