"""The letter algebra against explicit 2x2 diagonal matrices."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latticeproj.algebra import (
    EMPTY_WORD,
    Letter,
    SignedLetter,
    TensorWord,
    ZERO,
    letter_matrix,
    letter_mul,
    letter_trace,
    word_mul,
    word_trace,
)
from latticeproj.errors import OccupiedSlotOutsideDomain

from helpers import LETTER_MATS, word_to_diag

LETTERS = list(Letter)


def test_letter_matrices_are_the_documented_ones():
    for letter in LETTERS:
        np.testing.assert_array_equal(letter_matrix(letter), LETTER_MATS[letter.name])


@pytest.mark.parametrize("a,b", list(itertools.product(LETTERS, LETTERS)))
def test_letter_mul_matches_matrix_product(a, b):
    product = LETTER_MATS[a.name] @ LETTER_MATS[b.name]
    result = letter_mul(a, b)
    if result is ZERO:
        np.testing.assert_array_equal(product, np.zeros((2, 2)))
    else:
        np.testing.assert_array_equal(
            product, result.sign * LETTER_MATS[result.letter.name]
        )


def test_letter_mul_table_entries():
    assert letter_mul(Letter.Z, Letter.Z) == SignedLetter(1, Letter.I)
    assert letter_mul(Letter.Z, Letter.D) == SignedLetter(-1, Letter.D)
    assert letter_mul(Letter.U, Letter.D) is ZERO
    assert letter_mul(Letter.U, Letter.Z) == SignedLetter(1, Letter.U)


def test_letter_mul_is_commutative():
    for a, b in itertools.product(LETTERS, LETTERS):
        assert letter_mul(a, b) == letter_mul(b, a)


@pytest.mark.parametrize("letter,expected", [
    (Letter.I, 2.0), (Letter.Z, 0.0), (Letter.U, 1.0), (Letter.D, 1.0),
])
def test_letter_trace(letter, expected):
    assert letter_trace(letter) == expected
    assert np.trace(LETTER_MATS[letter.name]) == expected


# ---------------------------------------------------------------------------
# tensor words


def test_words_normalize_away_identity_entries():
    assert TensorWord([(3, Letter.I)]) == EMPTY_WORD
    w = TensorWord([(2, Letter.Z), (0, Letter.U), (5, Letter.I)])
    assert w.entries == ((0, Letter.U), (2, Letter.Z))


def test_word_construction_rejects_bad_slots():
    with pytest.raises(ValueError):
        TensorWord([(-1, Letter.Z)])
    with pytest.raises(ValueError):
        TensorWord([(0, Letter.Z), (0, Letter.U)])


def test_word_mul_examples():
    z0 = TensorWord([(0, Letter.Z)])
    assert word_mul(z0, z0) == (1, EMPTY_WORD)

    w1 = TensorWord([(0, Letter.Z), (1, Letter.U)])
    w2 = TensorWord([(1, Letter.Z)])
    assert word_mul(w1, w2) == (1, w1)

    assert word_mul(TensorWord([(0, Letter.U)]), TensorWord([(0, Letter.D)])) is ZERO


def test_word_trace_examples():
    w = TensorWord([(1, Letter.Z), (2, Letter.U)])
    assert word_trace(w, {0, 1, 2}) == 0.0
    assert word_trace(EMPTY_WORD, set()) == 1.0
    assert word_trace(TensorWord([(0, Letter.U), (1, Letter.D)]), {0, 1}) == 1.0


def test_word_trace_rejects_out_of_domain_slots():
    with pytest.raises(OccupiedSlotOutsideDomain):
        word_trace(TensorWord([(4, Letter.Z)]), {0, 1})


words_6 = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.sampled_from(LETTERS),
    max_size=6,
).map(lambda m: TensorWord(m.items()))


@given(w1=words_6, w2=words_6)
def test_word_mul_matches_kronecker_product(w1, w2):
    d1, d2 = word_to_diag(w1, 6), word_to_diag(w2, 6)
    result = word_mul(w1, w2)
    if result is ZERO:
        np.testing.assert_array_equal(d1 * d2, np.zeros(64))
    else:
        sign, w = result
        np.testing.assert_array_equal(d1 * d2, sign * word_to_diag(w, 6))


@given(w1=words_6, w2=words_6)
def test_word_mul_commutes(w1, w2):
    assert word_mul(w1, w2) == word_mul(w2, w1)


@given(w1=words_6, w2=words_6, w3=words_6)
def test_word_mul_associates(w1, w2, w3):
    def mul3(order):
        sign = 1
        if order == "left":
            first = word_mul(w1, w2)
            if first is ZERO:
                return ZERO
            second = word_mul(first[1], w3)
            if second is ZERO:
                return ZERO
            return first[0] * second[0], second[1]
        first = word_mul(w2, w3)
        if first is ZERO:
            return ZERO
        second = word_mul(w1, first[1])
        if second is ZERO:
            return ZERO
        return first[0] * second[0], second[1]

    assert mul3("left") == mul3("right")


@given(w=words_6)
def test_trace_of_word_matches_matrix_trace(w):
    assert word_trace(w, range(6)) == pytest.approx(word_to_diag(w, 6).sum())
