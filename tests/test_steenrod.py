import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usteen.steenrod import (
    AdmissibleMonomial,
    adem_normal_form,
    admissible_basis,
    binom_mod2,
    degree_of,
    is_admissible,
    multiply,
)


def oracle_binom_mod2(n, k):
    from math import comb

    return comb(n, k) % 2 if 0 <= k <= n else 0


def oracle_adem_pair(a, b):
    """Evaluate the relation's binomials directly, independent of the library."""
    terms = set()
    for c in range(a // 2 + 1):
        if oracle_binom_mod2(b - c - 1, a - 2 * c):
            word = (a + b - c,) if c == 0 else (a + b - c, c)
            terms ^= {word}
    return terms


def all_words_of_degree(n):
    """All compositions of n into positive parts (2^(n-1) of them)."""
    if n == 0:
        return [()]
    out = []
    for cut in range(2 ** (n - 1)):
        comp = []
        part = 1
        for pos in range(n - 1):
            if (cut >> pos) & 1:
                comp.append(part)
                part = 1
            else:
                part += 1
        comp.append(part)
        out.append(tuple(comp))
    return out


def oracle_admissible_words(n):
    """Composition enumeration with admissibility filter, library-independent."""
    if n == 0:
        return {()}
    return {w for w in all_words_of_degree(n) if is_admissible(w)}


@given(st.integers(0, 300), st.integers(0, 300))
def test_lucas_binomials(n, k):
    assert binom_mod2(n, k) == oracle_binom_mod2(n, k)


def test_sq1_sq1_is_zero():
    assert adem_normal_form((1, 1)) == frozenset()


def test_already_admissible():
    assert adem_normal_form((3,)) == frozenset({(3,)})


def test_sq2_sq2():
    # derived from the relation's binomials by the independent oracle
    assert oracle_adem_pair(2, 2) == {(3, 1)}
    assert adem_normal_form((2, 2)) == frozenset({(3, 1)})


def test_sq1_sq2():
    assert adem_normal_form((1, 2)) == frozenset({(3,)})


def test_two_letter_words_match_oracle():
    for a in range(1, 12):
        for b in range(1, 12):
            if a < 2 * b:
                nf = adem_normal_form((a, b))
                direct = oracle_adem_pair(a, b)
                # oracle terms may themselves be inadmissible; renormalize them
                renorm = set()
                for w in direct:
                    renorm ^= set(adem_normal_form(w))
                assert nf == frozenset(renorm)


def test_admissible_basis_unit():
    assert [m.factors for m in admissible_basis(0)] == [()]


def test_admissible_basis_degree3():
    assert {m.factors for m in admissible_basis(3)} == {(3,), (2, 1)}


def test_admissible_counts_low_degrees():
    counts = [len(admissible_basis(n)) for n in range(8)]
    assert counts == [1, 1, 1, 2, 2, 2, 3, 4]


def test_admissible_counts_match_enumeration_oracle():
    for n in range(13):
        assert {m.factors for m in admissible_basis(n)} == oracle_admissible_words(n)


def test_admissible_basis_sorted():
    for n in range(10):
        factors = [m.factors for m in admissible_basis(n)]
        assert factors == sorted(factors)


def test_normal_form_lands_in_basis():
    for n in range(1, 11):
        basis = {m.factors for m in admissible_basis(n)}
        for word in all_words_of_degree(n):
            assert adem_normal_form(word) <= basis


def test_exhaustive_rewriting_agrees_with_rightmost_strategy():
    memo = {}

    def rightmost_nf(word):
        if word in memo:
            return memo[word]
        result = frozenset({word})
        for j in range(len(word) - 2, -1, -1):
            if word[j] < 2 * word[j + 1]:
                out = set()
                for mid in oracle_adem_pair(word[j], word[j + 1]):
                    out ^= rightmost_nf(word[:j] + mid + word[j + 2 :])
                result = frozenset(out)
                break
        memo[word] = result
        return result

    for n in range(1, 11):
        for word in all_words_of_degree(n):
            assert adem_normal_form(word) == rightmost_nf(word)


def test_degree_additivity():
    for n in range(1, 10):
        for word in all_words_of_degree(n):
            for mono in adem_normal_form(word):
                assert degree_of(mono) == n


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(1, 6))
def test_multiplication_confluence_probe(word, extra):
    """Words with equal normal forms stay equal under one-sided products."""
    word = tuple(word)
    nf = adem_normal_form(word)
    left = multiply([(extra,)], [word])
    left_via_nf = multiply([(extra,)], nf)
    assert left == left_via_nf
    right = multiply([word], [(extra,)])
    right_via_nf = multiply(nf, [(extra,)])
    assert right == right_via_nf


def test_excess_values():
    assert AdmissibleMonomial(()).excess == 0
    assert AdmissibleMonomial((4, 2, 1)).excess == 1
    assert AdmissibleMonomial((7,)).excess == 7


def test_excess_nonnegative_for_admissible():
    for n in range(12):
        for m in admissible_basis(n):
            assert m.excess >= 0


def test_admissible_monomial_rejects_bad_words():
    with pytest.raises(ValueError):
        AdmissibleMonomial((1, 1))
    with pytest.raises(ValueError):
        AdmissibleMonomial((0,))


def test_monomial_labels():
    assert AdmissibleMonomial(()).label() == "1"
    assert AdmissibleMonomial((4, 2, 1)).label() == "Sq4Sq2Sq1"
