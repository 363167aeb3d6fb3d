"""The mod-2 Steenrod algebra in a degree range.

Words in the squaring operations are rewritten to admissible normal form
with the Adem relation

    Sq^a Sq^b = sum_{c=0}^{a//2} binom(b-c-1, a-2c) Sq^{a+b-c} Sq^c   (a < 2b)

where binomials are taken mod 2.  A word is a tuple of positive integers
(i1, ..., ik) meaning Sq^{i1} ... Sq^{ik}; the empty tuple is the unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterable, List, Tuple

SqWord = Tuple[int, ...]


def check_word(word: SqWord) -> SqWord:
    word = tuple(word)
    if any(i < 1 for i in word):
        raise ValueError("Sq exponents must be >= 1 (Sq^0 is the omitted unit)")
    return word


def degree_of(word: SqWord) -> int:
    return sum(word)


def excess_of(word: SqWord) -> int:
    """i1 - (i2 + ... + ik); zero for the unit."""
    if not word:
        return 0
    return word[0] - sum(word[1:])


def is_admissible(word: SqWord) -> bool:
    return all(a >= 2 * b for a, b in zip(word, word[1:]))


@dataclass(frozen=True, order=True)
class AdmissibleMonomial:
    """An admissible word Sq^{i1}...Sq^{ik} with ij >= 2*i(j+1)."""

    factors: SqWord

    def __post_init__(self):
        check_word(self.factors)
        if not is_admissible(self.factors):
            raise ValueError(f"not admissible: {self.factors}")

    @property
    def degree(self) -> int:
        return degree_of(self.factors)

    @property
    def excess(self) -> int:
        return excess_of(self.factors)

    def label(self) -> str:
        if not self.factors:
            return "1"
        return "".join(f"Sq{i}" for i in self.factors)


def binom_mod2(n: int, k: int) -> int:
    """binom(n, k) mod 2 by Lucas: odd iff k is a bitwise submask of n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return 1 if (n & k) == k else 0


def adem_expand(a: int, b: int) -> FrozenSet[SqWord]:
    """Right-hand side of the Adem relation for an inadmissible pair a < 2b."""
    if a >= 2 * b:
        raise ValueError("pair is already admissible")
    terms = set()
    for c in range(a // 2 + 1):
        if binom_mod2(b - c - 1, a - 2 * c):
            word = (a + b - c,) if c == 0 else (a + b - c, c)
            terms.symmetric_difference_update({word})
    return frozenset(terms)


@lru_cache(maxsize=None)
def adem_normal_form(word: SqWord) -> FrozenSet[SqWord]:
    """Unique admissible normal form of a word, as a GF(2) set of monomials.

    Rewriting repeatedly fixes the leftmost inadmissible adjacent pair;
    every Adem application raises the leading entry of the affected suffix
    or shortens it, so the recursion terminates.  Results are memoized.
    """
    word = check_word(word)
    for j in range(len(word) - 1):
        if word[j] < 2 * word[j + 1]:
            result: set = set()
            for middle in adem_expand(word[j], word[j + 1]):
                rewritten = word[:j] + middle + word[j + 2 :]
                result.symmetric_difference_update(adem_normal_form(rewritten))
            return frozenset(result)
    return frozenset({word})


@lru_cache(maxsize=None)
def _admissible_words(n: int) -> Tuple[SqWord, ...]:
    if n == 0:
        return ((),)
    words = [(n,)]
    for head in range(1, n):
        for tail in _admissible_words(n - head):
            if tail and head >= 2 * tail[0]:
                words.append((head,) + tail)
    return tuple(sorted(words))


def admissible_basis(n: int) -> List[AdmissibleMonomial]:
    """All admissible monomials of degree n, lexicographically ordered."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    return [AdmissibleMonomial(w) for w in _admissible_words(n)]


def multiply(left: Iterable[SqWord], right: Iterable[SqWord]) -> FrozenSet[SqWord]:
    """Product of two GF(2) sums of words, renormalized."""
    out: set = set()
    for u in left:
        for v in right:
            out.symmetric_difference_update(adem_normal_form(tuple(u) + tuple(v)))
    return frozenset(out)
