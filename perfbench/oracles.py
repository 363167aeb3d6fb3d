"""Expected dimension tables, computed without the usteen package.

Every function here is a few lines of plain arithmetic, written apart from
the program so that a benchmark run can check the program's outputs
against it.  None of them imports usteen.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import List, Sequence, Tuple


def series(r: int, D: int) -> List[int]:
    """Coefficients of 1/((1-s)(1-s^2)^r) in degrees 0..D."""
    # 1/(1-s) is all ones; each factor 1/(1-s^2) is the recurrence c[n] += c[n-2]
    c = [1] * (D + 1)
    for _ in range(r):
        for n in range(2, D + 1):
            c[n] += c[n - 2]
    return c


def shift(dims: Sequence[int], k: int, D: int) -> List[int]:
    """The k-fold suspension of a dimension table, cut at degree D."""
    return [dims[n - k] if 0 <= n - k < len(dims) else 0 for n in range(D + 1)]


def hv_dims(r: int, D: int, k: int = 0) -> List[int]:
    """dim of the k-fold suspension of H(V_r) in degrees 0..D: C(n-k+r-1, r-1)."""
    if r == 0:
        return shift([1], k, D)
    return shift([comb(n + r - 1, r - 1) for n in range(D + 1)], k, D)


@lru_cache(maxsize=None)
def admissible_sequences(n: int) -> Tuple[Tuple[int, ...], ...]:
    """All admissible sequences (i1, ..., is) of degree n, ij >= 2 i(j+1) >= 2."""
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for rest in admissible_sequences(n - first):
            if not rest or first >= 2 * rest[0]:
                out.append((first,) + rest)
    return tuple(out)


def excess(seq: Sequence[int]) -> int:
    return seq[0] - sum(seq[1:]) if seq else 0


def admissible_counts(D: int) -> List[int]:
    return [len(admissible_sequences(n)) for n in range(D + 1)]


def free_dims(k: int, D: int) -> List[int]:
    """dim F(k)_n: admissible sequences of degree n-k with excess at most k."""
    return [
        sum(1 for s in admissible_sequences(n - k) if excess(s) <= k) if n >= k else 0
        for n in range(D + 1)
    ]


def tensor_dims(a: Sequence[int], b: Sequence[int], D: int) -> List[int]:
    return [
        sum(a[p] * b[n - p] for p in range(n + 1) if p < len(a) and n - p < len(b))
        for n in range(D + 1)
    ]


def phi_dims(a: Sequence[int], D: int) -> List[int]:
    """The doubling functor: degree 2n carries degree n, odd degrees are 0."""
    return [a[n // 2] if n % 2 == 0 and n // 2 < len(a) else 0 for n in range(D + 1)]


def r1_forecast(module_dims: Sequence[int], top: int) -> List[int]:
    """R1 freeness forecast: dim R1(M)_n = sum of dim M_d over 2d <= n."""
    return [
        sum(module_dims[d] for d in range(n // 2 + 1) if d < len(module_dims))
        for n in range(top + 1)
    ]


def parse_monomial(label: str) -> Tuple[int, ...]:
    """'Sq4Sq2Sq1' -> (4, 2, 1); '1' is the empty sequence."""
    if label == "1":
        return ()
    if not label.startswith("Sq"):
        raise ValueError(f"not a monomial label: {label!r}")
    return tuple(int(p) for p in label[2:].split("Sq"))
