"""Hand-checked small values for the benchmark's oracles.

Run with:  python3 -m pytest perfbench/test_oracles.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


def test_series():
    # 1/(1-s) alone, then one and two factors of 1/(1-s^2)
    assert oracles.series(0, 3) == [1, 1, 1, 1]
    assert oracles.series(1, 6) == [1, 1, 2, 2, 3, 3, 4]
    assert oracles.series(2, 7) == [1, 1, 3, 3, 6, 6, 10, 10]


def test_hv_dims_and_suspension():
    assert oracles.hv_dims(0, 3) == [1, 0, 0, 0]
    assert oracles.hv_dims(1, 4) == [1, 1, 1, 1, 1]
    assert oracles.hv_dims(2, 4) == [1, 2, 3, 4, 5]
    assert oracles.hv_dims(3, 3) == [1, 3, 6, 10]
    assert oracles.hv_dims(1, 4, k=2) == [0, 0, 1, 1, 1]
    assert oracles.hv_dims(0, 3, k=1) == [0, 1, 0, 0]


def test_admissible_sequences():
    # degree 7: Sq7, Sq6Sq1, Sq5Sq2, Sq4Sq2Sq1
    assert set(oracles.admissible_sequences(7)) == {(7,), (6, 1), (5, 2), (4, 2, 1)}
    # degree 8: Sq8, Sq7Sq1, Sq6Sq2, Sq5Sq2Sq1
    assert set(oracles.admissible_sequences(8)) == {(8,), (7, 1), (6, 2), (5, 2, 1)}
    assert oracles.admissible_counts(8) == [1, 1, 1, 2, 2, 2, 3, 4, 4]
    assert oracles.excess((4, 2, 1)) == 1
    assert oracles.excess(()) == 0


def test_free_dims():
    # F(0) is the unit; F(1) is one class in each degree 2^j
    assert oracles.free_dims(0, 4) == [1, 0, 0, 0, 0]
    assert oracles.free_dims(1, 8) == [0, 1, 1, 0, 1, 0, 0, 0, 1]
    # F(2): i, Sq1 i, Sq2 i, Sq2Sq1 i, Sq3Sq1 i, nothing in 7, Sq4Sq2 i
    assert oracles.free_dims(2, 8) == [0, 0, 1, 1, 1, 1, 1, 0, 1]


def test_tensor_phi_forecast():
    assert oracles.tensor_dims([1, 1], [1, 1], 3) == [1, 2, 1, 0]
    assert oracles.tensor_dims([0, 1, 1], [0, 1, 1], 4) == [0, 0, 1, 2, 1]
    assert oracles.phi_dims([0, 1, 1], 5) == [0, 0, 1, 0, 1, 0]
    assert oracles.shift([1, 2], 1, 3) == [0, 1, 2, 0]
    # H(V1): 1, 1, 2, 2, 3 -- the same as the rank-1 series
    assert oracles.r1_forecast([1, 1, 1], 4) == [1, 1, 2, 2, 3]
    assert oracles.r1_forecast([0, 1], 3) == [0, 0, 1, 1]


def test_monomial_labels():
    assert oracles.parse_monomial("1") == ()
    assert oracles.parse_monomial("Sq4Sq2Sq1") == (4, 2, 1)
    assert oracles.parse_monomial("Sq12") == (12,)
