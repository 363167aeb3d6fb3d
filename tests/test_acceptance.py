"""Acceptance criteria, one test per criterion.

Each test prints a single pass line on success; a failure raises before the
print.  Expected values marked as derived were computed with the independent
oracles embedded here (composition enumeration, series expansion, brute-force
rank), not with the code paths under test.
"""

import time

import numpy as np

from usteen.f2core import BitMatrix, Subspace, left_kernel, rank
from usteen.fulu import (
    extend_scalars,
    generator_space,
    saturation_check,
    torsion_free,
)
from usteen.harness import make_spec, run_all, run_check
from usteen.lannes import RealmCalculus, hv
from usteen.singer import product_mu, r1, r1_dims_expected, rho1
from usteen.steenrod import adem_normal_form, admissible_basis, is_admissible
from usteen.unstable import (
    free_unstable,
    phi,
    polynomial_module,
    quotient,
    suspend,
    tensor,
    unit_module,
)

from reference import component_map, diag_map, taubar_kernel_spaces


def _announce(num, text):
    print(f"[PASS] criterion {num}: {text}")


def all_compositions(n):
    out = []
    for cut in range(2 ** (n - 1)):
        comp, part = [], 1
        for pos in range(n - 1):
            if (cut >> pos) & 1:
                comp.append(part)
                part = 1
            else:
                part += 1
        comp.append(part)
        out.append(tuple(comp))
    return out


def series_oracle(r, D):
    """Power-series coefficients of 1/((1-s)(1-s^2)^r) by direct convolution."""
    coeffs = [1] * (D + 1)
    twos = [1 if n % 2 == 0 else 0 for n in range(D + 1)]
    for _ in range(r):
        nxt = [0] * (D + 1)
        for n in range(D + 1):
            nxt[n] = sum(coeffs[k] * twos[n - k] for k in range(n + 1))
        coeffs = nxt
    return coeffs


def test_criterion_1_steenrod_kernel():
    start = time.monotonic()
    counts = [len(admissible_basis(n)) for n in range(8)]
    assert counts == [1, 1, 1, 2, 2, 2, 3, 4]
    # independent oracle: filter all compositions by the admissibility inequality
    for n in range(1, 8):
        oracle = {c for c in all_compositions(n) if is_admissible(c)}
        assert {m.factors for m in admissible_basis(n)} == oracle
    # exhaustive rewriting through degree 10 reaches a unique admissible form
    basis_by_degree = {n: {m.factors for m in admissible_basis(n)} for n in range(11)}
    memo = {}

    def rightmost(word):
        if word in memo:
            return memo[word]
        res = frozenset({word})
        for j in range(len(word) - 2, -1, -1):
            a, b = word[j], word[j + 1]
            if a < 2 * b:
                acc = set()
                from math import comb

                for c in range(a // 2 + 1):
                    if comb(b - c - 1, a - 2 * c) % 2:
                        mid = (a + b - c,) if c == 0 else (a + b - c, c)
                        acc ^= rightmost(word[:j] + mid + word[j + 2 :])
                res = frozenset(acc)
                break
        memo[word] = res
        return res

    total = 0
    for n in range(1, 11):
        for word in all_compositions(n):
            nf = adem_normal_form(word)
            assert nf <= basis_by_degree[n]
            assert nf == rightmost(word)
            total += 1
    assert total == sum(2 ** (n - 1) for n in range(1, 11))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(1, f"admissible counts and unique normal forms for {total} words in {elapsed:.2f}s")


def test_criterion_2_free_module_dims_and_validation():
    start = time.monotonic()
    F1 = free_unstable(1, 16)
    assert [F1.dim(n) for n in range(17)] == [
        1 if n in (1, 2, 4, 8, 16) else 0 for n in range(17)
    ]
    fixtures = [
        F1,
        free_unstable(2, 12),
        free_unstable(3, 12),
        polynomial_module(1, 12),
        polynomial_module(2, 10),
        phi(free_unstable(1, 6)),
        suspend(unit_module(9)),
        tensor(free_unstable(1, 10), free_unstable(1, 10)),
        extend_scalars(polynomial_module(1, 10)),
    ]
    for M in fixtures:
        rep = M.validate()
        assert rep.ok, (M.name, rep.violations[:2])
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(2, f"free-module dims at D=16 and validation of {len(fixtures)} fixtures in {elapsed:.2f}s")


def test_criterion_3_triple_agreement():
    start = time.monotonic()
    D = 10
    for r in (1, 2):
        X = hv(r, D)
        calc = RealmCalculus(X)
        calc.rtilde  # asserts the equalizer agrees with the kernel
        _, incl = calc.invariants()
        S = r1(X.module, calc.E)
        series = series_oracle(r, D)
        assert [S.fulu.dim(n) for n in range(D + 1)] == series
        oracle = taubar_kernel_spaces(calc)
        for n in range(D + 1):
            a = calc.kernel_spaces[n]
            b = Subspace.from_rows(incl.mat(n))
            c = S.span(n)
            assert a == b == c == oracle[n], (r, n)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _announce(3, f"span, kernel and invariants agree for ranks 1,2 at D=10 in {elapsed:.2f}s")


def test_criterion_4_fixed_points():
    start = time.monotonic()
    D = 10
    for r in (1, 2):
        X = hv(r, D)
        calc = RealmCalculus(X)
        calc.rtilde  # certifies the equalizer
        F = calc.fix_parts["kernel"].module
        assert [F.dim(n) for n in range(D + 1)] == list(X.module.dims)
        # Fix(taubar) in degree n: P (x) I on the component matrix P
        fix_taubar, diag = component_map(calc.TX, calc.TTbar, calc.fix_components), diag_map(calc)
        for n in range(D + 1):
            assert Subspace.from_rows(diag.mat(n)) == left_kernel(fix_taubar[n])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _announce(4, f"fixed points recover the module for ranks 1,2 at D=10 in {elapsed:.2f}s")


def test_criterion_5_singer_structure():
    start = time.monotonic()
    D = 12
    F1 = free_unstable(1, D)
    fixtures = [F1, free_unstable(2, D), tensor(F1, F1), polynomial_module(1, D)]
    for M in fixtures:
        S = r1(M)
        assert S.free_gens.ok, M.name
        assert torsion_free(S.fulu).ok, M.name
        assert [S.fulu.dim(n) for n in range(S.D + 1)] == r1_dims_expected(M, S.D)
        cert = rho1(S)
        assert cert.ok, (M.name, cert)
    for n in range(4):
        cert = rho1(r1(free_unstable(n, D)))
        assert cert.surjective.ok and cert.alinear.ok, n
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _announce(5, f"span freeness, projection sequence, surjectivity for F(0..3) at D=12 in {elapsed:.2f}s")


def test_criterion_6_product_isomorphism():
    start = time.monotonic()
    cert = product_mu(polynomial_module(1, 10), polynomial_module(1, 10))
    assert cert.ok
    dims = [cert.product.module.dim(n) for n in range(cert.D + 1)]
    assert dims == series_oracle(2, cert.D)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _announce(6, f"product comparison map is an isomorphism at D=10 in {elapsed:.2f}s")


def test_criterion_7_reduced_and_nilclosed_sequences():
    start = time.monotonic()
    r7 = run_check(make_spec("T7", D=10, max_rank=1))
    assert r7.passed, r7.witness
    r8 = run_check(make_spec("T8", D=10, max_rank=1))
    assert r8.passed, r8.witness
    # the rank-one fixed-point sequence has dims (1, 2, 2, 1) per degree
    X = hv(1, 10)
    calc = RealmCalculus(X)
    fix2 = calc.fix_parts["cokernel"].module
    for n in range(11):
        quad = (
            X.module.dim(n),
            calc.TX.module.dim(n),
            calc.TTbar.module.dim(n),
            fix2.dim(n),
        )
        assert quad == (1, 2, 2, 1)
        assert quad[0] - quad[1] + quad[2] - quad[3] == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _announce(7, f"image and four-term comparison sequences at D=10 in {elapsed:.2f}s")


def test_criterion_8_appendix_suite():
    start = time.monotonic()
    for cid, kw in (
        ("T9", {"D": 10}),
        ("T10", {"D": 8}),
        ("T11", {"D": 10, "max_rank": 2}),
        ("T12", {"D": 10}),
        ("T13", {"D": 10}),
    ):
        res = run_check(make_spec(cid, **kw))
        assert res.passed, (cid, res.witness)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _announce(8, f"loop-functor and division-functor suite in {elapsed:.2f}s")


def test_criterion_9_randomized_polynomial_lemmas():
    start = time.monotonic()
    seed = 2
    import random

    rng = random.Random(seed)
    from usteen.harness import _random_subspace

    ambients = [
        extend_scalars(polynomial_module(1, 10)),
        extend_scalars(free_unstable(2, 10)),
    ]
    discrepancies = 0
    saturated = 0
    trials = 100
    for t in range(trials):
        E = ambients[t % len(ambients)]
        X = _random_subspace(rng, E, t % 3)
        sat = saturation_check(X)
        gs = generator_space(X)
        if sat.ok != gs.eps_image_injective.ok:
            discrepancies += 1
        if sat.ok:
            saturated += 1
            if not torsion_free(quotient(E, X.bases, "E/X").target).ok:
                discrepancies += 1
    assert discrepancies == 0
    assert saturated >= 10
    elapsed = time.monotonic() - start
    _announce(
        9,
        f"{trials} randomized submodules (seed={seed}): saturation equivalence and "
        f"free quotients, zero discrepancies, {saturated} saturated, in {elapsed:.2f}s",
    )


def test_criterion_10_performance():
    rng = np.random.default_rng(2024)
    big = BitMatrix.from_rows(
        rng.integers(0, 2, size=(2000, 2000), dtype=np.uint8).tolist()
    )
    start = time.monotonic()
    r = rank(big)
    rank_time = time.monotonic() - start
    assert r >= 1990  # a random matrix is close to full rank
    assert rank_time < 1.0, f"rank took {rank_time:.2f}s"

    start = time.monotonic()
    results = run_all(D=10, max_rank=2, seed=2)
    suite_time = time.monotonic() - start
    failed = [(r_.id, r_.witness) for r_ in results if not r_.passed]
    assert not failed, failed
    assert len(results) == 17
    assert suite_time < 300.0, f"catalog took {suite_time:.1f}s"
    _announce(
        10,
        f"2000x2000 rank in {rank_time * 1000:.0f}ms, 17/17 checks at defaults in {suite_time:.1f}s",
    )
