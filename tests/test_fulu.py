import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usteen import _gf2py, fixtures, fulu, harness, unstable
from usteen.f2core import BitMatrix, Subspace, left_kernel, rank, rref
from usteen.fulu import (
    GradedSubspace,
    _one_sided_u,
    extend_scalars,
    extend_scalars_map,
    generator_space,
    indecomposables,
    q_data,
    positive_u_part,
    q_of_map,
    saturation_check,
    tensor_over_fulu,
    torsion_free,
)
from usteen.lannes import RealmCalculus, hv, hv_module, realm_sum, realm_suspend, t_apply
from usteen.singer import product_mu, r1, rho1
from usteen.unstable import (
    FuluModule,
    ModuleMap,
    TensorLayout,
    TheoryViolation,
    TruncationError,
    Verdict,
    _sum_label,
    free_unstable,
    map_from_free,
    omega,
    phi,
    polynomial_module,
    quotient,
    suspend,
    submodule,
    sym_lambda,
    tensor,
    truncate,
    unit_module,
)

from reference import (
    a_span,
    checked_graded_subspace,
    coker_data,
    one_bit_flips,
    fulu_algebra,
    graded_span_by_elimination,
    one_sided_u_by_pairs,
    q_data_by_elimination,
    q_of_quotient,
    shifted_subspace_by_elimination,
    span_sum,
    Subquotient,
    taubar_image_rref,
    taubar_subquotient,
    tensor_by_pairs,
    u_on_quotient_by_solving,
    u_quotient_by_elimination,
    unit_rows,
    u_on_span_by_solving,
    validate_fulu_dense,
    validate_linear_dense,
    with_u,
)


def test_fulu_algebra_is_valid():
    fu = fulu_algebra(10)
    assert list(fu.dims) == [1] * 11
    assert fu.validate().ok


def test_extend_scalars_of_unit():
    E = extend_scalars(unit_module(8))
    assert list(E.dims) == [1] * 9
    assert E.validate().ok
    # matches the polynomial algebra as a u-module
    fu = fulu_algebra(8)
    for n in range(8):
        assert E.u_mat(n) == fu.u_mat(n)


def test_extend_scalars_of_suspension():
    E = extend_scalars(suspend(unit_module(7)))
    assert list(E.dims) == [0] + [1] * 8
    # Sq^1(u (x) s) = u^2 (x) s
    assert E.sq(1, 2).row_int(0) & 1 == 1
    assert E.validate().ok


def _extension_cases(D, tmp_path):
    mods = [polynomial_module(r, D) for r in range(4)]
    mods += [free_unstable(k, D) for k in (1, 2, 3)]
    if D >= 1:
        mods += [suspend(polynomial_module(1, D - 1)), suspend(free_unstable(2, D - 1))]
    mods.append(tensor(free_unstable(1, D), free_unstable(1, D)))
    mods.append(t_apply(hv(2, D)).module)
    mods.append(RealmCalculus(hv(2, D)).tbar.module)
    mods.append(RealmCalculus(realm_sum(hv(1, D), realm_suspend(hv(2, D), 1))).tbar.module)
    path = tmp_path / f"fixture_{D}.json"
    fixtures.save(tensor(free_unstable(1, D), polynomial_module(1, D)), path)
    mods.append(fixtures.load(path))
    return mods


def _without_unit_blocks(M, m, n, t):
    """A matrix from degree n to degree t of F[u] (x) M restricted to the
    blocks u^a with a >= 1, the last dims - M.dims vectors of each degree:
    its rows after the u^0 block of degree n, shifted past the u^0 block of
    degree t.  Sq and u never lower the u-power, so no bit is lost."""
    rows = tuple(r >> M.dims[t] for r in m.row_ints()[M.dims[n]:])
    return BitMatrix(len(rows), m.ncols - M.dims[t], rows)


@pytest.mark.parametrize("D", range(13))
def test_extend_scalars_matches_the_generic_tensor_product(D, tmp_path):
    """E = F[u] (x) M and bar, its positive-u part, against the per-pair
    Cartan formula (``reference.tensor_by_pairs``) on F[u] (x) M, with u
    acting on the left factor one basis pair at a time
    (``reference.one_sided_u_by_pairs``): action, labels and u."""
    fu = fulu_algebra(D)
    for M in _extension_cases(D, tmp_path):
        E, bar = extend_scalars(M), positive_u_part(M)
        layout, action, labels = tensor_by_pairs(fu, M)
        u = one_sided_u_by_pairs(fu, M, layout, left=True)
        assert (E.D, E.dims, dict(E.action_items())) == (D, layout.table.dims, action), M.name
        assert E.labels == labels and E.name == f"Fu(x){M.name}"
        assert dict(E.u_items()) == {n: m for n, m in u.items() if not m.is_zero()}, M.name
        assert E.base is M and bar.base is M
        assert [E.blocks(n) for n in range(D + 1)] == [layout.blocks(n) for n in range(D + 1)]
        assert E.layout.table.dims == E.dims
        assert bar.dims == tuple(d - m for d, m in zip(E.dims, M.dims)), M.name
        bar_sq = {(k, n): _without_unit_blocks(M, m, n, n + k) for (k, n), m in action.items()}
        bar_u = {n: _without_unit_blocks(M, m, n, n + 1) for n, m in u.items()}
        assert dict(bar.action_items()) == {key: m for key, m in bar_sq.items() if not m.is_zero()}
        assert dict(bar.u_items()) == {n: m for n, m in bar_u.items() if not m.is_zero()}
        assert bar.labels == tuple(ls[m:] for ls, m in zip(labels, M.dims))


def _bookkeeping_bases(D):
    """Bases with empty degrees: the unit module, suspensions, Ph(F(1)) and
    the reduced expansion of H(V2), all truncated at D."""
    mods = [unit_module(D), polynomial_module(1, D), truncate(phi(free_unstable(1, D)), D)]
    if D >= 1:
        mods.append(suspend(polynomial_module(1, D - 1)))
    if D >= 3:
        mods.append(suspend(suspend(suspend(unit_module(D - 3)))))
    mods.append(RealmCalculus(hv(2, D)).tbar.module)
    return mods


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("D", [0, 1, 2, 5, 9, 14])
def test_closed_form_bookkeeping_matches_a_tensor_layout(D, start):
    """E's dims, ``blocks``, ``block``, ``index`` and ``decode``, arithmetic on
    the dims, against the ``TensorLayout`` of U (x) M, U the powers u^a with
    a >= start of F[u]; ``index`` refuses an empty block, as the layout's
    ``offset`` does, and reading them builds no layout."""
    U = fulu_algebra(D)
    left = (0,) * start + U.dims[start:]
    for M in _bookkeeping_bases(D):
        E = (extend_scalars, positive_u_part)[start](M)
        assert E.start == start
        layout = TensorLayout(left, M.dims, D)
        table = layout.table
        assert E.dims == table.dims, M.name
        for n in range(D + 1):
            assert E.blocks(n) == layout.blocks(n), (M.name, n)
            for a in range(-1, n + 2):
                assert E.block(n, a) == table.block(n, a), (M.name, n, a)
                if not table.block(n, a)[1]:
                    with pytest.raises(KeyError):
                        E.index(n, a, 0)
            for a, _, width in layout.blocks(n):
                assert [E.index(n, a, j) for j in range(width)] == [
                    layout.index(n, a, 0, j) for j in range(width)], (M.name, n, a)
            assert [E.decode(n, f) for f in range(E.dims[n])] == [
                table.decode(n, f) for f in range(table.dims[n])], (M.name, n)
            for flat in (-1, E.dims[n]):
                with pytest.raises(IndexError):
                    E.decode(n, flat)
        assert E._layout is None, M.name
        assert E.layout.blocks(D) == layout.blocks(D) and E.layout.table.dims == E.dims


def _calculus_extensions(r, D):
    """E, ETX and bar of ``hv(r, D)``: scalar extensions with u-powers
    from 0 and from 1."""
    calc = RealmCalculus(hv(r, D))
    return [calc.E, calc.ETX, calc.bar]


def _random_rows(rng, count, width):
    return BitMatrix.from_row_ints([rng.getrandbits(width) for _ in range(count)], width)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_row_cartan_sum_matches_the_action(r):
    """``sq_rows``, which reads only the base's matrices, against ``sq(k, n)``
    for every k, on the unit rows and on random rows."""
    D = 8
    rng = random.Random(r)
    for N in _calculus_extensions(r, D):
        assert N.start == (N.name.startswith("bar"))
        for n in range(D + 1):
            unit = BitMatrix.identity(N.dim(n))
            rows = _random_rows(rng, 3, N.dim(n))
            for k in range(D - n + 1):
                assert N.sq_rows(k, n, unit) == N.sq(k, n), (N.name, k, n)
                assert N.sq_rows(k, n, rows) == rows @ N.sq(k, n), (N.name, k, n)
            with pytest.raises(TruncationError):
                N.sq_rows(D - n + 1, n, unit)


SQ_ROWS_D = 7
SQ_ROWS_CASES = [
    extend_scalars(free_unstable(1, SQ_ROWS_D)),
    extend_scalars(hv_module(2, SQ_ROWS_D)),
    extend_scalars(realm_sum(hv(1, SQ_ROWS_D), realm_suspend(hv(2, SQ_ROWS_D), 1)).module),
    RealmCalculus(hv(2, SQ_ROWS_D)).bar,  # the positive-u part of F[u] (x) Tbar H(V2)
]


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(SQ_ROWS_CASES), n=st.integers(0, SQ_ROWS_D), data=st.data())
def test_row_cartan_sum_on_few_bit_and_dense_rows(case, n, data):
    """``sq_rows`` visits only the u-blocks some row touches; it equals
    ``rows @ sq(k, n)`` on rows of one to three set bits, which leave most
    blocks empty, and on dense rows, which touch every block."""
    N, width = case, case.dim(n)
    k = data.draw(st.integers(0, SQ_ROWS_D - n), label="k")
    bits = st.lists(st.integers(0, width - 1), min_size=1, max_size=3)
    few = st.builds(lambda b: sum(1 << i for i in set(b)), bits) if width else st.just(0)
    row = data.draw(st.sampled_from([few, st.integers(0, (1 << width) - 1)]), label="style")
    rows = BitMatrix.from_row_ints(data.draw(st.lists(row, min_size=1, max_size=4)), width)
    assert N.sq_rows(k, n, rows) == rows @ N.sq(k, n), (N.name, k, n)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_u_shift_matches_u_mat(r):
    """``times_u`` (rows times u), one shift, against u as the matrix built
    block by block."""
    D = 8
    rng = random.Random(r)
    for N in _calculus_extensions(r, D):
        for n in range(D):
            u = N.u_mat(n)
            rows = _random_rows(rng, 3, N.dim(n))
            assert N.times_u(n, BitMatrix.identity(N.dim(n))) == u, (N.name, n)
            assert N.times_u(n, rows) == rows @ u, (N.name, n)
        with pytest.raises(TruncationError):
            N.times_u(D, BitMatrix.identity(N.dim(D)))


def test_extend_scalars_dims_convolution():
    F1 = free_unstable(1, 12)
    E = extend_scalars(F1)
    for n in range(13):
        assert E.dim(n) == sum(F1.dims[k] for k in range(n + 1))
    assert E.validate().ok


def test_indecomposables_of_algebra():
    Q = indecomposables(fulu_algebra(9))
    assert [Q.dim(n) for n in range(10)] == [1] + [0] * 9


def test_indecomposables_section():
    F2 = free_unstable(2, 10)
    E = extend_scalars(F2)
    Q = indecomposables(E)
    assert (Q.D, Q.dims, Q.action_items()) == (F2.D, F2.dims, F2.action_items())


def _q_cases(tmp_path):
    D = 7
    path = tmp_path / "f1_hv1.json"
    fixtures.save(tensor(free_unstable(1, D), polynomial_module(1, D)), path)
    # Sq^2 on a degree-one class breaks instability; the extension drops it
    broken = tmp_path / "unstable.json"
    fixtures.save(polynomial_module(1, D), broken)
    doc = json.loads(broken.read_text())
    doc["action"].append({"i": 2, "n": 1, "rows": ["1"]})
    broken.write_text(json.dumps(doc))
    realms = [*(hv(r, D) for r in range(4)), realm_suspend(hv(1, D), 1),
              realm_suspend(hv(1, D), 3), realm_sum(hv(1, D), realm_suspend(hv(2, D), 1))]
    return [X.module for X in realms] + [fixtures.load(path), fixtures.load(broken)]


def test_q_data_of_a_scalar_extension_matches_the_elimination(tmp_path, monkeypatch):
    """Q of F[u] (x) M and of its positive-u part is the lowest u-block,
    read off in closed form with no elimination; the elimination of the
    image of u is the oracle."""
    cases = [(N, q_data_by_elimination(N)) for M in _q_cases(tmp_path)
             for N in (extend_scalars(M), positive_u_part(M))]

    def refuse(*args):
        raise AssertionError("q_data of a scalar extension eliminated")

    monkeypatch.setattr(_gf2py, "rref_inplace", refuse)
    monkeypatch.setattr(fulu, "quotient", refuse)
    monkeypatch.setattr(unstable, "RowReducer", refuse)
    for N, want in cases:
        got = q_data(N)
        assert got.target.name == want.module.name, N.name
        assert got.target.dims == want.module.dims, N.name
        assert got.target.labels == want.module.labels, N.name
        assert [got.mat(n) for n in range(N.D + 1)] == list(want.proj_mats.values()), N.name
        assert list(map(list, got.rep_cols)) == list(map(list, want.rep_cols)), N.name
        assert got.target == want.module, N.name  # the Sq action and the zero u


def test_q_naturality_on_random_maps():
    rng = np.random.default_rng(9)
    F2 = free_unstable(2, 9)
    H = polynomial_module(1, 9)
    EF, EH = extend_scalars(F2), extend_scalars(H)
    qf, qh = q_data(EF), q_data(EH)
    for _ in range(4):
        v = int(rng.integers(0, 1 << H.dim(2)))
        f = map_from_free(F2, H, v)
        ef = extend_scalars_map(f, EF, EH)
        assert ef.validate_linear().ok
        qmap = q_of_map(ef, qf, qh)
        # Q(extension of f) agrees with f under the canonical identifications
        for n in range(10):
            assert qmap.mat(n) == f.mat(n)


@pytest.mark.parametrize("r", [1, 2])
def test_q_of_map_by_selections_matches_the_matrix_formula(r):
    """q_of_map reads representatives as row selections and the projection
    of Q of a scalar extension as a mask; the products reps @ f @ proj with
    the dense matrices of the eliminated quotients are the oracle, on the
    three maps of T8's sequence."""
    calc = RealmCalculus(hv(r, 6))
    sub = taubar_subquotient(calc)
    mods = [calc.rtilde, calc.E, calc.bar, sub.coker.target]
    qs, dense = [q_data(N) for N in mods], [q_data_by_elimination(N) for N in mods]
    for f, qsrc, qtgt, dsrc, dtgt in zip((calc.kernel_incl, calc.taubar, sub.coker), qs, qs[1:],
                                         dense, dense[1:]):
        got = q_of_map(f, qsrc, qtgt)
        for n in range(got.D + 1):
            reps = unit_rows(dsrc.rep_cols[n], f.source.dims[n])
            assert got.mat(n) == reps @ f.mat(n) @ dtgt.proj_mats[n], (f.name, n)


def test_freeness_of_extension():
    F2 = free_unstable(2, 9)
    E = extend_scalars(F2)
    assert torsion_free(E).ok
    # the free basis is the u^0 block: the labels of the indecomposables
    basis = indecomposables(E).labels
    assert [len(b) for b in basis] == [F2.dim(n) for n in range(10)]
    assert basis == tuple(E.labels[n][:F2.dim(n)] for n in range(10))


def test_torsion_fixture():
    # the truncated polynomial algebra on u with u^2 = 0
    one = BitMatrix.from_rows([[1]])
    N = FuluModule("F[u]/(u^2)", 3, [1, 1, 0, 0], {(1, 0): one}, u={0: one})
    v = torsion_free(N)
    assert not v.ok
    assert "degree 1" in v.witness


def test_saturation_of_extension_of_submodule():
    H = polynomial_module(1, 8)
    E = extend_scalars(H)
    # the scalar extension of the degree >= 1 part of H
    rows = {}
    for n in range(9):
        picked = []
        for a, off, _ in E.blocks(n):
            if n - a >= 1:
                picked.extend(1 << (off + j) for j in range(H.dim(n - a)))
        rows[n] = picked
    X = GradedSubspace.from_vectors(E, rows)
    assert saturation_check(X).ok
    gs = generator_space(X)
    assert gs.eps_image_injective.ok


def test_u_multiple_not_saturated():
    E = extend_scalars(unit_module(6))
    # X = u * (whole module): miss the degree-0 generator
    rows = {1: [1 << E.index(1, 1, 0)]}
    X = GradedSubspace.from_vectors(E, rows)
    v = saturation_check(X)
    assert not v.ok
    assert "degree 0" in v.witness
    gs = generator_space(X)
    assert not gs.eps_image_injective.ok


def test_saturated_implies_quotient_torsion_free():
    H = polynomial_module(1, 8)
    E = extend_scalars(H)
    rows = {}
    for n in range(9):
        picked = []
        for a, off, _ in E.blocks(n):
            if n - a >= 2:
                picked.extend(1 << (off + j) for j in range(H.dim(n - a)))
        rows[n] = picked
    X = GradedSubspace.from_vectors(E, rows)
    assert saturation_check(X).ok
    q = quotient(E, X.bases, "E/X").target
    assert torsion_free(q).ok


def test_equiv_cond_randomized_small():
    rng = np.random.default_rng(5)
    H = polynomial_module(1, 7)
    E = extend_scalars(H)
    agree = 0
    for _ in range(25):
        seeds = {}
        for _pick in range(rng.integers(1, 3)):
            n = int(rng.integers(0, 7))
            if E.dim(n) == 0:
                continue
            v = int(rng.integers(1, 1 << E.dim(n)))
            seeds.setdefault(n, []).append(v)
        X = GradedSubspace.from_vectors(E, seeds)
        sat = saturation_check(X)
        gs = generator_space(X)
        assert sat.ok == gs.eps_image_injective.ok
        agree += 1
        if sat.ok:
            assert torsion_free(quotient(E, X.bases, "E/X").target).ok
    assert agree == 25


def test_saturation_is_torsion_freeness_of_the_quotient():
    """On T14's random subspaces of E(H(V1)) and E(F(2)), and on random
    spans in bar: X is saturated exactly when u is injective on the ambient
    modulo X, both verdicts occur, and the quotient, whose projection is an
    operator, has the labels and u of the eliminated one."""
    D = 10
    cases = [(extend_scalars(hv_module(1, D)), 3), (extend_scalars(free_unstable(2, D)), 3),
             (RealmCalculus(hv(1, D)).bar, 1)]  # bar has no u^0 block for styles 1 and 2
    rng = random.Random(14)
    for amb, styles in cases:
        seen = {True: 0, False: 0}
        for t in range(60):
            X = harness._random_subspace(rng, amb, t % styles)
            sat = saturation_check(X).ok
            q, want = quotient(amb, X.bases, "amb/X").target, u_quotient_by_elimination(X)
            assert (q.dims, q.labels, q.u_items()) == (want.dims, want.labels, want.u_items())
            assert torsion_free(q).ok == torsion_free(want).ok == sat, (amb.name, t)
            seen[sat] += 1
        assert min(seen.values()) >= 5, (amb.name, seen)


def saturation_check_by_preimage(X):
    """Oracle for ``saturation_check``: take u^-1 X^{n+1} in every degree and
    look for its first canonical basis vector outside X^n."""
    amb = X.ambient
    for n in range(amb.D):
        proj, _ = coker_data(X.bases[n + 1], amb.dim(n + 1))
        pre = left_kernel(amb.u_mat(n) @ proj)
        target = X.subspace(n)
        for r in range(pre.dim):
            v = pre.basis.row_int(r)
            if not target.contains_vector(v):
                witness = _sum_label(amb.labels[n], v)
                return Verdict(False, amb.D, f"degree {n}: u*({witness}) lies in X but {witness} does not")
    return Verdict(True, amb.D)


def generator_space_by_resum(X):
    """Oracle for ``generator_space``: re-eliminate the whole span once per
    picked row; returns (w_bases, verdict)."""
    amb = X.ambient
    w_bases = {}
    ok, witness = True, None
    for n in range(amb.D + 1):
        u_image = (X.bases[n - 1] @ amb.u_mat(n - 1)) if n >= 1 else BitMatrix.zeros(0, amb.dim(n))
        elim = Subspace.from_rows(u_image)
        picked = []
        for r in range(X.bases[n].nrows):
            v = X.bases[n].row_int(r)
            if not elim.contains_vector(v):
                picked.append(v)
                elim = span_sum(elim, Subspace.from_rows(BitMatrix.from_row_ints([v], amb.dim(n))))
        w_bases[n] = BitMatrix.from_row_ints(picked, amb.dim(n))
        if ok and rank(w_bases[n] @ amb.eps_mat(n)) != len(picked):
            ok, witness = False, f"augmentation image drops rank in degree {n}"
    return w_bases, Verdict(ok, amb.D, witness)


@pytest.mark.parametrize("D", [3, 6, 10])
def test_saturation_and_generators_match_their_oracles(D):
    """On seeded random u-submodules of both T14 ambients, saturated and
    not: the same verdicts, witness texts and generator bases."""
    rng = random.Random(D)
    ambients = [extend_scalars(polynomial_module(1, D)), extend_scalars(free_unstable(2, D))]
    seen = {True: 0, False: 0}
    for t in range(60):
        E = ambients[t % 2]
        X = harness._random_subspace(rng, E, t % 3)
        assert checked_graded_subspace(E, X.bases).bases == X.bases
        sat = saturation_check(X)
        assert sat == saturation_check_by_preimage(X)
        gs = generator_space(X)
        w_bases, verdict = generator_space_by_resum(X)
        assert gs.w_bases == w_bases
        assert gs.eps_image_injective == verdict
        seen[sat.ok] += 1
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("D", [6, 10, 14])
def test_shifted_subspaces_match_the_old_construction(D):
    """T14's style-2 subspaces are one ``from_vectors`` on the style-1
    seeds shifted by u^k.  Against the construction they replaced (the
    span, k products with u per degree, the span again, all eliminated):
    the same bases from the same draws, for 100 draws on both T14
    ambients.  ``generator_space`` matches its oracle on each."""
    for E in (extend_scalars(hv_module(1, D)), extend_scalars(free_unstable(2, D))):
        for draw in range(100):
            got_rng, want_rng = random.Random(draw), random.Random(draw)
            X = harness._random_subspace(got_rng, E, 2)
            assert X.bases == shifted_subspace_by_elimination(want_rng, E), (E.name, draw)
            assert got_rng.getstate() == want_rng.getstate()
            gs, (w_bases, verdict) = generator_space(X), generator_space_by_resum(X)
            assert (gs.w_bases, gs.eps_image_injective) == (w_bases, verdict)


def _saturation_ambients(D):
    """Both T14 ambients and a positive-u part: scalar extensions, the
    ambients that graded u-subspaces live on."""
    return [extend_scalars(polynomial_module(1, D)), extend_scalars(free_unstable(2, D)),
            positive_u_part(free_unstable(1, D))]


def _plain_u_modules(D):
    """Three u-modules that are no ``ExtendedModule``: a plain copy of a
    scalar extension, R1(H), and a quotient of a scalar extension with
    u-torsion, whose u is no shift."""
    E = extend_scalars(polynomial_module(1, D))
    Y = GradedSubspace.from_vectors(E, {2: [1 << E.index(2, 1, 0)]})
    torsion = quotient(E, Y.bases, "E/Y").target
    assert not torsion_free(torsion).ok
    return [with_u(E, dict(E.u_items())), r1(polynomial_module(1, D)).fulu, torsion]


def _random_seeds(rng, amb):
    """One to three seeds; about half are u times a vector left unseeded,
    which mostly makes the span unsaturated."""
    seeds = {}
    for _ in range(rng.randint(1, 3)):
        n = rng.randrange(0, amb.D)
        if amb.dim(n) == 0:
            continue
        v = rng.randrange(1, 1 << amb.dim(n))
        if rng.random() < 0.5:
            n, v = n + 1, amb.times_u(n, BitMatrix.from_row_ints([v], amb.dim(n))).row_int(0)
        if v:
            seeds.setdefault(n, []).append(v)
    return seeds


@pytest.mark.parametrize("D", [4, 8])
def test_closed_forms_on_extensions_match_the_elimination_oracles(D):
    """``from_vectors``, which shifts the bases of unseeded degrees,
    against eliminating every degree; ``saturation_check``, which counts
    shifted pivot rows, against the preimage oracle: the same verdict and
    the same witness text, failing trials included, on every ambient of
    ``_saturation_ambients``."""
    rng = random.Random(D)
    for amb in _saturation_ambients(D):
        seen = {True: 0, False: 0}
        for _ in range(30):
            seeds = _random_seeds(rng, amb)
            X = GradedSubspace.from_vectors(amb, seeds)
            assert X.bases == graded_span_by_elimination(amb, seeds), amb.name
            sat = saturation_check(X)
            assert sat == saturation_check_by_preimage(X), amb.name
            seen[sat.ok] += 1
        assert min(seen.values()) >= 2, (amb.name, seen)


def test_graded_subspace_refuses_degrees_outside_the_truncation():
    E = extend_scalars(unit_module(4))
    for n in (-1, 5):
        with pytest.raises(ValueError, match=f"seed degree {n} outside 0..4"):
            GradedSubspace.from_vectors(E, {n: [1]})
    # the keys inside 0..D still build
    assert GradedSubspace.from_vectors(E, {4: [1]}).dim(4) == 1
    # a seed must lie in its degree
    for v in (2, -1):
        with pytest.raises(ValueError, match="seed out of range for 1 columns in degree 3"):
            GradedSubspace.from_vectors(E, {1: [1], 3: [v]})


def test_graded_subspaces_refuse_an_ambient_that_is_no_scalar_extension():
    """u is a shift only on a scalar extension: ``from_vectors``, and the
    saturation check and generator space of a subspace assembled by hand,
    refuse any other u-module, even one with the very u of a scalar
    extension."""
    refusal = "graded u-subspaces need a scalar-extension ambient"
    for amb in _plain_u_modules(6):
        bases = {n: BitMatrix.zeros(0, amb.dim(n)) for n in range(amb.D + 1)}
        with pytest.raises(ValueError, match=refusal):
            GradedSubspace.from_vectors(amb, {})
        X = GradedSubspace.__new__(GradedSubspace)
        X.ambient, X.bases = amb, bases
        for check in (saturation_check, generator_space):
            with pytest.raises(ValueError, match=refusal):
                check(X)


def test_graded_subspace_checks_u_closure():
    """The checked oracle refuses bases that u leaves; ``from_vectors``
    closes them, and there is no unchecked way in."""
    E = extend_scalars(unit_module(4))
    with pytest.raises(ValueError, match="not closed under u at degree 1"):
        checked_graded_subspace(E, {1: BitMatrix.identity(1)})
    X = GradedSubspace.from_vectors(E, {1: [1]})
    assert [X.dim(n) for n in range(5)] == [0, 1, 1, 1, 1]
    assert checked_graded_subspace(E, X.bases) == X
    with pytest.raises(TypeError):
        GradedSubspace(E, {1: BitMatrix.identity(1)})


def test_submodule_of_a_whole_u_module_is_the_module():
    E = extend_scalars(free_unstable(1, 8))
    bases = {n: BitMatrix.identity(E.dim(n)) for n in range(9)}
    sub, incl = submodule(E, bases, "whole")
    assert isinstance(sub, FuluModule) and sub.dims == E.dims
    assert [sub.u_mat(n) for n in range(8)] == [E.u_mat(n) for n in range(8)]
    assert incl.validate_linear().ok


def test_fulu_subquotient_of_unit_embedding():
    M = free_unstable(1, 8)
    E = extend_scalars(M)
    # quotient by u * E: kernel of nothing; use the map u: E -> E shifted via
    # the inclusion of the sub u*E realized by restriction
    bases = {n: (E.u_mat(n - 1) if n >= 1 else BitMatrix.zeros(0, E.dim(0))) for n in range(9)}
    bases = {n: Subspace.from_rows(b).basis for n, b in bases.items()}
    sub, incl = submodule(E, bases, "uE")
    q = Subquotient(incl)
    # cokernel is the indecomposables: isomorphic to M degreewise
    for n in range(9):
        assert q.coker.target.dim(n) == M.dim(n)


def test_tensor_over_fulu_unit():
    N = extend_scalars(free_unstable(2, 8))
    prod = tensor_over_fulu(fulu_algebra(8), N)
    assert list(prod.module.dims) == list(N.dims)
    assert prod.module.validate().ok


def test_tensor_over_fulu_of_extensions():
    M = free_unstable(1, 8)
    N = polynomial_module(1, 8)
    lhs = tensor_over_fulu(extend_scalars(M), extend_scalars(N))
    rhs = extend_scalars(tensor(M, N))
    assert list(lhs.module.dims) == list(rhs.dims)
    assert lhs.module.validate().ok


def _tensor_over_fulu_cases(D):
    """Pairs of u-modules whose tensor products over F[u] the catalog or the
    tests form: R1(H) with itself (T6), two different scalar extensions, and
    R1(H) with the positive-u part of an extension."""
    S = r1(polynomial_module(1, D))
    E1, E2 = extend_scalars(free_unstable(1, D)), extend_scalars(polynomial_module(1, D))
    return [(S.fulu, S.fulu), (E1, E2), (S.fulu, positive_u_part(free_unstable(2, D)))]


@pytest.mark.parametrize("case", range(3))
def test_tensor_over_fulu_matches_the_per_pair_formulas(case):
    """The ambient tensor product and both one-sided u against the per-pair
    formulas of ``reference``; the ambient's action and labels stay pending
    until read."""
    N1, N2 = _tensor_over_fulu_cases(10)[case]
    prod = tensor_over_fulu(N1, N2)
    T = prod.tensor_module
    assert callable(T._act) and callable(T._labels)
    layout, action, labels = tensor_by_pairs(N1, N2)
    assert dict(T.action_items()) == action and T.labels == labels
    want = {left: one_sided_u_by_pairs(N1, N2, layout, left) for left in (True, False)}
    for left in (True, False):
        assert _one_sided_u(N1, N2, T, prod.layout, left) == want[left], left
    assert dict(T.u_items()) == {n: m for n, m in want[True].items() if not m.is_zero()}
    for n in range(T.D):
        assert prod.relation_bases[n + 1] == Subspace.from_rows(want[True][n] + want[False][n]).basis


def test_tensor_over_fulu_free_basis():
    # free (x)_{F[u]} free is free with the product basis
    A = extend_scalars(unit_module(8))
    B = extend_scalars(suspend(unit_module(7)))
    prod = tensor_over_fulu(A, B)
    assert torsion_free(prod.module).ok
    assert sum(map(len, indecomposables(prod.module).labels)) == 1


def test_extension_functor_is_exact():
    # scalar extension of the invariants sequence stays degreewise exact
    sl = sym_lambda(8)
    inv, lam, phi_f1 = sl.invariants, sl.lambda2, sl.phi_f1
    E_inv = extend_scalars(inv)
    E_lam = extend_scalars(lam)
    E_phi = extend_scalars(phi_f1)
    incl = extend_scalars_map(
        sl.lambda2_incl, E_lam, E_inv
    )
    proj = extend_scalars_map(sl.diag, E_inv, E_phi)
    for n in range(9):
        ker = rref(incl.mat(n)).rank
        assert ker == E_lam.dim(n)  # injective
        img = Subspace.from_rows(incl.mat(n))
        from usteen.f2core import left_kernel

        assert img == left_kernel(proj.mat(n))  # exact in the middle
        assert rref(proj.mat(n)).rank == E_phi.dim(n)  # surjective


def test_fulu_validation_catches_broken_u():
    M = polynomial_module(1, 4)
    # u acting as zero violates nothing Cartan-wise only if Sq^1 u x = ...;
    # an identity u on a module where Sq1 does not match breaks the twist
    zero_u = {n: BitMatrix.zeros(1, 1) for n in range(4)}
    assert with_u(M, zero_u).validate().ok  # zero u is always compatible
    tmul_u = {n: BitMatrix.identity(1) for n in range(4)}
    assert with_u(M, tmul_u).validate().ok  # u acting as t is a valid structure
    # u*1 = t but u*t = 0 breaks Sq^1(u*1) = u*Sq^1(1) + u^2*1
    broken = {0: BitMatrix.identity(1)}
    rep = with_u(M, broken).validate()
    assert not rep.ok and any("Cartan" in v for v in rep.violations)


def test_fulu_validate_reports_what_the_dense_oracle_does_on_flipped_u_bits():
    """One bit of u flipped in a stored matrix of a scalar extension, or set
    where u is absent (zero) on H(V2) given the zero u: the same
    violations as dense products on every (i, n), in order."""
    rng = random.Random(25)
    failing = Counter()
    for N in (extend_scalars(polynomial_module(1, 7)), extend_scalars(free_unstable(1, 7)),
              extend_scalars(polynomial_module(2, 5)), with_u(polynomial_module(2, 6), {})):
        shapes = {n: (N.dims[n], N.dims[n + 1]) for n in range(N.D)}
        act = dict(N.action_items())
        assert N.validate().violations == validate_fulu_dense(N) == []
        for in_stored, u in one_bit_flips(dict(N.u_items()), shapes, rng, 20):
            broken = FuluModule(N.name, N.D, N.dims, act, N.labels, u=u)
            want = validate_fulu_dense(broken)
            assert broken.validate().violations == want
            failing[in_stored] += bool(want)
    assert failing[True] >= 40 and failing[False] >= 10


def test_validate_linear_reports_what_the_dense_oracle_does_on_flipped_map_bits():
    """One bit flipped in a stored matrix of rho1's projection (T5, T17), of
    R1's inclusion into its scalar extension (u-equivariance too) or of
    T13's maps, or set in a zero map between the same modules, whose
    matrices are all absent: the same violations as dense products, in
    order."""
    S = r1(free_unstable(1, 8))
    sl = sym_lambda(8)
    rng = random.Random(25)
    failing = Counter()
    for f in (rho1(S).rho, rho1(r1(polynomial_module(1, 8))).rho, S.incl,
              sl.from_free, sl.diag, sl.lambda2_incl,
              ModuleMap.zero(S.fulu, S.ambient), ModuleMap.zero(sl.invariants, sl.phi_f1)):
        shapes = {n: (f.source.dims[n], f.target.dims[n]) for n in range(f.D + 1)}
        stored = {n: f.mat(n) for n in range(f.D + 1) if not f.mat(n).is_zero()}
        assert f.validate_linear().violations == validate_linear_dense(f) == []
        for in_stored, mats in one_bit_flips(stored, shapes, rng, 15):
            g = ModuleMap(f.source, f.target, mats, D=f.D)
            want = validate_linear_dense(g)
            assert g.validate_linear().violations == want
            failing[in_stored] += bool(want)
    assert failing[True] >= 45 and failing[False] >= 30


# -- u on submodules, quotients and subquotients ------------------------------------


def test_a_u_module_never_equals_a_plain_module():
    """Equality compares the whole structure: D, dims, Sq and, on u-modules, u."""
    H = polynomial_module(1, 4)
    shift = {n: BitMatrix.identity(1) for n in range(4)}
    N = with_u(H, shift)
    assert N != H and H != N and hash(N) == hash(H)
    assert N == with_u(H, dict(shift)) and N != with_u(H, {})
    # a scalar extension and the same u-module built by hand agree
    E = extend_scalars(unit_module(4))
    assert E == fulu_algebra(4) and E != polynomial_module(1, 4, varnames=("u",))


def test_maps_between_u_modules_are_checked_for_u_equivariance():
    """eps then unit, on a scalar extension, is A-linear but kills u."""
    E = extend_scalars(polynomial_module(1, 4))
    mats = {n: E.eps_mat(n) @ unit_rows(range(E.block(n, 0)[1]), E.dim(n)) for n in range(5)}
    assert ModuleMap(E, E, mats).validate_linear().violations == [
        f"not u-equivariant at degree {n}" for n in range(4)]
    assert ModuleMap.identity(E).validate_linear().ok
    # the same matrices on the plain tensor product, which has E's action, are A-linear
    plain = tensor(fulu_algebra(4), polynomial_module(1, 4))
    assert ModuleMap(plain, plain, mats).validate_linear().ok


@pytest.mark.parametrize("top, degree", [(0, 0), (2, 2)])
def test_a_span_not_closed_under_u_raises(top, degree):
    """The degrees 0..top of F[u] through degree 3 are closed under Sq
    (Sq^1 u^2 = 0, and Sq^2 u^2 lands in degree 4), not under u."""
    E = extend_scalars(unit_module(3))
    bases = {n: BitMatrix.identity(1) for n in range(top + 1)}
    with pytest.raises(TheoryViolation, match=rf"^sub: u escapes the subspace at degree {degree}$"):
        submodule(E, bases, "sub")
    # the same span of the plain module is a submodule
    plain = polynomial_module(1, 3, varnames=("u",))
    assert submodule(plain, bases, "sub")[0].dims == tuple(int(n <= top) for n in range(4))


def test_submodule_reads_u_off_u_generators_and_refuses_rows_that_are_not_u_shifts():
    """With ``u_gens`` the rows after the generators must be u times the
    degree below, in order; u is then the index map onto them.  A swap of
    two shifted rows, or a generator count one short, is refused."""
    calc = RealmCalculus(hv(2, 6))
    rows, gens = calc.st1_basis
    K, _ = submodule(calc.E, dict(enumerate(rows)), "K", u_gens=gens)
    assert K.u_mat(3) == BitMatrix.identity(rows[4].nrows).take_rows(
        range(gens[4], rows[4].nrows))
    swapped = dict(enumerate(rows))
    ints = rows[4].row_ints()
    swapped[4] = BitMatrix.from_row_ints(ints[:-2] + ints[-1:] + ints[-2:-1], rows[4].ncols)
    with pytest.raises(TheoryViolation, match=r"^K: the rows of degree 4 after its u-generators "
                                              r"are not u times degree 3$"):
        submodule(calc.E, swapped, "K", u_gens=gens)
    with pytest.raises(TheoryViolation, match="rows of degree 2 after"):
        submodule(calc.E, dict(enumerate(rows)), "K", u_gens=gens[:2] + [gens[2] - 1] + gens[3:])


def taubar_parts(r, D):
    calc = RealmCalculus(hv(r, D))
    sub = taubar_subquotient(calc)
    bases = {n: calc.image_basis(n) for n in range(D + 1)}  # as T7 builds it
    image, image_incl = submodule(calc.bar, bases, "im(taubar)")
    return [(f"ker taubar r={r}", calc.rtilde, "span", calc.kernel_incl),
            (f"ker taubar by elimination r={r}", sub.kernel, "span", sub.kernel_incl),
            (f"im taubar r={r}", image, "span", image_incl),
            (f"coker taubar r={r}", sub.coker.target, "quotient", sub.coker)]


def induced_u_cases():
    """(name, u-module, "span" or "quotient", inclusion or projection) quadruples."""
    cases = []
    for r, D in ((0, 6), (1, 7), (2, 6), (3, 5)):
        cases += taubar_parts(r, D)
        inv, incl = RealmCalculus(hv(r, D)).invariants()
        cases.append((f"invariants r={r}", inv, "span", incl))
    for M in harness._singer_fixtures(8):
        S = r1(M)
        cases.append((f"R1({M.name})", S.fulu, "span", S.incl))
    rng = random.Random(4)
    E = extend_scalars(polynomial_module(1, 7))
    for t in range(6):
        X = harness._random_subspace(rng, E, t % 3)
        Q = quotient(E, X.bases, "E/X").target
        mats = {n: coker_data(X.bases[n], E.dim(n))[0] for n in range(E.D + 1)}
        cases.append((f"E/X trial {t}", Q, "quotient", (E, mats)))
    for A, B in ((extend_scalars(unit_module(6)), extend_scalars(suspend(unit_module(5)))),
                 (extend_scalars(free_unstable(1, 6)), extend_scalars(polynomial_module(1, 6)))):
        prod = tensor_over_fulu(A, B)
        T = prod.tensor_module
        mats = {n: coker_data(prod.relation_bases[n], T.dims[n])[0] for n in range(T.D + 1)}
        cases.append((prod.module.name, prod.module, "quotient", (T, mats)))
    return cases


def record_quotients(monkeypatch, run):
    """Every projection that ``unstable.quotient`` builds while ``run`` runs."""
    built = []
    real = unstable.quotient

    def recording(M, bases, name):
        built.append(real(M, bases, name))
        return built[-1]

    for mod in (unstable, fulu, harness):
        monkeypatch.setattr(mod, "quotient", recording)
    run()
    return built


def catalog_quotients(case, monkeypatch):
    """The projections of one family of the quotients the catalog builds."""
    D = 8
    if case == "omega":  # the cokernel of Sq0, T9-T11
        return [omega(M).coker_proj for M in harness._standard_fixtures(D)]
    if case == "q_data":  # Q of u-modules that are no scalar extension, T7 and T8
        return [q_data(r1(hv_module(1, D)).fulu), q_data(RealmCalculus(hv(1, D)).rtilde)]
    if case == "tensor_over_fulu":  # T6
        H = hv_module(1, D)
        return [product_mu(H, H).product.proj]
    if case == "taubar":  # coker taubar and Q of it, T8's and the oracles'
        out = []
        for r in (1, 2, 3):
            calc = RealmCalculus(hv(r, 6))
            image, q_bar = taubar_image_rref(calc), q_data(calc.bar)
            out += [quotient(calc.bar, image.bases, "bar/X"), taubar_subquotient(calc).coker,
                    q_of_quotient(q_bar, image), quotient(q_bar.target, calc.q_image_bases, "Q/X")]
        return out
    if case == "T15":  # the saturated random quotients
        return record_quotients(monkeypatch, lambda: harness.run_check(harness.make_spec("T15", D=10)))
    return record_quotients(monkeypatch, lambda: harness.run_all(D=D, max_rank=3))


@pytest.mark.parametrize("case", ["omega", "q_data", "tensor_over_fulu", "taubar", "T15", "catalog"])
def test_every_quotient_projection_matches_the_dense_oracle(case, monkeypatch):
    """The projection operator against ``reference.coker_data`` on the rref
    of its bases, for every quotient the catalog builds: the matrices, the
    representative columns and the rank, which is the width.  T8's bases
    of the image of taubar in Q(bar) have distinct lowest bits but are not
    reduced; every other basis is its own rref."""
    quotients = catalog_quotients(case, monkeypatch)
    assert quotients, case
    for q in quotients:
        for n in range(q.D + 1):
            proj, cols = coker_data(Subspace.from_rows(q.bases[n]).basis, q.source.dims[n])
            assert list(q.rep_cols[n]) == cols, (q.target.name, n)
            assert q.mat(n) == proj, (q.target.name, n)
            assert q.rank(n) == len(cols) == q.target.dims[n], (q.target.name, n)


def test_induced_u_matches_a_plain_solve():
    """u on every u-submodule, quotient and subquotient the package builds, against
    C @ incl[n+1] = incl[n] @ u (a span) or proj[n] @ X = u @ proj[n+1] (a quotient)."""
    for name, M, kind, data in induced_u_cases():
        if isinstance(data, ModuleMap):
            ambient = data.target if kind == "span" else data.source
            mats = {n: data.mat(n) for n in range(M.D + 1)}
        else:
            ambient, mats = data
        solve = u_on_span_by_solving if kind == "span" else u_on_quotient_by_solving
        want = solve(mats, ambient, M.D)
        assert [M.u_mat(n) for n in range(M.D)] == [want[n] for n in range(M.D)], name


def generator_certificate_ambients():
    """Scalar extensions (E of three bases, and bar of two realm objects)
    on which ``submodule`` certifies Sq-stability on u-generators."""
    return [extend_scalars(polynomial_module(1, 9)), extend_scalars(free_unstable(2, 9)),
            extend_scalars(polynomial_module(2, 7)), RealmCalculus(hv(1, 8)).bar,
            RealmCalculus(hv(2, 6)).bar]


def random_u_submodule(rng: random.Random, N, style: int) -> GradedSubspace:
    """A random graded u-submodule of N: the u-span of random seeds (style
    0, mostly not Sq-stable), of the A-span of random seeds (style 1,
    Sq-stable), or of that A-span and one more random seed (style 2)."""
    def seed():
        n = rng.choice([n for n in range(N.D + 1) if N.dims[n]])
        return n, rng.randrange(1, 1 << N.dims[n])

    seeds = {}
    for _ in range(rng.randint(1, 3) if style == 0 else rng.randint(1, 2)):
        n, v = seed()
        seeds.setdefault(n, []).append(v)
    if style:
        seeds = {n: b.row_ints() for n, b in a_span(N, seeds).items()}
    if style == 2:
        n, v = seed()
        seeds.setdefault(n, []).append(v)
    return GradedSubspace.from_vectors(N, seeds)


def test_the_generator_certificate_agrees_with_the_eager_restricted_action():
    """On 600 random u-submodules of scalar extensions, ``submodule`` raises
    exactly when restricting the ambient's whole action does, and the
    action it builds on first read is that restriction."""
    rng = random.Random(24)
    seen = {True: 0, False: 0}
    for trial in range(600):
        N = generator_certificate_ambients()[trial % 5]
        X = random_u_submodule(rng, N, trial % 3)
        try:
            want = unstable._restricted_action(X.bases, N, N.D, "sub")
        except TheoryViolation:
            want = None
        seen[want is not None] += 1
        if want is None:
            with pytest.raises(TheoryViolation, match=r"^sub: Sq\^\d+ escapes the subspace at "):
                submodule(N, X.bases, "sub")
        else:
            sub, _ = submodule(N, X.bases, "sub")
            nonzero = sorted((key, m) for key, m in want.items() if not m.is_zero())
            assert sub.action_items() == nonzero, (N.name, trial)
    assert seen[True] >= 50 and seen[False] >= 50, seen
