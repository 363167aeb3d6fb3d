import random
from collections import Counter
from itertools import product

import pytest

from usteen import fixtures, harness, lannes, unstable
from usteen.f2core import BitMatrix, RowReducer, Subspace, image_is_kernel, left_kernel, rank
from usteen.fulu import (
    GradedSubspace,
    SubspaceProjection,
    extend_scalars,
    indecomposables,
    positive_u_part,
    q_data,
    q_of_map,
    q_of_quotient,
    saturation_check,
    torsion_free,
    u_linear_map,
    u_linear_verdict,
)
from usteen.lannes import (
    RealmCalculus,
    RealmObject,
    _component_map,
    _twist_terms,
    alpha_from_structure,
    division_u2,
    hv,
    realm_sum,
    realm_suspend,
    t_apply,
)
from usteen.singer import r1
from usteen.unstable import (
    FuluModule,
    ModuleMap,
    TheoryViolation,
    TruncatedModule,
    TruncationError,
    Verdict,
    _compositions_submask,
    _mono_label,
    _sum_label,
    exact_sequence,
    free_unstable,
    is_reduced,
    omega,
    phi,
    polynomial_module,
    subquotient,
    tensor,
    tensor_with_layout,
    unit_module,
)

from reference import fulu_algebra, mutant_tau


def series_coeffs(r, D):
    cur = [1] * (D + 1)
    for _ in range(r):
        cur = [sum(cur[n - 2 * k] for k in range(n // 2 + 1)) for n in range(D + 1)]
    return cur


def test_realm_realization_matches_polynomial_module():
    X = hv(2, 8)
    from usteen.unstable import polynomial_module

    assert X.module == polynomial_module(2, 8)
    assert X.module.validate().ok


def realize_by_compositions(X):
    """Reference for ``RealmObject._realize``: Sq^k on every monomial of every
    summand, summed over the compositions of k under it (Lucas)."""
    D, dims = X.D, X.table.dims
    labels = []
    for n in range(D + 1):
        ls = []
        for j, m in X.entries(n):
            sm = X.summands[j]
            varnames = ("t",) if sm.r == 1 else tuple(f"t{i+1}" for i in range(sm.r))
            core = _mono_label(m, varnames)
            if sm.s:
                core = f"s^{sm.s}({core})"
            tag = X._tag(j)
            ls.append(tag + core)
        labels.append(tuple(ls))
    action = {}
    for n in range(D + 1):
        if dims[n] == 0:
            continue
        entries = X.entries(n)
        for k in range(1, D - n + 1):
            rows = []
            for j, a in entries:
                row = 0
                for c in _compositions_submask(a, k):
                    row |= 1 << X.index(n + k, j, tuple(x + y for x, y in zip(a, c)))
                rows.append(row)
            action[(k, n)] = BitMatrix.from_row_ints(rows, dims[n + k])
    return TruncatedModule(X.name, D, dims, action, labels)


def test_realize_matches_the_composition_loop():
    sum_x = realm_sum(hv(1, 9), realm_suspend(hv(2, 9), 1))
    cases = [hv(r, 9) for r in range(4)] + [
        realm_suspend(hv(2, 9), 2),
        sum_x,
        t_apply(hv(2, 9)),
        t_apply(sum_x),
        t_apply(t_apply(hv(1, 8))),
        RealmCalculus(hv(3, 7)).tbar,
        RealmCalculus(sum_x).tbar,
    ]
    for X in cases:
        want = realize_by_compositions(X)
        assert X.module == want, X.name
        assert X.module.labels == want.labels, X.name


def test_realm_suspension_dims():
    X = realm_suspend(hv(1, 8), 2)
    assert [X.module.dim(n) for n in range(9)] == [0, 0] + [1] * 7


def test_t_apply_component_counts():
    exp = t_apply(hv(2, 6))
    assert exp.components == [(0, v) for v in range(4)]
    assert len(t_apply(exp).components) == 4 * 4
    Y = realm_sum(hv(1, 6), realm_suspend(hv(2, 6), 1))
    exp = t_apply(Y)
    assert len(exp.components) == 2 + 4


def test_t_of_unit_is_unit():
    X = hv(0, 6)
    exp = t_apply(X)
    assert [exp.module.dim(n) for n in range(7)] == [1] + [0] * 6


def test_t_of_rank1_dims():
    exp = t_apply(hv(1, 8))
    assert [exp.module.dim(n) for n in range(9)] == [2] * 9


def test_tau_degree_one_pins_the_convention():
    # on the rank-one extension: tau_v(t) = t + u for v != 0, tau_v(u) = u,
    # and sigma_v = identity; derived from the dual basis by hand
    X = hv(1, 6)
    calc = RealmCalculus(X)
    sigma, tau = calc.sigma, calc.tau
    E, ETX, TX = calc.E, calc.ETX, calc.TX
    c0 = calc.TX.comp_pos[(0, 0)]
    c1 = calc.TX.comp_pos[(0, 1)]
    # degree-1 basis of E: u (x) 1, 1 (x) t  (u-power block a ascending)
    i_u = E.index(1, 1, 0)
    i_t = E.index(1, 0, 0)
    # tau(u) = u in both components
    expect_u = (1 << ETX.index(1, 1, TX.index(0, c0, (0,)))) | (
        1 << ETX.index(1, 1, TX.index(0, c1, (0,)))
    )
    assert tau.mat(1).row_int(i_u) == expect_u
    # tau(t): component 0 gives t, component 1 gives t + u
    t_c0 = 1 << ETX.index(1, 0, TX.index(1, c0, (1,)))
    t_c1 = 1 << ETX.index(1, 0, TX.index(1, c1, (1,)))
    u_c1 = 1 << ETX.index(1, 1, TX.index(0, c1, (0,)))
    assert tau.mat(1).row_int(i_t) == t_c0 | t_c1 | u_c1
    # sigma is the identity into every component
    assert sigma.mat(1).row_int(i_t) == t_c0 | t_c1


def test_sigma_tau_agree_on_zero_component():
    calc = RealmCalculus(hv(1, 6))
    retract = retract_by_monomials(calc)
    for n in range(calc.D + 1):
        ident = BitMatrix.identity(calc.E.dim(n))
        assert calc.sigma.mat(n) @ retract[n] == ident
        assert calc.tau.mat(n) @ retract[n] == ident


@pytest.mark.parametrize("X", [hv(1, 6), hv(2, 5)], ids=lambda X: X.name)
@pytest.mark.parametrize("component", ["zero", "nonzero"])
def test_equalizer_verdict_fails_on_a_tau_that_drops_a_copy_of_the_unit(X, component):
    """sigma and tau agree on component 0 and modulo u, which taubar = pi o tau
    relies on; a tau that breaks either fails the verdict in degree 0."""
    calc = RealmCalculus(X)
    assert mutant_tau(calc, []) == calc.tau
    c = calc.TX.comp_pos[(0, 0 if component == "zero" else 1)]
    calc.tau = mutant_tau(calc, [c])
    assert "taubar" not in vars(calc)
    assert calc.equalizer_verdict == Verdict(
        False, X.D, "equalizer differs from the kernel in degree 0")


def test_rtilde_raises_on_every_read_when_the_equalizer_fails():
    calc = RealmCalculus(hv(1, 6))
    calc.tau = mutant_tau(calc, [calc.TX.comp_pos[(0, 0)]])
    for _ in range(2):
        with pytest.raises(unstable.TheoryViolation,
                           match="equalizer differs from the kernel in degree 0"):
            calc.rtilde


def test_comparison_maps_are_fulu_maps():
    calc = RealmCalculus(hv(1, 6))
    assert calc.sigma.validate_linear().ok
    assert calc.tau.validate_linear().ok
    assert calc.taubar.validate_linear().ok


def test_equalizer_equals_taubar_kernel():
    for X in (hv(0, 6), hv(1, 8), hv(2, 6), realm_suspend(hv(1, 7), 1)):
        calc = RealmCalculus(X)
        assert calc.equalizer_matches_taubar_kernel().ok


def test_rtilde_of_unit():
    K = RealmCalculus(hv(0, 8)).rtilde
    assert [K.dim(n) for n in range(9)] == [1] * 9


def test_rtilde_rank1_dims():
    K = RealmCalculus(hv(1, 10)).rtilde
    assert [K.dim(n) for n in range(11)] == [n // 2 + 1 for n in range(11)]


def test_rtilde_commutes_with_suspension():
    X = hv(1, 8)
    calc_x = RealmCalculus(X)
    calc_sx = RealmCalculus(realm_suspend(X))
    kx = calc_x.taubar_sub.kernel_incl
    ksx = calc_sx.taubar_sub.kernel_incl
    for n in range(1, 9):
        # the extension bases at matching degrees are identified flatwise
        assert Subspace.from_rows(ksx.mat(n)) == Subspace.from_rows(kx.mat(n - 1))


def test_rtilde_of_sum_is_sum():
    A = hv(1, 7)
    B = realm_suspend(hv(0, 7), 2)
    S = realm_sum(A, B)
    ca, cb, cs = RealmCalculus(A), RealmCalculus(B), RealmCalculus(S)
    for n in range(8):
        got = cs.taubar_sub.kernel.dim(n)
        assert got == ca.taubar_sub.kernel.dim(n) + cb.taubar_sub.kernel.dim(n)


def test_gv_invariants_rank0():
    inv, _ = RealmCalculus(hv(0, 6)).invariants()
    assert [inv.dim(n) for n in range(7)] == [1] * 7


def test_gv_invariants_rank1():
    inv, incl = RealmCalculus(hv(1, 10)).invariants()
    assert [inv.dim(n) for n in range(11)] == [n // 2 + 1 for n in range(11)]
    # u and t^2 + t u are invariant under t -> t + u
    E = extend_scalars(hv(1, 10).module)
    u_vec = 1 << E.index(1, 1, 0)
    assert incl.mat(1).nrows == 1 and incl.mat(1).row_int(0) == u_vec
    dickson = (1 << E.index(2, 0, 0)) | (1 << E.index(2, 1, 0))
    assert Subspace(E.dim(2), incl.mat(2)).contains_vector(dickson)


def test_gv_invariants_rank2_series():
    inv, _ = RealmCalculus(hv(2, 10)).invariants()
    assert [inv.dim(n) for n in range(11)] == series_coeffs(2, 10)


def test_triple_agreement_rank1():
    X = hv(1, 10)
    calc = RealmCalculus(X)
    _, incl = calc.invariants()
    S = r1(X.module, calc.E)
    for n in range(11):
        a = Subspace.from_rows(calc.taubar_sub.kernel_incl.mat(n))
        b = Subspace(calc.E.dim(n), incl.mat(n))
        c = S.span(n)
        assert a == b == c


def test_fix_of_whole_extension():
    # Fix(F[u] (x) M) is the expansion TM
    calc = RealmCalculus(hv(1, 8))
    assert [calc.TX.module.dim(n) for n in range(9)] == [2] * 9


def test_fix_of_rtilde_recovers_base():
    for X in (hv(1, 8), hv(2, 6)):
        calc = RealmCalculus(X)
        calc.rtilde  # certifies the equalizer
        F = calc.fix_parts["kernel"].module
        assert [F.dim(n) for n in range(X.D + 1)] == list(X.module.dims)
        # the diagonal embedding realizes the isomorphism onto the kernel
        for n in range(X.D + 1):
            diag_im = Subspace.from_rows(calc.diag.mat(n))
            assert diag_im == left_kernel(fix_taubar_by_monomials(calc)[n])


def test_fix_split_equalizer():
    for X in (hv(1, 6), hv(2, 5)):
        assert RealmCalculus(X).split_equalizer_verdict().ok


def test_fix_taubar_is_a_linear():
    calc = RealmCalculus(hv(1, 8))
    assert fix_taubar_of(calc, fix_taubar_by_monomials(calc)).validate_linear().ok


def test_c1_dims_rank1():
    c1 = RealmCalculus(hv(1, 10)).taubar_sub.image
    assert [c1.dim(n) for n in range(11)] == [(n + 1) // 2 for n in range(11)]


def test_c2_torsion_free_and_fix():
    calc = RealmCalculus(hv(1, 10))
    assert torsion_free(calc.taubar_sub.cokernel).ok
    assert torsion_free(calc.taubar_sub.image).ok
    # fixed points: image is the reduced expansion, cokernel its square
    for kind in ("image", "cokernel"):
        assert calc.fix_parts[kind].table.dims == (1,) * 11, kind


def test_fix_sequence_dims_rank1():
    X = hv(1, 10)
    calc = RealmCalculus(X)
    M = X.module
    TM = calc.TX.module
    TTbar = calc.TTbar.module
    for n in range(11):
        dims = (M.dim(n), TM.dim(n), TTbar.dim(n), calc.fix_parts["cokernel"].module.dim(n))
        assert dims == (1, 2, 2, 1)
        assert dims[0] - dims[1] + dims[2] - dims[3] == 0


def test_c1_reduced_rank1():
    assert is_reduced(RealmCalculus(hv(1, 10)).taubar_sub.image).ok


def test_saturation_of_rtilde():
    X = hv(1, 8)
    calc = RealmCalculus(X)
    calc.rtilde  # certifies the equalizer
    sub = GradedSubspace(
        calc.E, {n: calc.taubar_sub.kernel_incl.mat(n) for n in range(9)}
    )
    assert saturation_check(sub).ok


def test_alpha_rank1_injective():
    ar = RealmCalculus(hv(1, 10)).alpha()
    assert ar.alpha.validate_linear().ok
    for n in range(ar.alpha.D + 1):
        assert left_kernel(ar.alpha.mat(n)).dim == 0
    dv = division_u2(ar)
    # cokernel lives in odd degrees only, dimension one each
    for n in range(dv.div.D + 1):
        assert dv.div.dim(n) == (1 if n % 2 == 1 else 0)
    assert sum(dv.derived1.dims) == 0


def test_alpha_rank2_injective():
    ar = RealmCalculus(hv(2, 8)).alpha()
    for n in range(ar.alpha.D + 1):
        assert left_kernel(ar.alpha.mat(n)).dim == 0
    dv = division_u2(ar)
    assert sum(dv.derived1.dims) == 0


def test_alpha_on_doubled_free_module_vanishes():
    # fixture route: the reduced expansion of the doubled rank-one free module
    # is the ground field, and the structure map is forced to vanish
    P = phi(free_unstable(1, 8))
    tbar = unit_module(P.D)
    ar = alpha_from_structure(omega(P), tbar, {})
    for n in range(ar.alpha.D + 1):
        assert ar.alpha.mat(n).is_zero()
    dv = division_u2(ar)
    # the kernel is the suspension of the ground field
    assert [dv.derived1.dim(n) for n in range(min(6, dv.derived1.D) + 1)] == [0, 1, 0, 0, 0, 0, 0]
    assert sum(dv.derived2.dims) == 0


def test_alpha_from_structure_refuses_a_wrong_shape_and_a_map_that_keeps_sq0():
    H = polynomial_module(1, 6)
    with pytest.raises(ValueError, match="degree 2 has wrong shape"):
        alpha_from_structure(omega(H), H, {2: BitMatrix.zeros(1, 2)})
    # t^2 -> t does not kill t^2 = Sq0(ph(t))
    with pytest.raises(TheoryViolation, match="doubled image at degree 2"):
        alpha_from_structure(omega(H), H, {2: BitMatrix.identity(1)})


def test_alpha_unit_is_zero():
    ar = RealmCalculus(hv(0, 8)).alpha()
    assert sum(ar.omega_data.omega.dims) == 0
    for n in range(ar.alpha.D + 1):
        assert ar.alpha.mat(n).is_zero()


def test_q_sequence_terms_rank1():
    # indecomposables of the four-term presentation have the expected dims
    X = hv(1, 10)
    calc = RealmCalculus(X)
    sub = calc.taubar_sub
    q_r = indecomposables(sub.kernel)
    q_e = indecomposables(calc.E)
    q_bar = indecomposables(positive_u_tail(extend_scalars(calc.tbar.module)))
    q_c2 = indecomposables(sub.cokernel)
    for n in range(11):
        assert q_r.dim(n) == (1 if n % 2 == 0 else 0)  # the doubled base
        assert q_e.dim(n) == 1                          # the base
    for n in range(10):
        assert q_bar.dim(n + 1) == calc.tbar.module.dim(n)  # suspended reduced part


def test_c_functors_of_unit_realm_vanish():
    sub = RealmCalculus(hv(0, 8)).taubar_sub
    assert sum(sub.image.dims) == 0
    assert sum(sub.cokernel.dims) == 0


def test_saturation_of_rtilde_all_realm_fixtures():
    for X in (hv(0, 6), hv(1, 6), hv(2, 6), realm_suspend(hv(1, 6), 1)):
        calc = RealmCalculus(X)
        calc.rtilde  # certifies the equalizer
        sub = GradedSubspace(
            calc.E,
            {n: calc.taubar_sub.kernel_incl.mat(n) for n in range(X.D + 1)},
        )
        assert saturation_check(sub).ok, X.name


def test_tau_sigma_returns_validated_maps():
    calc = RealmCalculus(hv(1, 6))
    assert calc.sigma.validate_linear().ok
    assert calc.tau.validate_linear().ok
    assert calc.taubar.validate_linear().ok


def test_comparison_maps_validate_at_rank2():
    calc = RealmCalculus(hv(2, 5))
    assert calc.sigma.validate_linear().ok
    assert calc.tau.validate_linear().ok
    assert calc.taubar.validate_linear().ok
    assert fix_taubar_of(calc, fix_taubar_by_monomials(calc)).validate_linear().ok


def _assert_tiles(table, dims):
    """The nonempty blocks of each degree follow one another from 0 to dim(n)."""
    for n, dim in enumerate(dims):
        end = 0
        for _, off, width in table.blocks(n):
            assert off == end and width > 0
            end += width
        assert end == dim == table.dims[n]


def test_block_layouts_round_trip():
    D = 6
    F1, H2 = free_unstable(1, D), polynomial_module(2, D)
    T, layout = tensor_with_layout(F1, H2)
    _assert_tiles(layout.table, T.dims)
    for n in range(D + 1):
        flats = []
        for p, _, _ in layout.blocks(n):
            right = H2.dims[n - p]
            for i in range(F1.dims[p]):
                for j in range(right):
                    flat = layout.index(n, p, i, j)
                    assert layout.table.decode(n, flat) == (p, i * right + j)
                    flats.append(flat)
        assert flats == list(range(T.dims[n]))

    E = extend_scalars(H2)
    _assert_tiles(E.layout.table, E.dims)
    for n in range(D + 1):
        flats = [E.index(n, a, j) for a, _, w in E.layout.blocks(n) for j in range(w)]
        assert flats == list(range(E.dim(n)))
        assert [E.decode(n, f) for f in flats] == [
            (a, j) for a, _, w in E.layout.blocks(n) for j in range(w)
        ]
        assert E.block(n, n + 1) == (0, 0)

    X = realm_sum(hv(1, D), realm_suspend(hv(2, D), 1))
    calc = RealmCalculus(X)
    for realm in (X, calc.TX, calc.tbar):
        _assert_tiles(realm.table, realm.module.dims)
        for n in range(D + 1):
            for flat, (j, mono) in enumerate(realm.entries(n)):
                assert realm.index(n, j, mono) == flat
                j2, k = realm.table.decode(n, flat)
                assert j2 == j and realm.monomials(j, n - realm.summands[j].s)[k] == mono
    for exp in (calc.TX, calc.tbar):
        assert all(exp.components[exp.comp_pos[c]] == c for c in exp.components)
    assert calc.tbar.components == [c for c in calc.TX.components if c[1] != 0]


# -- per-monomial references for the maps built from component matrices ------


def _extended_entries(E, X, n):
    """The degree-n basis of E, the scalar extension of X's module, as
    (u-power, summand, monomial) triples in flat order."""
    return [(a, j, mono) for a, _, _ in E.layout.blocks(n) for j, mono in X.entries(n - a)]


def diag_by_monomials(calc):
    mats = {}
    for n in range(calc.D + 1):
        rows = []
        for j, mono in calc.X.entries(n):
            acc = 0
            for v in range(1 << calc.X.summands[j].r):
                acc |= 1 << calc.TX.index(n, calc.TX.comp_pos[(j, v)], mono)
            rows.append(acc)
        mats[n] = BitMatrix.from_row_ints(rows, calc.TX.table.dims[n])
    return mats


def fix_taubar_of(calc, mats):
    """Fix(taubar) as a map of modules, from its degreewise matrices."""
    return ModuleMap(calc.TX.module, calc.TTbar.module, mats, name="Fix(taubar)")


def fix_taubar_by_monomials(calc):
    mats = {}
    for n in range(calc.D + 1):
        rows = []
        for c, mono in calc.TX.entries(n):
            j, a = calc.TX.components[c]
            acc = 0
            for v in range(1, 1 << calc.X.summands[j].r):
                cbar = calc.tbar.comp_pos[(j, v)]
                for w in (a ^ v, a):
                    c2 = calc.TTbar.comp_pos[(cbar, w)]
                    acc ^= 1 << calc.TTbar.index(n, c2, mono)
            rows.append(acc)
        mats[n] = BitMatrix.from_row_ints(rows, calc.TTbar.table.dims[n])
    return mats


def sigma_by_monomials(calc):
    mats = {}
    for n in range(calc.D + 1):
        rows = []
        for a, j, mono in _extended_entries(calc.E, calc.X, n):
            acc = 0
            for v in range(1 << calc.X.summands[j].r):
                tgt = calc.TX.index(n - a, calc.TX.comp_pos[(j, v)], mono)
                acc |= 1 << calc.ETX.index(n, a, tgt)
            rows.append(acc)
        mats[n] = BitMatrix.from_row_ints(rows, calc.ETX.dim(n))
    return mats


def retract_by_monomials(calc):
    mats = {}
    for n in range(calc.D + 1):
        rows = []
        for a, c, mono in _extended_entries(calc.ETX, calc.TX, n):
            j, v = calc.TX.components[c]
            if v == 0:
                rows.append(1 << calc.E.index(n, a, calc.X.index(n - a, j, mono)))
            else:
                rows.append(0)
        mats[n] = BitMatrix.from_row_ints(rows, calc.E.dim(n))
    return mats


def split_equalizer_by_monomials(calc):
    """T(i_1) + T(delta), from the expansion into its own expansion."""
    TTX = t_apply(calc.TX)
    mats = {}
    for n in range(calc.D + 1):
        rows = []
        for c, mono in calc.TX.entries(n):
            j, a = calc.TX.components[c]
            acc = 0
            for w in range(1 << calc.X.summands[j].r):
                c_aw = TTX.comp_pos[(calc.TX.comp_pos[(j, a)], w)]
                c_vw = TTX.comp_pos[(calc.TX.comp_pos[(j, a ^ w)], w)]
                acc ^= 1 << TTX.index(n, c_aw, mono)
                acc ^= 1 << TTX.index(n, c_vw, mono)
            rows.append(acc)
        mats[n] = BitMatrix.from_row_ints(rows, TTX.table.dims[n])
    return mats


COMPONENT_MAP_CASES = [
    *(hv(r, 7) for r in range(4)),
    realm_suspend(hv(2, 7), 2),
    realm_sum(hv(1, 7), realm_suspend(hv(2, 7), 1)),
]


@pytest.mark.parametrize("X", COMPONENT_MAP_CASES, ids=lambda X: X.name)
def test_component_maps_match_the_monomial_loops(X, monkeypatch):
    calc = RealmCalculus(X)
    degrees = range(calc.D + 1)
    for got, want in (
        (calc.diag, diag_by_monomials(calc)),
        (fix_taubar_of(calc, _component_map(calc.TX, calc.TTbar, calc.fix_components)),
         fix_taubar_by_monomials(calc)),
        (calc.sigma, sigma_by_monomials(calc)),
    ):
        assert [got.mat(n) for n in degrees] == [want[n] for n in degrees], got.name
    # the split equalizer hands its component matrix P to the P-level check
    seen = []
    check = RealmCalculus._diagonal_is_kernel

    def recording(self, P, tgt, failure):
        mats = _component_map(self.TX, tgt, P)
        seen.extend(mats[n] for n in degrees)
        return check(self, P, tgt, failure)

    monkeypatch.setattr(RealmCalculus, "_diagonal_is_kernel", recording)
    assert calc.split_equalizer_verdict().ok
    want = split_equalizer_by_monomials(calc)
    assert seen == [want[n] for n in degrees]


def test_component_map_refuses_to_pair_different_summands(monkeypatch):
    for Y in (hv(2, 4), realm_suspend(hv(1, 4))):
        X = realm_sum(hv(1, 4), Y)
        # summand 0 to itself is fine; summand 0 to summand 1 is not
        assert _component_map(X, X, BitMatrix(2, 2, (0b01, 0b10)))[4] == BitMatrix.identity(
            X.table.dims[4])
        with pytest.raises(ValueError, match="cannot map"):
            _component_map(X, X, BitMatrix(2, 2, (0b11, 0b10)))
        # the P-level checks refuse it too: a copy of summand 0 into one of summand 1
        calc = RealmCalculus(X)
        P = calc.fix_components
        c2 = next(c for c, sm in enumerate(calc.TTbar.summands) if sm == Y.summands[0])
        calc.fix_components = flip(P, [(0, c2)])
        with pytest.raises(ValueError, match="cannot map"):
            calc.fixed_point_verdict()
        with pytest.raises(ValueError, match="cannot map"):
            calc.fix_parts
        with monkeypatch.context() as m, pytest.raises(ValueError, match="cannot map"):
            edit_p(m, lambda P, tgt: flip(P, [(0, P.ncols - 1)]))
            calc.split_equalizer_verdict()


def test_verdicts_build_no_degree_n_matrix_and_realize_nothing(monkeypatch):
    calc = RealmCalculus(hv(3, 6))
    calc.diag  # realizes the base and its expansion

    def refuse(*args, **kwargs):
        raise AssertionError("a degree-n matrix or a module was built")

    monkeypatch.setattr(lannes, "_component_map", refuse)
    monkeypatch.setattr(RealmObject, "_realize", refuse)
    assert calc.fixed_point_verdict() == Verdict(True, 6)
    assert calc.split_equalizer_verdict() == Verdict(True, 6)


def test_split_equalizer_realizes_no_further_module(monkeypatch):
    calc = RealmCalculus(hv(2, 6))
    calc.diag  # realizes the base and its expansion
    realized = []
    realize = RealmObject._realize

    def counting(self):
        realized.append(self.name)
        return realize(self)

    monkeypatch.setattr(RealmObject, "_realize", counting)
    assert calc.split_equalizer_verdict().ok
    assert realized == []


# -- per-(n, a, monomial) references for the maps built from their u^0 layer ----


def tau_by_monomials(calc):
    mats = {}
    for n in range(calc.D + 1):
        rows = []
        for a, j, mono in _extended_entries(calc.E, calc.X, n):
            acc = 0
            for v in range(1 << calc.X.summands[j].r):
                c = calc.TX.comp_pos[(j, v)]
                for (extra, m2) in _twist_terms(mono, v):
                    tgt = calc.TX.index(n - a - extra, c, m2)
                    acc ^= 1 << calc.ETX.index(n, a + extra, tgt)
            rows.append(acc)
        mats[n] = BitMatrix.from_row_ints(rows, calc.ETX.dim(n))
    return mats


def taubar_by_monomials(calc):
    E_tbar = extend_scalars(calc.tbar.module)
    cut = {n: E_tbar.block(n, 0)[1] for n in range(calc.D + 1)}
    mats = {}
    for n in range(calc.D + 1):
        rows = []
        for a, j, mono in _extended_entries(calc.E, calc.X, n):
            acc = 0
            for v in range(1, 1 << calc.X.summands[j].r):
                c = calc.tbar.comp_pos[(j, v)]
                for (extra, m2) in _twist_terms(mono, v):
                    if extra == 0:
                        continue
                    tgt = calc.tbar.index(n - a - extra, c, m2)
                    acc ^= 1 << (E_tbar.index(n, a + extra, tgt) - cut[n])
            rows.append(acc)
        mats[n] = BitMatrix.from_row_ints(rows, E_tbar.dim(n) - cut[n])
    return mats


def positive_u_tail(E):
    """The positive-u part of a scalar extension E as the tail of its rows.

    The u^0 block comes first in every degree, so the positive part is the
    tail ``[cut, dim)``: a matrix restricts to it by dropping the first
    ``cut`` rows and shifting the rest right by the target degree's cut.
    """
    D = E.D
    cut = [E.block(n, 0)[1] for n in range(D + 1)]

    def tail(m, n, n2):
        rows = tuple(r >> cut[n2] for r in m.row_ints()[cut[n]:])
        return BitMatrix(len(rows), E.dim(n2) - cut[n2], rows)

    dims = [E.dim(n) - cut[n] for n in range(D + 1)]
    labels = [E.labels[n][cut[n]:] for n in range(D + 1)]
    action = {
        (i, n): tail(E.sq(i, n), n, n + i)
        for n in range(D + 1) if dims[n]
        for i in range(1, D - n + 1)
    }
    return FuluModule(f"bar({E.name})", D, dims, action, labels,
                      u={n: tail(E.u_mat(n), n, n + 1) for n in range(D)})


def assert_same_u_module(got, want):
    assert got.name == want.name
    assert got.labels == want.labels
    assert got == want  # dims, Sq and u


def gv_stacked_by_monomials(r, D):
    """The g_v^* + id matrices over the generators v, side by side, per degree."""
    X = hv(r, D)
    E = extend_scalars(X.module)
    out = {}
    for n in range(D + 1):
        stacked = None
        for gen in range(r):
            rows = []
            for flat, (a, _, mono) in enumerate(_extended_entries(E, X, n)):
                acc = 0
                for (extra, m2) in _twist_terms(mono, 1 << gen):
                    acc ^= 1 << E.index(n, a + extra, X.index(n - a - extra, 0, m2))
                rows.append(acc ^ (1 << flat))
            m = BitMatrix.from_row_ints(rows, E.dim(n))
            stacked = m if stacked is None else stacked.concat_cols(m)
        out[n] = stacked
    return out


U_LINEAR_CASES = [
    *(hv(r, 7) for r in range(4)),
    hv(4, 6),
    *(realm_suspend(hv(1, 7), k) for k in (1, 3)),
    # no reduced component in degrees 0 and 1: E_tbar has empty u-blocks there
    realm_sum(hv(0, 7), realm_suspend(hv(1, 7), 2)),
    # summands of different ranks side by side, each shifted
    realm_suspend(realm_sum(hv(2, 7), hv(1, 7)), 1),
]


@pytest.mark.parametrize("X", U_LINEAR_CASES, ids=lambda X: X.name)
def test_u_linear_maps_match_the_monomial_loops(X):
    calc = RealmCalculus(X)
    degrees = range(calc.D + 1)
    for got, want in ((calc.tau, tau_by_monomials(calc)), (calc.taubar, taubar_by_monomials(calc))):
        assert [got.mat(n) for n in degrees] == [want[n] for n in degrees], got.name


@pytest.mark.parametrize("X", U_LINEAR_CASES, ids=lambda X: X.name)
def test_positive_u_part_matches_the_tail_of_the_extension(X):
    assert_same_u_module(positive_u_part(X.module), positive_u_tail(extend_scalars(X.module)))


def test_positive_u_part_of_a_loaded_fixture_matches_the_tail(tmp_path):
    path = tmp_path / "fixture.json"
    fixtures.save(tensor(free_unstable(1, 7), polynomial_module(1, 7)), path)
    M = fixtures.load(path)
    assert_same_u_module(positive_u_part(M), positive_u_tail(extend_scalars(M)))


def test_rtilde_and_t8_build_no_extension_of_the_reduced_expansion(monkeypatch):
    """bar(F[u] (x) Tbar X) is built directly, not cut out of F[u] (x) Tbar X."""
    names = []
    init = TruncatedModule.__init__

    def recording(self, name, *args, **kwargs):
        names.append(name)
        init(self, name, *args, **kwargs)

    monkeypatch.setattr(TruncatedModule, "__init__", recording)
    harness._hv_calculus.cache_clear()
    calc = harness._hv_calculus(2, 8)
    calc.rtilde
    assert harness.run_check(harness.make_spec("T8", D=8, max_rank=2)).passed
    assert "bar(Fu(x)Tbar(H(V2)))" in names
    assert not [n for n in names if n.startswith("Fu(x)Tbar(")]


@pytest.mark.parametrize("r", range(4))
def test_gv_invariant_rows_match_the_monomial_loop(r, monkeypatch):
    D = 7
    seen = []

    def recording(m):
        seen.append(m)
        return left_kernel(m)

    monkeypatch.setattr(lannes, "left_kernel", recording)
    inv, incl = RealmCalculus(hv(r, D)).invariants()
    want = gv_stacked_by_monomials(r, D)
    if r == 0:
        assert seen == []  # no generator: every vector is invariant
        assert [incl.mat(n) for n in range(D + 1)] == [
            BitMatrix.identity(inv.dim(n)) for n in range(D + 1)]
    else:
        assert seen == [want[n] for n in range(D + 1)]


def dickson_basis(calc, n):
    """The degree-n basis u^a prod q_i^{b_i} of F[u, t]^G = F[u, q_1, ..., q_r],
    q_i = t_i^2 + u t_i, expanded on monomials: q^b = sum u^k t^{2b-k} over
    the k with C(b, k) odd, the submasks of b (Lucas)."""
    r = calc.X.summands[0].r
    rows = []
    for b in product(range(n // 2 + 1), repeat=r):
        a = n - 2 * sum(b)
        if a < 0:
            continue
        acc = 0
        for ks in product(*([k for k in range(bi + 1) if k & bi == k] for bi in b)):
            e = a + sum(ks)
            mono = tuple(2 * bi - k for bi, k in zip(b, ks))
            acc ^= 1 << calc.E.index(n, e, calc.X.index(n - e, 0, mono))
        rows.append(acc)
    return BitMatrix.from_row_ints(rows, calc.E.dim(n))


@pytest.mark.parametrize("r, D", [(0, 6), (1, 9), (2, 8), (3, 7), (4, 6)])
def test_taubar_kernel_is_the_dickson_invariant_ring(r, D):
    """Each Z/2 acts on its own coordinate by t_i -> t_i + u, so the kernel of
    taubar is the rank-one Dickson invariant ring, expanded here without the
    twist expansion that tau and the invariant ring share."""
    calc = RealmCalculus(hv(r, D))
    for n in range(D + 1):
        assert image_is_kernel(dickson_basis(calc, n), calc.taubar.mat(n)), n


@pytest.mark.parametrize("r", range(4))
def test_gv_invariants_share_the_extension_of_the_calculus(r):
    D = 7
    calc, other = RealmCalculus(hv(r, D)), RealmCalculus(hv(r, D))
    (shared, incl), (alone, other_incl) = calc.invariants(), other.invariants()
    assert incl.target is calc.E and other_incl.target is other.E is not calc.E
    assert shared == alone and incl == other_incl
    # not cached: each call builds a new submodule of the same extension
    again, again_incl = calc.invariants()
    assert again is not shared and again == shared and again_incl.target is calc.E


@pytest.mark.parametrize("X", [realm_suspend(hv(1, 6)), realm_sum(hv(1, 6), hv(0, 6)),
                               realm_sum(hv(0, 6), hv(0, 6))], ids=lambda X: X.name)
def test_invariants_refuse_anything_but_one_unsuspended_hv(X):
    with pytest.raises(ValueError, match="one unsuspended H\\(V_r\\)"):
        RealmCalculus(X).invariants()


def test_t3_reads_no_layout_of_an_expansion_of_an_expansion(monkeypatch):
    """The fixed-point and split-equalizer verdicts read component matrices
    and summands, so the layouts of T(Tbar X) and T(T X) are never built."""
    expansions = []
    real = lannes.t_apply

    def recording(X):
        expansions.append(real(X))
        return expansions[-1]

    monkeypatch.setattr(lannes, "t_apply", recording)
    monkeypatch.setattr(harness, "_hv_calculus", lambda r, D: RealmCalculus(hv(r, D)))
    assert harness.run_check(harness.make_spec("T3", D=6, max_rank=2)).passed
    twice = [T for T in expansions if T.name.startswith("T[1](T")]
    assert len(twice) == 4  # T(Tbar X) and T(T X), per rank
    assert [realm.name for realm in twice if "table" in vars(realm)] == []


@pytest.mark.parametrize("X", [hv(2, 10), realm_sum(hv(1, 8), realm_suspend(hv(2, 8), 1))],
                         ids=lambda X: X.name)
def test_tau_expands_each_monomial_once_and_taubar_none(X, monkeypatch):
    """tau expands each monomial once over all variables, not once per
    group element; taubar is read off tau and expands nothing."""
    calc = RealmCalculus(X)
    lucas, twists = [], []
    lucas_terms = lannes._lucas_terms

    def counting(mono):
        lucas.append(mono)
        return lucas_terms(mono)

    monkeypatch.setattr(lannes, "_lucas_terms", counting)
    monkeypatch.setattr(lannes, "_twist_terms", lambda mono, v: twists.append(mono))
    calc.tau
    assert sorted(lucas) == sorted(mono for d in range(calc.D + 1) for _, mono in X.entries(d))
    assert twists == []
    del lucas[:]
    calc.taubar
    assert lucas == twists == []


# -- fixed points read on the component matrix; the full-matrix subquotient is the oracle --

FIX_CASES = [
    *(hv(r, 8 - r) for r in range(4)),
    realm_suspend(hv(1, 7), 2),
    realm_sum(hv(1, 7), realm_suspend(hv(0, 7), 2)),  # the rank-0 row of P is zero
    realm_sum(realm_suspend(hv(0, 7), 2), hv(1, 7)),  # source and target summands differ
]


@pytest.mark.parametrize("X", FIX_CASES, ids=lambda X: X.name)
def test_fix_parts_match_the_full_matrix_subquotient(X):
    calc = RealmCalculus(X)
    sub = subquotient(fix_taubar_of(calc, fix_taubar_by_monomials(calc)))
    for kind, want in (("kernel", sub.kernel), ("image", sub.image), ("cokernel", sub.cokernel)):
        got = calc.fix_parts[kind].module
        assert got.D == want.D == X.D, kind
        assert [got.dim(n) for n in range(X.D + 1)] == [want.dim(n) for n in range(X.D + 1)], kind


@pytest.mark.parametrize("X", FIX_CASES, ids=lambda X: X.name)
def test_fix_of_rtilde_is_the_module(X):
    calc = RealmCalculus(X)
    assert calc.fix_parts["kernel"].module == X.module  # dims and the whole Sq action
    for kind in ("image", "cokernel"):
        assert calc.fix_parts[kind].module.validate().ok, kind


def test_fix_parts_are_realized_once_without_a_subquotient(monkeypatch):
    X = hv(3, 6)
    calc = RealmCalculus(X)
    calc.rtilde

    def refuse(*args, **kwargs):
        raise AssertionError("a full-matrix subquotient ran")

    monkeypatch.setattr(lannes, "subquotient", refuse)
    monkeypatch.setattr(unstable, "quotient", refuse)
    realized = []
    realize = RealmObject._realize

    def counting(self):
        realized.append(self.name)
        return realize(self)

    monkeypatch.setattr(RealmObject, "_realize", counting)
    for _ in range(2):
        for part in calc.fix_parts.values():
            part.module
    assert sorted(realized) == ["coker(Fix(taubar))", "im(Fix(taubar))", "ker(Fix(taubar))"]


def test_fixed_point_verdict_names_the_failing_degree():
    calc = RealmCalculus(realm_sum(hv(1, 4), realm_suspend(hv(1, 4), 3)))
    assert calc.fixed_point_verdict() == Verdict(True, 4)
    # break the rows of the copies of S^3 H(V1), which is first nonzero in degree 3
    P = calc.fix_components
    calc.fix_components = BitMatrix(P.nrows, P.ncols, tuple(
        0 if calc.TX.components[c][0] == 1 else row for c, row in enumerate(P.row_ints())))
    assert calc.fixed_point_verdict() == Verdict(
        False, 4, "diagonal embedding is not the kernel of Fix(taubar) in degree 3")


def flip(P, spots):
    """P with the bits at the (row, column) spots flipped."""
    rows = list(P.row_ints())
    for c, c2 in spots:
        rows[c] ^= 1 << c2
    return BitMatrix(P.nrows, P.ncols, tuple(rows))


def edit_p(monkeypatch, edit):
    """Make both verdicts check edit(P, target expansion) in place of their P."""
    check = RealmCalculus._diagonal_is_kernel
    monkeypatch.setattr(RealmCalculus, "_diagonal_is_kernel",
                        lambda self, P, tgt, failure: check(self, edit(P, tgt), tgt, failure))


def component_map_by_monomials(src, tgt, P):
    """P (x) I, one monomial at a time: bit c2 of row c sends each monomial
    of component c of ``src`` to the same monomial of component c2 of ``tgt``."""
    mats = {}
    for n in range(src.D + 1):
        rows = []
        for c, mono in src.entries(n):
            acc = 0
            for c2 in range(P.ncols):
                if P.row_int(c) >> c2 & 1:
                    acc ^= 1 << tgt.index(n, c2, mono)
            rows.append(acc)
        mats[n] = BitMatrix.from_row_ints(rows, tgt.table.dims[n])
    return mats


def verdict_by_degree(calc, P, tgt, failure):
    """The degree-n oracle: im(Dg (x) I) = ker(P (x) I) in each degree n <= D."""
    diag = diag_by_monomials(calc)
    mats = component_map_by_monomials(calc.TX, tgt, P)
    for n in range(calc.D + 1):
        if not image_is_kernel(diag[n], mats[n]):
            return Verdict(False, calc.D, f"{failure} in degree {n}")
    return Verdict(True, calc.D)


DIFFERENTIAL_CASES = [
    *FIX_CASES,
    realm_suspend(hv(0, 6), 3),  # one rank-0 summand
    realm_sum(hv(1, 5), realm_suspend(hv(2, 5), 1)),
    realm_sum(realm_suspend(hv(2, 5), 1), hv(1, 5)),
    realm_sum(hv(1, 5), hv(1, 5)),  # two summands of one type
    realm_sum(hv(1, 4), realm_suspend(hv(1, 4), 6)),  # a type that is zero through D
]


@pytest.mark.parametrize("X", DIFFERENTIAL_CASES, ids=lambda X: X.name)
def test_p_level_verdicts_match_the_degree_n_oracle(X, monkeypatch):
    """Flip random bits of P between copies of one summand: the verdicts read
    on P and the degree-n loop on P (x) I agree, witnesses included."""
    calc = RealmCalculus(X)
    assert calc.fixed_point_verdict().ok and calc.split_equalizer_verdict().ok
    rng = random.Random(X.name)
    checked = []

    def perturb(P, tgt):
        mid, dst = calc.TX.summands, tgt.summands
        spots = [(c, c2) for c in range(P.nrows) for c2 in range(P.ncols) if mid[c] == dst[c2]]
        P = flip(P, rng.sample(spots, min(len(spots), rng.randint(1, 3))))
        checked.append((P, tgt))
        return P

    edit_p(monkeypatch, perturb)
    verdicts = [
        (calc.fixed_point_verdict, "diagonal embedding is not the kernel of Fix(taubar)"),
        (calc.split_equalizer_verdict, "split equalizer fails"),
    ]
    got, want = [], []
    for _ in range(10):
        for verdict, failure in verdicts:
            got.append(verdict())
            want.append(verdict_by_degree(calc, *checked[-1], failure))
    assert got == want
    assert any(not v.ok for v in got)


# -- work done on first read -------------------------------------------------------


def count_builds(monkeypatch):
    """Count, by module name, the modules constructed and the actions built
    (a dict action when its module is constructed, a function on first read)."""
    built, actions = Counter(), Counter()
    init, checked = TruncatedModule.__init__, TruncatedModule._checked

    def counting_init(self, name, *args, **kwargs):
        built[name] += 1
        init(self, name, *args, **kwargs)

    def counting_checked(self, action):
        actions[self.name] += 1
        return checked(self, action)

    monkeypatch.setattr(TruncatedModule, "__init__", counting_init)
    monkeypatch.setattr(TruncatedModule, "_checked", counting_checked)
    return built, actions


UNREAD_BY_RTILDE = ("Fu(x)T[1](", "T[1](", "Tbar(", "Fu(x)Tbar(", "bar(", "im(taubar)",
                    "coker(taubar)")


def test_rtilde_and_fix_build_only_the_actions_they_read(monkeypatch):
    X = hv(2, 8)
    calc = RealmCalculus(X)
    built, actions = count_builds(monkeypatch)
    calc.rtilde
    F = calc.fix_parts["kernel"].module
    assert F.dims == X.table.dims
    assert [name for name in actions if name.startswith(UNREAD_BY_RTILDE)] == []
    # taubar's source and its kernel, once each
    assert (actions["Fu(x)H(V2)"], actions["ker(taubar)"]) == (1, 1)
    assert "im(taubar)" not in built and "coker(taubar)" not in built


def test_taubar_parts_are_built_once_on_first_read(monkeypatch):
    sub = RealmCalculus(hv(2, 8)).taubar_sub
    built, actions = count_builds(monkeypatch)
    for _ in range(2):
        assert sub.cokernel is sub.cokernel and sub.image is sub.image
    assert built == {"coker(taubar)": 1, "im(taubar)": 1}
    assert actions["im(taubar)"] == 1 and "coker(taubar)" not in actions


def test_t8_reads_dims_from_the_layouts(monkeypatch):
    monkeypatch.setattr(harness, "_hv_calculus", lambda r, D: RealmCalculus(hv(r, D)))
    built, _ = count_builds(monkeypatch)
    harness._check_t8({"D": 6, "max_rank": 2})
    assert [name for name in built
            if name.startswith("T[1](Tbar(") or name.endswith("(Fix(taubar))")] == []
    assert "im(taubar)" not in built  # linearity is certified on the u^0 layer


def test_labels_are_built_on_first_read_and_match_the_eager_oracles(monkeypatch):
    D = 8
    calc = RealmCalculus(hv(2, D))
    built = Counter()
    checked = TruncatedModule._checked_labels

    def counting(self, labels):
        built[self.name] += 1
        return checked(self, labels)

    monkeypatch.setattr(TruncatedModule, "_checked_labels", counting)
    K = calc.rtilde
    assert set(built) <= {"H(V2)"}  # only a polynomial module, built with its labels
    built.clear()
    # read later, each once, and equal to the eagerly built labels
    parts = {"H(V2)": calc.X.module, "Fu(x)H(V2)": calc.E, "ker(taubar)": K,
             "T[1](H(V2))": calc.TX.module, "Fu(x)T[1](H(V2))": calc.ETX,
             "Tbar(H(V2))": calc.tbar.module, "bar(Fu(x)Tbar(H(V2)))": calc.bar}
    got = {name: (M.labels, M.labels) for name, M in parts.items()}
    assert built == {name: 1 for name in parts}
    fu = fulu_algebra(D)
    tbar = calc.tbar.module
    cut = tensor_with_layout(fu, tbar)[0].labels
    kernel = calc.taubar_sub.kernel_incl
    want = {
        "H(V2)": realize_by_compositions(calc.X).labels,
        "Tbar(H(V2))": realize_by_compositions(calc.tbar).labels,
        "Fu(x)H(V2)": tensor_with_layout(fu, calc.X.module)[0].labels,
        "ker(taubar)": tuple(
            tuple(_sum_label(calc.E.labels[n], row) for row in kernel.mat(n).row_ints())
            for n in range(D + 1)),
        "T[1](H(V2))": realize_by_compositions(calc.TX).labels,
        "Fu(x)T[1](H(V2))": tensor_with_layout(fu, calc.TX.module)[0].labels,
        "bar(Fu(x)Tbar(H(V2)))": tuple(cut[n][tbar.dims[n]:] for n in range(D + 1)),
    }
    for name, (first, again) in got.items():
        assert first is again and first == want[name], name


def taubar_layer(calc):
    """The rows of taubar on the u^0 layer of its source, by degree."""
    return [calc.taubar.mat(d).take_rows(range(calc.X.table.dims[d])).row_ints()
            for d in range(calc.D + 1)]


@pytest.mark.parametrize("r", [1, 2])
def test_bit_flips_of_the_taubar_layer_fail_the_u0_verdict(r):
    """Every one-bit flip of taubar's u^0 layer, extended u-linearly, below
    the top degree fails ``u_linear_verdict``.  The image-closure check that
    T8 ran before misses some of them, and catches none that the verdict
    passes."""
    D = 4
    calc = RealmCalculus(hv(r, D))
    assert u_linear_verdict(calc.taubar) == Verdict(True, D)
    layer = taubar_layer(calc)
    missed_by_closure = 0
    for d in range(D + 1):
        for i in range(len(layer[d])):
            for c in range(calc.bar.dim(d)):
                flipped = [list(rows) for rows in layer]
                flipped[d][i] ^= 1 << c
                f = u_linear_map(calc.E, calc.bar, flipped, name="taubar")
                ok = u_linear_verdict(f).ok
                try:
                    subquotient(f).image
                    closed = True
                except TheoryViolation:
                    closed = False
                assert closed or not ok, (d, i, c)
                if d < D:
                    assert not ok, (d, i, c)
                    missed_by_closure += closed
    assert missed_by_closure > 0


def _flip_u0_layer(calc):
    """taubar with one bit of its degree-1 u^0 layer flipped, u-linear still."""
    layer = taubar_layer(calc)
    layer[1][0] ^= 1
    return u_linear_map(calc.E, calc.bar, layer, name="taubar")


def _flip_u1_block(calc):
    """taubar with one bit flipped on u times the degree-1 generator only."""
    mats = {n: calc.taubar.mat(n) for n in range(calc.D + 1)}
    rows = mats[2].row_ints()
    rows[calc.X.table.dims[2]] ^= 1  # the first row of the u^1 block
    mats[2] = BitMatrix.from_row_ints(rows, mats[2].ncols)
    return ModuleMap(calc.E, calc.bar, mats, name="taubar")


@pytest.mark.parametrize("mutant, witness", [
    (_flip_u0_layer, "not A-linear at (i=1, n=1) on the u^0 layer"),
    (_flip_u1_block, "not u-equivariant at degree 1"),
])
def test_t8_fails_on_a_taubar_that_is_not_a_module_map(mutant, witness, monkeypatch):
    calc = RealmCalculus(hv(1, 4))
    calc.__dict__["taubar"] = mutant(calc)
    assert u_linear_verdict(calc.taubar) == Verdict(False, 4, witness)
    monkeypatch.setattr(harness, "_hv_calculus", lambda r, D: calc)
    res = harness.run_check(harness.make_spec("T8", D=4, max_rank=1))
    assert not res.passed
    assert res.witness == f"rank 1: linearity of taubar: {witness}"


@pytest.mark.parametrize("r", [1, 2])
def test_a_taubar_whose_u1_layer_is_not_the_shift_fails_the_u_check(r):
    """One bit flipped in the u^1 block of degree n + 1, which u carries the
    u^0 layer of degree n onto, is caught at degree n."""
    D = 5
    calc = RealmCalculus(hv(r, D))
    for n in range(D):
        mats = {d: calc.taubar.mat(d) for d in range(D + 1)}
        rows = mats[n + 1].row_ints()
        first = calc.E.block(n + 1, 1)[0]  # the u^1 block: u times degree n's u^0 layer
        rows[first] ^= 1 << (calc.bar.dim(n + 1) - 1)
        mats[n + 1] = BitMatrix.from_row_ints(rows, calc.bar.dim(n + 1))
        f = ModuleMap(calc.E, calc.bar, mats, name="taubar")
        assert u_linear_verdict(f) == Verdict(False, D, f"not u-equivariant at degree {n}")


@pytest.mark.parametrize("r", [1, 2])
def test_a_flipped_bit_of_the_cokernel_projection_fails_exactness(r):
    """The projection's rank is certified by its construction; a copy with
    one bit flipped is a new matrix, whose rank is eliminated, and the
    sequence 0 -> ker -> E -> bar -> coker -> 0 fails.  Each flip either
    breaks taubar @ proj = 0 (a bit in a pivot row) or the rank sum (a bit
    that empties an identity row whose column no other row has set)."""
    D = 5
    calc = RealmCalculus(hv(r, D))
    sub = calc.taubar_sub
    names = ("kernel", "extension", "reduced part", "cokernel")
    assert exact_sequence((sub.kernel_incl, calc.taubar, sub.coker_proj), names).ok
    failed = 0
    for n in range(1, D + 1):
        proj = sub.coker_proj.mat(n)
        rows = proj.row_ints()
        for i, row in enumerate(rows):
            if not row:
                continue
            flipped = rows.copy()
            flipped[i] ^= row & -row
            mats = {d: sub.coker_proj.mat(d) for d in range(D + 1)}
            mats[n] = BitMatrix.from_row_ints(flipped, proj.ncols)
            g = ModuleMap(calc.bar, sub.cokernel, mats)
            got = exact_sequence((sub.kernel_incl, calc.taubar, g), names)
            assert not got.ok and got.witness.startswith(
                f"exactness fails at reduced part in degree {n}: "), (n, i)
            failed += 1
    assert failed > 0


def _realm_cases(D):
    X = hv(2, D)
    return [hv(0, D), X, realm_suspend(hv(1, D), 2), t_apply(X), RealmCalculus(X).tbar,
            realm_sum(hv(1, D), realm_suspend(hv(0, D), 2))]


@pytest.mark.parametrize("case", range(6))
def test_realm_rows_under_sq_match_the_action_and_build_none(case):
    """``RealmModule.sq_rows`` reads the summands' matrices in place: on the
    unit rows and on random rows it equals the product with the action,
    which stays unbuilt until ``sq`` reads it."""
    D = 6
    M = _realm_cases(D)[case].module
    rng = random.Random(case)
    got = {}
    for n in range(D + 1):
        unit = BitMatrix.identity(M.dim(n))
        rows = BitMatrix.from_row_ints([rng.getrandbits(M.dim(n)) for _ in range(3)], M.dim(n))
        for k in range(D - n + 1):
            got[(k, n)] = (rows, M.sq_rows(k, n, unit), M.sq_rows(k, n, rows))
        with pytest.raises(TruncationError):
            M.sq_rows(D - n + 1, n, unit)
    assert callable(M._act)
    for (k, n), (rows, on_units, on_rows) in got.items():
        assert on_units == M.sq(k, n) and on_rows == rows @ M.sq(k, n), (M.name, k, n)


def test_t8_leaves_u_and_the_action_of_bar_unbuilt(monkeypatch):
    """After T8, u of E, ETX and bar, the Sq actions of bar and of Tbar X
    and the matrices of the cokernel projection are still pending: u is the
    shift, Sq on bar's rows the row Cartan sum over Tbar X's summand blocks,
    and the projection an operator."""
    built, projections = [], []

    def calculus(r, D):
        built.append(RealmCalculus(hv(r, D)))
        return built[-1]

    class Recorded(SubspaceProjection):
        def __init__(self, X):
            super().__init__(X)
            projections.append(self)

    monkeypatch.setattr(harness, "_hv_calculus", calculus)
    monkeypatch.setattr(harness, "SubspaceProjection", Recorded)
    assert harness.run_check(harness.make_spec("T8", D=8, max_rank=3)).passed
    assert len(built) == len(projections) == 3
    for calc, proj in zip(built, projections):
        assert callable(calc.bar._act) and callable(calc.tbar.module._act)
        for N in (calc.E, calc.ETX, calc.bar, proj.target):
            assert callable(N._u), N.name
        assert proj.source is calc.bar and proj._mats == {}
        # no Subquotient cokernel, and no elimination of taubar's matrices
        assert not {"_coker", "_im_bases"} & set(calc.taubar_sub.__dict__)


def test_u_linear_verdict_needs_a_map_out_of_a_whole_extension():
    calc = RealmCalculus(hv(1, 4))
    for f in (calc.diag, ModuleMap.zero(calc.bar, calc.bar)):
        with pytest.raises(ValueError):
            u_linear_verdict(f)


def test_t8_builds_u_only_where_it_reads_it(monkeypatch):
    """u on N/uN is zero and nothing reads it; the cokernel of taubar is read
    off the image of taubar, so no u on a cokernel is built."""
    monkeypatch.setattr(harness, "_hv_calculus", lambda r, D: RealmCalculus(hv(r, D)))
    built = Counter()
    checked = FuluModule._checked_u

    def counting(self, u):
        built[self.name] += 1
        return checked(self, u)

    monkeypatch.setattr(FuluModule, "_checked_u", counting)
    harness._check_t8({"D": 6, "max_rank": 2})
    assert [name for name in built if name.startswith("Q(")] == []
    assert [name for name in built if "coker" in name or name.endswith("/X")] == []


def test_t8_builds_no_cokernel_module_and_eliminates_no_q_of_one(monkeypatch):
    """T8 builds neither the cokernel of taubar nor, by elimination, its
    indecomposables: q_data runs on scalar extensions and on the kernel
    only, and Q of the cokernel is the quotient of Q(bar) by the u^1 pivots."""
    monkeypatch.setattr(harness, "_hv_calculus", lambda r, D: RealmCalculus(hv(r, D)))
    built, _ = count_builds(monkeypatch)
    q_inputs = []
    real = harness.q_data

    def recording(N):
        q_inputs.append(N.name)
        return real(N)

    monkeypatch.setattr(harness, "q_data", recording)
    D = 6
    harness._check_t8({"D": D, "max_rank": 2})
    assert [name for name in built if "coker(taubar)" in name] == []
    assert sorted(set(q_inputs)) == ["Fu(x)H(V1)", "Fu(x)H(V2)", "bar(Fu(x)Tbar(H(V1)))",
                                     "bar(Fu(x)Tbar(H(V2)))", "ker(taubar)"]
    assert built["(Q(bar(Fu(x)Tbar(H(V2)))))/X"] == 1


def test_t8_and_t11_share_one_loop_module_per_rank(monkeypatch):
    """The loop-functor data of H(V_r) are built once per rank and degree,
    on the shared calculus, and read by T8's alpha and by T11."""
    harness._hv_calculus.cache_clear()
    built, _ = count_builds(monkeypatch)
    results = harness.run_all(D=6, max_rank=2, only=["T8", "T11"])
    harness._hv_calculus.cache_clear()
    assert all(r.passed for r in results)
    loops = {name: count for name, count in built.items()
             if name.startswith(("Ph(", "ker(Sq0_", "coker(Sq0_", "Om(", "Om1("))}
    assert loops == {name.format(f"H(V{r})"): 1 for r in (1, 2) for name in
                     ("Ph({})", "ker(Sq0_{})", "coker(Sq0_{})", "Om({})", "Om1({})")}


T8_GRID = [(8, 1), (8, 2), (8, 3), (14, 1), (14, 2)]


@pytest.mark.parametrize("D, r", T8_GRID)
def test_the_image_of_taubar_from_its_u0_layer_matches_the_elimination(D, r):
    calc = RealmCalculus(hv(r, D))
    image = calc.taubar_image
    for n in range(D + 1):
        assert image.bases[n] == Subspace.from_rows(calc.taubar.mat(n)).basis, n


@pytest.mark.parametrize("D, r", T8_GRID)
def test_the_cokernel_projection_operator_matches_the_dense_projection(D, r):
    """The operator against ``_coker_data`` on the eliminated image, and the
    Subquotient's cokernel: matrices, products on taubar's rows and on
    random rows, ranks, dims, labels and u."""
    calc = RealmCalculus(hv(r, D))
    sub = calc.taubar_sub
    proj = SubspaceProjection(calc.taubar_image)
    rng = random.Random(100 * D + r)
    for n in range(D + 1):
        width = calc.bar.dim(n)
        dense, cols = unstable._coker_data(Subspace.from_rows(calc.taubar.mat(n)).basis, width)
        assert proj.rep_cols[n] == cols == list(sub.coker_cols[n])
        rows = BitMatrix.from_row_ints([rng.getrandbits(width) for _ in range(20)], width)
        assert proj.apply(n, rows) == rows @ dense
        assert proj.apply(n, calc.taubar.mat(n)) == calc.taubar.mat(n) @ dense
        assert proj.apply(n, calc.taubar.mat(n)).is_zero()
        assert proj.mat(n) == dense == sub.coker_proj.mat(n)
        assert proj.rank(n) == rank(BitMatrix.from_row_ints(dense.row_ints(), dense.ncols))
    assert proj.target.dims == sub.cokernel.dims
    assert proj.target.labels == sub.cokernel.labels
    assert proj.target.u_items() == sub.cokernel.u_items()


@pytest.mark.parametrize("D, r", T8_GRID)
def test_q_of_the_cokernel_from_the_u1_pivots_matches_the_elimination(D, r):
    calc = RealmCalculus(hv(r, D))
    sub = calc.taubar_sub
    q_bar = q_data(calc.bar)
    got = q_of_quotient(q_bar, calc.taubar_image)
    want = q_data(sub.cokernel)
    assert got.target.dims == want.module.dims
    assert got.target.labels == want.module.labels
    induced = q_of_map(sub.coker_proj, q_bar, want)
    for n in range(D + 1):
        assert got.mat(n) == induced.mat(n), n


@pytest.mark.parametrize("D, r", T8_GRID)
def test_saturation_of_the_image_matches_torsion_of_the_cokernel(D, r):
    calc = RealmCalculus(hv(r, D))
    assert saturation_check(calc.taubar_image) == torsion_free(calc.taubar_sub.cokernel)


def _with_rows(X, n, rows):
    """A copy of the graded subspace X with the rows of degree n replaced,
    unchecked: the mutants below are not u-submodules."""
    Y = GradedSubspace.__new__(GradedSubspace)
    Y.ambient = X.ambient
    Y.bases = {**X.bases, n: BitMatrix.from_row_ints(rows, X.ambient.dim(n))}
    return Y


def test_t8_fails_exactness_at_the_reduced_part_on_a_dropped_image_row(monkeypatch):
    calc = RealmCalculus(hv(1, 4))
    image = calc.taubar_image
    calc.__dict__["taubar_image"] = _with_rows(image, 3, image.bases[3].row_ints()[1:])
    monkeypatch.setattr(harness, "_hv_calculus", lambda r, D: calc)
    res = harness.run_check(harness.make_spec("T8", D=4, max_rank=1))
    assert not res.passed
    assert res.witness == ("rank 1: u-module sequence: exactness fails at reduced part in "
                           "degree 3: [u|<0:1>t^2]+[u^2|<0:1>t] (in the first side only)")


def test_t8_fails_the_induced_sequence_on_a_wrong_u1_trace(monkeypatch):
    """One bit flipped, at a column that is no pivot, in a row of the image
    whose pivot lies in the u^1 block: Q of the cokernel keeps its dims but
    no longer contains the image of Q(taubar)."""
    real = harness.q_of_quotient

    def wrong_trace(q_amb, X):
        if X.ambient.block(1, 1)[1] < 3:  # rank 1 has no such column
            return real(q_amb, X)
        rows = X.bases[1].row_ints()
        assert rows[0] & 1 and not any(r & 0b100 & -r for r in rows)
        rows[0] ^= 0b100
        return real(q_amb, _with_rows(X, 1, rows))

    monkeypatch.setattr(harness, "q_of_quotient", wrong_trace)
    res = harness.run_check(harness.make_spec("T8", D=4, max_rank=2))
    assert not res.passed
    assert res.witness.startswith(
        "rank 2: induced sequence: exactness fails at suspended reduced part in degree 1: ")


def test_t8_fails_the_cokernel_torsion_check_on_an_unsaturated_image(monkeypatch):
    """Saturation read on the image without one of its rows of degree 3:
    u times that row still lies in the image, so the row is the witness."""
    real = harness.saturation_check
    monkeypatch.setattr(
        harness, "saturation_check",
        lambda X: real(_with_rows(X, 3, X.bases[3].row_ints()[1:])))
    res = harness.run_check(harness.make_spec("T8", D=4, max_rank=1))
    assert not res.passed
    assert res.witness == ("rank 1: cokernel torsion: degree 3: u*([u|<0:1>t^2]+[u^2|<0:1>t]) "
                           "lies in X but [u|<0:1>t^2]+[u^2|<0:1>t] does not")


def test_t8_fails_the_freeness_forecast_on_a_wrong_cokernel_dimension(monkeypatch):
    """An image one dimension too large in the top degree, read only by the
    cokernel's dims there, makes the cokernel one too small."""
    real = GradedSubspace.dim
    monkeypatch.setattr(GradedSubspace, "dim",
                        lambda self, n: real(self, n) + (n == self.ambient.D))
    res = harness.run_check(harness.make_spec("T8", D=5, max_rank=1))
    assert not res.passed
    assert res.witness == "rank 1: cokernel not free on the suspended division term at degree 5"


@pytest.mark.parametrize("r", [1, 2, 3])
def test_taubar_kernel_and_invariants_eliminate_each_degree_once(r, monkeypatch):
    """Sq and u on a submodule share one reducer per degree of its basis."""
    D = 6
    calc = RealmCalculus(hv(r, D))
    calc.taubar
    eliminated = []
    init = RowReducer.__init__

    def recording(self, basis):
        eliminated.append(basis)
        init(self, basis)

    monkeypatch.setattr(RowReducer, "__init__", recording)
    for build in (lambda: calc.taubar_sub.kernel, calc.invariants):
        eliminated.clear()
        build()
        assert 0 < len({id(b) for b in eliminated}) == len(eliminated) <= D + 1


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("first", ["image", "cokernel"])
def test_taubar_parts_agree_in_either_order(r, first):
    taubar = RealmCalculus(hv(r, 6)).taubar
    a, b = subquotient(taubar), subquotient(taubar)
    names = ["image", "factor", "cokernel", "coker_proj"]
    for name in names if first == "image" else names[::-1]:
        getattr(a, name)
    assert (a.image, a.cokernel) == (b.image, b.cokernel)
    assert a.factor == b.factor and a.coker_proj == b.coker_proj
    for part in (a.kernel, a.image, a.cokernel):
        assert part.validate().ok, part.name
    for g in (a.factor, a.coker_proj):
        assert g.validate_linear().ok
