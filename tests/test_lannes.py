import random
import re
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usteen import cli, f2core, fixtures, fulu, harness, lannes, singer, unstable
from usteen.f2core import BitMatrix, RowReducer, Subspace, image_is_kernel, left_kernel, rank
from usteen.fulu import (
    GradedSubspace,
    extend_scalars,
    extend_scalars_map,
    indecomposables,
    positive_u_part,
    q_data,
    q_of_map,
    saturation_check,
    torsion_free,
    ULinearMap,
    u_linear_verdict,
)
from usteen.lannes import (
    RealmCalculus,
    RealmObject,
    _twist_plus_id,
    alpha_from_structure,
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
    _mono_label,
    _monomials,
    _sum_label,
    exact_sequence,
    free_unstable,
    is_reduced,
    omega,
    phi,
    polynomial_module,
    quotient,
    submodule,
    tensor,
    tensor_with_layout,
    unit_module,
)

from reference import (
    bar_runs_by_columns,
    checked_graded_subspace,
    clear_memos,
    coker_data,
    component_map,
    concat_cols,
    compositions_submask,
    dense_quotient,
    diag_map,
    fulu_algebra,
    image_submodule,
    drop_u0_copies,
    q_of_quotient,
    Subquotient,
    taubar_image_rref,
    taubar_kernel_spaces,
    taubar_subquotient,
    twist_terms,
)


def taubar_image_module(calc):
    """The image of taubar as T7 builds it: the submodule of bar on the
    basis that leg (c) certifies (``RealmCalculus.image_basis``)."""
    bases = {n: calc.image_basis(n) for n in range(calc.D + 1)}
    return submodule(calc.bar, bases, "im(taubar)")[0]


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
                for c in compositions_submask(a, k):
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
        realm_sum(realm_suspend(hv(1, 9), 2), realm_sum(hv(2, 9), realm_suspend(hv(0, 9), 3))),
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


def sigma_of(calc):
    """sigma, the identity into every component: the scalar extension of
    the splitting embedding ``diag_map``."""
    return extend_scalars_map(diag_map(calc), calc.E, calc.ETX, name="sigma")


def test_tau_degree_one_pins_the_convention():
    # on the rank-one extension: tau_v(t) = t + u for v != 0, tau_v(u) = u,
    # and sigma_v = identity; derived from the dual basis by hand.  tau is
    # the per-monomial oracle; taubar keeps its positive-u bits off component 0
    X = hv(1, 6)
    calc = RealmCalculus(X)
    sigma, tau = sigma_of(calc), ModuleMap(calc.E, calc.ETX, tau_by_monomials(calc))
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
    # taubar keeps the u of component 1, the one basis vector of bar in
    # degree 1; it is pi o tau on the u^0 layer, extended u-linearly, so it
    # kills u = u * 1, as the unit's row of degree 0 is empty
    u_bar = 1 << calc.bar.index(1, 1, calc.tbar.index(0, calc.tbar.comp_pos[(0, 1)], (0,)))
    assert (calc.taubar.mat(1).row_int(i_t), calc.taubar.mat(1).row_int(i_u)) == (u_bar, 0)


def test_sigma_tau_agree_on_zero_component():
    calc = RealmCalculus(hv(1, 6))
    retract = retract_by_monomials(calc)
    for n in range(calc.D + 1):
        ident = BitMatrix.identity(calc.E.dim(n))
        assert sigma_of(calc).mat(n) @ retract[n] == ident
        assert tau_by_monomials(calc)[n] @ retract[n] == ident


@pytest.mark.parametrize("X", [hv(1, 6), hv(2, 5)], ids=lambda X: X.name)
@pytest.mark.parametrize("component", ["zero", "nonzero"])
def test_equalizer_verdict_fails_on_a_tau_that_drops_a_copy_of_the_unit(X, component):
    """sigma and tau agree on component 0 and modulo u, which taubar = pi o tau
    relies on; a tau whose u^0 terms miss a component breaks either, fails
    the verdict in degree 0, and the witness names the bit of sigma + tau
    outside bar.  taubar is unchanged."""
    v = 0 if component == "zero" else 1
    calc, intact = RealmCalculus(X), RealmCalculus(X)
    drop_u0_copies(intact, [])
    assert intact.equalizer_verdict.ok
    drop_u0_copies(calc, [v])
    assert calc.equalizer_verdict == Verdict(
        False, X.D, f"sigma + tau is not taubar in degree 0: its value on 1 has [1|<0:{v}>1] "
                    "outside bar")
    assert calc.taubar.layer == intact.taubar.layer


def test_rtilde_raises_on_every_read_when_the_equalizer_fails():
    calc = RealmCalculus(hv(1, 6))
    drop_u0_copies(calc, [0])
    for _ in range(2):
        with pytest.raises(unstable.TheoryViolation,
                           match=r"^sigma \+ tau is not taubar in degree 0: "):
            calc.rtilde


@pytest.mark.parametrize("X", [hv(1, 6), hv(2, 4)], ids=lambda X: X.name)
def test_rtilde_fails_at_construction_when_a_tau_bit_inside_bar_breaks_the_kernel(X):
    """Flipping one bit of tau's u^0 layer inside bar, one bit of taubar's
    layer, leaves sigma + tau = iota o taubar, so the equalizer passes.
    Reading rtilde raises, with the
    witness of leg (b) or (c) of its certificate, whenever the kernel of
    the new taubar, eliminated, is not the span of the closed basis, and
    some flip makes it so; when it passes, the two agree.  The certificate
    is sufficient, not necessary: a flip may keep the kernel and still
    break the distinct lowest bits of leg (c), and then rtilde raises too,
    with no elimination to fall back on."""
    base = RealmCalculus(X)
    E, bar, closed = base.E, base.bar, base.kernel_spaces
    broken = 0
    for d in range(X.D + 1):
        for x, bit in product(range(X.table.dims[d]), range(bar.dims[d])):
            layer = [list(rows) for rows in base.taubar.layer]
            layer[d][x] ^= 1 << bit
            calc = RealmCalculus(X)
            calc.taubar = ULinearMap(E, bar, layer, name="taubar")
            assert calc.equalizer_verdict.ok
            kernel = [left_kernel(calc.taubar.mat(n)) for n in range(X.D + 1)]
            broken += kernel != closed
            try:
                spaces = calc.kernel_spaces
            except TheoryViolation as exc:
                assert re.match(r"ker\(taubar\): taubar (does not kill the u-generator|falls "
                                r"short of rank dim E - #rows)", str(exc)), exc
            else:
                assert spaces == kernel == closed
    assert broken


def test_comparison_maps_are_fulu_maps():
    calc = RealmCalculus(hv(1, 6))
    assert sigma_of(calc).validate_linear().ok
    assert ModuleMap(calc.E, calc.ETX, tau_by_monomials(calc)).validate_linear().ok
    assert calc.taubar.validate_linear().ok


def test_equalizer_equals_taubar_kernel():
    for X in (hv(0, 6), hv(1, 8), hv(2, 6), realm_suspend(hv(1, 7), 1)):
        calc = RealmCalculus(X)
        assert calc.equalizer_verdict.ok


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
    kx = calc_x.kernel_incl
    ksx = calc_sx.kernel_incl
    for n in range(1, 9):
        # the extension bases at matching degrees are identified flatwise
        assert Subspace.from_rows(ksx.mat(n)) == Subspace.from_rows(kx.mat(n - 1))


def test_rtilde_of_sum_is_sum():
    A = hv(1, 7)
    B = realm_suspend(hv(0, 7), 2)
    S = realm_sum(A, B)
    ca, cb, cs = RealmCalculus(A), RealmCalculus(B), RealmCalculus(S)
    for n in range(8):
        got = cs.rtilde.dim(n)
        assert got == ca.rtilde.dim(n) + cb.rtilde.dim(n)


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
    oracle = taubar_kernel_spaces(calc)
    for n in range(11):
        a = calc.kernel_spaces[n]
        b = Subspace.from_rows(incl.mat(n))
        c = S.span(n)
        assert a == b == c == oracle[n]


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
        diag = diag_map(calc)
        for n in range(X.D + 1):
            diag_im = Subspace.from_rows(diag.mat(n))
            assert diag_im == left_kernel(fix_taubar_by_monomials(calc)[n])


def test_fix_split_equalizer():
    for X in (hv(1, 6), hv(2, 5)):
        assert RealmCalculus(X).split_equalizer_verdict().ok


def test_fix_taubar_is_a_linear():
    calc = RealmCalculus(hv(1, 8))
    assert fix_taubar_of(calc, fix_taubar_by_monomials(calc)).validate_linear().ok


def test_c1_dims_rank1():
    c1 = taubar_image_module(RealmCalculus(hv(1, 10)))
    assert [c1.dim(n) for n in range(11)] == [(n + 1) // 2 for n in range(11)]


def test_c2_torsion_free_and_fix():
    calc = RealmCalculus(hv(1, 10))
    assert torsion_free(taubar_subquotient(calc).coker.target).ok
    assert torsion_free(taubar_image_module(calc)).ok
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
    assert is_reduced(taubar_image_module(RealmCalculus(hv(1, 10)))).ok


def test_saturation_of_rtilde():
    X = hv(1, 8)
    calc = RealmCalculus(X)
    calc.rtilde  # certifies the equalizer
    sub = checked_graded_subspace(
        calc.E, {n: calc.kernel_incl.mat(n) for n in range(9)}
    )
    assert saturation_check(sub).ok


def test_alpha_rank1_injective():
    ar = RealmCalculus(hv(1, 10)).alpha()
    assert ar.alpha.validate_linear().ok
    for n in range(ar.alpha.D + 1):
        assert left_kernel(ar.alpha.mat(n)).dim == 0
    # cokernel lives in odd degrees only, dimension one each
    for n in range(ar.div.D + 1):
        assert ar.div.dim(n) == (1 if n % 2 == 1 else 0)
    assert sum(ar.derived1.dims) == 0


def test_alpha_rank2_injective():
    ar = RealmCalculus(hv(2, 8)).alpha()
    for n in range(ar.alpha.D + 1):
        assert left_kernel(ar.alpha.mat(n)).dim == 0
    assert sum(ar.derived1.dims) == 0


def test_alpha_on_doubled_free_module_vanishes():
    # fixture route: the reduced expansion of the doubled rank-one free module
    # is the ground field, and the structure map is forced to vanish
    P = phi(free_unstable(1, 8))
    tbar = unit_module(P.D)
    ar = alpha_from_structure(omega(P), tbar, {})
    for n in range(ar.alpha.D + 1):
        assert ar.alpha.mat(n).is_zero()
    # the kernel is the suspension of the ground field
    assert [ar.derived1.dim(n) for n in range(min(6, ar.derived1.D) + 1)] == [0, 1, 0, 0, 0, 0, 0]
    assert sum(ar.omega_data.omega1.dims) == 0


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
    sub = taubar_subquotient(calc)
    q_r = indecomposables(calc.rtilde)
    q_e = indecomposables(calc.E)
    q_bar = indecomposables(positive_u_tail(extend_scalars(calc.tbar.module)))
    q_c2 = indecomposables(sub.coker.target)
    for n in range(11):
        assert q_r.dim(n) == (1 if n % 2 == 0 else 0)  # the doubled base
        assert q_e.dim(n) == 1                          # the base
    for n in range(10):
        assert q_bar.dim(n + 1) == calc.tbar.module.dim(n)  # suspended reduced part


def test_c_functors_of_unit_realm_vanish():
    calc = RealmCalculus(hv(0, 8))
    assert sum(taubar_image_module(calc).dims) == 0
    assert sum(taubar_subquotient(calc).coker.target.dims) == 0


def test_saturation_of_rtilde_all_realm_fixtures():
    for X in (hv(0, 6), hv(1, 6), hv(2, 6), realm_suspend(hv(1, 6), 1)):
        calc = RealmCalculus(X)
        calc.rtilde  # certifies the equalizer
        sub = checked_graded_subspace(
            calc.E,
            {n: calc.kernel_incl.mat(n) for n in range(X.D + 1)},
        )
        assert saturation_check(sub).ok, X.name


def test_tau_sigma_returns_validated_maps():
    calc = RealmCalculus(hv(1, 6))
    assert sigma_of(calc).validate_linear().ok
    assert ModuleMap(calc.E, calc.ETX, tau_by_monomials(calc)).validate_linear().ok
    assert calc.taubar.validate_linear().ok


def test_comparison_maps_validate_at_rank2():
    calc = RealmCalculus(hv(2, 5))
    assert sigma_of(calc).validate_linear().ok
    assert ModuleMap(calc.E, calc.ETX, tau_by_monomials(calc)).validate_linear().ok
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
    _assert_tiles(E, E.dims)
    for n in range(D + 1):
        flats = [E.index(n, a, j) for a, _, w in E.blocks(n) for j in range(w)]
        assert flats == list(range(E.dim(n)))
        assert [E.decode(n, f) for f in flats] == [
            (a, j) for a, _, w in E.blocks(n) for j in range(w)
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


@pytest.mark.parametrize("X", [hv(1, 0), hv(1, 12), hv(2, 9), hv(3, 6),
                               realm_suspend(hv(1, 10), 2),
                               realm_sum(hv(1, 8), realm_suspend(hv(2, 8), 1)),
                               # T16's sum: two rank-0 summands, with no reduced component
                               realm_sum(hv(1, 8), realm_sum(hv(0, 8), realm_suspend(hv(0, 8), 2)))],
                         ids=lambda X: f"{X.name}-D{X.D}")
def test_bar_runs_match_the_per_column_oracle(X):
    """taubar's u^0 layer, placed straight into bar's columns, is the
    oracle tau's u^0 layer gathered along the ``column_runs`` of bar's
    columns listed one by one in F[u] (x) TX
    (``reference.bar_runs_by_columns``), and the equalizer passes."""
    calc = RealmCalculus(X)
    runs, tau = bar_runs_by_columns(calc), tau_by_monomials(calc)
    for d in range(X.D + 1):
        assert sum(mask.bit_length() for _, mask, _ in runs[d]) == calc.bar.dims[d]
        u0 = tau[d].take_rows(range(X.table.dims[d]))
        assert u0.gather(runs[d], calc.bar.dims[d]).row_ints() == list(calc.taubar.layer[d])
    assert calc.equalizer_verdict.ok


# -- per-monomial references for the maps built from component matrices ------


def _extended_entries(E, X, n):
    """The degree-n basis of E, the scalar extension of X's module, as
    (u-power, summand, monomial) triples in flat order."""
    return [(a, j, mono) for a, _, _ in E.blocks(n) for j, mono in X.entries(n - a)]


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
        (diag_map(calc), diag_by_monomials(calc)),
        (fix_taubar_of(calc, component_map(calc.TX, calc.TTbar, calc.fix_components)),
         fix_taubar_by_monomials(calc)),
        (sigma_of(calc), sigma_by_monomials(calc)),
    ):
        assert [got.mat(n) for n in degrees] == [want[n] for n in degrees], got.name
    # the split equalizer hands its component matrix P to the P-level check
    seen = []
    check = RealmCalculus._diagonal_is_kernel

    def recording(self, P, tgt, failure):
        mats = component_map(self.TX, tgt, P)
        seen.extend(mats[n] for n in degrees)
        return check(self, P, tgt, failure)

    monkeypatch.setattr(RealmCalculus, "_diagonal_is_kernel", recording)
    assert calc.split_equalizer_verdict().ok
    want = split_equalizer_by_monomials(calc)
    assert seen == [want[n] for n in degrees]


@pytest.mark.parametrize("X", COMPONENT_MAP_CASES, ids=lambda X: X.name)
def test_the_sigma_rows_of_the_taubar_pass_match_the_monomial_loop(X, monkeypatch):
    """The rows of sigma that ``_taubar_pass`` compares with the u^0 Lucas
    terms, placed from ``diag_components``, are those of the splitting
    embedding formed one monomial and one v at a time; the components each
    summand goes to are read off ``diag_components`` once, not per degree."""
    calc = RealmCalculus(X)
    seen, targets = {}, Counter()
    real, real_targets = RealmCalculus._sigma_rows, lannes._component_targets

    def recording(self, d):
        seen[d] = BitMatrix.from_row_ints(real(self, d), self.TX.table.dims[d])
        return seen[d].row_ints()

    def counting(src, tgt, P):
        targets[P] += 1
        return real_targets(src, tgt, P)

    monkeypatch.setattr(RealmCalculus, "_sigma_rows", recording)
    monkeypatch.setattr(lannes, "_component_targets", counting)
    assert calc.equalizer_verdict.ok
    assert seen == diag_by_monomials(calc)
    assert targets == {calc.diag_components: 1}


def test_component_map_refuses_to_pair_different_summands(monkeypatch):
    for Y in (hv(2, 4), realm_suspend(hv(1, 4))):
        X = realm_sum(hv(1, 4), Y)
        # summand 0 to itself is fine; summand 0 to summand 1 is not
        assert component_map(X, X, BitMatrix(2, 2, (0b01, 0b10)))[4] == BitMatrix.identity(
            X.table.dims[4])
        with pytest.raises(ValueError, match="cannot map"):
            component_map(X, X, BitMatrix(2, 2, (0b11, 0b10)))
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
    calc.X.module, calc.TX.module  # realizes the base and its expansion

    def refuse(*args, **kwargs):
        raise AssertionError("a degree-n matrix or a module was built")

    monkeypatch.setattr(ModuleMap, "__init__", refuse)
    monkeypatch.setattr(RealmObject, "_realize", refuse)
    assert calc.fixed_point_verdict() == Verdict(True, 6)
    assert calc.split_equalizer_verdict() == Verdict(True, 6)


def test_split_equalizer_realizes_no_further_module(monkeypatch):
    calc = RealmCalculus(hv(2, 6))
    calc.X.module, calc.TX.module  # realizes the base and its expansion
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
                for (extra, m2) in twist_terms(mono, v):
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
                for (extra, m2) in twist_terms(mono, v):
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
                for (extra, m2) in twist_terms(mono, 1 << gen):
                    acc ^= 1 << E.index(n, a + extra, X.index(n - a - extra, 0, m2))
                rows.append(acc ^ (1 << flat))
            m = BitMatrix.from_row_ints(rows, E.dim(n))
            stacked = m if stacked is None else concat_cols(stacked, m)
        out[n] = stacked
    return out


U_LINEAR_CASES = [
    *(hv(r, 7) for r in range(4)),
    hv(4, 6),
    *(realm_suspend(hv(1, 7), k) for k in (1, 3)),
    # no reduced component in degrees 0 and 1: E_tbar has empty u-blocks there
    realm_sum(hv(0, 7), realm_suspend(hv(1, 7), 2)),
    # T16's sum: rank-0 summands, which have no reduced component at all
    realm_sum(hv(1, 7), realm_sum(hv(0, 7), realm_suspend(hv(0, 7), 2))),
    # summands of different ranks side by side, each shifted
    realm_suspend(realm_sum(hv(2, 7), hv(1, 7)), 1),
]


@pytest.mark.parametrize("X", U_LINEAR_CASES, ids=lambda X: X.name)
def test_u_linear_maps_match_the_monomial_loops(X):
    """taubar, formed straight from the Lucas terms, is the per-monomial
    oracle's, and the equalizer checked in the same pass holds."""
    calc = RealmCalculus(X)
    want = taubar_by_monomials(calc)
    assert [calc.taubar.mat(n) for n in range(calc.D + 1)] == [want[n] for n in range(calc.D + 1)]
    assert calc.equalizer_verdict == Verdict(True, calc.D)


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
    calc = lannes.calculus(hv(2, 8))
    calc.rtilde
    assert harness.run_check(harness.make_spec("T8", D=8, max_rank=2)).passed
    assert "bar(Fu(x)Tbar(H(V2)))" in names
    assert not [n for n in names if n.startswith("Fu(x)Tbar(")]


@pytest.mark.parametrize("r", range(4))
def test_gv_invariant_rows_match_the_monomial_loop(r, monkeypatch):
    """The invariant certificate reads one u-linear g_v + id per generator
    v, and side by side their matrices are the stacked g_v + id of the
    monomial loop; rank 0 has no generator."""
    D = 7
    seen = []

    def recording(src, tgt, layer, name=""):
        seen.append(ULinearMap(src, tgt, layer, name))
        return seen[-1]

    monkeypatch.setattr(lannes, "ULinearMap", recording)
    calc = RealmCalculus(hv(r, D))
    calc.taubar
    seen.clear()
    inv, incl = calc.invariants()
    want = gv_stacked_by_monomials(r, D)
    assert len(seen) == r
    if r == 0:
        assert [incl.mat(n) for n in range(D + 1)] == [
            BitMatrix.identity(inv.dim(n)) for n in range(D + 1)]
    else:
        for n in range(D + 1):
            stacked = seen[0].mat(n)
            for g in seen[1:]:
                stacked = concat_cols(stacked, g.mat(n))
            assert stacked == want[n], n


@pytest.mark.parametrize("r", range(5))
def test_one_variable_twist_matches_the_general_twist(r, monkeypatch):
    """(g_{e_i} + id)(t^m) by ``_twist_plus_id`` is the twist of t^m by e_i
    (``reference.twist_terms``, over all variables) plus t^m, term for term
    mod 2, and so are the u^0 layers the invariant certificate reads, for
    every generator e_i through D = 10."""
    D = 10
    for d in range(D + 1):
        for mono in _monomials(r, d):
            for i in range(r):
                want = Counter(twist_terms(mono, 1 << i) + [(0, mono)])
                assert sorted(_twist_plus_id(mono, i)) == sorted(t for t, c in want.items() if c % 2)
    layers = []
    real = lannes.ULinearMap

    def recording(src, tgt, layer, name=""):
        layers.append(layer)
        return real(src, tgt, layer, name)

    monkeypatch.setattr(lannes, "ULinearMap", recording)
    calc = RealmCalculus(hv(r, D))
    calc.taubar
    layers.clear()
    calc.invariants()
    E, X, want = calc.E, calc.X, []
    for i in range(r):
        layer = []
        for d in range(D + 1):
            rows = []
            for p, mono in enumerate(X.monomials(0, d)):
                acc = 1 << p
                for e, m2 in twist_terms(mono, 1 << i):
                    acc ^= 1 << E.index(d, e, X.index(d - e, 0, m2))
                rows.append(acc)
            layer.append(rows)
        want.append(layer)
    assert layers == want


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
    # built once per calculus, and the module of rtilde: T1 compares them
    # after each side's certificate
    again, again_incl = calc.invariants()
    assert again is shared is calc.rtilde and again_incl is incl is calc.kernel_incl


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
    assert harness.run_check(harness.make_spec("T3", D=6, max_rank=2)).passed
    twice = [T for T in expansions if T.name.startswith("T[1](T")]
    assert len(twice) == 4  # T(Tbar X) and T(T X), per rank
    assert [realm.name for realm in twice if "table" in vars(realm)] == []


@pytest.mark.parametrize("X", [hv(2, 10), realm_sum(hv(1, 8), realm_suspend(hv(2, 8), 1))],
                         ids=lambda X: X.name)
def test_taubar_expands_each_monomial_once_and_the_equalizer_none(X, monkeypatch):
    """taubar expands each monomial once over all variables, not once per
    group element; the equalizer verdict is checked in the same pass and
    expands nothing more."""
    calc = RealmCalculus(X)
    lucas, twists = [], []
    lucas_terms = lannes._lucas_terms

    def counting(mono):
        lucas.append(mono)
        return lucas_terms(mono)

    monkeypatch.setattr(lannes, "_lucas_terms", counting)
    monkeypatch.setattr(lannes, "_twist_plus_id", lambda mono, i: twists.append(mono))
    calc.taubar
    assert sorted(lucas) == sorted(mono for d in range(calc.D + 1) for _, mono in X.entries(d))
    assert twists == []
    del lucas[:]
    assert calc.equalizer_verdict.ok
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
    f = fix_taubar_of(calc, fix_taubar_by_monomials(calc))
    sub = Subquotient(f)
    for kind, want in (("kernel", sub.kernel), ("image", image_submodule(f)[0]),
                       ("cokernel", sub.coker.target)):
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

    monkeypatch.setattr(lannes, "kernel_of", refuse)
    monkeypatch.setattr(lannes, "quotient", refuse)
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


def count_layer_reads(monkeypatch):
    """Count, by map name, the reads of a u-linear map's full matrices."""
    reads = Counter()
    mat = ULinearMap.mat

    def counting(self, n):
        reads[self.name] += 1
        return mat(self, n)

    monkeypatch.setattr(ULinearMap, "mat", counting)
    return reads


def test_rtilde_and_fix_build_only_the_actions_they_read(monkeypatch):
    X = hv(2, 8)
    calc = RealmCalculus(X)
    built, actions = count_builds(monkeypatch)
    calc.rtilde
    F = calc.fix_parts["kernel"].module
    assert F.dims == X.table.dims
    assert [name for name in actions if name.startswith(UNREAD_BY_RTILDE)] == []
    # the kernel is certified on its u-generators, through the row Cartan
    # sum: neither taubar's source nor the kernel builds an action
    assert "Fu(x)H(V2)" not in actions and "ker(taubar)" not in actions
    assert "im(taubar)" not in built and "coker(taubar)" not in built
    # the kernel's action, read, is built once, with the source's
    K = calc.rtilde
    assert K.sq(1, 1) is K.sq(1, 1)
    assert (actions["Fu(x)H(V2)"], actions["ker(taubar)"]) == (1, 1)


@pytest.mark.parametrize("argv", [
    ["compute", "rtilde", "--module", "HV2"],
    ["compute", "fix", "--module", "S1HV1"],
    ["compute", "invariants", "--rank", "2"],
])
def test_compute_builds_no_extension_action_and_no_matrix_of_tau(argv, monkeypatch, capsys):
    built, actions = count_builds(monkeypatch)
    reads = count_layer_reads(monkeypatch)
    assert cli.main(argv + ["--max-degree", "8"]) == 0
    # the kernel or the invariant ring is built, and certified, with no action
    assert [name for name in built if name.startswith(("ker(", "Inv("))] != []
    assert [name for name in actions if name.startswith(("Fu(x)", "ker(", "Inv("))] == []
    # neither tau, nor sigma, nor F[u] (x) TX, their target, is built
    assert reads["tau"] == reads["sigma"] == 0
    assert [name for name in built if name.startswith("Fu(x)T[1](")] == []


@pytest.mark.parametrize("X", [hv(1, 8), hv(2, 8), realm_suspend(hv(1, 8), 2),
                               realm_sum(hv(1, 8), realm_sum(hv(0, 8), realm_suspend(hv(0, 8), 2)))],
                         ids=lambda X: X.name)
def test_rtilde_invariants_and_fix_parts_build_no_tau_and_no_extension_of_tx(X):
    """ker taubar and the equalizer are certified on taubar's layer,
    formed straight from the Lucas terms: after ``rtilde``,
    ``invariants()`` and ``fix_parts``, the calculus holds no tau, no
    sigma and no F[u] (x) TX."""
    calc = RealmCalculus(X)
    calc.rtilde
    if len(X.summands) == 1 and not X.summands[0].s:
        calc.invariants()
    calc.fix_parts
    assert not hasattr(calc, "tau") and not hasattr(calc, "sigma")
    assert {"taubar", "equalizer_verdict"} <= set(vars(calc))
    assert "ETX" not in vars(calc)

@pytest.mark.parametrize("argv", [
    ["compute", "rtilde", "--module", "HV2"],
    ["compute", "fix", "--module", "S1HV1"],
    ["compute", "invariants", "--rank", "2"],
    ["compute", "r1", "--module", "HV2"],
])
def test_a_compute_request_builds_one_module_and_no_layout_per_extension(argv, monkeypatch,
                                                                         capsys):
    """Constructing F[u] (x) M builds one module, itself, and no
    ``TensorLayout``, so no ``BlockLayout``: its bookkeeping is arithmetic
    on its dims.  F[u] and an extension's layout are built only when its
    action or labels are read, which no compute request does; F[u] is then
    built once and shared."""
    built, actions = count_builds(monkeypatch)
    layouts, extensions = Counter(), []
    make_layout, extend = unstable.TensorLayout.__init__, fulu.ExtendedModule.__init__

    def counting_layout(self, *args):
        layouts["TensorLayout"] += 1
        make_layout(self, *args)

    def recording(self, *args):
        extend(self, *args)
        extensions.append(self)

    monkeypatch.setattr(unstable.TensorLayout, "__init__", counting_layout)
    monkeypatch.setattr(fulu.ExtendedModule, "__init__", recording)
    assert cli.main(argv + ["--max-degree", "8", "--format", "json"]) == 0
    capsys.readouterr()
    names = [E.name for E in extensions]
    assert names and all(built[name] == 1 for name in names), built
    assert [name for name in built if "F[u]" in name] == []
    assert not layouts and all(E._layout is None for E in extensions)
    assert all(callable(E._act) and callable(E._labels) for E in extensions)
    extensions[0].sq(1, 1)
    assert built["F[u]"] == 1 and layouts["TensorLayout"] == 1
    for E in extensions:
        E.labels
    assert built["F[u]"] == 1 and layouts["TensorLayout"] == len(extensions)


def test_taubar_parts_are_built_once_on_first_read(monkeypatch):
    calc = RealmCalculus(hv(2, 8))
    sub = taubar_subquotient(calc)
    calc.rtilde  # the image's basis is read off the kernel's certificate
    built, actions = count_builds(monkeypatch)
    for _ in range(2):
        assert sub.coker is sub.coker and sub.coker.target is sub.coker.target
    image = taubar_image_module(calc)
    assert built == {"coker(taubar)": 1, "im(taubar)": 1}
    # the image is certified on its u-generators; its action, like the
    # cokernel's, is built only when read, and then once
    assert "im(taubar)" not in actions and "coker(taubar)" not in actions
    for _ in range(2):
        image.sq(1, 1)
    assert actions["im(taubar)"] == 1 and "coker(taubar)" not in actions
    for _ in range(2):
        sub.coker.target.sq(1, 1)
    assert actions["coker(taubar)"] == 1


def test_t8_reads_dims_from_the_layouts(monkeypatch):
    built, _ = count_builds(monkeypatch)
    harness._check_t8({"D": 6, "max_rank": 2})
    assert [name for name in built
            if name.startswith("T[1](Tbar(") or name.endswith("(Fix(taubar))")] == []
    assert "im(taubar)" not in built  # linearity is certified on the u^0 layer
    assert "coker(alpha)" not in built  # the division term's dims are alpha's ranks


def test_labels_are_built_on_first_read_and_match_the_eager_oracles(monkeypatch):
    D = 8
    calc = RealmCalculus(hv(2, D))
    built = Counter()
    checked = TruncatedModule._checked_labels

    def counting(self, labels):
        # F[u] and uF[u], the left factors of the scalar extensions, are
        # polynomial modules, built with their labels
        if self.name not in ("F[u]", "uF[u]"):
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
    kernel = calc.kernel_incl
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
                f = ULinearMap(calc.E, calc.bar, flipped, name="taubar")
                ok = u_linear_verdict(f).ok
                try:
                    image_submodule(f)
                    closed = True
                except TheoryViolation:
                    closed = False
                assert closed or not ok, (d, i, c)
                if d < D:
                    assert not ok, (d, i, c)
                    missed_by_closure += closed
    assert missed_by_closure > 0


@pytest.mark.parametrize("r", [1, 2])
def test_a_flipped_bit_of_the_cokernel_projection_fails_exactness(r):
    """The projection's rank is its width by construction; a plain map with
    its matrices and one bit flipped is a new matrix, whose rank is
    eliminated, and the sequence 0 -> ker -> E -> bar -> coker -> 0 fails.
    Each flip either breaks taubar @ proj = 0 (a bit in a pivot row) or the
    rank sum (a bit that empties an identity row whose column no other row
    has set)."""
    D = 5
    calc = RealmCalculus(hv(r, D))
    sub = taubar_subquotient(calc)
    names = ("kernel", "extension", "reduced part", "cokernel")
    assert exact_sequence((sub.kernel_incl, calc.taubar, sub.coker), names).ok
    failed = 0
    for n in range(1, D + 1):
        proj = sub.coker.mat(n)
        rows = proj.row_ints()
        for i, row in enumerate(rows):
            if not row:
                continue
            flipped = rows.copy()
            flipped[i] ^= row & -row
            mats = {d: sub.coker.mat(d) for d in range(D + 1)}
            mats[n] = BitMatrix.from_row_ints(flipped, proj.ncols)
            g = ModuleMap(calc.bar, sub.coker.target, mats)
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
    """After T8, u of E, ETX and bar and the Sq actions of bar and of Tbar X
    are still pending: u is the shift, and Sq on bar's rows the row Cartan
    sum over Tbar X's summand blocks.  No matrix of taubar is built either:
    its exactness is read on its u^0 layer, and its ranks off the
    certificate of its kernel."""
    built = []

    def recording(X):
        built.append(RealmCalculus(X))
        return built[-1]

    monkeypatch.setattr(lannes, "RealmCalculus", recording)
    assert harness.run_check(harness.make_spec("T8", D=8, max_rank=3)).passed
    assert len(built) == 3
    for calc in built:
        assert callable(calc.bar._act) and callable(calc.tbar.module._act)
        for N in (calc.E, calc.ETX, calc.bar):
            assert callable(N._u), N.name
        assert calc.taubar._mats == {}
        assert calc.taubar.ranks == {n: calc.E.dim(n) - calc.rtilde.dim(n) for n in range(9)}


def test_u_linear_verdict_needs_a_map_out_of_a_whole_extension():
    """Only a ``ULinearMap`` out of F[u] (x) M is u-linear by construction:
    a plain map is refused, even one that carries taubar's matrices, and so
    is a ``ULinearMap`` out of bar."""
    calc = RealmCalculus(hv(1, 4))
    plain = ModuleMap(calc.E, calc.bar, {n: calc.taubar.mat(n) for n in range(5)})
    for f in (diag_map(calc), ModuleMap.zero(calc.bar, calc.bar), plain):
        with pytest.raises(ValueError, match="needs a ULinearMap"):
            u_linear_verdict(f)
    bar_to_bar = ULinearMap(calc.bar, calc.bar, [[0] * calc.bar.base.dim(d) for d in range(5)])
    with pytest.raises(ValueError, match="needs a ULinearMap out of F"):
        u_linear_verdict(bar_to_bar)


def test_a_u_linear_map_refuses_a_bad_layer():
    """A layer needs one row per basis vector of the base, each a row of
    the target in its degree: a missing or extra row, a row with a bit at
    the target's width and a negative row are refused, naming the degree."""
    calc = RealmCalculus(hv(1, 4))
    layer = [list(rows) for rows in calc.taubar.layer]
    assert ULinearMap(calc.E, calc.bar, layer).mat(3) == calc.taubar.mat(3)
    d = 2
    for rows in (layer[d][:-1], layer[d] + [0], [1 << calc.bar.dim(d)] + layer[d][1:],
                 [-1] + layer[d][1:]):
        bad = layer[:d] + [rows] + layer[d + 1:]
        with pytest.raises(ValueError, match=f"the layer of degree {d} needs "
                                             f"{calc.X.table.dims[d]} rows below 2\\^"):
            ULinearMap(calc.E, calc.bar, bad)


def test_t8_builds_u_only_where_it_reads_it(monkeypatch):
    """u on N/uN is zero and nothing reads it; the cokernel of taubar is read
    off the image of taubar, so no u on a cokernel is built."""
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
    built, _ = count_builds(monkeypatch)
    results = harness.run_all(D=6, max_rank=2, only=["T8", "T11"])
    assert all(r.passed for r in results)
    loops = {name: count for name, count in built.items()
             if name.startswith(("Ph(", "ker(Sq0_", "coker(Sq0_", "Om(", "Om1("))}
    assert loops == {name.format(f"H(V{r})"): 1 for r in (1, 2) for name in
                     ("Ph({})", "ker(Sq0_{})", "coker(Sq0_{})", "Om({})", "Om1({})")}


T8_GRID = [(8, 1), (8, 2), (8, 3), (14, 1), (14, 2)]


@pytest.mark.parametrize("D, r", T8_GRID)
def test_the_image_of_taubar_from_its_u0_layer_matches_the_elimination(D, r):
    """The oracle's u-span of taubar's layer, and the rref of the basis
    that leg (c) certifies, are the eliminated image in every degree."""
    calc = RealmCalculus(hv(r, D))
    image = taubar_image_rref(calc)
    for n in range(D + 1):
        want = Subspace.from_rows(calc.taubar.mat(n)).basis
        assert image.bases[n] == want == Subspace.from_rows(calc.image_basis(n)).basis, n


LEG_C_GRID = [(D, r) for r in (1, 2, 3) for D in (4, 7, 10) if r < 3 or D < 10]


@pytest.mark.parametrize("D, r", LEG_C_GRID)
def test_the_leg_c_image_matches_the_from_vectors_oracle(D, r):
    """Against ``reference.taubar_image_rref``, the image as the u-span of
    taubar's layer on rref bases: (1) the basis of leg (c) has distinct
    lowest bits, rank taubar_d rows and the oracle's rref; (2) T8's Q of
    the cokernel, on ``q_image_bases``, has the dims and representatives
    of the oracle's ``q_of_quotient``; (3) T8's torsion count is the
    oracle's dimension of u^-1 of the image, degree by degree, and agrees
    with ``saturation_check`` on the oracle."""
    calc = RealmCalculus(hv(r, D))
    oracle = taubar_image_rref(calc)
    for n in range(D + 1):
        basis = calc.image_basis(n)
        lows = {row & -row for row in basis.row_ints()}
        assert len(lows) == basis.nrows == calc.taubar.ranks[n] and 0 not in lows, n
        assert Subspace.from_rows(basis).basis == oracle.bases[n], n
    q_bar = q_data(calc.bar)
    got = quotient(q_bar.target, calc.q_image_bases, "Q/X")
    want = q_of_quotient(q_bar, oracle)
    assert got.target.dims == want.target.dims and got.rep_cols == want.rep_cols
    for n in range(D):
        s = calc.bar.dim(n + 1) - calc.bar.dim(n)
        pre = sum(1 for row in oracle.bases[n + 1].row_ints() if not row & ((1 << s) - 1))
        assert calc.u_preimage_dims[n] == pre, n
    saturated = all(pre == len(calc.image_positions[n])
                    for n, pre in enumerate(calc.u_preimage_dims))
    assert saturation_check(oracle).ok == saturated


@pytest.mark.parametrize("D, r", T8_GRID)
def test_the_cokernel_projection_operator_matches_the_dense_projection(D, r):
    """The projection off the oracle's image bases against the dense
    ``coker_data`` projection of the eliminated image, and the
    Subquotient's cokernel: matrices, products on taubar's rows and on
    random rows, ranks, dims, labels and u."""
    calc = RealmCalculus(hv(r, D))
    sub = taubar_subquotient(calc)
    proj = quotient(calc.bar, taubar_image_rref(calc).bases, "bar/X")
    rng = random.Random(100 * D + r)
    bases = [Subspace.from_rows(calc.taubar.mat(n)).basis for n in range(D + 1)]
    for n in range(D + 1):
        width = calc.bar.dim(n)
        dense, cols = coker_data(bases[n], width)
        assert proj.rep_cols[n] == cols == sub.coker.rep_cols[n]
        rows = BitMatrix.from_row_ints([rng.getrandbits(width) for _ in range(20)], width)
        assert proj.apply(n, rows) == rows @ dense
        assert proj.apply(n, calc.taubar.mat(n)) == calc.taubar.mat(n) @ dense
        assert proj.apply(n, calc.taubar.mat(n)).is_zero()
        assert proj.mat(n) == dense == sub.coker.mat(n)
        assert proj.rank(n) == rank(BitMatrix.from_row_ints(dense.row_ints(), dense.ncols))
    want = dense_quotient(calc.bar, bases, "coker(taubar)").module
    for got in (proj.target, sub.coker.target):
        assert got.dims == want.dims
        assert got.labels == want.labels
        assert got.u_items() == want.u_items()


@pytest.mark.parametrize("r", [0, 1, 2])
def test_the_cokernel_of_taubar_from_the_one_projection_is_a_valid_u_module(r):
    """coker taubar, projected off the oracle's image bases, carries the
    induced Sq and u: it validates, and its dims, labels, stored Sq
    matrices and u are those of the dense oracle's cokernel of the
    eliminated image.  A quotient that dropped the squares (claiming every
    Sq is zero) fails the Cartan rule for u from rank 1 on."""
    D = 6
    calc = RealmCalculus(hv(r, D))
    got = quotient(calc.bar, taubar_image_rref(calc).bases, "coker(taubar)").target
    bases = [Subspace.from_rows(calc.taubar.mat(n)).basis for n in range(D + 1)]
    want = dense_quotient(calc.bar, bases, "coker(taubar)").module
    assert got.validate().ok and want.validate().ok
    assert (got.dims, got.labels) == (want.dims, want.labels)
    assert got.action_items() == want.action_items()
    assert got.u_items() == want.u_items()
    assert len(got.action_items()) == (0, 7, 9)[r]


@pytest.mark.parametrize("D, r", T8_GRID)
def test_q_of_the_cokernel_from_the_u1_pivots_matches_the_elimination(D, r):
    """T8's Q of the cokernel, Q(bar) modulo ``q_image_bases``, against Q
    of the eliminated cokernel and the map Q(bar) -> Q(coker) it induces."""
    calc = RealmCalculus(hv(r, D))
    sub = taubar_subquotient(calc)
    q_bar = q_data(calc.bar)
    got = quotient(q_bar.target, calc.q_image_bases, "Q/X")
    want = q_data(sub.coker.target)
    assert got.target.dims == want.target.dims
    assert got.target.labels == want.target.labels
    induced = q_of_map(sub.coker, q_bar, want)
    for n in range(D + 1):
        assert got.mat(n) == induced.mat(n), n


@pytest.mark.parametrize("D, r", T8_GRID)
def test_saturation_of_the_image_matches_torsion_of_the_cokernel(D, r):
    calc = RealmCalculus(hv(r, D))
    coker = taubar_subquotient(calc).coker.target
    assert saturation_check(taubar_image_rref(calc)) == torsion_free(coker)


def _with_q_rows(calc, n, change):
    """Put ``change`` of the rows of degree n of ``q_image_bases`` into
    the calculus, unchecked: the mutants below span no image of taubar."""
    q = list(calc.q_image_bases)
    q[n] = BitMatrix.from_row_ints(change(q[n].row_ints()), q[n].ncols)
    calc.__dict__["q_image_bases"] = q


def test_t8_fails_exactness_at_the_reduced_part_on_a_dropped_image_row():
    """The image of taubar in Q(bar) loses its row of degree 3, so Q of the
    cokernel no longer kills the image of Q(taubar) there."""
    calc = lannes.calculus(hv(1, 4))  # the calculus T8 reads
    _with_q_rows(calc, 3, lambda rows: rows[1:])
    res = harness.run_check(harness.make_spec("T8", D=4, max_rank=1))
    assert not res.passed
    assert res.witness == ("rank 1: induced sequence: exactness fails at suspended reduced part "
                           "in degree 3: [u|<0:1>t^2] (in the first side only)")


def test_t8_fails_the_induced_sequence_on_a_wrong_u1_trace():
    """One bit flipped, at a column that is no pivot, in a row of the image
    of taubar in Q(bar): Q of the cokernel keeps its dims but no longer
    contains the image of Q(taubar)."""
    calc = lannes.calculus(hv(2, 4))
    calc.rtilde

    def flipped(rows):
        assert sorted(r & -r for r in rows) == [0b1, 0b10]  # column 2 is no pivot
        return [r ^ 0b100 if r & 1 else r for r in rows]

    _with_q_rows(calc, 1, flipped)
    res = harness.run_check(harness.make_spec("T8", D=4, max_rank=2))
    assert not res.passed
    assert res.witness.startswith(
        "rank 2: induced sequence: exactness fails at suspended reduced part in degree 1: ")


def test_t8_fails_the_cokernel_torsion_check_on_an_unsaturated_image():
    """Leg (c)'s positions of degree 3 gain u^3 (x) 1, a row's lowest bit,
    as if its image were in the basis: it lies above the u^1 block, so
    u^-1 of the image of degree 3 is counted one larger than the image of
    degree 2, as for an unsaturated image.  Nothing else in T8 reads the
    positions above the u^1 block."""
    calc = lannes.calculus(hv(1, 4))
    calc.image_positions[3].append((3, 0))
    res = harness.run_check(harness.make_spec("T8", D=4, max_rank=1))
    assert not res.passed
    assert res.witness == ("rank 1: cokernel torsion: u^-1 of the image has dimension 2, not 1, "
                           "in degree 2")


def test_t7_fails_when_taubar_leaves_the_basis_of_its_image(monkeypatch):
    """T7 expresses taubar's layer in the basis of its image; a basis that
    lost its rows with a = 0 in degree 7 still spans a u-submodule over A,
    but taubar(t^7) escapes it, and T7 fails with a witness."""
    real = RealmCalculus.image_basis

    def dropped(calc, n):
        basis = real(calc, n)
        if n != 7:
            return basis
        rows = [r for (a, _), r in zip(calc.image_positions[n], basis.row_ints()) if a]
        return BitMatrix.from_row_ints(rows, basis.ncols)

    monkeypatch.setattr(RealmCalculus, "image_basis", dropped)
    res = harness.run_check(harness.make_spec("T7", D=8))
    assert not res.passed
    assert res.witness == ("structural violation: im(taubar): taubar's layer escapes it at "
                           "degree 7")


def test_t8_fails_the_freeness_forecast_on_a_wrong_cokernel_dimension(monkeypatch):
    """taubar's rank one too large in the top degree, read only by the
    cokernel's dims there, makes the cokernel one too small."""
    real = ULinearMap.rank
    monkeypatch.setattr(ULinearMap, "rank",
                        lambda self, n: real(self, n) + (self.name == "taubar" and n == self.D))
    res = harness.run_check(harness.make_spec("T8", D=5, max_rank=1))
    assert not res.passed
    assert res.witness == "rank 1: cokernel not free on the suspended division term at degree 5"


@pytest.mark.parametrize("r", [1, 2, 3])
def test_taubar_kernel_and_invariants_eliminate_each_degree_once(r, monkeypatch):
    """Sq on the closed kernel reads one reducer per degree of its basis, and
    none eliminates: each is read off the rows' distinct lowest bits.  The
    invariants share the module, and build no reducer."""
    D = 6
    calc = RealmCalculus(hv(r, D))
    calc.taubar
    readers, eliminated = [], []
    init = RowReducer.__init__

    def recording(self, basis):
        readers.append(basis)
        init(self, basis)

    monkeypatch.setattr(RowReducer, "__init__", recording)
    monkeypatch.setattr(f2core, "_eliminated_pivots", lambda basis: eliminated.append(basis))
    calc.rtilde
    assert 0 < len({id(b) for b in readers}) == len(readers) <= D + 1
    readers.clear()
    calc.invariants()
    assert readers == [] and eliminated == []


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("first", ["image", "cokernel"])
def test_taubar_parts_agree_in_either_order(r, first):
    """The image of taubar (with its factor map) and the cokernel (its
    projection's matrices and its target's action) agree whichever is read
    first, and are a valid module, u-module and maps."""
    taubar = RealmCalculus(hv(r, 6)).taubar
    a, b = Subquotient(taubar), Subquotient(taubar)
    reads = [lambda: image_submodule(taubar), lambda: a.coker.target.action_items(),
             lambda: [a.coker.mat(n) for n in range(taubar.D + 1)]]
    for read in reads if first == "image" else reads[::-1]:
        read()
    assert a.coker.target == b.coker.target and a.coker == b.coker
    image, _, factor = image_submodule(taubar)
    for part in (a.kernel, image, a.coker.target):
        assert part.validate().ok, part.name
    for g in (factor, a.coker):
        assert g.validate_linear().ok


# -- the closed basis of ker(taubar), against the elimination it replaced ----------


def _elimination_calls(monkeypatch):
    """Every call of ``left_kernel``, ``complement_rows`` and
    ``GradedSubspace.from_vectors`` in the package, as (name, first matrix
    argument), and the component matrices of Fix(taubar) built meanwhile."""
    calls, components = [], []

    def recording(name, real):
        def call(m, *args):
            calls.append((name, m))
            return real(m, *args)
        return call

    for mod in (f2core, unstable, fulu, lannes, singer, harness):
        for name in ("left_kernel", "complement_rows"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, recording(name, getattr(mod, name)))
    from_vectors = GradedSubspace.from_vectors.__func__
    monkeypatch.setattr(GradedSubspace, "from_vectors", classmethod(
        lambda cls, ambient, seeds: (calls.append(("from_vectors", None)),
                                     from_vectors(cls, ambient, seeds))[1]))
    real_components = RealmCalculus.fix_components.func

    def recorded_components(calc):
        components.append(real_components(calc))
        return components[-1]

    monkeypatch.setattr(RealmCalculus, "fix_components", property(recorded_components))
    return calls, components


def test_rtilde_fix_invariants_and_t1_to_t3_run_no_elimination(monkeypatch, capsys):
    """``compute rtilde``, ``fix`` and ``invariants`` and T1-T3 at D=8, r=3
    read ker(taubar) and the invariants off the closed basis: no
    ``left_kernel`` or ``complement_rows`` on taubar, E or the invariants,
    and no ``from_vectors``.  The one kernel left is that of Fix(taubar)'s
    component matrix P."""
    calls, components = _elimination_calls(monkeypatch)
    for argv in (["rtilde", "--module", "HV3"], ["fix", "--module", "HV3"],
                 ["invariants", "--rank", "3"], ["rtilde", "--module", "S1HV2"]):
        assert cli.main(["compute", *argv, "--max-degree", "8"]) == 0
    capsys.readouterr()
    clear_memos()  # the checks build and certify their calculi again
    results = harness.run_all(D=8, max_rank=3, only=["T1", "T2", "T3"])
    assert all(res.passed for res in results)
    assert components and calls
    assert all(name == "left_kernel" and any(m is P for P in components) for name, m in calls)


KERNEL_CASES = [hv(r, D) for r, D in ((0, 6), (1, 12), (2, 10), (3, 8), (4, 7))] + [
    realm_suspend(hv(1, 9)), realm_suspend(hv(2, 7), 2), realm_suspend(hv(0, 6), 3),
    realm_sum(hv(1, 8), realm_sum(hv(0, 8), realm_suspend(hv(0, 8), 2))),
    realm_sum(hv(2, 7), realm_suspend(hv(1, 7))),
]


@pytest.mark.parametrize("X", KERNEL_CASES, ids=lambda X: X.name)
def test_closed_kernel_matches_the_eliminated_kernel(X):
    """The span of the closed basis is ``left_kernel`` of taubar's full
    matrix in every degree, on H(V_r), suspensions and sums with H(V_0)
    (T16's locally finite summands); its module carries the same u and
    dims, and taubar's recorded ranks are the eliminated ones."""
    calc = RealmCalculus(X)
    oracle = taubar_subquotient(calc)
    assert calc.kernel_spaces == taubar_kernel_spaces(calc)
    assert calc.rtilde.dims == oracle.kernel.dims
    for n in range(X.D):
        # u on both, carried to E, is u of E on the inclusion
        assert calc.rtilde.u_mat(n) @ calc.kernel_incl.mat(n + 1) == \
            calc.E.times_u(n, calc.kernel_incl.mat(n))
    assert calc.taubar.ranks == {n: rank(calc.taubar.mat(n)) for n in range(X.D + 1)}
    assert calc.rtilde.validate().ok


@pytest.mark.parametrize("r, D", [(0, 6), (1, 10), (2, 8), (3, 7), (4, 6)])
def test_invariants_match_the_kernel_of_the_stacked_gv_plus_id(r, D):
    """``invariants()`` against ``left_kernel`` of the stacked g_v + id of
    the monomial loop, and against the Dickson basis, expanded apart."""
    calc = RealmCalculus(hv(r, D))
    inv, incl = calc.invariants()
    stacked = gv_stacked_by_monomials(r, D)
    for n in range(D + 1):
        got = Subspace.from_rows(incl.mat(n))
        if r:
            assert got == left_kernel(stacked[n]), n
        else:
            assert got == Subspace.full(calc.E.dim(n))
        assert got == Subspace.from_rows(dickson_basis(calc, n)), n


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=2),
       st.integers(3, 7))
def test_closed_kernel_matches_the_elimination_on_generated_realm_objects(summands, D):
    """On sums of suspensions S^s H(V_r), r <= 3 and s <= 2, the certified
    closed basis spans the eliminated kernel of taubar."""
    X = RealmObject([lannes.Summand(s, r) for s, r in summands], D)
    if sum(1 << r for _, r in summands) > 9:  # keep the expansion small
        return
    calc = RealmCalculus(X)
    assert calc.kernel_spaces == taubar_kernel_spaces(calc)
