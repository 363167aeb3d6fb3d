
from usteen.f2core import BitMatrix, Subspace, left_kernel, rref
from usteen.fulu import extend_scalars, freeness_report, indecomposables, GradedSubspace, saturation_check
from usteen.lannes import (
    RealmCalculus,
    alpha_from_structure,
    alpha_realm,
    c_functors,
    division_u2,
    fix_presented,
    gv_invariants,
    hv,
    realm_sum,
    realm_suspend,
    rtilde,
    t_apply,
    tau_sigma,
    whole_extension,
)
from usteen.singer import r1
from usteen.unstable import (
    GradedLinearMap,
    TruncatedModule,
    _compositions_submask,
    _mono_label,
    free_unstable,
    is_reduced,
    phi,
    polynomial_module,
    tensor_with_layout,
    unit_module,
)


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
            tag = X._tags[j] if X._tags else (f"[{j}]" if len(X.summands) > 1 else "")
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
        t_apply(1, hv(2, 9)).realm,
        t_apply(1, sum_x).realm,
        t_apply(2, hv(1, 8)).realm,
        RealmCalculus(hv(3, 7)).tbar.realm,
        RealmCalculus(sum_x).tbar.realm,
    ]
    for X in cases:
        want = realize_by_compositions(X)
        assert X.module == want, X.name
        assert X.module.labels == want.labels, X.name


def test_realm_suspension_dims():
    X = realm_suspend(hv(1, 8), 2)
    assert [X.module.dim(n) for n in range(9)] == [0, 0] + [1] * 7


def test_t_apply_component_counts():
    X = hv(2, 6)
    for w in (0, 1, 2):
        exp = t_apply(w, X)
        assert len(exp.components) == 4 ** w
        assert exp.count_for_summand(0) == 4 ** w
    Y = realm_sum(hv(1, 6), realm_suspend(hv(2, 6), 1))
    exp = t_apply(1, Y)
    assert len(exp.components) == 2 + 4


def test_t_of_unit_is_unit():
    X = hv(0, 6)
    exp = t_apply(1, X)
    assert [exp.module.dim(n) for n in range(7)] == [1] + [0] * 6


def test_t_of_rank1_dims():
    exp = t_apply(1, hv(1, 8))
    assert [exp.module.dim(n) for n in range(9)] == [2] * 9


def test_tau_degree_one_pins_the_convention():
    # on the rank-one extension: tau_v(t) = t + u for v != 0, tau_v(u) = u,
    # and sigma_v = identity; derived from the dual basis by hand
    X = hv(1, 6)
    calc = RealmCalculus(X)
    sigma, tau = calc.sigma, calc.tau
    E, ETX, TX = calc.E, calc.ETX, calc.TX
    c0 = calc._component_pos(0, 0)
    c1 = calc._component_pos(0, 1)
    # degree-1 basis of E: u (x) 1, 1 (x) t  (u-power block a ascending)
    i_u = E.index(1, 1, 0)
    i_t = E.index(1, 0, 0)
    # tau(u) = u in both components
    expect_u = (1 << ETX.index(1, 1, TX.realm.index(0, c0, (0,)))) | (
        1 << ETX.index(1, 1, TX.realm.index(0, c1, (0,)))
    )
    assert tau.mat(1).row_int(i_u) == expect_u
    # tau(t): component 0 gives t, component 1 gives t + u
    t_c0 = 1 << ETX.index(1, 0, TX.realm.index(1, c0, (1,)))
    t_c1 = 1 << ETX.index(1, 0, TX.realm.index(1, c1, (1,)))
    u_c1 = 1 << ETX.index(1, 1, TX.realm.index(0, c1, (0,)))
    assert tau.mat(1).row_int(i_t) == t_c0 | t_c1 | u_c1
    # sigma is the identity into every component
    assert sigma.mat(1).row_int(i_t) == t_c0 | t_c1


def test_sigma_tau_agree_on_zero_component():
    calc = RealmCalculus(hv(1, 6))
    retract = calc.retract
    assert calc.sigma.then(retract).mmap == __import__(
        "usteen.unstable", fromlist=["ModuleMap"]
    ).ModuleMap.identity(calc.E.underlying)
    assert calc.reflexive_retract_verdict().ok


def test_comparison_maps_are_fulu_maps():
    calc = RealmCalculus(hv(1, 6))
    assert calc.sigma.validate().ok
    assert calc.tau.validate().ok
    assert calc.taubar.validate().ok


def test_equalizer_equals_taubar_kernel():
    for X in (hv(0, 6), hv(1, 8), hv(2, 6), realm_suspend(hv(1, 7), 1)):
        calc = RealmCalculus(X)
        assert calc.equalizer_matches_taubar_kernel().ok


def test_rtilde_of_unit():
    P = rtilde(hv(0, 8))
    assert [P.realization.dim(n) for n in range(9)] == [1] * 9


def test_rtilde_rank1_dims():
    P = rtilde(hv(1, 10))
    assert [P.realization.dim(n) for n in range(11)] == [n // 2 + 1 for n in range(11)]


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
    inv = gv_invariants(0, 6)
    assert [inv.module.dim(n) for n in range(7)] == [1] * 7


def test_gv_invariants_rank1():
    inv = gv_invariants(1, 10)
    assert [inv.module.dim(n) for n in range(11)] == [n // 2 + 1 for n in range(11)]
    # u and t^2 + t u are invariant under t -> t + u
    E = extend_scalars(hv(1, 10).module)
    u_vec = 1 << E.index(1, 1, 0)
    assert inv.bases[1].nrows == 1 and inv.bases[1].row_int(0) == u_vec
    dickson = (1 << E.index(2, 0, 0)) | (1 << E.index(2, 1, 0))
    assert Subspace(E.dim(2), inv.bases[2]).contains_vector(dickson)


def test_gv_invariants_rank2_series():
    inv = gv_invariants(2, 10)
    assert [inv.module.dim(n) for n in range(11)] == series_coeffs(2, 10)


def test_triple_agreement_rank1():
    X = hv(1, 10)
    calc = RealmCalculus(X)
    inv = gv_invariants(1, 10)
    S = r1(X.module, calc.E)
    for n in range(11):
        a = Subspace.from_rows(calc.taubar_sub.kernel_incl.mat(n))
        b = Subspace(calc.E.dim(n), inv.bases[n])
        c = S.span(n)
        assert a == b == c


def test_fix_of_whole_extension():
    X = hv(1, 8)
    calc = RealmCalculus(X)
    W = whole_extension(X, calc)
    F = fix_presented(W)
    assert [F.dim(n) for n in range(9)] == [2] * 9


def test_fix_of_rtilde_recovers_base():
    for X in (hv(1, 8), hv(2, 6)):
        calc = RealmCalculus(X)
        P = rtilde(X, calc)
        F = fix_presented(P)
        assert [F.dim(n) for n in range(X.D + 1)] == list(X.module.dims)
        # the diagonal embedding realizes the isomorphism onto the kernel
        for n in range(X.D + 1):
            diag_im = Subspace.from_rows(calc.diag.mat(n))
            ker = Subspace.from_rows(calc.fix_sub.kernel_incl.mat(n))
            assert diag_im == ker


def test_fix_split_equalizer():
    for X in (hv(1, 6), hv(2, 5)):
        assert RealmCalculus(X).split_equalizer_verdict().ok


def test_fix_taubar_is_a_linear():
    calc = RealmCalculus(hv(1, 8))
    assert calc.fix_taubar.validate_linear().ok


def test_c1_dims_rank1():
    X = hv(1, 10)
    c1, c2 = c_functors(X)
    assert [c1.realization.dim(n) for n in range(11)] == [(n + 1) // 2 for n in range(11)]


def test_c2_torsion_free_and_fix():
    X = hv(1, 10)
    calc = RealmCalculus(X)
    c1, c2 = c_functors(X, calc)
    assert freeness_report(c2.realization).torsion_free.ok
    assert freeness_report(c1.realization).torsion_free.ok
    # fixed points: image is the reduced expansion, cokernel its square
    fix_c1 = fix_presented(c1)
    assert [fix_c1.dim(n) for n in range(11)] == [1] * 11
    fix_c2 = fix_presented(c2)
    assert [fix_c2.dim(n) for n in range(11)] == [1] * 11


def test_fix_sequence_dims_rank1():
    X = hv(1, 10)
    calc = RealmCalculus(X)
    M = X.module
    TM = calc.TX.module
    TTbar = calc.TTbar.module
    for n in range(11):
        dims = (M.dim(n), TM.dim(n), TTbar.dim(n), fix_presented(c_functors(X, calc)[1]).dim(n))
        assert dims == (1, 2, 2, 1)
        assert dims[0] - dims[1] + dims[2] - dims[3] == 0


def test_c1_reduced_rank1():
    X = hv(1, 10)
    c1, _ = c_functors(X)
    assert is_reduced(c1.realization.underlying).ok


def test_saturation_of_rtilde():
    X = hv(1, 8)
    calc = RealmCalculus(X)
    P = rtilde(X, calc)
    sub = GradedSubspace(
        calc.E, {n: calc.taubar_sub.kernel_incl.mat(n) for n in range(9)}
    )
    assert saturation_check(sub).ok


def test_alpha_rank1_injective():
    ar = alpha_realm(hv(1, 10))
    assert ar.alpha.validate_linear().ok
    for n in range(ar.alpha.D + 1):
        assert left_kernel(ar.alpha.mat(n)).dim == 0
    dv = division_u2(ar)
    # cokernel lives in odd degrees only, dimension one each
    for n in range(dv.div.D + 1):
        assert dv.div.dim(n) == (1 if n % 2 == 1 else 0)
    assert sum(dv.derived1.dims) == 0


def test_alpha_rank2_injective():
    ar = alpha_realm(hv(2, 8))
    for n in range(ar.alpha.D + 1):
        assert left_kernel(ar.alpha.mat(n)).dim == 0
    dv = division_u2(ar)
    assert sum(dv.derived1.dims) == 0


def test_alpha_on_doubled_free_module_vanishes():
    # fixture route: the reduced expansion of the doubled rank-one free module
    # is the ground field, and the structure map is forced to vanish
    P = phi(free_unstable(1, 8))
    tbar = unit_module(P.D)
    st = GradedLinearMap(P, tbar, {}, shift=-1, name="fixture")
    ar = alpha_from_structure(P, tbar, st)
    for n in range(ar.alpha.D + 1):
        assert ar.alpha.mat(n).is_zero()
    dv = division_u2(ar)
    # the kernel is the suspension of the ground field
    assert [dv.derived1.dim(n) for n in range(min(6, dv.derived1.D) + 1)] == [0, 1, 0, 0, 0, 0, 0]
    assert sum(dv.derived2.dims) == 0


def test_alpha_unit_is_zero():
    ar = alpha_realm(hv(0, 8))
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
    q_bar = indecomposables(calc.bar[0])
    q_c2 = indecomposables(sub.cokernel)
    for n in range(11):
        assert q_r.dim(n) == (1 if n % 2 == 0 else 0)  # the doubled base
        assert q_e.dim(n) == 1                          # the base
    for n in range(10):
        assert q_bar.dim(n + 1) == calc.tbar.module.dim(n)  # suspended reduced part


def test_c_functors_of_unit_realm_vanish():
    c1, c2 = c_functors(hv(0, 8))
    assert sum(c1.realization.dims) == 0
    assert sum(c2.realization.dims) == 0


def test_saturation_of_rtilde_all_realm_fixtures():
    for X in (hv(0, 6), hv(1, 6), hv(2, 6), realm_suspend(hv(1, 6), 1)):
        calc = RealmCalculus(X)
        rtilde(X, calc)
        sub = GradedSubspace(
            calc.E,
            {n: calc.taubar_sub.kernel_incl.mat(n) for n in range(X.D + 1)},
        )
        assert saturation_check(sub).ok, X.name


def test_tau_sigma_returns_validated_maps():
    sigma, tau, taubar = tau_sigma(hv(1, 6))
    assert sigma.validate().ok
    assert tau.validate().ok
    assert taubar.validate().ok


def test_comparison_maps_validate_at_rank2():
    calc = RealmCalculus(hv(2, 5))
    assert calc.sigma.validate().ok
    assert calc.tau.validate().ok
    assert calc.taubar.validate().ok
    assert calc.fix_taubar.validate_linear().ok


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
    for realm in (X, calc.TX.realm, calc.tbar.realm):
        _assert_tiles(realm.table, realm.module.dims)
        for n in range(D + 1):
            for flat, (j, mono) in enumerate(realm.entries(n)):
                assert realm.index(n, j, mono) == flat
                j2, k = realm.table.decode(n, flat)
                assert j2 == j and realm.monomials(j, n - realm.summands[j].s)[k] == mono
    for exp in (calc.TX, calc.tbar):
        assert all(exp.components[exp.comp_pos[c]] == c for c in exp.components)
    assert calc.tbar.components == [c for c in calc.TX.components if c[1] != (0,)]
