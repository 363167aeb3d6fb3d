from collections import Counter

import numpy as np

from usteen import harness, singer
from usteen.f2core import BitMatrix, Subspace, rref
from usteen.fulu import extend_scalars, indecomposables, saturation_check, generator_space, torsion_free
from usteen.lannes import hv_module
from usteen.singer import (
    product_mu,
    r1,
    r1_dims_expected,
    r1_on_map,
    rho1,
    st1,
)
from usteen.unstable import (
    TruncatedModule,
    free_unstable,
    is_reduced,
    map_from_free,
    polynomial_module,
    tensor,
    tensor_with_layout,
    unit_module,
)

from reference import checked_graded_subspace, intersect


def series_coeffs(r, D):
    """Coefficients of 1/((1-s)(1-s^2)^r) up to degree D."""
    out = [0] * (D + 1)
    base = [1] * (D + 1)  # 1/(1-s)
    cur = base
    for _ in range(r):
        nxt = [0] * (D + 1)
        for n in range(D + 1):
            nxt[n] = sum(cur[n - 2 * k] for k in range(n // 2 + 1))
        cur = nxt
    return cur


def test_st1_on_unit():
    F = unit_module(6)
    smap = st1(F)
    assert smap[0].to_lists() == [[1]]


def test_st1_on_polynomial_generator():
    H = polynomial_module(1, 8)
    E = extend_scalars(H)
    smap = st1(H, E)
    # st1(t) = u (x) t + 1 (x) t^2
    row = smap[1].row_int(0)
    expect = (1 << E.index(2, 1, 0)) | (1 << E.index(2, 0, 0))
    assert row == expect


def test_st1_polynomial_binomial_expansion():
    # st1(t^d) is the d-th power of (u t + t^2) inside F[u, t]
    D = 12
    H = polynomial_module(1, D)
    E = extend_scalars(H)
    smap = st1(H, E)
    for d in range(1, D // 2 + 1):
        from math import comb

        expect = 0
        # (ut + t^2)^d = sum_i binom(d, i) u^{d-i} t^{d+i}
        for i in range(d + 1):
            if comb(d, i) % 2:
                expect |= 1 << E.index(2 * d, d - i, 0)
        assert smap[d].row_int(0) == expect


def test_st1_reads_each_square_once(monkeypatch):
    M = tensor(free_unstable(1, 8), polynomial_module(1, 8))
    E = extend_scalars(M)
    reads = Counter()
    sq = TruncatedModule.sq

    def counting(self, i, n):
        if self is M:
            reads[(i, n)] += 1
        return sq(self, i, n)

    monkeypatch.setattr(TruncatedModule, "sq", counting)
    st1(M, E)
    assert reads == {(i, d): 1 for d in range(M.D // 2 + 1) for i in range(d + 1)}


def test_r1_builds_its_labels_on_first_read(monkeypatch):
    """T2 and ``compute r1`` read dims and spans only, so R1(M) names its
    distinguished generators u^k st1(b) when something reads them."""
    M = free_unstable(1, 8)
    built = []
    checked = TruncatedModule._checked_labels

    def counting(self, labels):
        # F[u], the ambient's left factor, is a polynomial module, built with its labels
        if self.name != "F[u]":
            built.append(self.name)
        return checked(self, labels)

    monkeypatch.setattr(TruncatedModule, "_checked_labels", counting)
    S = r1(M)
    assert built == []
    want = [tuple(f"st1({b})" if n == 2 * d else f"u^{n - 2 * d}*st1({b})"
                  for d in range(n // 2 + 1) for b in M.labels[d])
            for n in range(S.D + 1)]
    assert list(S.fulu.labels) == want
    assert built == [S.fulu.name]


def test_shift_row_is_multiplication_by_a_power_of_u():
    """R1's u is the closed-form index map u^k st1(b) -> u^(k+1) st1(b), and
    its generator rows are st1 rows shifted by the ambient's u-offsets.
    Against the ambient's u, on T4's fixtures and on T6's M (x) N: u on the
    generators is the ambient shift of their rows, and each u^k st1(b) row
    is k products with u of the st1(b) row."""
    D = 8
    H = hv_module(1, D)
    for M in [*harness._singer_fixtures(D), tensor_with_layout(H, H)[0]]:
        S = r1(M)
        E, G = S.ambient, S.gen_matrix
        for n in range(S.D):
            assert E.times_u(n, G(n)) == S.fulu.u_mat(n) @ G(n + 1), (M.name, n)
        for n in range(S.D + 1):
            for i, (k, d, j) in enumerate(S.gens[n]):
                row = BitMatrix.from_row_ints([S.st1_map[d].row_int(j)], E.dim(2 * d))
                for m in range(2 * d, n):
                    row = E.times_u(m, row)
                assert row.row_int(0) == G(n).row_int(i), (M.name, n, k, d, j)


def test_r1_of_unit_is_polynomial_algebra():
    S = r1(unit_module(8))
    assert [S.fulu.dim(n) for n in range(9)] == [1] * 9
    assert S.free_gens.ok


def test_r1_polynomial_dims():
    S = r1(polynomial_module(1, 12))
    for n in range(S.D + 1):
        assert S.fulu.dim(n) == n // 2 + 1
    assert [S.fulu.dim(n) for n in range(S.D + 1)] == series_coeffs(1, S.D)


def test_r1_rank2_dims():
    S = r1(polynomial_module(2, 10))
    assert [S.fulu.dim(n) for n in range(S.D + 1)] == series_coeffs(2, S.D)


def test_r1_freeness_and_dims_forecast():
    for M in (free_unstable(1, 12), free_unstable(2, 12), polynomial_module(1, 12)):
        S = r1(M)
        assert torsion_free(S.fulu).ok
        assert [S.fulu.dim(n) for n in range(S.D + 1)] == r1_dims_expected(M, S.D)
        assert S.free_gens.ok


def test_r1_freeness_is_read_off_top_bits_with_no_rank(monkeypatch):
    """On the catalog's fixtures the generators of every degree have
    distinct top bits, so freeness runs no rank and records each degree's
    rank as its row count."""
    def refuse(m):
        raise AssertionError("rank eliminated")

    monkeypatch.setattr(singer, "rank", refuse)
    for M in harness._singer_fixtures(12):
        S = r1(M)
        assert S.free_gens.ok, M.name
        assert all(S.gen_matrix(n)._rank == S.gen_matrix(n).nrows for n in range(S.D + 1))


def test_r1_validates_as_fulu_module():
    S = r1(free_unstable(2, 10))
    assert S.fulu.validate().ok
    assert S.incl.validate_linear().ok


def test_r1_indecomposables_are_doubled_module():
    # Q(R1(H)) has the dims of the doubled module: 1 in even degrees
    S = r1(polynomial_module(1, 12))
    Q = indecomposables(S.fulu)
    assert [Q.dim(n) for n in range(S.D + 1)] == [1 if n % 2 == 0 else 0 for n in range(S.D + 1)]


def test_r1_reduced_preserved():
    S = r1(polynomial_module(1, 12))
    assert is_reduced(S.fulu).ok
    S2 = r1(free_unstable(2, 10))
    assert is_reduced(S2.fulu).ok


def test_r1_saturated_in_ambient():
    S = r1(polynomial_module(1, 10))
    X = checked_graded_subspace(S.ambient, {n: S.gen_matrix(n) for n in range(S.D + 1)})
    assert saturation_check(X).ok
    gs = generator_space(X)
    assert gs.eps_image_injective.ok


def test_rho1_certificate_unit():
    cert = rho1(r1(unit_module(8)))
    assert cert.ok
    # the projection is the augmentation on the polynomial algebra
    assert cert.rho.mat(0).to_lists() == [[1]]
    # in positive degrees the doubled unit module vanishes
    assert cert.rho.mat(2).ncols == 0 and cert.rho.mat(2).nrows == 1


def test_rho1_certificates():
    for M in (
        free_unstable(1, 12),
        free_unstable(2, 12),
        free_unstable(3, 12),
        polynomial_module(1, 12),
        tensor(free_unstable(1, 12), free_unstable(1, 12)),
    ):
        cert = rho1(r1(M))
        assert cert.alinear.ok, M.name
        assert cert.surjective.ok, M.name
        assert cert.ses_exact.ok, M.name
        assert cert.sq0_square.ok, M.name


def test_rho1_kernel_is_u_multiples_rank_bookkeeping():
    S = r1(polynomial_module(1, 10))
    cert = rho1(S)
    for n in range(S.D + 1):
        ker_dim = S.fulu.dim(n) - rref(cert.rho.mat(n)).rank
        u_rank = rref(S.fulu.u_mat(n - 1)).rank if n >= 1 else 0
        assert ker_dim == u_rank


def test_r1_on_identity_map():
    M = free_unstable(2, 10)
    S = r1(M)
    from usteen.unstable import ModuleMap

    ind, nat = r1_on_map(ModuleMap.identity(M), S, S)
    assert nat.ok
    for n in range(ind.D + 1):
        assert ind.mat(n) == BitMatrix.identity(S.fulu.dim(n))


def test_r1_on_map_generator_image():
    F1 = free_unstable(1, 10)
    H = polynomial_module(1, 10)
    f = map_from_free(F1, H, 1)  # fundamental class to t
    SF, SH = r1(F1), r1(H)
    ind, nat = r1_on_map(f, SF, SH)
    assert nat.ok
    assert ind.validate_linear().ok
    # st1(i1) lands on st1(t) = u t + t^2
    row = (SF.gen_matrix(2).take_rows([SF._gen_pos[2][(0, 1, 0)]]) @
           __import__("usteen.fulu", fromlist=["extend_scalars_map"]).extend_scalars_map(f, SF.ambient, SH.ambient).mat(2))
    expect = (1 << SH.ambient.index(2, 1, 0)) | (1 << SH.ambient.index(2, 0, 0))
    assert row.row_int(0) == expect


def test_r1_functorial_composition():
    rng = np.random.default_rng(3)
    F2 = free_unstable(2, 10)
    F1 = free_unstable(1, 10)
    H = polynomial_module(1, 10)
    f = map_from_free(F2, F1, int(rng.integers(0, 1 << F1.dim(2))))
    g = map_from_free(F1, H, 1)
    SF2, SF1, SH = r1(F2), r1(F1), r1(H)
    rf, okf = r1_on_map(f, SF2, SF1)
    rg, okg = r1_on_map(g, SF1, SH)
    rgf, okgf = r1_on_map(f.then(g), SF2, SH)
    assert okf.ok and okg.ok and okgf.ok
    comp = rf.then(rg)
    for n in range(min(comp.D, rgf.D) + 1):
        assert comp.mat(n) == rgf.mat(n)


def test_r1_exactness_on_invariants_sequence():
    from usteen.unstable import sym_lambda

    sl = sym_lambda(10)
    S_lam = r1(sl.lambda2)
    S_inv = r1(sl.invariants)
    # truncate the doubled module so the ambient stays desk-sized
    import usteen.unstable as U

    phi_trunc = U.TruncatedModule(
        "PhF1", 10, sl.phi_f1.dims[:11],
        {k: v for k, v in sl.phi_f1.action_items() if k[0] + k[1] <= 10},
        sl.phi_f1.labels[:11],
    )
    S_phi = r1(phi_trunc)
    incl, ok1 = r1_on_map(sl.lambda2_incl, S_lam, S_inv)
    proj, ok2 = r1_on_map(
        U.ModuleMap(sl.invariants, phi_trunc, {n: sl.diag.mat(n) for n in range(11)}, D=10),
        S_inv, S_phi,
    )
    assert ok1.ok and ok2.ok
    from usteen.f2core import left_kernel

    for n in range(min(incl.D, proj.D) + 1):
        assert rref(incl.mat(n)).rank == S_lam.fulu.dim(n)
        assert Subspace.from_rows(incl.mat(n)) == left_kernel(proj.mat(n))
        assert rref(proj.mat(n)).rank == S_phi.fulu.dim(n)


def test_product_mu_unit():
    cert = product_mu(free_unstable(2, 8), unit_module(8))
    assert cert.ok


def test_product_mu_polynomials():
    cert = product_mu(polynomial_module(1, 10), polynomial_module(1, 10))
    assert cert.kills_relations.ok
    assert cert.injective.ok
    assert cert.image_matches.ok
    assert cert.st1_multiplicative.ok
    dims = [cert.product.module.dim(n) for n in range(cert.D + 1)]
    assert dims == series_coeffs(2, cert.D)


def test_product_mu_free_modules():
    cert = product_mu(free_unstable(1, 8), free_unstable(1, 8))
    assert cert.ok


def test_product_mu_of_a_module_with_itself_builds_r1_once(monkeypatch):
    built = []
    real_r1 = singer.r1

    def counting_r1(M, ambient=None):
        built.append(M.name)
        return real_r1(M, ambient)

    monkeypatch.setattr(singer, "r1", counting_r1)
    H = free_unstable(1, 8)
    assert product_mu(H, H).ok
    # R1(H) once, then R1 of the tensor square
    assert len(built) == 2 and built[0] == H.name
    built.clear()
    assert product_mu(H, free_unstable(1, 8)).ok
    assert len(built) == 3


def test_r1_action_is_induced_on_first_read_by_t5_and_not_by_t2(monkeypatch):
    """T2 reads only the dims and spans of R1; T5 checks its Sq action."""
    from usteen import harness

    induced = []
    real = singer._restricted_action

    def counting(bases, ambient, D, name):
        induced.append(name)
        return real(bases, ambient, D, name)

    monkeypatch.setattr(singer, "_restricted_action", counting)
    assert harness.run_check(harness.make_spec("T2", D=8, max_rank=2)).passed
    assert induced == []
    assert harness.run_check(harness.make_spec("T5", D=8, max_rank=2)).passed
    assert induced and all(name.startswith("R1(") for name in induced)


def test_eps_of_st1_is_sq0():
    # the augmentation applied to st1(x) gives the top square of x
    from usteen.unstable import sq0

    M = polynomial_module(1, 10)
    E = extend_scalars(M)
    smap = st1(M, E)
    top = sq0(M)
    for d in range(M.D // 2 + 1):
        assert smap[d] @ E.eps_mat(2 * d) == top.mat(2 * d)


def test_r1_submodule_compatibility():
    # for an inclusion N in M, the span of N equals the span of M
    # intersected with the extension of N, inside the extension of M
    from usteen.fulu import extend_scalars_map
    from usteen.unstable import sym_lambda

    sl = sym_lambda(10)
    N, M, incl = sl.lambda2, sl.invariants, sl.lambda2_incl
    SN, SM = r1(N), r1(M)
    ext_incl = extend_scalars_map(incl, SN.ambient, SM.ambient)
    D = min(SN.D, SM.D)
    for n in range(D + 1):
        big = SM.span(n)
        inside = Subspace.from_rows(ext_incl.mat(n))
        lhs = intersect(big, inside)
        rhs = Subspace.from_rows(SN.gen_matrix(n) @ ext_incl.mat(n))
        assert lhs == rhs, n


def test_generator_space_of_r1_is_squares():
    from usteen.fulu import generator_space

    M = polynomial_module(1, 10)
    S = r1(M)
    X = checked_graded_subspace(S.ambient, {n: S.gen_matrix(n) for n in range(S.D + 1)})
    gs = generator_space(X)
    assert gs.eps_image_injective.ok
    for n in range(S.D + 1):
        w = gs.w_bases[n]
        # generators sit in even degrees and map onto the squares
        assert w.nrows == (1 if n % 2 == 0 else 0)
        if w.nrows:
            image = w @ S.ambient.eps_mat(n)
            assert rref(image).rank == 1
