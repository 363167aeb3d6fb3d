"""Named verification checks over the whole tower, with deterministic reports.

Every check verifies a bounded instance of a structural identity and always
reports the certified degree range, never a bare boolean.  Identical
invocations produce identical reports; the randomized checks take an explicit
seed and log it.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from .f2core import BitMatrix, Subspace, left_kernel, rref
from .fixtures import load as load_fixture
from .fulu import (
    FuluModule,
    GradedSubspace,
    extend_scalars,
    freeness_report,
    generator_space,
    q_data,
    q_of_map,
    quotient_u_module,
    saturation_check,
)
from .lannes import (
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
)
from .singer import product_mu, r1, r1_dims_expected, rho1
from .unstable import (
    GradedLinearMap,
    TheoryViolation,
    TruncatedModule,
    Verdict,
    free_unstable,
    is_reduced,
    omega,
    phi,
    polynomial_module,
    suspend,
    sym_lambda,
    tensor,
    unit_module,
)


def poincare_coeffs(r: int, D: int) -> List[int]:
    """Coefficients of 1/((1-s)(1-s^2)^r) through degree D."""
    cur = [1] * (D + 1)
    for _ in range(r):
        cur = [sum(cur[n - 2 * k] for k in range(n // 2 + 1)) for n in range(D + 1)]
    return cur


@dataclass
class CheckSpec:
    id: str
    anchor: str
    statement: str
    params: Dict

    def describe(self) -> str:
        return f"{self.id} ({self.anchor}): {self.statement}"


@dataclass
class CheckResult:
    id: str
    anchor: str
    statement: str
    params: Dict
    passed: bool
    certified_degree: int
    witness: Optional[str]
    millis: float
    tables: Dict[str, List[int]] = field(default_factory=dict)

    def to_dict(self, include_timings: bool = False) -> Dict:
        doc = {
            "check_id": self.id,
            "anchor": self.anchor,
            "statement": self.statement,
            "params": self.params,
            "pass": self.passed,
            "certified_degree": self.certified_degree,
        }
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.tables:
            doc["tables"] = self.tables
        if include_timings:
            doc["millis"] = round(self.millis, 3)
        return doc


class CheckFailure(Exception):
    """Raised inside runners to abort with a witness."""

    def __init__(self, witness: str):
        super().__init__(witness)
        self.witness = witness


def _need(v: Verdict, what: str) -> None:
    if not v.ok:
        raise CheckFailure(f"{what}: {v.witness or 'failed'}")


def _need_true(cond: bool, witness: str) -> None:
    if not cond:
        raise CheckFailure(witness)


# -- standard fixtures ----------------------------------------------------------


def _standard_fixtures(D: int) -> List[TruncatedModule]:
    F1 = free_unstable(1, D)
    return [
        F1,
        free_unstable(2, D),
        polynomial_module(1, D),
        polynomial_module(2, min(D, 8)),
        phi(free_unstable(1, max(2, D // 2))),
        suspend(unit_module(D - 1)),
        tensor(F1, F1),
    ]


def _singer_fixtures(D: int) -> List[TruncatedModule]:
    F1 = free_unstable(1, D)
    return [F1, free_unstable(2, D), tensor(F1, F1), polynomial_module(1, D)]


# -- runners -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _hv_calculus(r: int, D: int) -> RealmCalculus:
    """The calculus of ``hv(r, D)``, built once per process and shared by the checks.

    Its data are computed on demand and never change, so a check reads the
    same values whether or not an earlier check filled them in.
    """
    return RealmCalculus(hv(r, D))


def _check_t1(params) -> Tuple[int, Dict[str, List[int]]]:
    D = params["D"]
    tables = {}
    for r in range(1, params["max_rank"] + 1):
        calc = _hv_calculus(r, D)
        P = rtilde(calc.X, calc)
        inv = gv_invariants(r, D)
        expected = poincare_coeffs(r, D)
        dims = [P.realization.dim(n) for n in range(D + 1)]
        _need_true(
            dims == expected,
            f"rank {r}: kernel dims {dims} differ from series {expected}",
        )
        for n in range(D + 1):
            a = Subspace.from_rows(calc.taubar_sub.kernel_incl.mat(n))
            b = Subspace(calc.E.dim(n), inv.bases[n])
            _need_true(
                a == b, f"rank {r}: kernel and invariants differ in degree {n}"
            )
        tables[f"rank{r}"] = dims
    return D, tables


def _check_t2(params):
    D = params["D"]
    tables = {}
    for r in range(1, params["max_rank"] + 1):
        calc = _hv_calculus(r, D)
        X = calc.X
        rtilde(X, calc)
        S = r1(X.module, calc.E)
        for n in range(min(D, S.D) + 1):
            a = Subspace.from_rows(calc.taubar_sub.kernel_incl.mat(n))
            _need_true(
                a == S.span(n),
                f"rank {r}: squaring span differs from the kernel in degree {n}",
            )
        tables[f"rank{r}"] = [S.fulu.dim(n) for n in range(S.D + 1)]
    return min(D, 2 * (D // 2)), tables


def _check_t3(params):
    D = params["D"]
    for r in range(1, params["max_rank"] + 1):
        calc = _hv_calculus(r, D)
        X = calc.X
        P = rtilde(X, calc)
        F = fix_presented(P)
        _need_true(
            [F.dim(n) for n in range(D + 1)] == list(X.module.dims),
            f"rank {r}: fixed points of the kernel have wrong dims",
        )
        for n in range(D + 1):
            diag_im = Subspace.from_rows(calc.diag.mat(n))
            ker = Subspace.from_rows(calc.fix_sub.kernel_incl.mat(n))
            _need_true(
                diag_im == ker,
                f"rank {r}: diagonal embedding misses the kernel in degree {n}",
            )
        _need(calc.split_equalizer_verdict(), f"rank {r} split equalizer")
    return D, {}


def _check_t4(params):
    D = params["D"]
    tables = {}
    for M in _singer_fixtures(D):
        S = r1(M)
        _need(S.free_gens, f"{M.name}: distinguished generators")
        rep = freeness_report(S.fulu)
        _need(rep.torsion_free, f"{M.name}: torsion")
        dims = [S.fulu.dim(n) for n in range(S.D + 1)]
        _need_true(
            dims == r1_dims_expected(M, S.D),
            f"{M.name}: span dims differ from the freeness forecast",
        )
        tables[M.name] = dims
    return 2 * (D // 2), tables


def _check_t5(params):
    D = params["D"]
    for M in _singer_fixtures(D):
        cert = rho1(r1(M))
        _need(cert.alinear, f"{M.name}: projection linearity")
        _need(cert.surjective, f"{M.name}: projection surjectivity")
        _need(cert.ses_exact, f"{M.name}: kernel equals the u-multiples")
        _need(cert.sq0_square, f"{M.name}: augmentation square")
    return 2 * (D // 2), {}


def _check_t6(params):
    D = params["D"]
    H = polynomial_module(1, D)
    cert = product_mu(H, H)
    _need(cert.kills_relations, "relations")
    _need(cert.injective, "injectivity")
    _need(cert.image_matches, "image")
    _need(cert.st1_multiplicative, "multiplicativity on basis pairs")
    dims = [cert.product.module.dim(n) for n in range(cert.D + 1)]
    expected = poincare_coeffs(2, cert.D)
    _need_true(dims == expected, f"product dims {dims} differ from series {expected}")
    return cert.D, {"product": dims}


def _exact_four_term(maps, names, dims_expected=None):
    """Exactness of A -> B -> C -> D with injective head and surjective tail."""
    f, g, h = maps
    D = min(f.D, g.D, h.D)
    for n in range(D + 1):
        _need_true(
            left_kernel(f.mat(n)).dim == 0,
            f"{names[0]} not injective in degree {n}",
        )
        _need_true(
            Subspace.from_rows(f.mat(n)) == left_kernel(g.mat(n)),
            f"exactness fails at {names[1]} in degree {n}",
        )
        _need_true(
            Subspace.from_rows(g.mat(n)) == left_kernel(h.mat(n)),
            f"exactness fails at {names[2]} in degree {n}",
        )
        _need_true(
            rref(h.mat(n)).rank == h.target.dims[n],
            f"{names[3]} not surjective in degree {n}",
        )
    return D


def _check_t7(params):
    D = params["D"]
    calc = _hv_calculus(1, D)
    X = calc.X
    sub = calc.taubar_sub
    # the u-module sequence: kernel -> extension -> image
    for n in range(D + 1):
        _need_true(
            Subspace.from_rows(sub.kernel_incl.mat(n))
            == left_kernel(sub.factor.mat(n)),
            f"kernel mismatch in degree {n}",
        )
        _need_true(
            rref(sub.factor.mat(n)).rank == sub.image.dim(n),
            f"image projection not surjective in degree {n}",
        )
    c1 = sub.image
    _need(freeness_report(c1).torsion_free, "image torsion")
    _need(is_reduced(c1.underlying), "image reducedness")
    # indecomposables: 0 -> doubled base -> base -> suspended loops -> 0
    q_ker = q_data(sub.kernel)
    q_e = q_data(calc.E)
    q_c1 = q_data(c1)
    qi = q_of_map(sub.kernel_incl, q_ker, q_e)
    qp = q_of_map(sub.factor, q_e, q_c1)
    M = X.module
    ft = omega(M)
    phi_dims = [phi(M).dim(n) for n in range(D + 1)]
    _need_true(
        [q_ker.module.dim(n) for n in range(D + 1)] == phi_dims,
        "indecomposables of the kernel are not the doubled base",
    )
    som_dims = [ft.coker_proj.target.dim(n) for n in range(D + 1)]
    _need_true(
        [q_c1.module.dim(n) for n in range(D + 1)] == som_dims,
        "indecomposables of the image are not the suspended loop module",
    )
    for n in range(D + 1):
        _need_true(
            left_kernel(qi.mat(n)).dim == 0,
            f"induced kernel map not injective in degree {n}",
        )
        _need_true(
            Subspace.from_rows(qi.mat(n)) == left_kernel(qp.mat(n)),
            f"induced sequence not exact in degree {n}",
        )
        _need_true(
            rref(qp.mat(n)).rank == q_c1.module.dim(n),
            f"induced projection not surjective in degree {n}",
        )
    # fixed points: 0 -> base -> expansion -> reduced expansion -> 0
    fix_c1 = fix_presented(c_functors(X, calc)[0])
    tbar_dims = [calc.tbar.module.dim(n) for n in range(D + 1)]
    _need_true(
        [fix_c1.dim(n) for n in range(D + 1)] == tbar_dims,
        "fixed points of the image are not the reduced expansion",
    )
    for n in range(D + 1):
        _need_true(
            Subspace.from_rows(calc.diag.mat(n))
            == left_kernel(calc.fix_sub.factor.mat(n)),
            f"fixed-point sequence not exact in degree {n}",
        )
    return D, {"image": [c1.dim(n) for n in range(D + 1)]}


def _check_t8(params):
    D = params["D"]
    tables = {}
    for r in range(1, params["max_rank"] + 1):
        calc = _hv_calculus(r, D)
        X = calc.X
        sub = calc.taubar_sub
        barmod, _ = calc.bar
        # four-term u-module sequence
        _exact_four_term(
            (sub.kernel_incl.mmap, calc.taubar.mmap, sub.coker_proj.mmap),
            ("kernel", "extension", "reduced part", "cokernel"),
        )
        # indecomposables sequence
        q_ker = q_data(sub.kernel)
        q_e = q_data(calc.E)
        q_bar = q_data(barmod)
        q_c2 = q_data(sub.cokernel)
        qm = (
            q_of_map(sub.kernel_incl, q_ker, q_e),
            q_of_map(calc.taubar, q_e, q_bar),
            q_of_map(sub.coker_proj, q_bar, q_c2),
        )
        _exact_four_term(qm, ("doubled base", "base", "suspended reduced part", "division term"))
        ar = alpha_realm(X, calc)
        dv = division_u2(ar)
        div_dims = [dv.div.dim(n) for n in range(dv.div.D + 1)]
        for n in range(min(D, dv.div.D + 1)):
            _need_true(
                q_c2.module.dim(n) == (div_dims[n - 1] if n >= 1 else 0),
                f"rank {r}: division term wrong in degree {n}",
            )
        # fixed-point sequence and its dims
        fix2 = fix_presented(c_functors(X, calc)[1])
        M, TM, TT = X.module, calc.TX.module, calc.TTbar.module
        t2count = (2 ** r - 1) ** 2
        for n in range(D + 1):
            quad = (M.dim(n), TM.dim(n), TT.dim(n), fix2.dim(n))
            _need_true(
                quad[0] - quad[1] + quad[2] - quad[3] == 0,
                f"rank {r}: fixed-point alternating sum nonzero in degree {n}",
            )
            _need_true(
                fix2.dim(n) == t2count * M.dim(n),
                f"rank {r}: twice-reduced expansion dims wrong in degree {n}",
            )
            _need_true(
                Subspace.from_rows(calc.diag.mat(n))
                == left_kernel(calc.fix_taubar.mat(n)),
                f"rank {r}: fixed-point sequence not exact at the expansion, degree {n}",
            )
        # free cokernel on the suspended division term
        _need(freeness_report(sub.cokernel).torsion_free, f"rank {r}: cokernel torsion")
        for n in range(D + 1):
            forecast = sum(
                div_dims[k - 1] for k in range(1, n + 1) if k - 1 <= dv.div.D
            )
            _need_true(
                sub.cokernel.dim(n) == forecast,
                f"rank {r}: cokernel not free on the suspended division term at degree {n}",
            )
        tables[f"rank{r}_c2"] = [sub.cokernel.dim(n) for n in range(D + 1)]
    return D, tables


def _check_t9(params):
    D = params["D"]
    fixtures = _standard_fixtures(D)
    if params.get("fixture_file"):
        loaded = load_fixture(params["fixture_file"])
        mod = loaded.underlying if isinstance(loaded, FuluModule) else loaded
        rep = mod.validate()
        if not rep.ok:
            raise CheckFailure(f"{mod.name}: {rep.violations[0]}")
        fixtures = fixtures + [mod]
    for M in fixtures:
        v = omega(M).verify()
        if not v.ok:
            raise CheckFailure(f"{M.name}: {v.witness}")
    return D, {}


def _check_t10(params):
    D = params["D"]
    H = polynomial_module(1, D)
    T = tensor(H, H)
    omT = omega(T).omega
    omH = omega(H).omega
    for n in range(omT.D):
        lhs = omT.dim(n)
        mid = sum(
            omH.dims[a] * H.dims[n - a] for a in range(min(n, omH.D) + 1)
        ) + sum(H.dims[a] * omH.dims[n - a] for a in range(n + 1) if n - a <= omH.D)
        sus = (
            sum(omH.dims[a] * omH.dims[n - 1 - a] for a in range(n) if n - 1 - a <= omH.D)
            if n >= 1
            else 0
        )
        _need_true(
            lhs - mid + sus == 0,
            f"loop alternating sum is {lhs - mid + sus} in degree {n}",
        )
    return omT.D - 1, {}


def _check_t11(params):
    D = params["D"]
    for r in range(1, params["max_rank"] + 1):
        M = polynomial_module(r, D)
        v = is_reduced(omega(M).omega)
        _need(v, f"rank {r}: loop module reducedness")
    return (D - 1) // 2, {}


def _check_t12(params):
    D = params["D"]
    P = phi(free_unstable(1, max(4, D // 2)))
    tbar = unit_module(P.D)
    st = GradedLinearMap(P, tbar, {}, shift=-1)
    ar = alpha_from_structure(P, tbar, st)
    for n in range(ar.alpha.D + 1):
        _need_true(ar.alpha.mat(n).is_zero(), f"alpha nonzero in degree {n}")
    dv = division_u2(ar)
    der1 = [dv.derived1.dim(n) for n in range(min(dv.derived1.D, 6) + 1)]
    _need_true(
        der1 == [0, 1, 0, 0, 0, 0, 0][: len(der1)],
        f"first derived division term has dims {der1}, expected the suspended unit",
    )
    _need_true(sum(dv.derived2.dims) == 0, "second derived division term nonzero")
    return ar.alpha.D, {}


def _check_t13(params):
    D = params["D"]
    sl = sym_lambda(D)
    rep = sl.from_free.validate_linear()
    _need_true(rep.ok, f"comparison from the free module: {rep.violations[:1]}")
    for n in range(D + 1):
        _need_true(
            rref(sl.from_free.mat(n)).rank == sl.invariants.dim(n)
            and sl.invariants.dim(n) == sl.free_rank2.dim(n),
            f"invariants are not the rank-two free module in degree {n}",
        )
        _need_true(
            rref(sl.diag.mat(n)).rank == sl.phi_f1.dim(n),
            f"diagonal extraction not surjective in degree {n}",
        )
        _need_true(
            Subspace.from_rows(sl.lambda2_incl.mat(n)) == left_kernel(sl.diag.mat(n)),
            f"exterior square is not the kernel in degree {n}",
        )
    rep2 = sl.diag.validate_linear()
    _need_true(rep2.ok, f"diagonal extraction linearity: {rep2.violations[:1]}")
    # the division functor does not keep this sequence exact: the first
    # derived term of the quotient is the suspended unit (see T12)
    P = phi(free_unstable(1, max(4, D // 2)))
    ar = alpha_from_structure(P, unit_module(P.D), GradedLinearMap(P, unit_module(P.D), {}, shift=-1))
    dv = division_u2(ar)
    _need_true(
        dv.derived1.dim(1) == 1,
        "the division-functor obstruction witness vanished",
    )
    return D, {}


def _random_subspace(rng: random.Random, E, style: int) -> GradedSubspace:
    D = E.D
    if style == 0:
        seeds = {}
        for _ in range(rng.randint(1, 3)):
            n = rng.randrange(0, D)
            if E.dim(n) == 0:
                continue
            seeds.setdefault(n, []).append(rng.randrange(1, 1 << E.dim(n)))
        return GradedSubspace.from_vectors(E, seeds)
    if style == 1:
        # the extension of a random graded subspace of the base
        seeds = {}
        for n in range(D + 1):
            base_dim = E.base.dims[n]
            if base_dim == 0:
                continue
            for _ in range(rng.randint(0, 2)):
                v = rng.randrange(1, 1 << base_dim)
                seeds.setdefault(n, []).append(v << E.block(n, 0)[0])
        return GradedSubspace.from_vectors(E, seeds)
    # a u-power shift of a style-1 subspace
    inner = _random_subspace(rng, E, 1)
    k = rng.randint(1, 2)
    shifted = {}
    for n in range(D + 1 - k):
        mat = inner.bases[n]
        for step in range(k):
            mat = mat @ E.u_mat(n + step)
        shifted[n + k] = mat
    return GradedSubspace.from_vectors(E, {n: m.row_ints() for n, m in shifted.items()})


def _check_t14(params):
    D = params["D"]
    seed = params["seed"]
    trials = params.get("trials", 100)
    rng = random.Random(seed)
    ambients = [
        extend_scalars(polynomial_module(1, D)),
        extend_scalars(free_unstable(2, D)),
    ]
    checked = 0
    for t in range(trials):
        E = ambients[t % len(ambients)]
        X = _random_subspace(rng, E, t % 3)
        sat = saturation_check(X)
        gs = generator_space(X)
        _need_true(
            sat.ok == gs.eps_image_injective.ok,
            f"trial {t}: saturation={sat.ok} but generator criterion={gs.eps_image_injective.ok}"
            f" ({sat.witness or gs.eps_image_injective.witness})",
        )
        checked += 1
    _need_true(checked >= trials, "not enough trials ran")
    return D, {"trials": [checked]}


def _check_t15(params):
    D = params["D"]
    seed = params["seed"]
    rng = random.Random(seed + 1)
    from .unstable import module_from_action

    # free fixtures: scalar extensions are connected with u injective
    for M in (unit_module(D), free_unstable(1, D)):
        rep = freeness_report(extend_scalars(M))
        _need(rep.torsion_free, f"extension of {M.name}")
        _need_true(rep.free_basis is not None, f"extension of {M.name}: no basis extracted")
    # the torsion fixture: u truncated at the square
    trunc = module_from_action(
        "F[u]/(u^2)", 3, [1, 1, 0, 0], {(1, 0): BitMatrix.from_rows([[1]])}
    )
    N = FuluModule(trunc, {0: BitMatrix.from_rows([[1]])})
    repN = freeness_report(N)
    _need_true(not repN.torsion_free.ok, "truncated algebra reported torsion-free")
    _need_true(repN.free_basis is None, "truncated algebra reported a free basis")
    # saturated random submodules have u-torsion-free quotients
    E = extend_scalars(polynomial_module(1, D))
    saturated_seen = 0
    for t in range(40):
        X = _random_subspace(rng, E, t % 3)
        if saturation_check(X).ok:
            saturated_seen += 1
            q = quotient_u_module(X)
            _need(
                freeness_report(q).torsion_free,
                f"trial {t}: saturated subspace with torsion quotient",
            )
    _need_true(saturated_seen >= 5, "too few saturated samples to certify")
    return D, {"saturated": [saturated_seen]}


def _check_t16(params):
    D = params["D"]
    calc = _hv_calculus(1, D)
    X = calc.X
    SX = realm_suspend(X)
    calc_s = RealmCalculus(SX)
    rtilde(SX, calc_s)
    for n in range(1, D + 1):
        a = Subspace.from_rows(calc_s.taubar_sub.kernel_incl.mat(n))
        b = Subspace.from_rows(calc.taubar_sub.kernel_incl.mat(n - 1))
        _need_true(
            a.basis == b.basis,
            f"suspension shifts the kernel incorrectly in degree {n}",
        )
    # sums with a locally finite factor split off
    LF = realm_sum(hv(0, D), realm_suspend(hv(0, D), 2))
    S = realm_sum(X, LF)
    calc_sum = RealmCalculus(S)
    expect = []
    for n in range(D + 1):
        base = calc.taubar_sub.kernel.dim(n)
        lf = (n >= 0) + (n >= 2)  # the whole extension survives on trivial groups
        expect.append(base + lf)
    got = [calc_sum.taubar_sub.kernel.dim(n) for n in range(D + 1)]
    _need_true(got == expect, f"sum with a locally finite module: dims {got} != {expect}")
    return D, {}


def _check_t17(params):
    D = params["D"]
    for n in range(0, 4):
        M = free_unstable(n, D)
        cert = rho1(r1(M))
        _need(cert.surjective, f"F({n}) projection surjectivity")
        _need(cert.alinear, f"F({n}) projection linearity")
    return 2 * (D // 2), {}


# id, anchor, statement, the smallest truncation degree the check is
# defined at (below it the constructions it certifies do not exist), runner
CATALOG: List[Tuple[str, str, str, int, Callable]] = [
    ("T1", "kernel-equals-invariants",
     "the reduced-comparison kernel on H(V) is the pointwise-stabilizer invariant ring",
     0, _check_t1),
    ("T2", "span-equals-kernel",
     "the squaring span coincides with the reduced-comparison kernel on H(V)",
     0, _check_t2),
    ("T3", "fixed-points-recover-module",
     "the fixed-point functor of the comparison kernel returns the module",
     0, _check_t3),
    ("T4", "span-freeness",
     "the squaring span is u-free on the distinguished generators",
     0, _check_t4),
    ("T5", "projection-short-exact-sequence",
     "the projection to the doubled module is linear, onto, with kernel the u-multiples",
     0, _check_t5),
    ("T6", "product-isomorphism",
     "the relative tensor product of spans maps isomorphically onto the span of the tensor",
     0, _check_t6),
    ("T7", "reduced-image-sequence",
     "for a reduced base the image sequence has free reduced image and the expected indecomposables and fixed points",
     2, _check_t7),
    ("T8", "nilclosed-four-term",
     "the four-term comparison sequence, its fixed points, and free cokernel",
     2, _check_t8),
    ("T9", "loop-four-term",
     "the loop-functor four-term sequence is exact on every fixture",
     2, _check_t9),
    ("T10", "loop-kunneth",
     "loop modules of a tensor product satisfy the Kunneth dimension identity",
     2, _check_t10),
    ("T11", "loop-of-polynomials-reduced",
     "loop modules of polynomial algebras are reduced",
     2, _check_t11),
    ("T12", "alpha-vanishing-witness",
     "the loop comparison map vanishes on the doubled free module and its first derived division term is the suspended unit",
     0, _check_t12),
    ("T13", "exterior-square-sequence",
     "the exterior-square sequence is exact and the division functor fails to preserve it",
     2, _check_t13),
    ("T14", "saturation-equivalence",
     "u-divisibility closure is equivalent to injectivity of the generator space",
     1, _check_t14),
    ("T15", "torsion-free-iff-free",
     "connected u-modules are free exactly when u-torsion free",
     1, _check_t15),
    ("T16", "kernel-suspension-and-sums",
     "the comparison kernel commutes with suspension and splits off locally finite summands",
     0, _check_t16),
    ("T17", "projection-onto-doubled-free",
     "the projection is surjective for the free modules on classes of degree at most three",
     0, _check_t17),
]

_RUNNERS = {cid: (anchor, statement, min_d, fn) for cid, anchor, statement, min_d, fn in CATALOG}


def make_spec(check_id: str, D: int = 10, max_rank: int = 2, seed: int = 2,
              **extra) -> CheckSpec:
    if check_id not in _RUNNERS:
        raise KeyError(f"unknown check id: {check_id}")
    anchor, statement, min_d, _ = _RUNNERS[check_id]
    if D < min_d:
        raise ValueError(f"{check_id} needs a truncation degree of at least {min_d}, got {D}")
    params = {"D": D, "max_rank": max_rank, "seed": seed}
    params.update(extra)
    return CheckSpec(check_id, anchor, statement, params)


def run_check(spec: CheckSpec) -> CheckResult:
    anchor, statement, _, fn = _RUNNERS[spec.id]
    start = time.monotonic()
    try:
        certified, tables = fn(spec.params)
        passed, witness = True, None
    except CheckFailure as exc:
        certified, tables = spec.params.get("D", 0), {}
        passed, witness = False, exc.witness
    except TheoryViolation as exc:
        certified, tables = spec.params.get("D", 0), {}
        passed, witness = False, f"structural violation: {exc}"
    millis = (time.monotonic() - start) * 1000.0
    return CheckResult(
        spec.id, anchor, statement, dict(spec.params), passed, certified,
        witness, millis, tables,
    )


def run_all(D: int = 10, max_rank: int = 2, seed: int = 2,
            only: Optional[List[str]] = None) -> List[CheckResult]:
    specs = [
        make_spec(cid, D=D, max_rank=max_rank, seed=seed)
        for cid, *_ in CATALOG
        if only is None or cid in only
    ]
    return [run_check(spec) for spec in specs]


def report(results: List[CheckResult], fmt: str = "text",
           include_timings: bool = False) -> str:
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown report format: {fmt}")
    if fmt == "json":
        doc = {
            "checks": [r.to_dict(include_timings) for r in results],
            "summary": {
                "total": len(results),
                "passed": sum(r.passed for r in results),
                "failed": sum(not r.passed for r in results),
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        head = f"{r.id:4s} {status}  [certified through degree {r.certified_degree}] {r.anchor}"
        if include_timings:
            head += f"  ({r.millis:.1f} ms)"
        lines.append(head)
        lines.append(f"     {r.statement}")
        lines.append(
            "     params: "
            + " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        )
        if r.witness:
            lines.append(f"     witness: {r.witness}")
        for key, vals in sorted(r.tables.items()):
            lines.append(f"     {key}: {','.join(str(v) for v in vals)}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
