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

from .f2core import BitMatrix, express_in_rowspace, rank
from .fixtures import load as load_fixture
from .fulu import (
    GradedSubspace,
    extend_scalars,
    generator_space,
    indecomposables,
    q_data,
    q_of_map,
    q_of_quotient,
    saturation_check,
    torsion_free,
)
from .lannes import (
    AlphaResult,
    alpha_from_structure,
    calculus,
    hv,
    hv_module,
    realm_sum,
    realm_suspend,
)
from .singer import product_mu, r1, r1_dims_expected, rho1
from .unstable import (
    FuluModule,
    ModuleMap,
    TheoryViolation,
    TruncatedModule,
    ValidationReport,
    Verdict,
    exact_sequence,
    free_unstable,
    is_reduced,
    omega,
    phi,
    quotient,
    submodule,
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


def _need_valid(rep: ValidationReport, what: str) -> None:
    if not rep.ok:
        raise CheckFailure(f"{what}: {rep.violations[0]}")


# -- standard fixtures ----------------------------------------------------------


def _standard_fixtures(D: int) -> List[TruncatedModule]:
    F1 = free_unstable(1, D)
    return [
        F1,
        free_unstable(2, D),
        hv_module(1, D),
        hv_module(2, min(D, 8)),
        phi(free_unstable(1, max(2, D // 2))),
        suspend(unit_module(D - 1)),
        tensor(F1, F1),
    ]


def _singer_fixtures(D: int) -> List[TruncatedModule]:
    F1 = free_unstable(1, D)
    return [F1, free_unstable(2, D), tensor(F1, F1), hv_module(1, D)]


# -- runners -----------------------------------------------------------------


def _check_t1(params) -> Tuple[int, Dict[str, List[int]]]:
    D = params["D"]
    tables = {}
    for r in range(1, params["max_rank"] + 1):
        calc = calculus(hv(r, D))
        # both sides are the closed basis, each certified on its own: as ker
        # taubar on taubar's u^0 layer, as the invariants on the g_v + id;
        # a failing leg raises TheoryViolation
        K = calc.rtilde
        calc.invariants()
        expected = poincare_coeffs(r, D)
        dims = [K.dim(n) for n in range(D + 1)]
        _need_true(
            dims == expected,
            f"rank {r}: kernel dims {dims} differ from series {expected}",
        )
        tables[f"rank{r}"] = dims
    return D, tables


def _check_t2(params):
    D = params["D"]
    tables = {}
    for r in range(1, params["max_rank"] + 1):
        calc = calculus(hv(r, D))
        calc.rtilde  # certifies the equalizer
        S = r1(calc.X.module, calc.E)
        kernel = calc.kernel_incl
        for n in range(min(D, S.D) + 1):
            # both row sets are independent (leg (a) of the kernel's
            # certificate, and the freeness r1 certifies), so equal counts
            # and one span inside the other make the spans equal
            rows, span = kernel.mat(n), S.gen_matrix(n)
            _need_true(
                rows.nrows == span.nrows and express_in_rowspace(span, rows) is not None,
                f"rank {r}: squaring span differs from the kernel in degree {n}",
            )
        tables[f"rank{r}"] = [S.fulu.dim(n) for n in range(S.D + 1)]
    return min(D, 2 * (D // 2)), tables


def _check_t3(params):
    D = params["D"]
    for r in range(1, params["max_rank"] + 1):
        calc = calculus(hv(r, D))
        calc.rtilde  # certifies the equalizer
        _need_true(
            calc.fix_parts["kernel"].table.dims == calc.X.table.dims,
            f"rank {r}: fixed points of the kernel have wrong dims",
        )
        _need(calc.fixed_point_verdict(), f"rank {r}: fixed-point sequence")
        _need(calc.split_equalizer_verdict(), f"rank {r}: split equalizer")
    return D, {}


def _check_t4(params):
    D = params["D"]
    tables = {}
    for M in _singer_fixtures(D):
        S = r1(M)
        _need(S.free_gens, f"{M.name}: distinguished generators")
        _need(torsion_free(S.fulu), f"{M.name}: torsion")
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
    H = hv_module(1, D)
    cert = product_mu(H, H)
    _need(cert.kills_relations, "relations")
    _need(cert.injective, "injectivity")
    _need(cert.image_matches, "image")
    _need(cert.st1_multiplicative, "multiplicativity on basis pairs")
    dims = [cert.product.module.dim(n) for n in range(cert.D + 1)]
    expected = poincare_coeffs(2, cert.D)
    _need_true(dims == expected, f"product dims {dims} differ from series {expected}")
    return cert.D, {"product": dims}


def _check_t7(params):
    D = params["D"]
    calc = calculus(hv(1, D))
    kernel, kernel_incl = calc.rtilde, calc.kernel_incl
    _need(calc.taubar_image_verdict, "u-module sequence")
    # the image of taubar as a u-module on the canonical bases of taubar_image
    image, layer = calc.taubar_image, calc.taubar.layer
    c1, _ = submodule(calc.bar, image.bases, "im(taubar)")
    _need(torsion_free(c1), "image torsion")
    _need(is_reduced(c1), "image reducedness")
    # indecomposables: 0 -> doubled base -> base -> suspended loops -> 0, with
    # taubar on Q(E)'s representatives, its u^0 layer, in the image's bases
    q_ker = q_data(kernel)
    q_e = q_data(calc.E)
    q_c1 = q_data(c1)
    qi = q_of_map(kernel_incl, q_ker, q_e)
    qp = ModuleMap(q_e.target, q_c1.target, {
        n: q_c1.apply(n, express_in_rowspace(
            image.bases[n], BitMatrix(len(layer[n]), calc.bar.dim(n), tuple(layer[n]))))
        for n in range(D + 1)})
    M = calc.X.module
    ft = calc.omega  # shared with T8 and T11
    phi_dims = list(phi(M).dims[: D + 1])  # the doubled base, built once
    _need_true(
        [q_ker.target.dim(n) for n in range(D + 1)] == phi_dims,
        "indecomposables of the kernel are not the doubled base",
    )
    som_dims = [ft.coker_proj.target.dim(n) for n in range(D + 1)]
    _need_true(
        [q_c1.target.dim(n) for n in range(D + 1)] == som_dims,
        "indecomposables of the image are not the suspended loop module",
    )
    _need(
        exact_sequence((qi, qp), ("doubled base", "base", "suspended loop module")),
        "induced sequence",
    )
    # fixed points: 0 -> base -> expansion -> reduced expansion -> 0
    _need_true(
        calc.fix_parts["image"].table.dims == calc.tbar.table.dims,
        "fixed points of the image are not the reduced expansion",
    )
    _need(calc.fixed_point_verdict(), "fixed-point sequence")
    return D, {"image": [c1.dim(n) for n in range(D + 1)]}


def _check_t8(params):
    D = params["D"]
    tables = {}
    for r in range(1, params["max_rank"] + 1):
        calc = calculus(hv(r, D))
        _need(calc.taubar_linear_verdict, f"rank {r}: linearity of taubar")
        # the cokernel is bar modulo the image of taubar, which the verdict certifies
        _need(calc.taubar_image_verdict, f"rank {r}: u-module sequence")
        kernel, kernel_incl, image = calc.rtilde, calc.kernel_incl, calc.taubar_image
        # indecomposables sequence, with Q(coker) = coker Q(taubar)
        q_ker = q_data(kernel)
        q_e = q_data(calc.E)
        q_bar = q_data(calc.bar)
        q_proj = q_of_quotient(q_bar, image)
        qm = (
            q_of_map(kernel_incl, q_ker, q_e),
            q_of_map(calc.taubar, q_e, q_bar),
            q_proj,
        )
        _need(
            exact_sequence(qm, ("doubled base", "base", "suspended reduced part", "division term")),
            f"rank {r}: induced sequence",
        )
        div_dims = calc.alpha().div_dims
        top = len(div_dims) - 1
        for n in range(min(D, top + 1) + 1):
            _need_true(
                q_proj.target.dim(n) == (div_dims[n - 1] if n >= 1 else 0),
                f"rank {r}: division term wrong in degree {n}",
            )
        # fixed-point sequence and its dims, read on the block layouts
        M, TM, TT = calc.X.table.dims, calc.TX.table.dims, calc.TTbar.table.dims
        fix2 = calc.fix_parts["cokernel"].table.dims
        t2count = (2 ** r - 1) ** 2
        for n in range(D + 1):
            _need_true(
                M[n] - TM[n] + TT[n] - fix2[n] == 0,
                f"rank {r}: fixed-point alternating sum nonzero in degree {n}",
            )
            _need_true(
                fix2[n] == t2count * M[n],
                f"rank {r}: twice-reduced expansion dims wrong in degree {n}",
            )
        _need(calc.fixed_point_verdict(), f"rank {r}: fixed-point sequence")
        # free cokernel on the suspended division term: u is injective on
        # the cokernel exactly when the image is saturated
        _need(saturation_check(image), f"rank {r}: cokernel torsion")
        c2 = [calc.bar.dim(n) - image.dim(n) for n in range(D + 1)]
        for n in range(D + 1):
            forecast = sum(
                div_dims[k - 1] for k in range(1, n + 1) if k - 1 <= top
            )
            _need_true(
                c2[n] == forecast,
                f"rank {r}: cokernel not free on the suspended division term at degree {n}",
            )
        tables[f"rank{r}_c2"] = c2
    return D, tables


def _check_t9(params):
    D = params["D"]
    fixtures = _standard_fixtures(D)
    if params.get("fixture_file"):
        mod = load_fixture(params["fixture_file"])
        if mod.D < 2:  # as make_spec refuses a D below T9's minimum
            raise ValueError(f"{mod.name}: T9 needs a fixture through degree 2 at least, got {mod.D}")
        _need_valid(mod.validate(), mod.name)
        fixtures = fixtures + [mod]
    for M in fixtures:
        v = omega(M).verify()
        if not v.ok:
            raise CheckFailure(f"{M.name}: {v.witness}")
    return D, {}


def _check_t10(params):
    D = params["D"]
    H = hv_module(1, D)
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
        v = is_reduced(calculus(hv(r, D)).omega.omega)
        _need(v, f"rank {r}: loop module reducedness")
    return (D - 1) // 2, {}


@lru_cache(maxsize=None)
def _doubled_free_division(D: int) -> AlphaResult:
    """The division data of the doubled rank-one free module, whose reduced
    expansion is the ground field and whose structure map is zero, built
    once per degree and shared by T12 and T13."""
    P = phi(free_unstable(1, max(4, D // 2)))
    return alpha_from_structure(omega(P), unit_module(P.D), {})


def _check_t12(params):
    ar = _doubled_free_division(params["D"])
    alpha = ar.alpha
    for n in range(alpha.D + 1):
        _need_true(alpha.mat(n).is_zero(), f"alpha nonzero in degree {n}")
    der1 = [ar.derived1.dim(n) for n in range(min(ar.derived1.D, 6) + 1)]
    _need_true(
        der1 == [0, 1, 0, 0, 0, 0, 0][: len(der1)],
        f"first derived division term has dims {der1}, expected the suspended unit",
    )
    _need_true(sum(ar.omega_data.omega1.dims) == 0, "second derived division term nonzero")
    return alpha.D, {}


def _check_t13(params):
    D = params["D"]
    sl = sym_lambda(D)
    _need_valid(sl.from_free.validate_linear(), "comparison from the free module")
    for n in range(D + 1):
        _need_true(
            rank(sl.from_free.mat(n)) == sl.invariants.dim(n)
            and sl.invariants.dim(n) == sl.free_rank2.dim(n),
            f"invariants are not the rank-two free module in degree {n}",
        )
    _need(
        exact_sequence((sl.lambda2_incl, sl.diag),
                       ("exterior square", "invariants", "doubled free module")),
        "exterior square sequence",
    )
    _need_valid(sl.diag.validate_linear(), "diagonal extraction linearity")
    # the division functor does not keep this sequence exact: the first
    # derived term of the quotient is the suspended unit (see T12)
    _need_true(
        _doubled_free_division(D).derived1.dim(1) == 1,
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
    # the extension of a random graded subspace of the base, by its seeds
    seeds = {}
    for n in range(D + 1):
        base_dim = E.base.dims[n]
        if base_dim == 0:
            continue
        for _ in range(rng.randint(0, 2)):
            v = rng.randrange(1, 1 << base_dim)
            seeds.setdefault(n, []).append(v << E.block(n, 0)[0])
    if style == 2:
        # a u-power shift of it: u^k X is generated by u^k times X's seeds
        k = rng.randint(1, 2)
        seeds = {n + k: [v << (E.dims[n + k] - E.dims[n]) for v in vs]
                 for n, vs in seeds.items() if n + k <= D}
    return GradedSubspace.from_vectors(E, seeds)


T14_MIN_EACH = 5  # saturated and unsaturated trials each, of 100


def _check_t14(params):
    D = params["D"]
    seed = params["seed"]
    trials = 100
    rng = random.Random(seed)
    ambients = [
        extend_scalars(hv_module(1, D)),
        extend_scalars(free_unstable(2, D)),
    ]
    saturated = 0
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
        saturated += sat.ok
    # agreement is evidence only when both verdicts occur often enough
    _need_true(
        min(saturated, trials - saturated) >= T14_MIN_EACH,
        f"only {saturated} of {trials} trials saturated; need at least {T14_MIN_EACH} of each",
    )
    return D, {"trials": [trials]}


def _check_t15(params):
    D = params["D"]
    seed = params["seed"]
    rng = random.Random(seed + 1)
    # free fixtures: scalar extensions are connected with u injective, and
    # free on a lift of their indecomposables
    for M in (unit_module(D), free_unstable(1, D)):
        E = extend_scalars(M)
        _need(torsion_free(E), f"extension of {M.name}")
        basis = indecomposables(E).labels
        for n in range(D + 1):
            _need_true(E.dim(n) == sum(len(basis[k]) for k in range(n + 1)),
                       f"extension of {M.name}: not free on its indecomposables in degree {n}")
    # the torsion fixture: u truncated at the square
    one = BitMatrix.from_rows([[1]])
    N = FuluModule("F[u]/(u^2)", 3, [1, 1, 0, 0], {(1, 0): one}, u={0: one})
    _need_true(not torsion_free(N).ok, "truncated algebra reported torsion-free")
    # saturated random submodules have u-torsion-free quotients
    E = extend_scalars(hv_module(1, D))
    saturated_seen = 0
    for t in range(40):
        X = _random_subspace(rng, E, t % 3)
        if saturation_check(X).ok:
            saturated_seen += 1
            q = quotient(E, X.bases, f"({E.name})/X").target
            _need(torsion_free(q), f"trial {t}: saturated subspace with torsion quotient")
    _need_true(saturated_seen >= 5, "too few saturated samples to certify")
    return D, {"saturated": [saturated_seen]}


def _check_t16(params):
    D = params["D"]
    calc = calculus(hv(1, D))
    X = calc.X
    SX = realm_suspend(X)
    calc_s = calculus(SX)
    shifted, kernel = calc_s.kernel_spaces, calc.kernel_spaces
    for n in range(1, D + 1):
        _need_true(
            shifted[n].basis == kernel[n - 1].basis,
            f"suspension shifts the kernel incorrectly in degree {n}",
        )
    # sums with a locally finite factor split off
    LF = realm_sum(hv(0, D), realm_suspend(hv(0, D), 2))
    S = realm_sum(X, LF)
    summed = calculus(S).rtilde
    expect = []
    for n in range(D + 1):
        base = calc.rtilde.dim(n)
        lf = (n >= 0) + (n >= 2)  # the whole extension survives on trivial groups
        expect.append(base + lf)
    got = [summed.dim(n) for n in range(D + 1)]
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
     2, _check_t14),
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
    if max_rank < 1:
        raise ValueError(f"max_rank must be at least 1, got {max_rank}")
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
