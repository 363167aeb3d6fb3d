"""Closed-form T-functor computations on sums of suspended polynomial algebras.

The "realm" class consists of finite direct sums of suspensions of the
cohomology of elementary abelian 2-groups.  On this class the T-functor is a
finite direct sum again (one component per group element), so the comparison
maps, their equalizer kernel, the fixed-point functor, and the invariant-ring
description all reduce to explicit GF(2) matrices.

Conventions pinned here (guarded by degree-one unit tests):
  * the component of the comparison map tau indexed by a group element v is
    the algebra map u -> u, t_i -> t_i + t_i(v) u.  Derivation: the component
    is the pullback of the automorphism g_v of V + F fixing V pointwise with
    g_v(0, 1) = (v, 1); a degree-one class is a linear form f, and
    (f o g_v)(x, c) = f(x + c v) = f(x) + f(v) c, i.e. f + f(v) u;
  * the component of sigma is the identity for every v;
  * the splitting of the expansion uses the v = 0 component, and as v runs
    over the nonzero elements the g_v exhaust the pointwise stabilizer of V.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .f2core import BitMatrix, Subspace, left_kernel, rref
from .fulu import (
    ExtendedModule,
    FuluMap,
    FuluModule,
    FuluSubquotient,
    extend_scalars,
    fulu_subquotient,
    restrict_fulu,
)
from .unstable import (
    BlockLayout,
    FourTermOmega,
    GradedLinearMap,
    ModuleMap,
    Subquotient,
    TheoryViolation,
    TruncatedModule,
    Verdict,
    _monomials,
    _monomial_pos,
    _submasks,
    omega as omega_of,
    polynomial_module,
    subquotient,
)


@dataclass(frozen=True)
class Summand:
    """One building block: the s-fold suspension of the rank-r polynomial algebra."""

    s: int
    r: int


class RealmObject:
    """A finite sum of suspended polynomial algebras with monomial indexing.

    In degree n the basis is one block per summand j, holding the monomials
    of degree n - s_j in lex order; ``table`` is their layout.
    """

    def __init__(self, summands: Sequence[Summand], D: int, name: Optional[str] = None,
                 comp_tags: Optional[Sequence[str]] = None):
        self.summands = tuple(summands)
        self.D = D
        self.name = name or self._default_name()
        self._tags = tuple(comp_tags) if comp_tags is not None else None
        self.table = BlockLayout(
            [(j, len(_monomials(sm.r, n - sm.s))) for j, sm in enumerate(self.summands)]
            for n in range(D + 1)
        )
        self.module = self._realize()

    def _default_name(self) -> str:
        parts = []
        for sm in self.summands:
            core = f"H(V{sm.r})"
            parts.append(core if sm.s == 0 else f"S^{sm.s}{core}")
        return "(+)".join(parts) if parts else "0"

    def monomials(self, j: int, d: int) -> Tuple[Tuple[int, ...], ...]:
        return _monomials(self.summands[j].r, d)

    def block(self, n: int, j: int) -> Tuple[int, int]:
        """(offset, width) of summand j in degree n; (0, 0) if it is empty."""
        return self.table.block(n, j)

    def index(self, n: int, j: int, mono: Tuple[int, ...]) -> int:
        sm = self.summands[j]
        return self.table.offset(n, j) + _monomial_pos(sm.r, n - sm.s)[mono]

    def entries(self, n: int) -> List[Tuple[int, Tuple[int, ...]]]:
        """The degree-n basis as (summand, monomial) pairs, in flat order."""
        return [
            (j, m)
            for j, _, _ in self.table.blocks(n)
            for m in self.monomials(j, n - self.summands[j].s)
        ]

    def _realize(self) -> TruncatedModule:
        """Place shifted copies of one polynomial module per rank, block by block."""
        D = self.D
        dims = self.table.dims
        polys = [_polynomial_module(sm.r, D) for sm in self.summands]
        labels = []
        for n in range(D + 1):
            ls = []
            for j, _, _ in self.table.blocks(n):
                s = self.summands[j].s
                tag = self._tags[j] if self._tags else (f"[{j}]" if len(self.summands) > 1 else "")
                ls.extend(tag + (f"s^{s}({core})" if s else core)
                          for core in polys[j].labels[n - s])
            labels.append(tuple(ls))
        action: Dict[Tuple[int, int], BitMatrix] = {}
        for n in range(D + 1):
            blocks = self.table.blocks(n)
            if not blocks:
                continue
            for k in range(1, D - n + 1):
                rows = []
                for j, _, _ in blocks:
                    shift = self.table.block(n + k, j)[0]
                    sq = polys[j].sq(k, n - self.summands[j].s)
                    rows.extend(r << shift for r in sq.row_ints())
                action[(k, n)] = BitMatrix(dims[n], dims[n + k], tuple(rows))
        return TruncatedModule(self.name, D, dims, action, labels)

    def __repr__(self):
        return f"RealmObject({self.name}, D={self.D})"


@lru_cache(maxsize=None)
def _polynomial_module(r: int, D: int) -> TruncatedModule:
    """``polynomial_module(r, D)``, built once per (r, D): every summand of a
    realm object is a shifted copy of it."""
    return polynomial_module(r, D)


def hv(r: int, D: int) -> RealmObject:
    """The cohomology of a rank-r elementary abelian group as a realm object."""
    return RealmObject([Summand(0, r)], D)


def realm_suspend(X: RealmObject, times: int = 1) -> RealmObject:
    return RealmObject([Summand(sm.s + times, sm.r) for sm in X.summands], X.D,
                       name=f"S^{times}({X.name})")


def realm_sum(X: RealmObject, Y: RealmObject) -> RealmObject:
    return RealmObject(tuple(X.summands) + tuple(Y.summands), min(X.D, Y.D),
                       name=f"{X.name}(+){Y.name}")


class TExpansion:
    """A T-functor expansion of a realm object: one copy of a summand per component.

    ``components`` lists (summand index, encoded vectors) in order and
    ``comp_pos`` inverts it; the expansion is itself a realm object,
    allowing iterated application.
    """

    def __init__(self, base: RealmObject, w_rank: int,
                 components: Sequence[Tuple[int, Tuple[int, ...]]], name: str):
        self.base = base
        self.w_rank = w_rank
        self.components = list(components)
        self.comp_pos = {c: i for i, c in enumerate(self.components)}
        tags = [f"<{j}:{','.join(map(str, phi))}>" for j, phi in self.components]
        self.realm = RealmObject(
            [base.summands[j] for j, _ in self.components], base.D, name=name, comp_tags=tags,
        )

    @property
    def module(self) -> TruncatedModule:
        return self.realm.module

    def count_for_summand(self, j: int) -> int:
        return sum(1 for jj, _ in self.components if jj == j)


def _vector_tuples(r: int, w: int) -> List[Tuple[int, ...]]:
    if w == 0:
        return [()]
    out = []
    for rest in _vector_tuples(r, w - 1):
        for v in range(1 << r):
            out.append(rest + (v,))
    return out


def t_apply(w_rank: int, X: RealmObject) -> TExpansion:
    """Apply the T-functor for a rank-w test group to a realm object."""
    if w_rank < 0:
        raise ValueError("test-group rank must be non-negative")
    comps = [
        (j, phi) for j, sm in enumerate(X.summands) for phi in _vector_tuples(sm.r, w_rank)
    ]
    return TExpansion(X, w_rank, comps, f"T[{w_rank}]({X.name})")


def _twist_terms(mono: Tuple[int, ...], v: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """Expansion of prod (t_i + v_i u)^{b_i}: pairs (u-power, leftover monomial)."""
    terms = [(0, ())]
    for i, b in enumerate(mono):
        vi = (v >> i) & 1
        new = []
        if vi == 0:
            for (e, m) in terms:
                new.append((e, m + (b,)))
        else:
            for sub in _submasks(b):
                for (e, m) in terms:
                    new.append((e + sub, m + (b - sub,)))
        terms = new
    return terms


class RealmCalculus:
    """All comparison-map data for one realm object, computed on demand."""

    def __init__(self, X: RealmObject):
        self.X = X
        self.D = X.D

    # -- ambient objects -----------------------------------------------------

    @cached_property
    def E(self) -> ExtendedModule:
        return extend_scalars(self.X.module)

    @cached_property
    def TX(self) -> TExpansion:
        return t_apply(1, self.X)

    @cached_property
    def ETX(self) -> ExtendedModule:
        return extend_scalars(self.TX.module)

    @cached_property
    def tbar(self) -> TExpansion:
        """The reduced expansion: the components of the expansion at nonzero elements."""
        comps = [(j, phi) for j, phi in self.TX.components if phi != (0,)]
        return TExpansion(self.X, 1, comps, f"Tbar({self.X.name})")

    @cached_property
    def E_tbar(self) -> ExtendedModule:
        return extend_scalars(self.tbar.module)

    @cached_property
    def bar(self) -> Tuple[FuluModule, FuluMap]:
        """The positive-u-power part of the extended reduced expansion."""
        return positive_u_part(self.E_tbar)

    # -- comparison maps --------------------------------------------------------

    def _component_pos(self, j: int, v: int) -> int:
        return self.TX.comp_pos[(j, (v,))]

    @cached_property
    def sigma(self) -> FuluMap:
        mats = {}
        for n in range(self.D + 1):
            rows = []
            for a, j, mono in _extended_entries(self.E, self.X, n):
                acc = 0
                for v in range(1 << self.X.summands[j].r):
                    c = self._component_pos(j, v)
                    tgt = self.TX.realm.index(n - a, c, mono)
                    acc |= 1 << self.ETX.index(n, a, tgt)
                rows.append(acc)
            mats[n] = BitMatrix.from_row_ints(rows, self.ETX.dim(n))
        return FuluMap(self.E, self.ETX, mats, name="sigma")

    @cached_property
    def tau(self) -> FuluMap:
        mats = {}
        for n in range(self.D + 1):
            rows = []
            for a, j, mono in _extended_entries(self.E, self.X, n):
                acc = 0
                for v in range(1 << self.X.summands[j].r):
                    c = self._component_pos(j, v)
                    for (extra, m2) in _twist_terms(mono, v):
                        tgt = self.TX.realm.index(n - a - extra, c, m2)
                        acc ^= 1 << self.ETX.index(n, a + extra, tgt)
                rows.append(acc)
            mats[n] = BitMatrix.from_row_ints(rows, self.ETX.dim(n))
        return FuluMap(self.E, self.ETX, mats, name="tau")

    @cached_property
    def taubar(self) -> FuluMap:
        """Project tau to the reduced components; lands in positive u-powers."""
        barmod, bar_incl = self.bar
        cut = {n: self.E_tbar.block(n, 0)[1] for n in range(self.D + 1)}
        mats = {}
        for n in range(self.D + 1):
            rows = []
            for a, j, mono in _extended_entries(self.E, self.X, n):
                acc = 0
                for v in range(1, 1 << self.X.summands[j].r):
                    c = self.tbar.comp_pos[(j, (v,))]
                    for (extra, m2) in _twist_terms(mono, v):
                        if extra == 0:
                            continue  # cancelled by the identity summand
                        tgt = self.tbar.realm.index(n - a - extra, c, m2)
                        e_flat = self.E_tbar.index(n, a + extra, tgt)
                        acc ^= 1 << (e_flat - cut[n])
                rows.append(acc)
            mats[n] = BitMatrix.from_row_ints(rows, barmod.dim(n))
        return FuluMap(self.E, barmod, mats, name="taubar")

    @cached_property
    def retract(self) -> FuluMap:
        """Induced by the projection of the expansion onto its base component."""
        mats = {}
        for n in range(self.D + 1):
            rows = []
            for a, c, mono in _extended_entries(self.ETX, self.TX.realm, n):
                j, phi = self.TX.components[c]
                if phi == (0,):
                    rows.append(1 << self.E.index(n, a, self.X.index(n - a, j, mono)))
                else:
                    rows.append(0)
            mats[n] = BitMatrix.from_row_ints(rows, self.E.dim(n))
        return FuluMap(self.ETX, self.E, mats, name="retract")

    # -- the equalizer kernel and its companions -----------------------------------

    @cached_property
    def taubar_sub(self) -> FuluSubquotient:
        return fulu_subquotient(self.taubar)

    @cached_property
    def equalizer_bases(self) -> Dict[int, BitMatrix]:
        """Kernel of sigma + tau, computed independently of taubar."""
        out = {}
        for n in range(self.D + 1):
            diff = self.sigma.mat(n) + self.tau.mat(n)
            out[n] = left_kernel(diff).basis
        return out

    def equalizer_matches_taubar_kernel(self) -> Verdict:
        for n in range(self.D + 1):
            lhs = Subspace(self.E.dim(n), self.equalizer_bases[n])
            rhs = Subspace.from_rows(self.taubar_sub.kernel_incl.mat(n))
            if lhs != rhs:
                return Verdict(False, self.D, f"equalizer differs from the kernel in degree {n}")
        return Verdict(True, self.D)

    def reflexive_retract_verdict(self) -> Verdict:
        ident = ModuleMap.identity(self.E.underlying)
        for composite in (self.sigma.then(self.retract), self.tau.then(self.retract)):
            if composite.mmap != ident:
                return Verdict(False, self.D, "retract fails to split the comparison maps")
        return Verdict(True, self.D)

    # -- fixed points ------------------------------------------------------------

    @cached_property
    def TTbar(self) -> TExpansion:
        return t_apply(1, self.tbar.realm)

    @cached_property
    def fix_taubar(self) -> ModuleMap:
        """The fixed-point image of taubar: expansion of the base to that of
        the reduced part, component (v, w) of a component a being [w=a+v]+[w=a]."""
        src = self.TX.module
        tgt = self.TTbar.module
        mats = {}
        for n in range(self.D + 1):
            rows = []
            for c, mono in self.TX.realm.entries(n):
                j, (a,) = self.TX.components[c]
                acc = 0
                for v in range(1, 1 << self.X.summands[j].r):
                    cbar = self.tbar.comp_pos[(j, (v,))]
                    for w in (a ^ v, a):
                        c2 = self.TTbar.comp_pos[(cbar, (w,))]
                        acc ^= 1 << self.TTbar.realm.index(n, c2, mono)
                rows.append(acc)
            mats[n] = BitMatrix.from_row_ints(rows, tgt.dims[n])
        return ModuleMap(src, tgt, mats, name="Fix(taubar)")

    @cached_property
    def fix_sub(self) -> Subquotient:
        return subquotient(self.fix_taubar)

    @cached_property
    def diag(self) -> ModuleMap:
        """The splitting embedding of the base into its expansion."""
        mats = {}
        for n in range(self.D + 1):
            rows = []
            for j, mono in self.X.entries(n):
                acc = 0
                for v in range(1 << self.X.summands[j].r):
                    c = self._component_pos(j, v)
                    acc |= 1 << self.TX.realm.index(n, c, mono)
                rows.append(acc)
            mats[n] = BitMatrix.from_row_ints(rows, self.TX.module.dims[n])
        return ModuleMap(self.X.module, self.TX.module, mats, name="diag")

    @cached_property
    def proj0(self) -> ModuleMap:
        mats = {}
        for n in range(self.D + 1):
            rows = []
            for c, mono in self.TX.realm.entries(n):
                j, phi = self.TX.components[c]
                rows.append(
                    (1 << self.X.index(n, j, mono)) if phi == (0,) else 0
                )
            mats[n] = BitMatrix.from_row_ints(rows, self.X.module.dims[n])
        return ModuleMap(self.TX.module, self.X.module, mats, name="proj0")

    def split_equalizer_verdict(self) -> Verdict:
        """Kernel of the two expanded structure maps equals the diagonal base."""
        TTX = t_apply(1, self.TX.realm)
        D = self.D
        ti1_mats = {}
        tdelta_mats = {}
        for n in range(D + 1):
            r1_rows = []
            rd_rows = []
            for c, mono in self.TX.realm.entries(n):
                j, (a,) = self.TX.components[c]
                acc1 = 0
                accd = 0
                for w in range(1 << self.X.summands[j].r):
                    c_aw = TTX.comp_pos[(self._component_pos(j, a), (w,))]
                    acc1 ^= 1 << TTX.realm.index(n, c_aw, mono)
                    # diagonal: the (v, w) component receives x_{v+w}
                    c_vw = TTX.comp_pos[(self._component_pos(j, a ^ w), (w,))]
                    accd ^= 1 << TTX.realm.index(n, c_vw, mono)
                r1_rows.append(acc1)
                rd_rows.append(accd)
            ti1_mats[n] = BitMatrix.from_row_ints(r1_rows, TTX.module.dims[n])
            tdelta_mats[n] = BitMatrix.from_row_ints(rd_rows, TTX.module.dims[n])
        ti1 = ModuleMap(self.TX.module, TTX.module, ti1_mats)
        tdelta = ModuleMap(self.TX.module, TTX.module, tdelta_mats)
        for n in range(D + 1):
            ker = left_kernel((ti1 + tdelta).mat(n))
            im = Subspace.from_rows(self.diag.mat(n))
            if ker != im:
                return Verdict(False, D, f"split equalizer fails in degree {n}")
        return Verdict(True, D)


def _extended_entries(E: ExtendedModule, X: RealmObject, n: int
                      ) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """The degree-n basis of E, the scalar extension of X's module, as
    (u-power, summand, monomial) triples in flat order."""
    return [(a, j, mono) for a, _, _ in E.layout.blocks(n) for j, mono in X.entries(n - a)]


def positive_u_part(E: ExtendedModule) -> Tuple[FuluModule, FuluMap]:
    """The coordinate sub-u-module spanned by positive u-powers.

    The u^0 block comes first in every degree, so the positive part is the
    tail ``[cut, dim)``: a matrix restricts to it by dropping the first
    ``cut`` rows and shifting the rest right by the target degree's cut.
    """
    D = E.D
    cut = [E.block(n, 0)[1] for n in range(D + 1)]

    def tail(m: BitMatrix, n: int, n2: int) -> BitMatrix:
        rows = tuple(r >> cut[n2] for r in m.row_ints()[cut[n]:])
        return BitMatrix(len(rows), E.dim(n2) - cut[n2], rows)

    dims = [E.dim(n) - cut[n] for n in range(D + 1)]
    labels = [E.labels[n][cut[n]:] for n in range(D + 1)]
    action = {
        (i, n): tail(E.underlying.sq(i, n), n, n + i)
        for n in range(D + 1) if dims[n]
        for i in range(1, D - n + 1)
    }
    mod = TruncatedModule(f"bar({E.name})", D, dims, action, labels)
    bar = FuluModule(mod, {n: tail(E.u_mat(n), n, n + 1) for n in range(D)}, name=mod.name)
    incl_mats = {
        n: BitMatrix.from_row_ints([1 << c for c in range(cut[n], E.dim(n))], E.dim(n))
        for n in range(D + 1)
    }
    incl = FuluMap(bar, E, incl_mats)
    return bar, incl


# -- public operations ------------------------------------------------------------


@dataclass
class PresentedFuluObject:
    """A u-module presented as part of the reduced comparison map.

    ``kind`` selects the whole scalar extension or the kernel, image or
    cokernel of the comparison map; the fixed-point functor is computed
    through the presentation by exactness.
    """

    kind: str
    calculus: RealmCalculus
    realization: FuluModule

    def fix(self) -> TruncatedModule:
        return fix_presented(self)


def tau_sigma(X: RealmObject) -> Tuple[FuluMap, FuluMap, FuluMap]:
    """The two comparison maps and the reduced comparison map."""
    calc = RealmCalculus(X)
    return calc.sigma, calc.tau, calc.taubar


def rtilde(X: RealmObject, calc: Optional[RealmCalculus] = None) -> PresentedFuluObject:
    """The kernel of the reduced comparison map, checked against the equalizer."""
    calc = calc or RealmCalculus(X)
    v = calc.equalizer_matches_taubar_kernel()
    if not v.ok:
        raise TheoryViolation(v.witness or "equalizer mismatch")
    return PresentedFuluObject("kernel", calc, calc.taubar_sub.kernel)


def c_functors(X: RealmObject, calc: Optional[RealmCalculus] = None
               ) -> Tuple[PresentedFuluObject, PresentedFuluObject]:
    """The image and cokernel of the reduced comparison map."""
    calc = calc or RealmCalculus(X)
    c1 = PresentedFuluObject("image", calc, calc.taubar_sub.image)
    c2 = PresentedFuluObject("cokernel", calc, calc.taubar_sub.cokernel)
    return c1, c2


def whole_extension(X: RealmObject, calc: Optional[RealmCalculus] = None) -> PresentedFuluObject:
    calc = calc or RealmCalculus(X)
    return PresentedFuluObject("whole", calc, calc.E)


def fix_presented(P: PresentedFuluObject) -> TruncatedModule:
    """Apply the fixed-point functor through the presentation (it is exact)."""
    calc = P.calculus
    if P.kind == "whole":
        return calc.TX.module
    if P.kind == "kernel":
        return calc.fix_sub.kernel
    if P.kind == "image":
        return calc.fix_sub.image
    if P.kind == "cokernel":
        return calc.fix_sub.cokernel
    raise ValueError(f"unsupported presentation kind: {P.kind}")


@dataclass
class InvariantsResult:
    """Simultaneous invariants of the pointwise stabilizer on the extension."""

    bases: Dict[int, BitMatrix]
    module: FuluModule
    incl: FuluMap


def gv_invariants(r: int, D: int) -> InvariantsResult:
    """Invariants of the maps u -> u, t_i -> t_i + t_i(v) u over generators v."""
    X = hv(r, D)
    E = extend_scalars(X.module)
    bases: Dict[int, BitMatrix] = {}
    for n in range(D + 1):
        stacked = None
        for gen in range(r):
            v = 1 << gen
            rows = []
            for flat, (a, _, mono) in enumerate(_extended_entries(E, X, n)):
                acc = 0
                for (extra, m2) in _twist_terms(mono, v):
                    acc ^= 1 << E.index(n, a + extra, X.index(n - a - extra, 0, m2))
                rows.append(acc ^ (1 << flat))  # g_v^* + identity
            g_plus_id = BitMatrix.from_row_ints(rows, E.dim(n))
            stacked = g_plus_id if stacked is None else stacked.concat_cols(g_plus_id)
        if stacked is None:
            bases[n] = BitMatrix.identity(E.dim(n))
        else:
            bases[n] = left_kernel(stacked).basis
    mod, incl = restrict_fulu(E, bases, f"Inv(G,{X.name})")
    return InvariantsResult(bases, mod, incl)


# -- the loop-to-reduced-expansion comparison ------------------------------------


@dataclass
class AlphaResult:
    """The induced map from the loop module to the reduced expansion.

    Built by composing the reduced comparison map with the projection of the
    positive-power coefficients onto the linear one, then factoring through
    the cokernel of the Sq0 map.
    """

    alpha: ModuleMap
    omega_data: FourTermOmega
    structure: GradedLinearMap
    kills_doubled_image: Verdict


def alpha_from_structure(M: TruncatedModule, tbar: TruncatedModule,
                         st: GradedLinearMap) -> AlphaResult:
    ft = omega_of(M)
    D = min(st.D, M.D)
    ok = True
    witness = None
    for n in range(D + 1):
        if not (ft.sq0_map.mat(n) @ st.mat(n)).is_zero():
            ok, witness = False, f"structure map does not kill the doubled image at degree {n}"
            break
    if not ok:
        raise TheoryViolation(witness)
    alpha_mats = {}
    for m in range(min(ft.omega.D, tbar.D - 1, D - 1) + 1):
        alpha_mats[m] = ft.coker_reps[m + 1] @ st.mat(m + 1)
    alpha = ModuleMap(ft.omega, tbar, alpha_mats,
                      D=min(ft.omega.D, tbar.D - 1, D - 1), name="alpha")
    return AlphaResult(alpha, ft, st, Verdict(True, D))


def alpha_realm(X: RealmObject, calc: Optional[RealmCalculus] = None) -> AlphaResult:
    """Extract the structure map from the unit block of the reduced comparison."""
    calc = calc or RealmCalculus(X)
    barmod, _ = calc.bar
    tbar = calc.tbar.module
    st_mats = {}
    for n in range(calc.D + 1):
        unit = calc.E.unit_mat(n)  # base into the extension
        full = unit @ calc.taubar.mat(n)
        # select the u^1 layer, with which the bar coordinates start
        mask = (1 << calc.E_tbar.block(n, 1)[1]) - 1
        rows = [row & mask for row in full.row_ints()]
        st_mats[n] = BitMatrix.from_row_ints(rows, tbar.dims[n - 1] if n >= 1 else 0)
    st = GradedLinearMap(X.module, tbar, st_mats, shift=-1, D=calc.D, name="unit-layer")
    return alpha_from_structure(X.module, tbar, st)


@dataclass
class DivisionResult:
    """The division data measured by the loop-to-reduced-expansion map."""

    div: TruncatedModule       # cokernel of alpha
    derived1: TruncatedModule  # kernel of alpha
    derived2: TruncatedModule  # the first derived loop module
    alpha: AlphaResult
    sub: Subquotient


def division_u2(ar: AlphaResult) -> DivisionResult:
    sub = subquotient(ar.alpha)
    return DivisionResult(sub.cokernel, sub.kernel, ar.omega_data.omega1, ar, sub)
