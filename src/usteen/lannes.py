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

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Dict, List, Optional, Sequence, Tuple

from .f2core import BitMatrix, image_is_kernel, left_kernel, rref
from .fulu import (
    ExtendedModule,
    GradedSubspace,
    extend_scalars,
    extend_scalars_map,
    positive_u_part,
    u_linear_map,
)
from .unstable import (
    BlockLayout,
    FourTermOmega,
    FuluModule,
    ModuleMap,
    Subquotient,
    TheoryViolation,
    TruncatedModule,
    TruncationError,
    Verdict,
    _monomials,
    _monomial_pos,
    _submasks,
    omega as omega_of,
    polynomial_module,
    submodule,
    subquotient,
)


@dataclass(frozen=True, order=True)
class Summand:
    """One building block: the s-fold suspension of the rank-r polynomial algebra."""

    s: int
    r: int


class RealmObject:
    """A finite sum of suspended polynomial algebras with monomial indexing.

    In degree n the basis is one block per summand j, holding the monomials
    of degree n - s_j in lex order; ``table`` is their layout.
    """

    def __init__(self, summands: Sequence[Summand], D: int, name: Optional[str] = None):
        self.summands = tuple(summands)
        self.D = D
        self.name = name or self._default_name()

    @cached_property
    def table(self) -> BlockLayout:
        """The block layout, built on first read: a verdict read on component
        matrices needs only the summands."""
        return BlockLayout(
            [(j, len(_monomials(sm.r, n - sm.s))) for j, sm in enumerate(self.summands)]
            for n in range(self.D + 1)
        )

    @cached_property
    def module(self) -> TruncatedModule:
        """The module, realized on first use and its Sq action on first
        read: an expansion whose maps are built from their component
        matrices needs only its ``table``."""
        return self._realize()

    def _default_name(self) -> str:
        parts = []
        for sm in self.summands:
            core = f"H(V{sm.r})"
            parts.append(core if sm.s == 0 else f"S^{sm.s}{core}")
        return "(+)".join(parts) if parts else "0"

    def _tag(self, j: int) -> str:
        """The prefix of the labels of summand j."""
        return f"[{j}]" if len(self.summands) > 1 else ""

    def monomials(self, j: int, d: int) -> Tuple[Tuple[int, ...], ...]:
        return _monomials(self.summands[j].r, d)

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

    def _realize(self) -> RealmModule:
        """Place shifted copies of one polynomial module per rank, block by block."""
        D = self.D
        dims = self.table.dims
        polys = [hv_module(sm.r, D) for sm in self.summands]

        def labels() -> List[Tuple[str, ...]]:
            out = []
            for n in range(D + 1):
                ls = []
                for j, _, _ in self.table.blocks(n):
                    s, tag = self.summands[j].s, self._tag(j)
                    ls.extend(tag + (f"s^{s}({core})" if s else core)
                              for core in polys[j].labels[n - s])
                out.append(tuple(ls))
            return out

        def action() -> Dict[Tuple[int, int], BitMatrix]:
            out = {}
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
                    out[(k, n)] = BitMatrix(dims[n], dims[n + k], tuple(rows))
            return out

        return RealmModule(self, polys, action, labels)

    def __repr__(self):
        return f"RealmObject({self.name}, D={self.D})"


class RealmModule(TruncatedModule):
    """The module of a realm object: one shifted copy of a polynomial module
    per summand block, so its action is block-diagonal.  Sq on rows
    (``sq_rows``) reads each summand's matrices in place and builds no
    action."""

    __slots__ = ("realm", "polys")

    def __init__(self, realm: RealmObject, polys: Sequence[TruncatedModule], action, labels):
        self.realm = realm
        self.polys = polys
        super().__init__(realm.name, realm.D, realm.table.dims, action, labels)

    def sq_rows(self, k: int, n: int, rows: BitMatrix) -> BitMatrix:
        """``rows @ sq(k, n)``, one XOR per set bit as in a product: bit i
        of the block of summand j brings in row i of Sq^k on that summand's
        polynomial module, shifted to the summand's block of degree n + k."""
        if not 0 <= n <= n + k <= self.D:
            raise TruncationError(f"{self.name}: Sq^{k} on degree {n} outside 0..{self.D}")
        if rows.ncols != self.dims[n]:
            raise ValueError("row width mismatch")
        table, summands = self.realm.table, self.realm.summands
        starts, blocks = [], []
        for j, off, _ in table.blocks(n):
            starts.append(off)
            sq = self.polys[j].sq(k, n - summands[j].s)
            blocks.append((off, table.block(n + k, j)[0], sq.row_ints()))
        out = []
        for r in rows.row_ints():
            acc = 0
            while r:
                low = r & -r
                bit = low.bit_length() - 1
                off, shift, sq = blocks[bisect_right(starts, bit) - 1]
                acc ^= sq[bit - off] << shift
                r ^= low
            out.append(acc)
        return BitMatrix(rows.nrows, self.dims[n + k], tuple(out))


@lru_cache(maxsize=None)
def hv_module(r: int, D: int) -> TruncatedModule:
    """``polynomial_module(r, D)``, built once per (r, D) and shared: every
    summand of a realm object is a shifted copy of it, and the catalog's
    fixtures read it."""
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


class TExpansion(RealmObject):
    """A T-functor expansion of a realm object: one copy of a summand per component.

    ``components`` lists (summand index, group element v) in order, v an
    encoded vector, and ``comp_pos`` inverts it; summand c of the expansion
    is the copy of component c.  The expansion is itself a realm object,
    allowing iterated application.
    """

    def __init__(self, base: RealmObject, components: Sequence[Tuple[int, int]], name: str):
        self.components = list(components)
        self.comp_pos = {c: i for i, c in enumerate(self.components)}
        super().__init__([base.summands[j] for j, _ in self.components], base.D, name)

    def _tag(self, j: int) -> str:
        c, v = self.components[j]
        return f"<{c}:{v}>"


def t_apply(X: RealmObject) -> TExpansion:
    """Apply the T-functor of the rank-one group to a realm object: one copy
    of the summand H(V_r) per element v of V_r, and iterated for T^2."""
    comps = [(j, v) for j, sm in enumerate(X.summands) for v in range(1 << sm.r)]
    return TExpansion(X, comps, f"T[1]({X.name})")


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


def _lucas_terms(mono: Tuple[int, ...]) -> List[Tuple[int, Tuple[int, ...], int]]:
    """Expansion of prod (t_i + u)^{b_i}: triples (u-power, leftover monomial,
    support), the support having bit i when u takes a nonzero part of t_i^{b_i}.

    By Lucas, (t + u)^b is the sum of t^{b - e} u^e over the submasks e of b.
    """
    terms = [(0, (), 0)]
    for i, b in enumerate(mono):
        terms = [(extra + e, m + (b - e,), support | (1 << i if e else 0))
                 for e in _submasks(b) for extra, m, support in terms]
    return terms


def _support_pattern(r: int, support: int, width: int) -> int:
    """The bits v * width over the v < 2^r that contain ``support``."""
    out = 0
    for v in range(1 << r):
        if v & support == support:
            out |= 1 << (v * width)
    return out


class RealmCalculus:
    """All comparison-map data for one realm object, computed on demand.

    It is the one entry point to what is read off the comparison map of X:
    ``rtilde``, ``taubar_image``, ``invariants()``, ``alpha()`` (on the
    loop-functor data ``omega``) and ``fix_parts``.
    """

    def __init__(self, X: RealmObject):
        self.X = X
        self.D = X.D

    # -- ambient objects -----------------------------------------------------

    @cached_property
    def E(self) -> ExtendedModule:
        return extend_scalars(self.X.module)

    @cached_property
    def TX(self) -> TExpansion:
        return t_apply(self.X)

    @cached_property
    def ETX(self) -> ExtendedModule:
        return extend_scalars(self.TX.module)

    @cached_property
    def tbar(self) -> TExpansion:
        """The reduced expansion: the components of the expansion at nonzero elements."""
        comps = [(j, v) for j, v in self.TX.components if v]
        return TExpansion(self.X, comps, f"Tbar({self.X.name})")

    @cached_property
    def bar(self) -> ExtendedModule:
        """The positive-u-power part of the extended reduced expansion."""
        return positive_u_part(self.tbar.module)

    # -- comparison maps --------------------------------------------------------

    @cached_property
    def sigma(self) -> ModuleMap:
        """The identity into every component: the scalar extension of ``diag``."""
        return extend_scalars_map(self.diag, self.E, self.ETX, name="sigma")

    @cached_property
    def tau(self) -> ModuleMap:
        """u-linear, so built from its u^0 layer: component v of a monomial
        is its twist by v.

        Each monomial is expanded once, over all variables
        (``_lucas_terms``).  A term whose u-exponents are nonzero on the
        variables S is a term of the twist by v exactly when v contains S.
        The copies of summand j sit side by side in TX, one block of width
        N per v, so the term lands at one position plus v * N for every
        v containing S: one pattern per (S, N), shifted to that position.
        """
        X, TX, ETX = self.X, self.TX, self.ETX
        first = [TX.comp_pos[(j, 0)] for j in range(len(X.summands))]
        patterns: Dict[Tuple[int, int, int], int] = {}
        layer = []
        for d in range(self.D + 1):
            rows = []
            for j, mono in X.entries(d):
                sm = X.summands[j]
                acc = 0
                for extra, m2, support in _lucas_terms(mono):
                    q = d - extra  # the degree of the term in TX
                    off, width = TX.table.block(q, first[j])
                    key = (sm.r, support, width)
                    pattern = patterns.get(key)
                    if pattern is None:
                        pattern = patterns[key] = _support_pattern(*key)
                    # the u^extra block of ETX in degree d starts at dims[d] - dims[q]
                    shift = ETX.dims[d] - ETX.dims[q] + off + _monomial_pos(sm.r, q - sm.s)[m2]
                    acc ^= pattern << shift
                rows.append(acc)
            layer.append(rows)
        return u_linear_map(self.E, self.ETX, layer, name="tau")

    @cached_property
    def taubar(self) -> ModuleMap:
        """pi o tau, with pi the projection of F[u] (x) TX onto the positive
        u-powers of the reduced components.  sigma lands in u^0, so this is
        pi o (sigma + tau); u-linear, so read on the u^0 rows of tau."""
        reduced = [self.TX.comp_pos[comp] for comp in self.tbar.components]
        table = self.TX.table
        layer = []
        for d in range(self.D + 1):
            cols = []  # bar's order: u-power, then reduced component, then monomial
            for a in range(1, d + 1):
                start = self.ETX.block(d, a)[0]
                for c in reduced:
                    off, width = table.block(d - a, c)
                    cols.extend(range(start + off, start + off + width))
            u0 = self.tau.mat(d).take_rows(range(self.X.table.dims[d]))
            layer.append(u0.take_cols(cols).row_ints())
        return u_linear_map(self.E, self.bar, layer, name="taubar")

    # -- the equalizer kernel and its companions -----------------------------------

    @cached_property
    def taubar_sub(self) -> Subquotient:
        return subquotient(self.taubar)

    @cached_property
    def taubar_image(self) -> GradedSubspace:
        """The image of taubar, as the graded u-submodule of ``bar``
        generated by its u^0 layer: a u-linear map carries u^a x to u^a
        times the image of x.  Its bases are canonical rref bases, and each
        degree eliminates only its seeds and u times the degree below.
        T8's exactness check certifies that it is the image: every row of
        taubar lies in it, and taubar's rank is its dimension."""
        dims = self.X.table.dims
        layer = {d: self.taubar.mat(d).row_ints()[:dims[d]] for d in range(self.D + 1)}
        return GradedSubspace.from_vectors(self.bar, layer)

    @cached_property
    def equalizer_verdict(self) -> Verdict:
        """``equalizer_matches_taubar_kernel()``, certified once per calculus."""
        return self.equalizer_matches_taubar_kernel()

    def equalizer_matches_taubar_kernel(self) -> Verdict:
        """The kernel of taubar is the equalizer of sigma and tau, the kernel
        of sigma + tau, which is computed independently of taubar."""
        for n in range(self.D + 1):
            diff = self.sigma.mat(n) + self.tau.mat(n)
            if not image_is_kernel(self.taubar_sub.kernel_incl.mat(n), diff):
                return Verdict(False, self.D, f"equalizer differs from the kernel in degree {n}")
        return Verdict(True, self.D)

    @property
    def rtilde(self) -> FuluModule:
        """The kernel of taubar, the functor's value on X.  The equalizer is
        certified once per calculus; a failing verdict raises
        ``TheoryViolation`` on every read."""
        v = self.equalizer_verdict
        if not v.ok:
            raise TheoryViolation(v.witness or "equalizer mismatch")
        return self.taubar_sub.kernel

    def invariants(self) -> Tuple[FuluModule, ModuleMap]:
        """The invariants of the maps u -> u, t_i -> t_i + t_i(v) u over the
        generators v, as a submodule of ``E`` with its inclusion.

        Defined when X is one unsuspended H(V_r); the invariant ring and the
        kernel of taubar then share one extension and one Sq action.
        """
        X, E, D = self.X, self.E, self.D
        if len(X.summands) != 1 or X.summands[0].s:
            raise ValueError(f"invariants need one unsuspended H(V_r), not {X.name}")
        r = X.summands[0].r
        g_plus_id = []
        for gen in range(r):
            v = 1 << gen
            layer = []
            for d in range(D + 1):
                rows = []
                for pos, mono in enumerate(X.monomials(0, d)):
                    acc = 1 << pos  # g_v^* + identity: mono's own u^0 copy sits at pos
                    for (extra, m2) in _twist_terms(mono, v):
                        acc ^= 1 << E.index(d, extra, X.index(d - extra, 0, m2))
                    rows.append(acc)
                layer.append(rows)
            g_plus_id.append(u_linear_map(E, E, layer))
        bases: Dict[int, BitMatrix] = {}
        for n in range(D + 1):
            if g_plus_id:
                bases[n] = left_kernel(reduce(BitMatrix.concat_cols, [m.mat(n) for m in g_plus_id])).basis
            else:
                bases[n] = BitMatrix.identity(E.dim(n))
        return submodule(E, bases, f"Inv(G,{X.name})")

    @cached_property
    def omega(self) -> FourTermOmega:
        """The loop-functor data of the module of X, built once per
        calculus: ``alpha()`` reads it, and so does T11 on the shared
        calculus of H(V_r)."""
        return omega_of(self.X.module)

    def alpha(self) -> AlphaResult:
        """The loop-to-reduced-expansion map, from the structure map read on
        the unit block of taubar."""
        tbar = self.tbar.module
        st_mats = {}
        for n in range(self.D + 1):
            # the base sits in the extension as the u^0 block: a row range
            off, width = self.E.block(n, 0)
            full = self.taubar.mat(n).take_rows(range(off, off + width))
            # select the u^1 layer, with which the bar coordinates start
            mask = (1 << self.bar.block(n, 1)[1]) - 1
            rows = [row & mask for row in full.row_ints()]
            st_mats[n] = BitMatrix.from_row_ints(rows, tbar.dims[n - 1] if n >= 1 else 0)
        return alpha_from_structure(self.omega, tbar, st_mats)

    # -- fixed points ------------------------------------------------------------

    @cached_property
    def TTbar(self) -> TExpansion:
        return t_apply(self.tbar)

    @cached_property
    def fix_components(self) -> BitMatrix:
        """The component matrix P of Fix(taubar): component (v, w) of the
        reduced part's expansion receives component a if [w=a+v]+[w=a]."""
        rows = []
        for j, a in self.TX.components:
            acc = 0
            for v in range(1, 1 << self.X.summands[j].r):
                cbar = self.tbar.comp_pos[(j, v)]
                for w in (a ^ v, a):
                    acc ^= 1 << self.TTbar.comp_pos[(cbar, w)]
            rows.append(acc)
        return BitMatrix(len(rows), len(self.TTbar.components), tuple(rows))

    @cached_property
    def fix_parts(self) -> Dict[str, RealmObject]:
        """Kernel, image and cokernel of Fix(taubar) = P (x) I, read on P.

        P pairs only copies of one summand (``_component_targets`` refuses any
        other), so the rref bases of ker P and im P split by summand: each
        basis vector carries one copy of the summand at its pivot component.
        """
        P = self.fix_components
        src, tgt = self.TX.summands, self.TTbar.summands
        _component_targets(src, tgt, P)
        im = rref(P).pivots
        return {
            "kernel": RealmObject([src[c] for c in rref(left_kernel(P).basis).pivots], self.D,
                                  name="ker(Fix(taubar))"),
            "image": RealmObject([tgt[c] for c in im], self.D, name="im(Fix(taubar))"),
            "cokernel": RealmObject([sm for c, sm in enumerate(tgt) if c not in im], self.D,
                                    name="coker(Fix(taubar))"),
        }

    def fixed_point_verdict(self) -> Verdict:
        """The diagonal embedding is the kernel of Fix(taubar) in every degree."""
        return self._diagonal_is_kernel(self.fix_components, self.TTbar,
                                        "diagonal embedding is not the kernel of Fix(taubar)")

    @cached_property
    def diag_components(self) -> BitMatrix:
        """The component matrix Dg of ``diag``: each summand into all its copies."""
        rows = [0] * len(self.X.summands)
        for c, (j, _) in enumerate(self.TX.components):
            rows[j] |= 1 << c
        return BitMatrix(len(rows), len(self.TX.components), tuple(rows))

    @cached_property
    def diag(self) -> ModuleMap:
        """The splitting embedding of the base into its expansion."""
        mats = _component_map(self.X, self.TX, self.diag_components)
        return ModuleMap(self.X.module, self.TX.module, mats, name="diag")

    def split_equalizer_verdict(self) -> Verdict:
        """Kernel of the two expanded structure maps equals the diagonal base.

        T(i_1) and T(delta), from the expansion to its own expansion, only
        move components, so their sum is one component matrix P.
        """
        TTX = t_apply(self.TX)
        rows = []
        for c, (j, a) in enumerate(self.TX.components):
            acc = 0
            for w in range(1 << self.X.summands[j].r):
                acc ^= 1 << TTX.comp_pos[(c, w)]
                # diagonal: the (v, w) component receives x_{v+w}
                acc ^= 1 << TTX.comp_pos[(self.TX.comp_pos[(j, a ^ w)], w)]
            rows.append(acc)
        P = BitMatrix(len(rows), len(TTX.components), tuple(rows))
        return self._diagonal_is_kernel(P, TTX, "split equalizer fails")

    def _diagonal_is_kernel(self, P: BitMatrix, tgt: TExpansion, failure: str) -> Verdict:
        """im(Dg (x) I) = ker(P (x) I) in every degree <= D, read on Dg and P.

        Both pair only copies of one summand, so they split by summand type
        Summand(s, r), first nonzero in degree s: a type with s > D is zero
        through D, and the lowest failing degree is the smallest failing s.
        """
        base, mid, dst = self.X.summands, self.TX.summands, tgt.summands
        Dg = self.diag_components
        _component_targets(base, mid, Dg)
        _component_targets(mid, dst, P)
        for t in sorted(sm for sm in set(mid) if sm.s <= self.D):
            cols = [c for c, sm in enumerate(mid) if sm == t]
            f = Dg.take_rows([j for j, sm in enumerate(base) if sm == t]).take_cols(cols)
            g = P.take_rows(cols).take_cols([c for c, sm in enumerate(dst) if sm == t])
            if not image_is_kernel(f, g):
                return Verdict(False, self.D, f"{failure} in degree {t.s}")
        return Verdict(True, self.D)


def _component_targets(src: Sequence[Summand], tgt: Sequence[Summand],
                       P: BitMatrix) -> List[List[int]]:
    """The set bits of each row of P; ``ValueError`` if one pairs two different summands."""
    targets = []
    for c, row in enumerate(P.row_ints()):
        cols = []
        while row:
            low = row & -row
            c2 = low.bit_length() - 1
            if src[c] != tgt[c2]:
                raise ValueError(f"component {c} ({src[c]}) cannot map to "
                                 f"component {c2} ({tgt[c2]})")
            cols.append(c2)
            row ^= low
        targets.append(cols)
    return targets


def _component_map(src: RealmObject, tgt: RealmObject, P: BitMatrix) -> Dict[int, BitMatrix]:
    """The degreewise matrices of a map that only moves components: P (x) I.

    Bit ``c2`` of row ``c`` of ``P`` sends each monomial of component ``c``
    of ``src`` to the same monomial of component ``c2`` of ``tgt``.  Both
    components must be copies of one summand, so their blocks list the
    same monomials in the same order; a source block then maps by one
    pattern of target offsets, shifted by the position inside the block.
    """
    targets = _component_targets(src.summands, tgt.summands, P)
    mats = {}
    for n in range(src.D + 1):
        rows = []
        for c, _, width in src.table.blocks(n):
            pattern = 0
            for c2 in targets[c]:
                pattern ^= 1 << tgt.table.offset(n, c2)
            rows.extend(pattern << k for k in range(width))
        mats[n] = BitMatrix(len(rows), tgt.table.dims[n], tuple(rows))
    return mats


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


def alpha_from_structure(ft: FourTermOmega, tbar: TruncatedModule,
                         st: Dict[int, BitMatrix]) -> AlphaResult:
    """The map from the loop module of M to ``tbar`` induced by a structure
    map that lowers degrees by one, given by its matrices: ``ft`` is
    ``omega(M)``, ``st[n]`` maps degree n of M to degree n - 1 of ``tbar``,
    and a degree absent from ``st`` maps by zero.  The structure map must
    kill the image of Sq0."""
    M = ft.sq0_map.target
    D = min(M.D, tbar.D + 1)
    mats = {}
    for n in range(D + 1):
        shape = (M.dims[n], tbar.dims[n - 1] if n >= 1 else 0)
        m = st.get(n)
        if m is None:
            m = BitMatrix.zeros(*shape)
        elif (m.nrows, m.ncols) != shape:
            raise ValueError(f"structure map matrix at degree {n} has wrong shape")
        if not (ft.sq0_map.mat(n) @ m).is_zero():
            raise TheoryViolation(f"structure map does not kill the doubled image at degree {n}")
        mats[n] = m
    top = min(ft.omega.D, tbar.D - 1, D - 1)
    alpha_mats = {k: mats[k + 1].take_rows(ft.coker_cols[k + 1]) for k in range(top + 1)}
    return AlphaResult(ModuleMap(ft.omega, tbar, alpha_mats, D=top, name="alpha"), ft)


@dataclass
class DivisionResult:
    """The division data measured by the loop-to-reduced-expansion map."""

    div: TruncatedModule       # cokernel of alpha
    derived1: TruncatedModule  # kernel of alpha
    derived2: TruncatedModule  # the first derived loop module
    alpha: AlphaResult


def division_u2(ar: AlphaResult) -> DivisionResult:
    sub = subquotient(ar.alpha)
    return DivisionResult(sub.cokernel, sub.kernel, ar.omega_data.omega1, ar)
