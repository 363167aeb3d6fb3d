"""Closed-form T-functor computations on sums of suspended polynomial algebras.

The "realm" class consists of finite direct sums of suspensions of the
cohomology of elementary abelian 2-groups.  On this class the T-functor is a
finite direct sum again (one component per group element), so the comparison
maps, their equalizer kernel, the fixed-point functor, and the invariant-ring
description all reduce to explicit GF(2) data: a map that only moves
components is its component matrix, and a u-linear map out of F[u] (x) X is
its u^0 layer, on which taubar's exact sequence is certified
(``RealmCalculus.taubar_image_verdict``).

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
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .f2core import BitMatrix, RowReducer, Subspace, image_is_kernel, left_kernel, rref
from .fulu import (
    ExtendedModule,
    GradedSubspace,
    ULinearMap,
    extend_scalars,
    positive_u_part,
    u_linear_verdict,
)
from .unstable import (
    BlockLayout,
    FourTermOmega,
    FuluModule,
    ModuleMap,
    TheoryViolation,
    TruncatedModule,
    TruncationError,
    Verdict,
    _monomials,
    _monomial_pos,
    _submasks,
    _sum_label,
    kernel_of,
    omega as omega_of,
    polynomial_module,
    quotient,
    submodule,
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
        """The module on shifted copies of one polynomial module per summand.

        With one summand the action is that module's matrices, s degrees
        up; with several it is ``RealmModule.sq_rows`` on unit rows, which
        places each summand's matrices in its block."""
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
            if len(polys) == 1:
                s = self.summands[0].s
                return {(k, q + s): m for (k, q), m in polys[0].action_items() if q + s + k <= D}
            return {(k, n): module.sq_rows(k, n, BitMatrix.identity(dims[n]))
                    for n in range(D + 1) if dims[n] for k in range(1, D - n + 1)}

        module = RealmModule(self, polys, action, labels)
        return module

    def __repr__(self):
        return f"RealmObject({self.name}, D={self.D})"


class RealmModule(TruncatedModule):
    """The module of a realm object: one shifted copy of a polynomial module
    per summand block, so its action is block-diagonal.  Sq on rows
    (``sq_rows``) reads each summand's matrices in place and builds no
    action; with one summand it is one product."""

    __slots__ = ("realm", "polys")

    def __init__(self, realm: RealmObject, polys: Sequence[TruncatedModule], action, labels):
        self.realm = realm
        self.polys = polys
        super().__init__(realm.name, realm.D, realm.table.dims, action, labels)

    def sq_rows(self, k: int, n: int, rows: BitMatrix) -> BitMatrix:
        """``rows @ sq(k, n)``, one product per summand block: the block's
        bits of the rows, gathered, times Sq^k on that summand's polynomial
        module, shifted to the summand's block of degree n + k."""
        if not 0 <= n <= n + k <= self.D:
            raise TruncationError(f"{self.name}: Sq^{k} on degree {n} outside 0..{self.D}")
        if rows.ncols != self.dims[n]:
            raise ValueError("row width mismatch")
        table, summands = self.realm.table, self.realm.summands
        if len(summands) == 1:  # one block, at offset 0 in every degree
            return rows @ self.polys[0].sq(k, n - summands[0].s)
        ints = rows.row_ints()
        out = [0] * rows.nrows
        for j, off, width in table.blocks(n):
            mask = (1 << width) - 1
            parts = [(r >> off) & mask for r in ints]
            if not any(parts):
                continue
            part = BitMatrix(rows.nrows, width, tuple(parts))
            image = part @ self.polys[j].sq(k, n - summands[j].s)
            shift = table.block(n + k, j)[0]
            out = [x ^ (y << shift) for x, y in zip(out, image.row_ints())]
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


def _twist_plus_id(mono: Tuple[int, ...], i: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """(g_{e_i} + id)(t^m) for t^m = ``mono``, g_{e_i} the algebra map
    t_i -> t_i + u fixing the other variables: pairs (u-power, monomial).

    By Lucas, (t_i + u)^{m_i} is the sum of u^e t_i^{m_i - e} over the
    submasks e of m_i; the identity cancels the term e = 0.
    """
    b, head, tail = mono[i], mono[:i], mono[i + 1:]
    return [(e, head + (b - e,) + tail) for e in _submasks(b) if e]


@lru_cache(maxsize=1 << 10)
def _lucas_terms(mono: Tuple[int, ...]) -> Tuple[Tuple[int, Tuple[int, ...], int], ...]:
    """Expansion of prod (t_i + u)^{b_i}: triples (u-power, leftover monomial,
    support), the support having bit i when u takes a nonzero part of t_i^{b_i}.

    By Lucas, (t + u)^b is the sum of t^{b - e} u^e over the submasks e of b.
    The expansions are shared by taubar and the closed basis of ker(taubar),
    and by the calculi of one process, which read the same monomials again
    and again; the cache is bounded because a calculus of high rank reads
    thousands of monomials once each, and would only keep them alive.
    """
    terms = [(0, (), 0)]
    for i, b in enumerate(mono):
        terms = [(extra + e, m + (b - e,), support | (1 << i if e else 0))
                 for e in _submasks(b) for extra, m, support in terms]
    return tuple(terms)


def _st1_generators(X: RealmObject, E: ExtendedModule, d: int) -> List[int]:
    """The u-generators of ker(taubar) of degree d, as rows of E:
    sigma^s prod St1(t_i)^{b_i} for each summand S^s H(V_r) and each b with
    s + 2|b| = d.  By Lucas, St1(t)^b = t^b (t + u)^b is the sum of
    u^e t^{2b - e} over the submasks e of b (``_lucas_terms``)."""
    rows = []
    for j, sm in enumerate(X.summands):
        q = d - sm.s
        if q < 0 or q % 2:
            continue
        for b in _monomials(sm.r, q // 2):
            acc = 0
            for extra, m, _ in _lucas_terms(b):
                acc ^= 1 << E.index(d, extra, X.index(d - extra, j, tuple(map(add, b, m))))
            rows.append(acc)
    return rows


def _certify_kernel_span(E: ExtendedModule, rows: Sequence[BitMatrix], gens: Sequence[int],
                         maps: Sequence[ULinearMap], stack: str, what: str) -> None:
    """Legs (b) and (c) of the certificate that ``rows`` (``st1_basis``,
    with distinct lowest bits by leg (a)) span the common kernel of the
    u-linear ``maps`` out of E in every degree, read on their u^0 layers
    with no matrix and no elimination; raises ``TheoryViolation`` naming
    the failing leg.

    (b) Each map kills every u-generator (``ULinearMap.apply``); the maps
    are u-linear, so they kill every row.  (c) Stack the maps, with the
    columns ordered by the position in the target, then by the map.  The
    basis vectors of E_d that are no row's lowest bit have stacked images
    with nonzero, pairwise distinct lowest bits, so those images are
    independent and the stack has rank at least dim E_d - #rows.  With
    (a), the #rows independent rows then lie in a kernel of dimension at
    most #rows, so they span it.  The image of u^a x is the layer row of
    x shifted onto the target's u^a block, and so is its lowest bit.
    """
    n = len(maps)
    lows = [[[(r & -r).bit_length() - 1 for r in layer] for layer in f.layer] for f in maps]
    for d, m in enumerate(rows):
        for f in maps:
            for row, image in zip(m._rows, f.apply(d, m.take_rows(range(gens[d])))._rows):
                if image:
                    raise TheoryViolation(f"{what}: {f.name} does not kill the u-generator "
                                          f"{_sum_label(E.labels[d], row)} in degree {d}")
        pivots = {(row & -row).bit_length() - 1 for row in m._rows}
        seen: Dict[int, int] = {}
        for a, off, width in E.blocks(d):
            # column c of map i in the stack is c * n + i
            starts = [(f.target.dims[d] - f.target.dims[d - a]) * n + i for i, f in enumerate(maps)]
            layer_lows = [f_lows[d - a] for f_lows in lows]
            for x in range(width):
                p = off + x
                if p in pivots:
                    continue
                keys = [low[x] * n + start for low, start in zip(layer_lows, starts) if low[x] >= 0]
                q = seen.setdefault(min(keys), p) if keys else None
                if q != p:
                    why = ("is zero" if q is None
                           else f"shares its lowest bit with its row at {E.labels[d][q]}")
                    raise TheoryViolation(f"{what}: {stack} falls short of rank dim E - #rows "
                                          f"in degree {d}: its row at {E.labels[d][p]} {why}")


class RealmCalculus:
    """All comparison-map data for one realm object, computed on demand.

    It is the one entry point to what is read off the comparison map of X:
    ``rtilde`` (ker taubar, with ``kernel_incl`` and ``kernel_spaces``),
    ``taubar_image`` with ``taubar_image_verdict``, ``invariants()``,
    ``alpha()`` (on the loop-functor data ``omega``) and ``fix_parts``.
    taubar's u^0 layer is formed straight from the Lucas terms of each
    monomial, and the equalizer of sigma and tau is checked on each row as
    it is formed, sigma's rows placed from its component matrix
    (``_taubar_pass``): neither sigma nor tau is built, nor F[u] (x) TX.
    ker taubar is built in closed form (``st1_basis``) and certified by
    pivots in three legs, with no elimination: (a) the rows' lowest bits
    are distinct, (b) taubar kills the u-generators, (c) taubar's rank is
    at least dim E - #rows (``_taubar_certificate``); two more legs make
    taubar's sequence exact.  ``invariants()`` certifies the same rows as
    the invariant ring on its own, and shares their module.
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
        """F[u] (x) TX, the target of sigma and tau, built only to name a
        failure of the equalizer verdict."""
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

    @staticmethod
    def _support_pattern(r: int, support: int, width: int) -> int:
        """The bits v * width over the v < 2^r that contain ``support``."""
        out = 0
        for v in range(1 << r):
            if v & support == support:
                out |= 1 << (v * width)
        return out

    @cached_property
    def _taubar_pass(self) -> Tuple[ULinearMap, Verdict]:
        """taubar's u^0 layer and the equalizer verdict, formed in one pass
        over the monomials; tau itself and F[u] (x) TX are never built.

        Component v of tau on a monomial is its twist by v.  Each monomial
        is expanded once, over all variables (``_lucas_terms``): a term
        whose u-exponents are nonzero on the variables S is a term of the
        twist by v exactly when v contains S.  The copies of summand j sit
        side by side, one block of width N per v, in TX and, with v = 0
        left out, in every u-block of bar, whose order is u-power, then
        reduced component, then monomial.  So a term is placed on every
        component at once by one pattern per (S, N), bit v * N for each v
        containing S (``_support_pattern``), shifted to its position: the
        positive-u terms into bar, less the bit of v = 0, and the u^0 term
        into TX.  The bits of tau outside bar are that u^0 term and any
        positive-u term on component 0; ``equalizer_verdict`` says what
        they must be, and is checked on each row as it is formed.
        """
        X, TX, tbar, bar = self.X, self.TX, self.tbar, self.bar
        patterns: Dict[Tuple[int, int, int], int] = {}
        layer, verdict = [], Verdict(True, self.D)
        for d in range(self.D + 1):
            sigma = self._sigma_rows(d)
            rows = []
            # (j, q) -> where summand j's first copy of degree q starts (in
            # TX for the u^0 term, q = d; in bar's u^{d-q} block for q < d),
            # the positions of its monomials, and its width
            places: Dict[Tuple[int, int], tuple] = {}
            for x, (j, mono) in enumerate(X.entries(d)):
                sm = X.summands[j]
                acc = outside = 0
                for extra, m2, support in _lucas_terms(mono):
                    q = d - extra
                    place = places.get((j, q))
                    if place is None:
                        pos = _monomial_pos(sm.r, q - sm.s)
                        if extra:
                            off, width = tbar.table.block(q, tbar.comp_pos[(j, 1)])
                            off += bar.dims[d] - bar.dims[q + 1]
                        else:
                            off, width = TX.table.block(d, TX.comp_pos[(j, 0)])
                        place = places[(j, q)] = (off, pos, width)
                    start, pos, width = place
                    key = (sm.r, support, width)
                    pattern = patterns.get(key)
                    if pattern is None:
                        pattern = patterns[key] = self._support_pattern(*key)
                    if extra:
                        outside |= pattern & 1
                        acc ^= pattern >> width << (start + pos[m2])
                    else:
                        outside |= sigma[x] ^ pattern << (start + pos[m2])
                if outside and verdict.ok:
                    bad = self._outside_bar(d, j, mono, sigma[x])
                    verdict = Verdict(False, self.D, (
                        f"sigma + tau is not taubar in degree {d}: its value on "
                        f"{X.module.labels[d][x]} has {_sum_label(self.ETX.labels[d], bad)} "
                        "outside bar"))
                rows.append(acc)
            layer.append(rows)
        return ULinearMap(self.E, bar, layer, name="taubar"), verdict

    def _sigma_rows(self, d: int) -> List[int]:
        """sigma's rows in degree d: summand j's bits of ``diag_components``,
        each at its component's block of TX, placed once and shifted to each
        monomial of the block, for the equalizer to compare with tau's."""
        X, offset = self.X, self.TX.table.offset
        targets = _component_targets(X.summands, self.TX.summands, self.diag_components)
        rows: List[int] = []
        for j, _, width in X.table.blocks(d):
            placed = sum(1 << offset(d, c) for c in targets[j])
            rows.extend(placed << k for k in range(width))
        return rows

    def _outside_bar(self, d: int, j: int, mono: Tuple[int, ...], sigma_row: int) -> int:
        """The bits of (sigma + tau)(mono) outside bar, for ``mono`` of
        summand j in degree d, as a row of F[u] (x) TX: the whole u^0 block,
        then component 0 of each positive u-power.  Read only to name a
        failure of the equalizer verdict."""
        sm, TX, dims = self.X.summands[j], self.TX, self.ETX.dims
        bad = sigma_row  # sigma lands in the u^0 block, which comes first
        for extra, m2, support in _lucas_terms(mono):
            q = d - extra
            off, width = TX.table.block(q, TX.comp_pos[(j, 0)])
            pattern = self._support_pattern(sm.r, support, width)
            at = dims[d] - dims[q] + off + _monomial_pos(sm.r, q - sm.s)[m2]
            bad ^= (pattern & 1 if extra else pattern) << at
        return bad

    @cached_property
    def taubar(self) -> ULinearMap:
        """pi o tau, with pi the projection of F[u] (x) TX onto the positive
        u-powers of the reduced components, kept as its u^0 layer: formed
        straight from the Lucas terms (``_taubar_pass``)."""
        return self._taubar_pass[0]

    @cached_property
    def taubar_linear_verdict(self) -> Verdict:
        """taubar is a map of u-modules over A (``fulu.u_linear_verdict``),
        certified on its u^0 layer once per calculus: T8 reads it before
        anything reads taubar's kernel or cokernel."""
        return u_linear_verdict(self.taubar)

    # -- the equalizer kernel and its companions -----------------------------------

    @cached_property
    def taubar_image(self) -> GradedSubspace:
        """The image of taubar, as the graded u-submodule of ``bar``
        generated by its u^0 layer: a u-linear map carries u^a x to u^a
        times the image of x.  Its bases are canonical rref bases, and each
        degree eliminates only its seeds and u times the degree below.
        ``taubar_image_verdict`` certifies that it is the image."""
        return GradedSubspace.from_vectors(self.bar, dict(enumerate(self.taubar.layer)))

    @cached_property
    def taubar_image_verdict(self) -> Verdict:
        """0 -> ker taubar -> E -> bar -> bar / ``taubar_image`` -> 0 is
        exact, certified on taubar's u^0 layer once per calculus.

        Reading ``rtilde`` runs legs (a)-(c): the inclusion is injective,
        taubar kills it, and rank taubar_d = dim E_d - #rows, so the
        sequence is exact at E.  In each degree d, (iv) every row of
        ``taubar.layer[d]`` reduces to zero against ``taubar_image.bases[d]``,
        so, taubar being u-linear and the image u-closed, im taubar lies in
        the image; (v) the image's dimension is taubar's rank, so they are
        equal.  No matrix of taubar and no projection is built."""
        self.rtilde
        image, f, D = self.taubar_image, self.taubar, self.D
        for d in range(D + 1):
            basis = image.bases[d]
            rows = BitMatrix(len(f.layer[d]), basis.ncols, tuple(f.layer[d]))
            rest = RowReducer(basis).remainders(rows)._rows
            x = next((x for x, r in enumerate(rest) if r), None)
            if x is not None:
                return Verdict(False, D, f"taubar's value on {self.X.module.labels[d][x]} lies "
                                         f"outside its image in degree {d}")
            if basis.nrows != f.ranks[d]:
                return Verdict(False, D, f"its image has dimension {basis.nrows}, not taubar's "
                                         f"rank {f.ranks[d]}, in degree {d}")
        return Verdict(True, D)

    @cached_property
    def equalizer_verdict(self) -> Verdict:
        """The kernel of taubar is the equalizer of sigma and tau, the kernel
        of sigma + tau, certified on the u^0 layer once per calculus, as
        ``_taubar_pass`` forms each row of taubar.

        Let iota be the inclusion of bar into F[u] (x) TX.  On the u^0
        layer taubar is tau on bar's columns, so there sigma + tau =
        iota o taubar exactly when sigma + tau has no bit outside bar.
        sigma lands in the u^0 block, all of it outside bar, so that says
        two things of each row: its u^0 term, placed on every component,
        equals sigma's row (``_sigma_rows``); and no positive-u term
        reaches component 0.  All three maps are u-linear, so they then
        agree in every degree, and iota is injective, so ker(sigma + tau) =
        ker taubar.  No row of F[u] (x) TX, and no matrix, rank or kernel of
        sigma + tau, is formed.  A failure names the first basis vector
        whose value has a bit outside bar; the two kernels may still agree.
        """
        return self._taubar_pass[1]

    @cached_property
    def st1_basis(self) -> Tuple[List[BitMatrix], List[int]]:
        """The closed basis of ker(taubar) in E, summand by summand, with
        each degree's rows independent: ``(rows, gens)``.

        R1 is the span of St1(x) = sum_i u^{|x| - i} Sq^i x.  St1 is
        multiplicative, St1(t) = t^2 + u t, and a suspension shifts the
        kernel by one degree, so on the summand S^s H(V_r) the kernel is
        free over F[u] on the u-generators sigma^s prod St1(t_i)^{b_i}
        (``_st1_generators``).  ``rows[d]`` lists the ``gens[d]``
        generators of degree d, then u times ``rows[d - 1]`` in order, by
        the shift.  Row u^a sigma^s St1^b has lowest bit u^a sigma^s t^{2b},
        the u^0 term of its expansion; leg (a) of the certificate checks
        that these are distinct in every degree, so the rows are
        independent, and records their count as the rank of each degree's
        rows.  Legs (b) and (c) (``_taubar_certificate``) make their span
        ker(taubar); ``invariants()`` certifies it as the invariant ring.
        """
        E, rows, gens = self.E, [], []
        for d in range(self.D + 1):
            new = _st1_generators(self.X, E, d)
            below = [r << (E.dims[d] - E.dims[d - 1]) for r in rows[-1]._rows] if d else []
            m = BitMatrix(len(new) + len(below), E.dims[d], tuple(new + below))
            lows: Dict[int, int] = {}
            for i, r in enumerate(m._rows):
                j = lows.setdefault(r & -r, i)
                if j != i or not r:
                    shared = (f"shares its lowest bit {E.labels[d][(r & -r).bit_length() - 1]} "
                              f"with row {j}" if r else "is zero")
                    raise TheoryViolation(f"ker(taubar): row {i} of degree {d} {shared}")
            m._rank = m.nrows
            rows.append(m)
            gens.append(len(new))
        return rows, gens

    @cached_property
    def _st1_submodule(self) -> Tuple[FuluModule, ModuleMap]:
        """The submodule of E on ``st1_basis``, with its inclusion, built
        once: u is the index map onto the shifted rows, and Sq-stability is
        certified on the u-generators, by lowest-bit reduction against the
        rows (``unstable.submodule`` with ``u_gens``).  ``rtilde`` and
        ``invariants()`` return it, each after its own certificate."""
        rows, gens = self.st1_basis
        return submodule(self.E, dict(enumerate(rows)), "ker(taubar)", u_gens=gens)

    @cached_property
    def _taubar_certificate(self) -> None:
        """Legs (b) and (c): the rows of ``st1_basis`` span ker(taubar) in
        every degree (``_certify_kernel_span``), and rank taubar_d =
        dim E_d - #rows is recorded on taubar.  (c) holds because bar is
        ordered u-power, component, monomial: with i the first odd exponent
        of m, taubar(u^a sigma^s m) has lowest bit u^{a+1} on component 2^i
        at m - e_i.
        """
        rows, gens = self.st1_basis
        _certify_kernel_span(self.E, rows, gens, [self.taubar], "taubar", "ker(taubar)")
        for d, m in enumerate(rows):
            self.taubar.ranks[d] = self.E.dims[d] - m.nrows

    @property
    def rtilde(self) -> FuluModule:
        """The kernel of taubar, the functor's value on X: the submodule of
        E on ``st1_basis``.  The equalizer verdict and the certificate that
        the basis spans ker(taubar) are read once per calculus, and a
        failing one raises ``TheoryViolation`` on every read; so does an
        escape from the Sq-stability certificate on the u-generators
        (``unstable.submodule``).  No elimination runs: no kernel, image
        or reducer of taubar is formed."""
        v = self.equalizer_verdict
        if not v.ok:
            raise TheoryViolation(v.witness or "equalizer mismatch")
        self._taubar_certificate
        return self._st1_submodule[0]

    @property
    def kernel_incl(self) -> ModuleMap:
        """The inclusion of ``rtilde`` into E, certified as ``rtilde`` is;
        each degree's matrix carries its rank from leg (a)."""
        self.rtilde
        return self._st1_submodule[1]

    @cached_property
    def kernel_spaces(self) -> List[Subspace]:
        """The canonical subspaces of ker(taubar), by degree, built once per
        calculus: T16 compares a suspension's with these."""
        incl = self.kernel_incl
        return [Subspace.from_rows(incl.mat(n)) for n in range(self.D + 1)]

    def invariants(self) -> Tuple[FuluModule, ModuleMap]:
        """The invariants of the maps g_v: u -> u, t_i -> t_i + t_i(v) u over
        the generators v, as a submodule of ``E`` with its inclusion.

        Defined when X is one unsuspended H(V_r).  They are certified to be
        the span of ``st1_basis`` independently of taubar
        (``_invariant_certificate``), and share its module with ``rtilde``:
        T1 holds when both certificates do.
        """
        X = self.X
        if len(X.summands) != 1 or X.summands[0].s:
            raise ValueError(f"invariants need one unsuspended H(V_r), not {X.name}")
        self._invariant_certificate
        return self._st1_submodule

    @cached_property
    def _invariant_certificate(self) -> None:
        """The rows of ``st1_basis`` span the invariants: the common kernel
        of the g_v + id over the generators v = e_i, each u-linear with u^0
        layer from ``_twist_plus_id`` (``_certify_kernel_span``).  Leg (c)
        holds as it does for taubar: (g_{e_i} + id)(u^a t^m) reaches the
        lowest u-power, u^{a+1}, exactly for the odd m_i, at t^{m - e_i};
        so the lowest bit of the stack is (u^{a+1}, t^{m - e_i}, i) for one
        such i, from which a and m are read back.
        """
        X, E, D = self.X, self.E, self.D
        r = X.summands[0].r
        pos = [_monomial_pos(r, d) for d in range(D + 1)]
        # the u^a block of E in degree d starts at dims[d] - dims[d - a]
        offsets = [[E.dims[d] - E.dims[d - a] for a in range(d + 1)] for d in range(D + 1)]
        g_plus_id = []
        for i in range(r):
            layer = []
            for d in range(D + 1):
                rows = []
                for mono in X.monomials(0, d):
                    acc = 0
                    for e, m2 in _twist_plus_id(mono, i):
                        acc ^= 1 << (offsets[d][e] + pos[d - e][m2])
                    rows.append(acc)
                layer.append(rows)
            g_plus_id.append(ULinearMap(E, E, layer, name=f"g_{1 << i} + id"))
        rows, gens = self.st1_basis
        _certify_kernel_span(E, rows, gens, g_plus_id, "the stacked g_v + id", f"Inv(G,{X.name})")

    @cached_property
    def omega(self) -> FourTermOmega:
        """The loop-functor data of the module of X, built once per
        calculus: ``alpha()`` reads it, and so do T7 and T11 on the
        shared calculus of H(V_r)."""
        return omega_of(self.X.module)

    def alpha(self) -> AlphaResult:
        """The loop-to-reduced-expansion map, from the structure map read on
        the unit block of taubar."""
        tbar = self.tbar.module
        st_mats = {}
        for n in range(self.D + 1):
            # taubar's u^0 layer, on the u^1 block, with which the bar coordinates start
            mask = (1 << self.bar.block(n, 1)[1]) - 1
            rows = [row & mask for row in self.taubar.layer[n]]
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
        """The component matrix Dg of the splitting embedding sigma of the
        base into its expansion: each summand into all its copies."""
        rows = [0] * len(self.X.summands)
        for c, (j, _) in enumerate(self.TX.components):
            rows[j] |= 1 << c
        return BitMatrix(len(rows), len(self.TX.components), tuple(rows))

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


def calculus(X: RealmObject) -> RealmCalculus:
    """The process's one calculus of the plain realm object X, shared by
    ``verify`` and ``compute``.

    It is keyed by all of X that reaches an output or a witness: its
    summands, its truncation degree and its name, so ``H(V1)`` and a
    zero-fold suspension of it stay apart.  Its data are computed on
    demand and never change, so a reader gets the same values whether or
    not an earlier one filled them in; a certificate is checked once, and
    a failing one fails every reader.  Like ``hv_module`` it is never
    evicted.
    """
    if type(X) is not RealmObject:
        raise TypeError(f"calculus needs a plain realm object, not a {type(X).__name__}")
    return _calculus(X.summands, X.D, X.name)


@lru_cache(maxsize=None)
def _calculus(summands: Tuple[Summand, ...], D: int, name: str) -> RealmCalculus:
    return RealmCalculus(RealmObject(summands, D, name))


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


# -- the loop-to-reduced-expansion comparison ------------------------------------


@dataclass
class AlphaResult:
    """The induced map from the loop module to the reduced expansion, and
    the division data it measures.

    Built by composing the reduced comparison map with the projection of the
    positive-power coefficients onto the linear one, then factoring through
    the cokernel of the Sq0 map.  ``div`` (the cokernel of alpha) and
    ``derived1`` (its kernel) are built on first read; ``div_dims`` reads
    tbar.dims[n] - rank(alpha_n) and builds neither.  The second derived
    division term is ``omega_data.omega1``.
    """

    alpha: ModuleMap
    omega_data: FourTermOmega

    @cached_property
    def derived1(self) -> TruncatedModule:
        return kernel_of(self.alpha)[0]

    @cached_property
    def div(self) -> TruncatedModule:
        a = self.alpha
        bases = [Subspace.from_rows(a.mat(n)).basis for n in range(a.D + 1)]
        return quotient(a.target, bases, "coker(alpha)").target

    @cached_property
    def div_dims(self) -> Tuple[int, ...]:
        a = self.alpha
        return tuple(a.target.dims[n] - a.rank(n) for n in range(a.D + 1))


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
    alpha_mats = {k: mats[k + 1].take_rows(ft.coker_proj.rep_cols[k + 1]) for k in range(top + 1)}
    return AlphaResult(ModuleMap(ft.omega, tbar, alpha_mats, D=top, name="alpha"), ft)
