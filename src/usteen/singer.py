"""The Singer-type subobject of a scalar extension, built from first principles.

For a homogeneous x of degree d, the squaring span is generated by

    st1(x) = sum_{i=0..d} u^{d-i} (x) Sq^i(x),

a map that doubles degrees and is linear degreewise but is not a morphism of
unstable modules.  The functor realized here is the u-span of the image,
carried inside the scalar extension together with its distinguished basis
{u^k st1(b)}; freeness on that basis is established computationally, which
makes the projection to the doubled module constructive.

Certified output degree is 2*(D//2): computing the span in degree n consumes
the action of the base up to degree 2*ceil(n/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .f2core import BitMatrix, Subspace, image_is_kernel, rank
from .fulu import (
    ExtendedModule,
    OverFulu,
    extend_scalars,
    extend_scalars_map,
    tensor_over_fulu,
)
from .unstable import (
    FuluModule,
    ModuleMap,
    TheoryViolation,
    TruncatedModule,
    Verdict,
    _restricted_action,
    phi,
    sq0,
    tensor_with_layout,
)


def st1(M: TruncatedModule, ambient: Optional[ExtendedModule] = None) -> Dict[int, BitMatrix]:
    """The degree-doubling squaring map into the scalar extension, by its
    matrices: ``st1(M)[d]`` sends M's degree-d basis into degree 2d of the
    ambient, for d <= M.D // 2.  Each row of Sq^i on degree d is one shift
    onto the u^{d-i} block of degree 2d, whose base degree is d + i."""
    ambient = ambient if ambient is not None else extend_scalars(M)
    mats: Dict[int, BitMatrix] = {}
    for d in range(M.D // 2 + 1):
        rows = [0] * M.dims[d]
        for i in range(d + 1):
            shift = ambient.block(2 * d, d - i)[0]
            rows = [acc ^ (r << shift) for acc, r in zip(rows, M.sq(i, d).row_ints())]
        mats[d] = BitMatrix(M.dims[d], ambient.dim(2 * d), tuple(rows))
    return mats


class SingerModule:
    """The u-span of the squaring image, with its distinguished basis.

    ``gens[n]`` lists triples (k, d, j): the generator u^k st1(b_j) with b_j
    running through the base's degree-d basis and k + 2d = n.
    """

    def __init__(self, base: TruncatedModule, ambient: ExtendedModule):
        self.base = base
        self.ambient = ambient
        self.D = 2 * (base.D // 2)
        smap = self.st1_map = st1(base, ambient)
        gens: Dict[int, List[Tuple[int, int, int]]] = {}
        gen_rows: Dict[int, List[int]] = {}
        for n in range(self.D + 1):
            gens[n] = [(n - 2 * d, d, j) for d in range(min(n // 2, base.D // 2) + 1)
                       for j in range(base.dims[d])]
            # u^k st1(b) is st1(b) shifted onto the u^k-higher blocks
            gen_rows[n] = [smap[d].row_int(j) << (ambient.dim(n) - ambient.dim(2 * d))
                           for _, d, j in gens[n]]
        self.gens = gens
        self._gen_pos = {
            n: {g: idx for idx, g in enumerate(gens[n])} for n in range(self.D + 1)
        }
        self._G = {
            n: BitMatrix.from_row_ints(gen_rows[n], ambient.dim(n))
            for n in range(self.D + 1)
        }
        self.free_gens = self._freeness()
        self.fulu = self._realize()
        self.incl = ModuleMap(self.fulu, ambient, self._G, D=self.D)

    def _freeness(self) -> Verdict:
        """The generators of each degree are independent, read off their top
        bits: u^k st1(b_j) has top u-block u^(k+d), where Sq^0 leaves b_j
        itself, and E orders its blocks by u-power, so its highest bit is
        b_j's in that block.  These are distinct over (d, j), so the rows
        are independent with no elimination, and their count is recorded
        as their rank.  Only rows whose top bits collide are eliminated, so
        a failure names a dependence."""
        for n in range(self.D + 1):
            g = self._G[n]
            tops = {r.bit_length() for r in g.row_ints()} - {0}
            if len(tops) != g.nrows and rank(g) != g.nrows:
                return Verdict(False, self.D, f"distinguished generators dependent in degree {n}")
            g._rank = g.nrows
        return Verdict(True, self.D)

    def _realize(self) -> FuluModule:
        if not self.free_gens.ok:
            raise TheoryViolation(self.free_gens.witness or "generators not free")
        name = f"R1({self.base.name})"
        bases, gens = self._G, self.gens
        # u carries u^k st1(b) to u^(k+1) st1(b): gens[n + 1] lists the
        # (d, j) of gens[n] first, in the same order, so u is onto its first rows
        u_mats = {n: BitMatrix(len(gens[n]), len(gens[n + 1]),
                               tuple(1 << i for i in range(len(gens[n]))))
                  for n in range(self.D)}

        def labels() -> List[Tuple[str, ...]]:
            names = self.base.labels
            out = []
            for n in range(self.D + 1):
                ls = []
                for k, d, j in gens[n]:
                    lbl = f"st1({names[d][j]})"
                    ls.append(lbl if k == 0 else f"u^{k}*{lbl}")
                out.append(tuple(ls))
            return out

        # the distinguished labels, not the ambient sums; the Sq action and
        # the labels are built on first read, as T2 and ``compute r1`` read
        # only dims and spans
        return FuluModule(
            name, self.D, [bases[n].nrows for n in range(self.D + 1)],
            lambda: _restricted_action(bases, self.ambient, self.D, name),
            labels,
            u=u_mats,
        )

    def gen_matrix(self, n: int) -> BitMatrix:
        return self._G[n]

    def span(self, n: int) -> Subspace:
        return Subspace.from_rows(self._G[n])


def r1(M: TruncatedModule, ambient: Optional[ExtendedModule] = None) -> SingerModule:
    """The Singer-type module of M inside its scalar extension."""
    return SingerModule(M, ambient if ambient is not None else extend_scalars(M))


def r1_dims_expected(M: TruncatedModule, D: int) -> List[int]:
    """Freeness forecast: dim R1(M)^n = sum_k dim(doubled M)^(n-k)."""
    return [
        sum(M.dims[d] for d in range((n // 2) + 1) if 2 * d <= M.D)
        for n in range(D + 1)
    ]


@dataclass
class Rho1Certificate:
    """The projection to the doubled module with its exactness certificate."""

    rho: ModuleMap
    alinear: Verdict
    surjective: Verdict
    ses_exact: Verdict  # kernel of rho equals the image of u, degreewise
    sq0_square: Verdict

    @property
    def ok(self) -> bool:
        return all(v.ok for v in (self.alinear, self.surjective, self.ses_exact, self.sq0_square))


def rho1(S: SingerModule) -> Rho1Certificate:
    """Project u^k st1(b) to the class of b (k = 0) or zero (k > 0).

    Expressed in the distinguished basis, so uniqueness and the commuting
    square with the augmentation are constructive matrix identities.
    """
    M = S.base
    phi_m = phi(M)
    D = S.D
    mats = {}
    for n in range(D + 1):
        rows = []
        for (k, d, j) in S.gens[n]:
            rows.append((1 << j) if k == 0 and n == 2 * d else 0)
        mats[n] = BitMatrix.from_row_ints(rows, phi_m.dims[n])
    rho = ModuleMap(S.fulu, phi_m, mats, D=D, name="rho1")
    lin = rho.validate_linear()
    alinear = Verdict(lin.ok, D, None if lin.ok else lin.violations[0])
    surj = Verdict(True, D)
    for n in range(D + 1):
        if rank(mats[n]) != phi_m.dims[n]:
            surj = Verdict(False, D, f"not surjective in degree {n}")
            break
    ses = Verdict(True, D)
    for n in range(D + 1):
        u_img = S.fulu.u_mat(n - 1) if n >= 1 else BitMatrix.zeros(0, S.fulu.dim(0))
        if not image_is_kernel(u_img, rho.mat(n)):
            ses = Verdict(False, D, f"kernel differs from u-image in degree {n}")
            break
    sq = sq0(M)
    square = Verdict(True, D)
    for n in range(D + 1):
        lhs = S.incl.mat(n) @ S.ambient.eps_mat(n)
        rhs = rho.mat(n) @ sq.mat(n)
        if lhs != rhs:
            square = Verdict(False, D, f"augmentation square fails in degree {n}")
            break
    return Rho1Certificate(rho, alinear, surj, ses, square)


def r1_on_map(f: ModuleMap, S_src: SingerModule, S_tgt: SingerModule
              ) -> Tuple[ModuleMap, Verdict]:
    """Functoriality: restrict the extended map to the Singer-type submodules.

    Returns the induced map on distinguished bases and a verdict that it
    agrees with the ambient restriction (the image staying inside the
    target submodule is forced by naturality of the squaring formula).
    """
    D = min(S_src.D, S_tgt.D, 2 * (f.D // 2))
    mats = {}
    for n in range(D + 1):
        rows = []
        for (k, d, j) in S_src.gens[n]:
            frow = f.mat(d).row_int(j)
            acc = 0
            while frow:
                low = frow & -frow
                jp = low.bit_length() - 1
                acc |= 1 << S_tgt._gen_pos[n][(k, d, jp)]
                frow ^= low
            rows.append(acc)
        mats[n] = BitMatrix.from_row_ints(rows, S_tgt.fulu.dim(n))
    induced = ModuleMap(S_src.fulu, S_tgt.fulu, mats, D=D, name=f"R1({f.name})")
    ext = extend_scalars_map(f, S_src.ambient, S_tgt.ambient)
    ok = True
    witness = None
    for n in range(D + 1):
        lhs = S_src.gen_matrix(n) @ ext.mat(n)
        rhs = induced.mat(n) @ S_tgt.gen_matrix(n)
        if lhs != rhs:
            ok, witness = False, f"naturality fails in degree {n}"
            break
    return induced, Verdict(ok, D, witness)


@dataclass
class ProductCertificate:
    """The comparison map from the relative tensor product of two spans."""

    product: OverFulu
    mu_mats: Dict[int, BitMatrix]
    target: SingerModule
    kills_relations: Verdict
    injective: Verdict
    image_matches: Verdict
    st1_multiplicative: Verdict
    D: int

    @property
    def ok(self) -> bool:
        return all(
            v.ok
            for v in (
                self.kills_relations,
                self.injective,
                self.image_matches,
                self.st1_multiplicative,
            )
        )


def _multiply_ambient_rows(EM: ExtendedModule, EN: ExtendedModule,
                           EMN: ExtendedModule, mn_layout, p: int, q: int,
                           row1: int, row2: int) -> int:
    """Multiply u^a (x) m by u^b (x) n into u^{a+b} (x) (m (x) n)."""
    out = 0
    r1terms = []
    rr = row1
    while rr:
        low = rr & -rr
        r1terms.append(EM.decode(p, low.bit_length() - 1))
        rr ^= low
    rr = row2
    while rr:
        low = rr & -rr
        b, jn = EN.decode(q, low.bit_length() - 1)
        qn = q - b
        for a, jm in r1terms:
            pm = p - a
            pair = mn_layout.index(pm + qn, pm, jm, jn)
            out ^= 1 << EMN.index(p + q, a + b, pair)
        rr ^= low
    return out


def product_mu(M: TruncatedModule, N: TruncatedModule) -> ProductCertificate:
    """Check that the relative tensor product of spans is the span of the tensor."""
    SM = r1(M)
    SN = SM if N is M else r1(N)
    MN, mn_layout = tensor_with_layout(M, N)
    EMN = extend_scalars(MN)
    SMN = r1(MN, EMN)
    prod = tensor_over_fulu(SM.fulu, SN.fulu)
    D = min(SM.D + SN.D, SMN.D, prod.module.D)
    T = prod.tensor_module

    mult: Dict[int, BitMatrix] = {}
    for n in range(D + 1):
        rows = [0] * T.dims[n]
        for p, off, _ in prod.layout.blocks(n):
            q = n - p
            gm = SM.gen_matrix(p)
            gn = SN.gen_matrix(q)
            for i in range(SM.fulu.dim(p)):
                for j in range(SN.fulu.dim(q)):
                    rows[off + i * SN.fulu.dim(q) + j] = _multiply_ambient_rows(
                        SM.ambient, SN.ambient, EMN, mn_layout, p, q,
                        gm.row_int(i), gn.row_int(j),
                    )
        mult[n] = BitMatrix.from_row_ints(rows, EMN.dim(n))

    kills = Verdict(True, D)
    for n in range(D + 1):
        if not (prod.relation_bases[n] @ mult[n]).is_zero():
            kills = Verdict(False, D, f"relations survive in degree {n}")
            break

    mu_mats = {n: mult[n].take_rows(prod.proj.rep_cols[n]) for n in range(D + 1)}
    injective = Verdict(True, D)
    for n in range(D + 1):
        if rank(mu_mats[n]) != prod.module.dim(n):
            injective = Verdict(False, D, f"comparison map drops rank in degree {n}")
            break
    image_matches = Verdict(True, D)
    for n in range(D + 1):
        if Subspace.from_rows(mu_mats[n]) != SMN.span(n):
            image_matches = Verdict(False, D, f"image differs from the span in degree {n}")
            break

    st_mult = Verdict(True, D)
    smap_m, smap_n, smap_mn = SM.st1_map, SN.st1_map, SMN.st1_map
    done = False
    for dm in range(M.D // 2 + 1):
        if done:
            break
        for dn in range(N.D // 2 + 1):
            if 2 * (dm + dn) > D or dm + dn > MN.D // 2:
                continue
            for jm in range(M.dims[dm]):
                for jn in range(N.dims[dn]):
                    got = _multiply_ambient_rows(
                        SM.ambient, SN.ambient, EMN, mn_layout, 2 * dm, 2 * dn,
                        smap_m[dm].row_int(jm), smap_n[dn].row_int(jn),
                    )
                    pair = mn_layout.index(dm + dn, dm, jm, jn)
                    expect = smap_mn[dm + dn].row_int(pair)
                    if got != expect:
                        st_mult = Verdict(
                            False, D,
                            f"st1 multiplicativity fails on basis pair in degrees ({dm}, {dn})",
                        )
                        done = True
    return ProductCertificate(
        prod, mu_mats, SMN, kills, injective, image_matches, st_mult, D
    )
