"""Polynomial-generator modules inside unstable modules.

A u-module is an ``unstable.FuluModule``: a truncated unstable module with a
degree-one multiplication ``u``, compatible with the squaring operations by
the Cartan-twisted rule Sq^i(u x) = u Sq^i(x) + u^2 Sq^{i-1}(x).  Its
submodules, kernels and quotients, and the maps between u-modules, are
those of ``unstable``, which carry u along with Sq.  This module holds what
is particular to F[u]: scalar extension, the indecomposables Q(N),
torsion, graded u-subspaces and the tensor product over F[u].

A scalar extension keeps its index bookkeeping in closed form: its dims are
prefix sums of the base's, its u-blocks are placed by them, and
constructing it builds no layout table and no second module.  On it u is an
injective shift: it moves every row of degree n by dims[n + 1] - dims[n]
bits, so products with u (``times_u``) build no matrix, a ``ULinearMap`` is
u-linear by construction, and u as a matrix is built only when something
reads ``u_mat``.  Sq on rows of a scalar extension is the row Cartan sum
``sq_rows``, which reads only the base's rows under Sq;
``unstable.submodule`` certifies a u-submodule of a scalar extension
through it, on its u-generators, so ker(taubar) and the invariant ring
build no action.  Graded u-subspaces live on scalar extensions, where the
shift gives them closed forms on int rows: an unseeded degree of
``GradedSubspace.from_vectors`` and the preimage of ``saturation_check``
are shifted rref bases, with no elimination, a seeded degree is one
elimination of the shifted basis and then the seeds, and
``generator_space`` files the shifted basis and X^n in one lead table.  The
u-module generated by some seeds is spanned by the u^j times them, so u^k
times it is spanned by the u^j times the u^k-shifted seeds: a u-power shift
of a seeded span is one ``from_vectors`` on the shifted seeds.  Every
quotient here is the one projection operator of ``unstable.quotient``, read
off canonical rref bases: N/X for a graded u-subspace X, and N/uN
(``q_data``, a mask on a scalar extension).  Q of N/X is Q(N) modulo the
image of X in the lowest u-block; for the image of taubar the calculus
reads that image off its certified basis (``lannes``).

The polynomial-ring lemmas here (saturation, generator spaces, torsion) are
pure graded u-module statements, so the checks also accept graded subspaces
that are not stable under the squaring operations.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from operator import or_
from typing import Dict, List, Optional, Sequence, Tuple

from .f2core import BitMatrix, Subspace, _file_rows, left_kernel, rank, rref_basis
from .unstable import (
    FuluModule,
    ModuleMap,
    Quotient,
    TensorLayout,
    TruncatedModule,
    TruncationError,
    Verdict,
    _sum_label,
    polynomial_module,
    quotient,
    tensor_action,
    tensor_labels,
    tensor_with_layout,
)


class ExtendedModule(FuluModule):
    """Scalar extension of an unstable module, with closed-form bookkeeping.

    It is the tensor product U (x) M, with U the powers u^a with
    a >= ``start`` (``_u_powers``): F[u] at 0, its positive-u part at 1.
    Basis vectors are pairs (u-power a, basis element of the base in degree
    n - a), blocks keyed by a and ordered by increasing a.  So dims[n] is
    the sum of the base's dims through degree n - start, and the u^a block
    of degree n starts at dims[n] - dims[n - a + start] with width
    base.dims[n - a]: ``blocks``, ``block``, ``index`` and ``decode`` (a
    bisection on dims) are arithmetic on the dims, and constructing E
    builds no layout and no second module.  u, which carries each u^a
    block onto the u^{a+1} block, moves every row of degree n by
    dims[n + 1] - dims[n] (``times_u``), and u as a matrix is read off that
    shift on unit rows.

    The action is the Cartan formula:
    Sq^k(u^a (x) x) = sum_b C(a, b) u^{a+b} (x) Sq^{k-b} x, where C(a, b) is
    odd exactly when b is a bitwise submask of a (Lucas).  ``sq_rows``
    applies it to rows with no matrix of E, reading M only through M's own
    ``sq_rows``.  The whole action and the labels are those of
    ``unstable.tensor_with_layout(U, M)`` (``tensor_action`` and
    ``tensor_labels``), built with its ``TensorLayout`` (``layout``) on
    their first read.
    """

    __slots__ = ("base", "start", "_layout")

    def __init__(self, base: TruncatedModule, start: int, name: str):
        D = base.D
        self.base = base
        self.start = start
        self._layout: Optional[TensorLayout] = None
        dims = (0,) * start + tuple(accumulate(base.dims[: D + 1 - start]))
        super().__init__(name, D, dims, self._tensor_action, self._tensor_labels,
                         u=self._shift_u)

    @property
    def layout(self) -> TensorLayout:
        """The ``TensorLayout`` of U (x) M, the basis order of the tensor
        action, built on first read; its dims are E's."""
        if self._layout is None:
            D, s = self.D, self.start
            self._layout = TensorLayout((0,) * s + (1,) * (D + 1 - s), self.base.dims, D)
        return self._layout

    def _tensor_action(self) -> Dict[Tuple[int, int], BitMatrix]:
        return tensor_action(_u_powers(self.D, self.start), self.base, self.layout)

    def _tensor_labels(self) -> List[Tuple[str, ...]]:
        return tensor_labels(_u_powers(self.D, self.start), self.base, self.layout)

    def blocks(self, n: int) -> Tuple[Tuple[int, int, int], ...]:
        """Triples (a, offset, width) for the nonempty u^a blocks of degree
        n, by increasing a."""
        dims, widths, s = self.dims, self.base.dims, self.start
        top = dims[n]
        return tuple((a, top - dims[n - a + s], widths[n - a])
                     for a in range(s, n + 1) if widths[n - a])

    def index(self, n: int, a: int, j: int) -> int:
        """Flat index of u^a times the j-th base vector of degree n - a;
        KeyError if the u^a block of degree n is empty."""
        off, width = self.block(n, a)
        if not width:
            raise KeyError(f"{self.name}: no u^{a} block in degree {n}")
        return off + j

    def block(self, n: int, a: int) -> Tuple[int, int]:
        """(offset, width) of the u^a block in degree n; (0, 0) if empty."""
        if self.start <= a <= n:
            width = self.base.dims[n - a]
            if width:
                return self.dims[n] - self.dims[n - a + self.start], width
        return 0, 0

    def decode(self, n: int, flat: int) -> Tuple[int, int]:
        """Inverse of ``index``: flat position -> (u-power, base index).

        The u^a block of degree n holds the positions whose distance g from
        the end of the degree, dims[n] - flat, has
        dims[m - 1] < g <= dims[m] for m = n - a + start; m is a bisection."""
        dims = self.dims
        if not 0 <= flat < dims[n]:
            raise IndexError(f"flat index {flat} not in degree {n}")
        g = dims[n] - flat
        m = bisect_left(dims, g, 0, n)
        return n - m + self.start, dims[m] - g

    def eps_mat(self, n: int) -> BitMatrix:
        """Augmentation: kill positive u-powers, keep the u^0 coefficients."""
        rows = [0] * self.dim(n)
        off, width = self.block(n, 0)
        for j in range(width):
            rows[off + j] = 1 << j
        return BitMatrix.from_row_ints(rows, self.base.dim(n))

    def times_u(self, n: int, rows: BitMatrix) -> BitMatrix:
        """``rows @ u_mat(n)``, by the shift of dims[n + 1] - dims[n] bits."""
        if not 0 <= n < self.D:
            raise TruncationError(f"{self.name}: u on degree {n} outside 0..{self.D - 1}")
        if rows.ncols != self.dims[n]:
            raise ValueError("row width mismatch")
        shift = self.dims[n + 1] - self.dims[n]
        return BitMatrix(rows.nrows, self.dims[n + 1], tuple([r << shift for r in rows.row_ints()]))

    def sq_rows(self, k: int, n: int, rows: BitMatrix) -> BitMatrix:
        """``rows @ sq(k, n)``, by the row Cartan sum, which reads only the
        base's rows: the u^a block of the rows, as rows of M^{n-a}, goes
        through the base's ``sq_rows`` for Sq^{k-b} to the u^{a+b} block of
        degree n + k, for each b with C(a, b) odd and k - b <= n - a
        (Sq^0 is the identity).  Only the blocks where the OR of the rows
        has a bit are visited."""
        if not 0 <= n <= n + k <= self.D:
            raise TruncationError(f"{self.name}: Sq^{k} on degree {n} outside 0..{self.D}")
        if rows.ncols != self.dims[n]:
            raise ValueError("row width mismatch")
        ints, base, dims, start = rows.row_ints(), self.base, self.dims, self.start
        touched = reduce(or_, ints, 0)
        out = [0] * rows.nrows
        for a, off, width in self.blocks(n):
            mask = (1 << width) - 1
            if not touched >> off & mask:
                continue
            q = n - a
            parts = [(r >> off) & mask for r in ints]
            part = BitMatrix(rows.nrows, width, tuple(parts))
            for b in range(max(0, k - q), min(k, a) + 1):
                if b & a == b:
                    image = parts if b == k else base.sq_rows(k - b, q, part).row_ints()
                    shift = dims[n + k] - dims[q + k - b + start]
                    out = [x ^ (y << shift) for x, y in zip(out, image)]
        return BitMatrix(rows.nrows, self.dims[n + k], tuple(out))

    def _shift_u(self) -> Dict[int, BitMatrix]:
        """u as matrices: the shift on unit rows."""
        return {n: self.times_u(n, BitMatrix.identity(self.dims[n])) for n in range(self.D)}


@lru_cache(maxsize=None)
def _u_powers(D: int, start: int) -> TruncatedModule:
    """The powers u^a with a >= ``start`` through degree D: F[u] at start 0,
    its positive-u part at start 1, built once per (D, start), on the first
    read of a scalar extension's action or labels, and shared by every
    scalar extension as its left factor."""
    if not start:
        return polynomial_module(1, D, varnames=("u",), name="F[u]")
    U = _u_powers(D, 0)
    return TruncatedModule("uF[u]", D, (0,) + U.dims[1:], dict(U.action_items()),
                           ((),) + U.labels[1:])


def extend_scalars(M: TruncatedModule) -> ExtendedModule:
    """Tensor with the rank-one polynomial algebra; u acts by the shift."""
    return ExtendedModule(M, 0, f"Fu(x){M.name}")


def positive_u_part(M: TruncatedModule) -> ExtendedModule:
    """The positive-u-power part bar(F[u] (x) M) of the scalar extension.

    Sq and u never lower the u-power, so it is a sub-u-module and itself a
    scalar extension with its u^0 block left out.
    """
    return ExtendedModule(M, 1, f"bar(Fu(x){M.name})")


class ULinearMap(ModuleMap):
    """The u-linear map out of ``src`` = F[u] (x) M with u^0 layer ``layer``,
    kept as that layer.

    ``layer[d]`` lists the images of M's degree-d basis, one row of ``tgt``
    in degree d per basis vector (checked), for d = 0..D.  The target is a
    scalar extension or its positive-u part: u^a carries its degree-(n - a)
    basis, in order, onto the last ``tgt.dims[n - a]`` vectors of degree n.
    So the u^a block of ``src`` in degree n maps by ``layer[n - a]`` shifted
    by the offset u applies on both ends: the map is u-linear whatever the
    layer.  ``apply`` is the layer product, and ``mat(n)`` is placed so
    only when it is read.  ``ranks`` holds the ranks a certificate has
    established (ker(taubar)'s records taubar's), which ``rank`` reads
    instead of eliminating.
    """

    def __init__(self, src: ExtendedModule, tgt: ExtendedModule, layer: Sequence[Sequence[int]],
                 name: str = ""):
        for d, rows in enumerate(layer):
            if len(rows) != src.base.dim(d) or any(r < 0 or r >> tgt.dim(d) for r in rows):
                raise ValueError(f"the layer of degree {d} needs {src.base.dim(d)} rows "
                                 f"below 2^{tgt.dim(d)}")
        super().__init__(src, tgt, {}, D=len(layer) - 1, name=name)
        self.layer = layer
        self.ranks: Dict[int, int] = {}

    def apply(self, n: int, rows: BitMatrix) -> BitMatrix:
        """``rows @ mat(n)`` with no matrix, one layer row per set bit: u^a
        times basis vector x of M goes to the layer row of x, shifted onto
        the target's u^a block.  Sparse rows cost less than one matrix row."""
        src, tgt, layer = self.source, self.target, self.layer
        out = []
        for r in rows.row_ints():
            acc = 0
            while r:
                low = r & -r
                a, x = src.decode(n, low.bit_length() - 1)
                acc ^= layer[n - a][x] << (tgt.dims[n] - tgt.dims[n - a])
                r ^= low
            out.append(acc)
        return BitMatrix(rows.nrows, tgt.dims[n], tuple(out))

    def rank(self, n: int) -> int:
        got = self.ranks.get(n)
        return super().rank(n) if got is None else got

    def mat(self, n: int) -> BitMatrix:
        if not 0 <= n <= self.D:
            return super().mat(n)
        got = self._mats.get(n)
        if got is None:
            tgt, rows = self.target, []
            for a, _, _ in self.source.blocks(n):
                shift = tgt.dims[n] - tgt.dims[n - a]
                rows.extend(r << shift for r in self.layer[n - a])
            got = self._mats[n] = BitMatrix.from_row_ints(rows, tgt.dims[n])
        return got


def u_linear_verdict(f: ULinearMap) -> Verdict:
    """A-linearity of a u-linear map from F[u] (x) M to a scalar extension,
    certified on its u^0 layer.

    A ``ULinearMap`` commutes with u by construction, and both ends satisfy
    Sq^k(u^a y) = sum_b C(a, b) u^{a+b} Sq^{k-b} y for every y.  So
    f(Sq^k(u^a x)) and Sq^k f(u^a x) expand to the same sum over b as soon
    as f commutes with every Sq^j on the u^0 layer, a copy of M.  That
    layer is an A-submodule of the source and the Sq^{2^i} generate A, so
    k = 2^i suffice there:
    ``M.sq(k, d) @ layer[d + k] == tgt.sq_rows(k, d, layer[d])``.
    A-linearity implies that the image of f is closed under Sq and u.

    The layer is read as it is stored, and Sq on the target is the row
    Cartan sum, so no matrix of f, of u or of the target's action is built.
    """
    if not (isinstance(f, ULinearMap) and f.source.start == 0):
        raise ValueError("u_linear_verdict needs a ULinearMap out of F[u] (x) M")
    M, tgt, D = f.source.base, f.target, f.D
    layer = [BitMatrix(len(rows), tgt.dim(d), tuple(rows)) for d, rows in enumerate(f.layer)]
    for d in range(D + 1):
        k = 1
        while d + k <= D:
            if M.sq(k, d) @ layer[d + k] != tgt.sq_rows(k, d, layer[d]):
                return Verdict(False, D, f"not A-linear at (i={k}, n={d}) on the u^0 layer")
            k *= 2
    return Verdict(True, D)


def extend_scalars_map(f: ModuleMap, src: ExtendedModule, tgt: ExtendedModule,
                       name: str = "") -> ModuleMap:
    """The induced map on scalar extensions (block-diagonal over u-powers)."""
    D = min(src.D, tgt.D, f.D)
    return ULinearMap(src, tgt, [f.mat(d).row_ints() for d in range(D + 1)], name=name)


# -- indecomposables -----------------------------------------------------------


def q_data(N: FuluModule) -> Quotient:
    """The projection onto the quotient by the image of u.

    Its u, zero on N/uN, is left unbuilt unless something reads it.  A
    scalar extension takes the closed form of ``_extension_q_data``; any
    other N is eliminated."""
    name = f"Q({N.name})"
    if isinstance(N, ExtendedModule):
        return _extension_q_data(N, name)
    images = [BitMatrix.zeros(0, N.dim(0))] + [
        Subspace.from_rows(N.u_mat(n - 1)).basis for n in range(1, N.D + 1)
    ]
    return quotient(N, images, name)


def _extension_q_data(N: ExtendedModule, name: str) -> Quotient:
    """Q(N) of a scalar extension, with no elimination.

    u maps each u^a block onto the u^{a+1} block, so uN is every block
    above the lowest one, u^s with s = ``N.start``, which comes first in
    every degree.  The quotient is that block: the projection keeps its
    coordinates, a mask (``_LowestBlock.apply``), and the representatives
    are its unit vectors, as the elimination gives them.
    Sq^k(u^s (x) x) = u^s (x) Sq^k x modulo higher u-powers, so the action
    is M's, shifted by s, with the Sq^k on degree q < k that the extension
    drops left out too.
    """
    M, s, D = N.base, N.start, N.D
    widths = [N.block(n, s)[1] for n in range(D + 1)]

    def action() -> Dict[Tuple[int, int], BitMatrix]:
        return {(k, q + s): m for (k, q), m in M.action_items() if k <= q and q + s + k <= D}

    def labels() -> List[Tuple[str, ...]]:
        return [N.labels[n][:w] for n, w in enumerate(widths)]

    module = FuluModule(name, D, widths, action, labels, u=lambda: {})
    return _LowestBlock(N, module, None, [range(w) for w in widths])


class _LowestBlock(Quotient):
    """Q of a scalar extension: the projection keeps the lowest u-block,
    which comes first in every degree, so ``apply`` is a mask, read off no
    basis, and ``mat``, an identity block over zero rows, is built only
    when read."""

    def apply(self, n: int, rows: BitMatrix) -> BitMatrix:
        w = self.target.dims[n]
        mask = (1 << w) - 1
        return BitMatrix(rows.nrows, w, tuple(r & mask for r in rows.row_ints()))


def indecomposables(N: FuluModule) -> FuluModule:
    """The quotient by the image of u, with its induced action.

    Its labels are those of N off the pivots of the image of u, so for a
    free N they name a free basis."""
    return q_data(N).target


def q_of_map(f: ModuleMap, qsrc: Quotient, qtgt: Quotient) -> ModuleMap:
    """The map induced on indecomposables: f on the representatives of
    ``qsrc`` (``f.apply``, so a ``ULinearMap`` reads its u^0 layer there
    and builds no matrix), then the projection ``qtgt``."""
    D = min(f.D, qsrc.D, qtgt.D)
    mats = {n: qtgt.apply(n, f.apply(n, BitMatrix(len(cols), f.source.dims[n],
                                                  tuple(1 << c for c in cols))))
            for n, cols in enumerate(qsrc.rep_cols[:D + 1])}
    return ModuleMap(qsrc.target, qtgt.target, mats, D=D)


# -- torsion -----------------------------------------------------------------------


def torsion_free(N: FuluModule) -> Verdict:
    """Injectivity of u in every certified degree.

    For connected modules (degree-0 dimension at most one) torsion-free is
    equivalent to free, on a lift of the indecomposables.  u is injective
    when its rank is its row count, a rank ``q_data`` has already recorded
    on u when it took N/uN; the kernel is taken only to name a witness.
    """
    for n in range(N.D):
        u = N.u_mat(n)
        if rank(u) != u.nrows:
            ker = left_kernel(u)
            return Verdict(False, N.D,
                           f"u kills {_sum_label(N.labels[n], ker.basis.row_int(0))} in degree {n}")
    return Verdict(True, N.D)


# -- graded u-submodules of a scalar extension ---------------------------------


class GradedSubspace:
    """A graded subspace of a scalar extension, closed under multiplication
    by u, an injective shift there; ``from_vectors`` builds it, and refuses
    any other ambient.  ``bases[n]`` is the canonical rref basis of degree
    n, for n = 0..D.
    """

    __slots__ = ("ambient", "bases")

    @classmethod
    def from_vectors(cls, ambient: ExtendedModule,
                     seeds: Dict[int, Sequence[int]]) -> "GradedSubspace":
        """The u-submodule generated by int-packed seed vectors.

        u is an injective shift, which carries a canonical basis to a
        canonical basis: a degree without seeds takes the shifted rows of
        the degree below as they are, and in a seeded degree they go first,
        so one elimination (``rref_basis``) files them with no reduction and
        reduces only the seeds against them.  The results are canonical and
        closed under u.
        """
        _check_degrees(ambient, seeds, "seed")
        bases: Dict[int, BitMatrix] = {}
        image: Sequence[int] = ()
        for n in range(ambient.D + 1):
            width = ambient.dim(n)
            if n:
                s = width - ambient.dim(n - 1)
                image = [r << s for r in bases[n - 1].row_ints()]
            seed = seeds.get(n, ())
            if any(v < 0 or v >> width for v in seed):
                raise ValueError(f"seed out of range for {width} columns in degree {n}")
            if seed:
                bases[n] = rref_basis([*image, *seed], width)
            else:
                bases[n] = BitMatrix(len(image), width, tuple(image))
                bases[n]._rank = len(image)
        X = cls()  # the bases are canonical and closed under u as built
        X.ambient, X.bases = ambient, bases
        return X

    def dim(self, n: int) -> int:
        return self.bases[n].nrows

    def subspace(self, n: int) -> Subspace:
        return Subspace(self.ambient.dim(n), self.bases[n])

    def __eq__(self, other):
        if not isinstance(other, GradedSubspace):
            return NotImplemented
        return self.ambient.dims == other.ambient.dims and self.bases == other.bases

    def __hash__(self):
        return hash(tuple(sorted(self.bases.items())))


def _check_degrees(ambient: FuluModule, keyed: Dict[int, object], what: str) -> None:
    """Refuse an ambient that is no scalar extension, and keys outside 0..D."""
    if not isinstance(ambient, ExtendedModule):
        raise ValueError(f"graded u-subspaces need a scalar-extension ambient, not {ambient.name}")
    for n in keyed:
        if not 0 <= n <= ambient.D:
            raise ValueError(f"{what} degree {n} outside 0..{ambient.D}")


def saturation_check(X: GradedSubspace) -> Verdict:
    """u-divisibility closure: u y in X and y ambient imply y in X.

    This is the truncation-sized form of the cartesian-square condition;
    the equivalence with the generator-space condition is property-tested.
    X^n lies in u^-1 X^{n+1} because X is closed under u, so degree n is
    saturated exactly when the two have the same dimension.  The witness of
    a failing degree is the first vector of the canonical basis of
    u^-1 X^{n+1} that lies outside X^n.
    """
    amb = X.ambient
    _check_degrees(amb, X.bases, "basis")
    for n in range(amb.D):
        pre = _larger_preimage(X, n)
        if pre is None:
            continue
        target = X.subspace(n)
        v = next(v for v in pre.row_ints() if not target.contains_vector(v))
        witness = _sum_label(amb.labels[n], v)
        return Verdict(False, amb.D, f"degree {n}: u*({witness}) lies in X but {witness} does not")
    return Verdict(True, amb.D)


def _larger_preimage(X: GradedSubspace, n: int) -> Optional[BitMatrix]:
    """The canonical rref basis of u^-1 X^{n+1} in degree n, or None when
    it is no larger than X^n.

    u shifts every row by s = dims[n + 1] - dims[n] and is injective, so
    its image is the span of the bits >= s.  A vector of X^{n+1} has its
    bit at each pivot as its coefficient on that pivot's row, so those with
    no bit below s are the combinations of the rows pivoting at s or above.
    Shifted down by s, those rows keep their pivot order and reduced form:
    they are the canonical basis, and their count is its dimension.
    """
    amb = X.ambient
    s = amb.dims[n + 1] - amb.dims[n]
    rows = tuple(r >> s for r in X.bases[n + 1].row_ints() if not r & ((1 << s) - 1))
    return BitMatrix(len(rows), amb.dims[n], rows) if len(rows) != X.dim(n) else None


@dataclass
class GeneratorSpace:
    w_bases: Dict[int, BitMatrix]
    eps_image_injective: Verdict


def generator_space(X: GradedSubspace) -> GeneratorSpace:
    """A deterministic graded generator space (a lift of the u-indecomposables).

    In each degree, the rows of X^n are walked in order and a row is picked
    when it lies outside u X^{n-1} plus the rows picked before it: one lead
    table is filled with u X^{n-1}, the shifted rows of X^{n-1}, and then
    with the rows of X^n (``_file_rows``).  The injectivity verdict tests
    the composite with the augmentation, which keeps the u^0 block, which
    comes first, so it is a mask of the low bits, and its rank is one
    forward pass.  Both stay a complement and a rank of the picked rows, as
    on any basis of X: read off the pivots of X, as saturation is, the
    criterion would restate saturation, and T14 would compare it with
    itself.
    """
    amb = X.ambient
    _check_degrees(amb, X.bases, "basis")
    w_bases: Dict[int, BitMatrix] = {}
    witness = None
    for n in range(amb.D + 1):
        width = amb.dim(n)
        lead, picked = [0] * (width + 1), []
        if n:
            s = width - amb.dim(n - 1)
            _file_rows(lead, [r << s for r in X.bases[n - 1].row_ints()])
        _file_rows(lead, X.bases[n].row_ints(), picked)
        w_bases[n] = BitMatrix(len(picked), width, tuple(picked))
        if witness is None:
            low = amb.block(n, 0)[1]
            eps = BitMatrix(len(picked), low, tuple(r & ((1 << low) - 1) for r in picked))
            if rank(eps) != len(picked):
                witness = f"augmentation image drops rank in degree {n}"
    return GeneratorSpace(w_bases, Verdict(witness is None, amb.D, witness))


# -- relative tensor product -----------------------------------------------------


@dataclass
class OverFulu:
    """Tensor product over the polynomial algebra, with presentation data.

    ``module`` is the quotient of the tensor product, with u (x) 1 as its
    u, by the two-sided-u relations; ``proj`` projects onto it (basis
    vector k of degree n is represented by the unit vector at
    ``proj.rep_cols[n][k]``), and ``tensor_module``/``layout`` describe the
    ambient tensor product, whose action and labels are built on first read.
    """

    module: FuluModule
    tensor_module: FuluModule
    layout: TensorLayout
    proj: Quotient
    relation_bases: Dict[int, BitMatrix]


def _one_sided_u(N1: FuluModule, N2: FuluModule, T: TruncatedModule,
                 layout: TensorLayout, left: bool) -> Dict[int, BitMatrix]:
    """Matrices of u (x) 1 (left) or 1 (x) u (right) on the tensor product:
    on the block of left degree p, the Kronecker rows of u on N1^p with the
    unit vectors of N2^q, or of the unit vectors of N1^p with u on N2^q."""
    mats = {}
    for n in range(T.D):
        rows: List[int] = []
        for p, _, _ in layout.blocks(n):
            q = n - p
            if left:
                units = [1 << j for j in range(N2.dims[q])]
                rows.extend(layout.kron_rows(n + 1, p + 1, N1.u_mat(p).row_ints(), units))
            else:
                units = [1 << i for i in range(N1.dims[p])]
                rows.extend(layout.kron_rows(n + 1, p, units, N2.u_mat(q).row_ints()))
        mats[n] = BitMatrix(len(rows), T.dims[n + 1], tuple(rows))
    return mats


def tensor_over_fulu(N1: FuluModule, N2: FuluModule) -> OverFulu:
    """Coequalize the two u-actions on the tensor product.

    The relation subspace is spanned degreewise by u x (x) y + x (x) u y;
    it is stable under the squaring action and under u (x) 1, which the
    quotient inherits as its (one-sided, hence diagonal) multiplication.
    """
    plain, layout = tensor_with_layout(N1, N2)
    u_left = _one_sided_u(N1, N2, plain, layout, left=True)
    u_right = _one_sided_u(N1, N2, plain, layout, left=False)
    T = FuluModule(plain.name, plain.D, plain.dims, lambda: dict(plain.action_items()),
                   lambda: plain.labels, u=u_left)
    rel: Dict[int, BitMatrix] = {0: BitMatrix.zeros(0, T.dims[0])}
    for n in range(T.D):
        rel[n + 1] = Subspace.from_rows(u_left[n] + u_right[n]).basis
    q = quotient(T, rel, f"{N1.name}(xFu){N2.name}")
    return OverFulu(q.target, T, layout, q, rel)
