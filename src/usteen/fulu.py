"""Polynomial-generator modules inside unstable modules.

A u-module is an ``unstable.FuluModule``: a truncated unstable module with a
degree-one multiplication ``u``, compatible with the squaring operations by
the Cartan-twisted rule Sq^i(u x) = u Sq^i(x) + u^2 Sq^{i-1}(x).  Its
submodules, kernels and quotients, and the maps between u-modules, are
those of ``unstable``, which carry u along with Sq.  This module holds what
is particular to F[u]: scalar extension, the indecomposables Q(N),
torsion, graded u-subspaces and the tensor product over F[u].

A scalar extension keeps its index bookkeeping in closed form: its dims
are prefix sums of the base's, its u-blocks are placed by them, and
constructing it builds no layout table and no second module.  On it u is
a shift: it moves every row of degree n by
dims[n + 1] - dims[n] bits, so products with u (``times_u``) build no
matrix, and u as a matrix is built only when something reads ``u_mat``.
Sq on rows of a scalar extension is the row Cartan sum ``sq_rows``, which
reads only the base's rows under Sq; ``unstable.submodule`` certifies a
u-submodule of a scalar extension through it, on its u-generators, so
ker(taubar) and the invariant ring build no action.  The shift also gives
graded u-subspaces of a scalar extension their closed forms: an unseeded degree
of ``GradedSubspace.from_vectors`` and the preimage of ``saturation_check``
are shifted rref bases, with no elimination.  Every quotient here is the
one projection operator of ``unstable.quotient``, read off canonical rref
bases: N/X for a graded u-subspace X, N/uN (``q_data``, a mask on a scalar
extension) and Q of N/X, which is Q(N) modulo the rows of X that pivot in
the lowest u-block (``q_of_quotient``).

The polynomial-ring lemmas here (saturation, generator spaces, torsion) are
pure graded u-module statements, so the checks also accept graded subspaces
that are not stable under the squaring operations.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .f2core import (
    BitMatrix,
    Subspace,
    complement_rows,
    left_kernel,
    rank,
)
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
        """``rows @ u_mat(n)``, by the shift."""
        shift = self._u_shift(n)
        if rows.ncols != self.dims[n]:
            raise ValueError("row width mismatch")
        return BitMatrix(rows.nrows, self.dims[n + 1], tuple([r << shift for r in rows.row_ints()]))

    def u_then(self, n: int, m: BitMatrix) -> BitMatrix:
        """``u_mat(n) @ m``, by the shift: u carries basis vector j of degree
        n to basis vector j + shift, so this is a row range of ``m``."""
        shift = self._u_shift(n)
        if m.nrows != self.dims[n + 1]:
            raise ValueError("row count mismatch")
        return m.take_rows(range(shift, self.dims[n + 1]))

    def _u_shift(self, n: int) -> int:
        """dims[n + 1] - dims[n], the bits u moves a row of degree n by."""
        if not 0 <= n < self.D:
            raise TruncationError(f"{self.name}: u on degree {n} outside 0..{self.D - 1}")
        return self.dims[n + 1] - self.dims[n]

    def sq_rows(self, k: int, n: int, rows: BitMatrix) -> BitMatrix:
        """``rows @ sq(k, n)``, by the row Cartan sum, which reads only the
        base's rows: the u^a block of the rows, as rows of M^{n-a}, goes
        through the base's ``sq_rows`` for Sq^{k-b} to the u^{a+b} block,
        for each b in ``_cartan_terms``."""
        if not 0 <= n <= n + k <= self.D:
            raise TruncationError(f"{self.name}: Sq^{k} on degree {n} outside 0..{self.D}")
        if rows.ncols != self.dims[n]:
            raise ValueError("row width mismatch")
        ints, base = rows.row_ints(), self.base
        out = [0] * rows.nrows
        for q, off, width, terms in self._cartan_terms(k, n):
            mask = (1 << width) - 1
            parts = [(r >> off) & mask for r in ints]
            if not any(parts):
                continue
            part = BitMatrix(rows.nrows, width, tuple(parts))
            for j, shift in terms:
                image = parts if j == 0 else base.sq_rows(j, q, part).row_ints()
                out = [x ^ (r << shift) for x, r in zip(out, image)]
        return BitMatrix(rows.nrows, self.dims[n + k], tuple(out))

    def _cartan_terms(self, k: int, n: int):
        """For each u^a block of degree n: (q, offset, width, terms), with
        q = n - a its base degree and terms the pairs (j, shift to the
        u^{a+b} block of degree n + k) over the b with C(a, b) odd, where
        j = k - b <= q is the square on M^q; j = 0 is the identity."""
        dims, start = self.dims, self.start
        for a, off, width in self.blocks(n):
            q = n - a
            terms = [(k - b, dims[n + k] - dims[q + k - b + start])
                     for b in range(max(0, k - q), min(k, a) + 1) if b & a == b]
            yield q, off, width, terms

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

    ``layer[d]`` lists the images of M's degree-d basis, as rows of ``tgt``
    in degree d, for d = 0..D.  The target is a scalar extension or its
    positive-u part: u^a carries its degree-(n - a) basis, in order, onto
    the last ``tgt.dims[n - a]`` vectors of degree n.  So the u^a block of
    ``src`` in degree n maps by ``layer[n - a]`` shifted by one offset;
    ``mat(n)`` is placed so when it is first read, and ``on_rows`` maps
    sparse rows with no matrix.  ``ranks`` holds the ranks a certificate
    has established (ker(taubar)'s records taubar's), which ``rank`` reads
    instead of eliminating.
    """

    def __init__(self, src: ExtendedModule, tgt: ExtendedModule, layer: Sequence[Sequence[int]],
                 name: str = ""):
        super().__init__(src, tgt, {}, D=len(layer) - 1, name=name)
        self.layer = layer
        self.ranks: Dict[int, int] = {}

    def on_rows(self, n: int, rows: Iterable[int]) -> List[int]:
        """The images of int-packed rows of degree n, one layer row per set
        bit: u^a times basis vector x of M goes to the layer row of x,
        shifted onto the target's u^a block.  For rows with few bits, such
        as u-generators, this costs less than one row of ``mat(n)``."""
        src, tgt, layer = self.source, self.target, self.layer
        out = []
        for r in rows:
            acc = 0
            while r:
                low = r & -r
                a, x = src.decode(n, low.bit_length() - 1)
                acc ^= layer[n - a][x] << (tgt.dims[n] - tgt.dims[n - a])
                r ^= low
            out.append(acc)
        return out

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


def u_linear_verdict(f: ModuleMap) -> Verdict:
    """A- and u-linearity of a map from F[u] (x) M to a scalar extension,
    certified on the u^0 layer of its source.

    Both ends satisfy Sq^k(u^a y) = sum_b C(a, b) u^{a+b} Sq^{k-b} y for
    every y.  So once f commutes with u in every degree, f(Sq^k(u^a x)) and
    Sq^k f(u^a x) expand to the same sum over b as soon as f commutes with
    every Sq^j on the u^0 layer, a copy of M.  That layer is an A-submodule
    of the source and the Sq^{2^i} generate A, so k = 2^i suffice there:
    ``M.sq(k, d) @ layer[d + k] == tgt.sq_rows(k, d, layer[d])``.
    A-linearity implies that the image of f is closed under Sq and u.

    u on both ends is the shift (``u_then`` and ``times_u``), and Sq on the
    target is the row Cartan sum, so neither u nor the target's action is
    built.
    """
    src, tgt, D = f.source, f.target, f.D
    if not (isinstance(src, ExtendedModule) and src.start == 0 and isinstance(tgt, ExtendedModule)):
        raise ValueError("u_linear_verdict needs a map from F[u] (x) M to a scalar extension")
    for n in range(D):
        if src.u_then(n, f.mat(n + 1)) != tgt.times_u(n, f.mat(n)):
            return Verdict(False, D, f"not u-equivariant at degree {n}")
    M = src.base
    layer = [f.mat(d).take_rows(range(M.dims[d])) for d in range(D + 1)]
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
    ``qsrc``, a row selection, then the projection ``qtgt``."""
    D = min(f.D, qsrc.D, qtgt.D)
    mats = {n: qtgt.apply(n, f.mat(n).take_rows(qsrc.rep_cols[n])) for n in range(D + 1)}
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


# -- graded u-submodules of an ambient module -----------------------------------


class GradedSubspace:
    """A graded subspace of a u-module, closed under multiplication by u.

    ``bases[n]`` is the canonical rref basis of degree n, for n = 0..D.
    """

    __slots__ = ("ambient", "bases")

    def __init__(self, ambient: FuluModule, bases: Dict[int, BitMatrix]):
        _check_degrees(ambient, bases, "basis")
        full = {}
        for n in range(ambient.D + 1):
            b = bases.get(n)
            if b is None:
                full[n] = BitMatrix.zeros(0, ambient.dim(n))
            else:
                if b.ncols != ambient.dim(n):
                    raise ValueError(f"basis width mismatch at degree {n}")
                full[n] = Subspace.from_rows(b).basis
        for n in range(ambient.D):
            target = Subspace(ambient.dim(n + 1), full[n + 1])
            if not all(map(target.contains_vector, ambient.times_u(n, full[n]).row_ints())):
                raise ValueError(f"not closed under u at degree {n}")
        self.ambient = ambient
        self.bases = full

    @classmethod
    def from_vectors(cls, ambient: FuluModule, seeds: Dict[int, Sequence[int]]) -> "GradedSubspace":
        """The u-submodule generated by int-packed seed vectors.

        Degree by degree the seeds and u times the previous degree are
        eliminated once; the results are canonical and closed under u.  On
        a scalar extension u is an injective shift, which carries a
        canonical basis to a canonical basis, so a degree without seeds
        takes u times the previous basis as it is.
        """
        _check_degrees(ambient, seeds, "seed")
        shifts = isinstance(ambient, ExtendedModule)
        bases: Dict[int, BitMatrix] = {}
        for n in range(ambient.D + 1):
            seed = seeds.get(n)
            if n > 0 and shifts and not seed:
                bases[n] = ambient.times_u(n - 1, bases[n - 1])
                continue
            mat = BitMatrix.from_row_ints(seed or (), ambient.dim(n))
            if n > 0:
                mat = mat.stack(ambient.times_u(n - 1, bases[n - 1]))
            bases[n] = Subspace.from_rows(mat).basis
        X = cls.__new__(cls)  # the bases are canonical and closed under u as built
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
    proj = None if isinstance(amb, ExtendedModule) else quotient(amb, X.bases, f"({amb.name})/X")
    for n in range(amb.D):
        pre = _larger_preimage(X, n, proj)
        if pre is None:
            continue
        target = X.subspace(n)
        v = next(v for v in pre.row_ints() if not target.contains_vector(v))
        witness = _sum_label(amb.labels[n], v)
        return Verdict(False, amb.D, f"degree {n}: u*({witness}) lies in X but {witness} does not")
    return Verdict(True, amb.D)


def _larger_preimage(X: GradedSubspace, n: int, proj: Optional[Quotient]) -> Optional[BitMatrix]:
    """The canonical rref basis of u^-1 X^{n+1} in degree n, or None when
    it is no larger than X^n; ``proj`` is the projection onto the ambient
    modulo X, or None on a scalar extension.

    On a scalar extension u shifts every row by s = dims[n + 1] - dims[n]
    and is injective, so its image is the span of the bits >= s.  A vector
    of X^{n+1} has its bit at each pivot as its coefficient on that pivot's
    row, so those with no bit below s are the combinations of the rows
    pivoting at s or above.  Shifted down by s, those rows keep their pivot
    order and reduced form: they are the canonical basis, and their count
    is its dimension.  On any other ambient the preimage is the kernel of
    u followed by ``proj``; its dimension comes from a rank, and the kernel
    is taken only when larger.
    """
    amb = X.ambient
    if proj is None:
        s = amb.dims[n + 1] - amb.dims[n]
        rows = tuple(r >> s for r in X.bases[n + 1].row_ints() if not r & ((1 << s) - 1))
        return BitMatrix(len(rows), amb.dims[n], rows) if len(rows) != X.dim(n) else None
    u_mod = proj.apply(n + 1, amb.u_mat(n))
    if amb.dim(n) - rank(u_mod) == X.dim(n):
        return None
    return left_kernel(u_mod).basis


@dataclass
class GeneratorSpace:
    w_bases: Dict[int, BitMatrix]
    eps_image_injective: Verdict


def generator_space(X: GradedSubspace) -> GeneratorSpace:
    """A deterministic graded generator space (a lift of the u-indecomposables).

    In each degree, the rows of X^n are walked in order and a row is picked
    when it lies outside u X^{n-1} plus the rows picked before it.  The
    injectivity verdict tests the composite with the augmentation; the
    ambient must be a scalar extension so the augmentation is available.
    The augmentation keeps the u^0 block, which comes first, so it is a
    selection of the first columns.
    """
    amb = X.ambient
    if not isinstance(amb, ExtendedModule):
        raise ValueError("generator spaces need a scalar-extension ambient")
    w_bases: Dict[int, BitMatrix] = {}
    witness = None
    for n in range(amb.D + 1):
        u_image = amb.times_u(n - 1, X.bases[n - 1]) if n >= 1 else BitMatrix.zeros(0, amb.dim(n))
        w_bases[n] = complement_rows(u_image, X.bases[n])
        if witness is None:
            augmented = w_bases[n].take_cols(range(amb.block(n, 0)[1]))
            if rank(augmented) != augmented.nrows:
                witness = f"augmentation image drops rank in degree {n}"
    return GeneratorSpace(w_bases, Verdict(witness is None, amb.D, witness))


def q_of_quotient(q_amb: Quotient, X: GradedSubspace) -> Quotient:
    """The projection Q(N) -> Q(N/X) for a graded u-subspace X of a scalar
    extension N, read off the pivots of X: ``q_amb`` is ``q_data(N)``.

    Q is right exact, so Q(N/X) is Q(N) modulo the image of X.  Q(N) is
    the lowest u-block, the lowest bits, so that image is spanned by the
    rref rows of X whose pivot lies in the block, masked to it; the other
    rows vanish there.  The masked rows keep their pivots and their reduced
    form, and u is zero on Q(N), so they are the canonical bases of a
    graded u-subspace as they are, with no elimination.
    """
    amb = X.ambient
    bases = {}
    for n in range(amb.D + 1):
        width = amb.block(n, amb.start)[1]
        mask = (1 << width) - 1
        rows = tuple(r & mask for r in X.bases[n].row_ints() if r & mask)
        bases[n] = BitMatrix(len(rows), width, rows)
    return quotient(q_amb.target, bases, f"({q_amb.target.name})/X")


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
