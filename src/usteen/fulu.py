"""Polynomial-generator modules inside unstable modules.

A ``FuluModule`` is a truncated unstable module together with a degree-one
multiplication ``u``.  Compatibility with the squaring operations is the
Cartan-twisted rule Sq^i(u x) = u Sq^i(x) + u^2 Sq^{i-1}(x), which is exactly
the statement that multiplication is a module-structure morphism.

The polynomial-ring lemmas here (saturation, generator spaces, freeness) are
pure graded u-module statements, so the checks also accept graded subspaces
that are not stable under the squaring operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .f2core import BitMatrix, Subspace, express_in_rowspace, left_kernel, rref
from .unstable import (
    ModuleMap,
    Quotient,
    TensorLayout,
    TheoryViolation,
    TruncatedModule,
    TruncationError,
    ValidationReport,
    Verdict,
    _coker_data,
    _sum_label,
    polynomial_module,
    quotient,
    submodule,
    subquotient,
    tensor_with_layout,
)


class FuluModule:
    """A truncated unstable module with a degree-one u-multiplication."""

    __slots__ = ("underlying", "_u", "name")

    def __init__(self, underlying: TruncatedModule, u_mats: Dict[int, BitMatrix],
                 name: Optional[str] = None):
        for n, m in u_mats.items():
            if n < 0 or n + 1 > underlying.D:
                raise ValueError(f"u-action key {n} outside range")
            if (m.nrows, m.ncols) != (underlying.dims[n], underlying.dims[n + 1]):
                raise ValueError(f"u-action at degree {n} has wrong shape")
        self.underlying = underlying
        self._u = {n: m for n, m in u_mats.items() if not m.is_zero()}
        self.name = name or underlying.name

    @property
    def D(self) -> int:
        return self.underlying.D

    @property
    def dims(self) -> Tuple[int, ...]:
        return self.underlying.dims

    @property
    def labels(self):
        return self.underlying.labels

    def dim(self, n: int) -> int:
        return self.underlying.dim(n)

    def sq(self, i: int, n: int) -> BitMatrix:
        return self.underlying.sq(i, n)

    def u_mat(self, n: int) -> BitMatrix:
        if n < 0:
            return BitMatrix.zeros(0, self.dim(n + 1))
        if n + 1 > self.D:
            raise TruncationError(f"{self.name}: u on degree {n} beyond truncation")
        got = self._u.get(n)
        if got is not None:
            return got
        return BitMatrix.zeros(self.dims[n], self.dims[n + 1])

    def validate(self) -> ValidationReport:
        """Underlying axioms plus the Cartan-twisted u-compatibility."""
        report = self.underlying.validate()
        for i in range(1, self.D):
            for n in range(0, self.D - i):
                lhs = self.u_mat(n) @ self.sq(i, n + 1)
                rhs = self.sq(i, n) @ self.u_mat(n + i)
                if i >= 2:
                    rhs = rhs + self.sq(i - 1, n) @ self.u_mat(n + i - 1) @ self.u_mat(n + i)
                else:
                    rhs = rhs + self.u_mat(n) @ self.u_mat(n + 1)
                if lhs != rhs:
                    report.add(f"u-multiplication not Cartan-compatible at (i={i}, n={n})")
        return report

    def __eq__(self, other):
        if not isinstance(other, FuluModule):
            return NotImplemented
        return self.underlying == other.underlying and all(
            self.u_mat(n) == other.u_mat(n) for n in range(self.D)
        )

    def __hash__(self):
        return hash(self.underlying)

    def __repr__(self):
        return f"FuluModule({self.name}, D={self.D}, dims={list(self.dims)})"


class FuluMap:
    """A map of u-modules: an A-linear map commuting with u degreewise."""

    __slots__ = ("source", "target", "mmap", "name")

    def __init__(self, source: FuluModule, target: FuluModule,
                 mats: Dict[int, BitMatrix], D: Optional[int] = None, name: str = ""):
        self.source = source
        self.target = target
        self.mmap = ModuleMap(source.underlying, target.underlying, mats, D=D, name=name)
        self.name = name

    @property
    def D(self) -> int:
        return self.mmap.D

    def mat(self, n: int) -> BitMatrix:
        return self.mmap.mat(n)

    def validate(self) -> ValidationReport:
        report = self.mmap.validate_linear()
        for n in range(self.D):
            lhs = self.source.u_mat(n) @ self.mat(n + 1)
            rhs = self.mat(n) @ self.target.u_mat(n)
            if lhs != rhs:
                report.add(f"not u-equivariant at degree {n}")
        return report

    def then(self, other: "FuluMap") -> "FuluMap":
        comp = self.mmap.then(other.mmap)
        return FuluMap(self.source, other.target,
                       {n: comp.mat(n) for n in range(comp.D + 1)}, D=comp.D)

    def __repr__(self):
        return f"FuluMap({self.source.name} -> {self.target.name}, D={self.D})"


def fulu_algebra(D: int) -> FuluModule:
    """The rank-one polynomial algebra itself, with u acting by the shift."""
    mod = polynomial_module(1, D, varnames=("u",), name="F[u]")
    u_mats = {n: BitMatrix.identity(1) for n in range(D)}
    return FuluModule(mod, u_mats, name="F[u]")


class ExtendedModule(FuluModule):
    """Scalar extension of an unstable module, with index bookkeeping.

    Basis vectors are pairs (u-power a, basis element of the base in degree
    n - a), blocks keyed by a and ordered by increasing a.
    """

    __slots__ = ("base", "layout")

    def __init__(self, base: TruncatedModule, underlying: TruncatedModule,
                 layout: TensorLayout, u_mats: Dict[int, BitMatrix], name: str):
        super().__init__(underlying, u_mats, name=name)
        self.base = base
        self.layout = layout

    def index(self, n: int, a: int, j: int) -> int:
        """Flat index of u^a times the j-th base vector of degree n - a."""
        return self.layout.table.offset(n, a) + j

    def block(self, n: int, a: int) -> Tuple[int, int]:
        """(offset, width) of the u^a block in degree n; (0, 0) if empty."""
        return self.layout.table.block(n, a)

    def decode(self, n: int, flat: int) -> Tuple[int, int]:
        """Inverse of ``index``: flat position -> (u-power, base index)."""
        return self.layout.table.decode(n, flat)

    def eps_mat(self, n: int) -> BitMatrix:
        """Augmentation: kill positive u-powers, keep the u^0 coefficients."""
        rows = [0] * self.dim(n)
        off, width = self.block(n, 0)
        for j in range(width):
            rows[off + j] = 1 << j
        return BitMatrix.from_row_ints(rows, self.base.dim(n))

    def unit_mat(self, n: int) -> BitMatrix:
        """Embedding of the base as the u^0 block."""
        off, width = self.block(n, 0)
        rows = [1 << (off + j) for j in range(width)]
        return BitMatrix.from_row_ints(rows, self.dim(n))


def extend_scalars(M: TruncatedModule, name: Optional[str] = None) -> ExtendedModule:
    """Tensor with the rank-one polynomial algebra; u acts by the shift."""
    fu = fulu_algebra(M.D)
    underlying, layout = tensor_with_layout(fu.underlying, M, name=name or f"Fu(x){M.name}")
    u_mats: Dict[int, BitMatrix] = {}
    for n in range(M.D):
        rows = [0] * underlying.dims[n]
        for a, off, width in layout.blocks(n):
            toff = layout.offset(n + 1, a + 1)
            for j in range(width):
                rows[off + j] = 1 << (toff + j)
        u_mats[n] = BitMatrix.from_row_ints(rows, underlying.dims[n + 1])
    return ExtendedModule(M, underlying, layout, u_mats, name or f"Fu(x){M.name}")


def extend_scalars_map(f: ModuleMap, src: ExtendedModule, tgt: ExtendedModule,
                       name: str = "") -> FuluMap:
    """The induced map on scalar extensions (block-diagonal over u-powers)."""
    D = min(src.D, tgt.D, f.D)
    mats = {}
    for n in range(D + 1):
        rows = []
        for a, _, _ in src.layout.blocks(n):
            toff = tgt.block(n, a)[0]
            rows.extend(r << toff for r in f.mat(n - a).row_ints())
        mats[n] = BitMatrix.from_row_ints(rows, tgt.dim(n))
    return FuluMap(src, tgt, mats, D=D, name=name)


# -- indecomposables -----------------------------------------------------------


def q_data(N: FuluModule, name: Optional[str] = None) -> Quotient:
    """The quotient by the image of u, with projection and representative data."""
    images = [BitMatrix.zeros(0, N.dim(0))] + [
        Subspace.from_rows(N.u_mat(n - 1)).basis for n in range(1, N.D + 1)
    ]
    return quotient(N.underlying, images, name or f"Q({N.name})")


def indecomposables(N: FuluModule) -> TruncatedModule:
    """The quotient by the image of u, with its induced action."""
    return q_data(N).module


def q_of_map(f: FuluMap, qsrc: Quotient, qtgt: Quotient) -> ModuleMap:
    """The map induced on indecomposables."""
    D = min(f.D, qsrc.module.D, qtgt.module.D)
    mats = {
        n: qsrc.rep_mats[n] @ f.mat(n) @ qtgt.proj_mats[n] for n in range(D + 1)
    }
    return ModuleMap(qsrc.module, qtgt.module, mats, D=D)


# -- freeness -------------------------------------------------------------------


@dataclass
class FreenessReport:
    torsion_free: Verdict
    free_basis: Optional[List[List[str]]]

    @property
    def basis_dims(self) -> Optional[List[int]]:
        if self.free_basis is None:
            return None
        return [len(b) for b in self.free_basis]


def freeness_report(N) -> FreenessReport:
    """Torsion verdict, plus an extracted basis in the connected case.

    ``N`` needs ``dim``, ``u_mat``, ``labels`` and ``D``; torsion-freeness is
    injectivity of u in every certified degree.  For connected modules
    (degree-0 dimension at most one) torsion-free is equivalent to free and
    a graded basis is produced by lifting the u-indecomposables.
    """
    D = N.D
    witness = None
    for n in range(D):
        ker = left_kernel(N.u_mat(n))
        if ker.dim:
            witness = f"u kills {_sum_label(N.labels[n], ker.basis.row_int(0))} in degree {n}"
            break
    torsion_free = Verdict(witness is None, D, witness)
    if not torsion_free.ok or N.dim(0) > 1:
        return FreenessReport(torsion_free, None)
    basis: List[List[str]] = []
    for n in range(D + 1):
        image = Subspace.from_rows(N.u_mat(n - 1)).basis if n >= 1 else BitMatrix.zeros(0, N.dim(0))
        pivots = {(r & -r).bit_length() - 1 for r in image.row_ints()}
        basis.append([N.labels[n][c] for c in range(N.dim(n)) if c not in pivots])
    return FreenessReport(torsion_free, basis)


# -- graded u-submodules of an ambient module -----------------------------------


class GradedSubspace:
    """A graded subspace of a u-module, closed under multiplication by u."""

    __slots__ = ("ambient", "bases")

    def __init__(self, ambient: FuluModule, bases: Dict[int, BitMatrix],
                 check_u_closed: bool = True):
        full = {}
        for n in range(ambient.D + 1):
            b = bases.get(n)
            if b is None:
                full[n] = BitMatrix.zeros(0, ambient.dim(n))
            else:
                if b.ncols != ambient.dim(n):
                    raise ValueError(f"basis width mismatch at degree {n}")
                full[n] = Subspace.from_rows(b).basis
        if check_u_closed:
            for n in range(ambient.D):
                img = full[n] @ ambient.u_mat(n)
                if express_in_rowspace(full[n + 1], img) is None:
                    raise ValueError(f"not closed under u at degree {n}")
        self.ambient = ambient
        self.bases = full

    @classmethod
    def from_vectors(cls, ambient: FuluModule, seeds: Dict[int, Sequence[int]]) -> "GradedSubspace":
        """The u-submodule generated by int-packed seed vectors."""
        rows: Dict[int, List[int]] = {n: [] for n in range(ambient.D + 1)}
        for n, vecs in seeds.items():
            rows[n].extend(vecs)
        bases: Dict[int, BitMatrix] = {}
        for n in range(ambient.D + 1):
            mat = BitMatrix.from_row_ints(rows[n], ambient.dim(n))
            if n > 0:
                mat = mat.stack(bases[n - 1] @ ambient.u_mat(n - 1))
            bases[n] = Subspace.from_rows(mat).basis
        return cls(ambient, bases, check_u_closed=False)

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


def saturation_check(X: GradedSubspace) -> Verdict:
    """u-divisibility closure: u y in X and y ambient imply y in X.

    This is the truncation-sized form of the cartesian-square condition;
    the equivalence with the generator-space condition is property-tested.
    """
    amb = X.ambient
    for n in range(amb.D):
        proj, _, _ = _coker_data(X.bases[n + 1], amb.dim(n + 1))
        pre = left_kernel(amb.u_mat(n) @ proj)
        target = X.subspace(n)
        for r in range(pre.dim):
            v = pre.basis.row_int(r)
            if not target.contains_vector(v):
                witness = _sum_label(amb.labels[n], v)
                return Verdict(False, amb.D, f"degree {n}: u*({witness}) lies in X but {witness} does not")
    return Verdict(True, amb.D)


@dataclass
class GeneratorSpace:
    w_bases: Dict[int, BitMatrix]
    eps_image_injective: Verdict

    def dims(self) -> List[int]:
        return [b.nrows for b in self.w_bases.values()]


def generator_space(X: GradedSubspace) -> GeneratorSpace:
    """A deterministic graded generator space (a lift of the u-indecomposables).

    The injectivity verdict tests the composite with the augmentation; the
    ambient must be a scalar extension so the augmentation is available.
    """
    amb = X.ambient
    if not isinstance(amb, ExtendedModule):
        raise ValueError("generator spaces need a scalar-extension ambient")
    w_bases: Dict[int, BitMatrix] = {}
    ok = True
    witness = None
    for n in range(amb.D + 1):
        u_image = (X.bases[n - 1] @ amb.u_mat(n - 1)) if n >= 1 else BitMatrix.zeros(0, amb.dim(n))
        elim = Subspace.from_rows(u_image)
        picked = []
        for r in range(X.bases[n].nrows):
            v = X.bases[n].row_int(r)
            if not elim.contains_vector(v):
                picked.append(v)
                elim = elim.sum(Subspace.from_rows(BitMatrix.from_row_ints([v], amb.dim(n))))
        w_bases[n] = BitMatrix.from_row_ints(picked, amb.dim(n))
        if ok:
            image = w_bases[n] @ amb.eps_mat(n)
            if rref(image).rank != len(picked):
                ok = False
                witness = f"augmentation image drops rank in degree {n}"
    return GeneratorSpace(w_bases, Verdict(ok, amb.D, witness))


class UQuotient:
    """A graded u-module presented as a quotient (no squaring action kept)."""

    __slots__ = ("D", "dims", "labels", "_u", "name")

    def __init__(self, D, dims, labels, u_mats, name="quotient"):
        self.D = D
        self.dims = tuple(dims)
        self.labels = labels
        self._u = u_mats
        self.name = name

    def dim(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.D:
            raise TruncationError("degree beyond truncation")
        return self.dims[n]

    def u_mat(self, n: int) -> BitMatrix:
        return self._u[n]


def quotient_u_module(X: GradedSubspace, name: Optional[str] = None) -> UQuotient:
    """The ambient modulo X, as a graded u-module."""
    amb = X.ambient
    name = name or f"({amb.name})/X"
    # X need not be stable under the squares, so none are carried over
    space = TruncatedModule(amb.name, amb.D, amb.dims, {}, amb.labels)
    q = quotient(space, [X.bases[n] for n in range(amb.D + 1)], name)
    u_mats = {n: q.rep_mats[n] @ amb.u_mat(n) @ q.proj_mats[n + 1] for n in range(amb.D)}
    return UQuotient(amb.D, q.module.dims, q.module.labels, u_mats, name)


def restrict_fulu(ambient: FuluModule, bases: Dict[int, BitMatrix], name: str
                  ) -> Tuple[FuluModule, FuluMap]:
    """Realize a graded row-span as a u-module with its inclusion.

    The span must be stable under both the squaring action and u; violations
    raise :class:`TheoryViolation` since they contradict upstream structure.
    """
    mod, incl = submodule(ambient.underlying, bases, name)
    full = {n: incl.mat(n) for n in range(mod.D + 1)}
    u_mats = {}
    for n in range(mod.D):
        img = full[n] @ ambient.u_mat(n)
        coeffs = express_in_rowspace(full[n + 1], img)
        if coeffs is None:
            raise TheoryViolation(f"{name}: u escapes the subspace at degree {n}")
        u_mats[n] = coeffs
    sub = FuluModule(mod, u_mats, name=name)
    fincl = FuluMap(sub, ambient, {n: full[n] for n in range(mod.D + 1)}, name=f"{name} incl")
    return sub, fincl


@dataclass
class FuluSubquotient:
    kernel: FuluModule
    kernel_incl: FuluMap
    image: FuluModule
    image_incl: FuluMap
    factor: FuluMap
    cokernel: FuluModule
    coker_proj: FuluMap
    coker_reps: Dict[int, BitMatrix]


def fulu_subquotient(f: FuluMap) -> FuluSubquotient:
    """Kernel, image and cokernel in the category of u-modules."""
    base = subquotient(f.mmap)
    D = f.D
    src, tgt = f.source, f.target

    def attach_u(module: TruncatedModule, incl_mats, amb: FuluModule, what: str):
        u_mats = {}
        for n in range(module.D):
            img = incl_mats[n] @ amb.u_mat(n)
            coeffs = express_in_rowspace(incl_mats[n + 1], img)
            if coeffs is None:
                raise TheoryViolation(f"{what}: u escapes at degree {n}")
            u_mats[n] = coeffs
        return FuluModule(module, u_mats, name=module.name)

    ker_mats = {n: base.kernel_incl.mat(n) for n in range(D + 1)}
    kernel = attach_u(base.kernel, ker_mats, src, "kernel")
    kernel_incl = FuluMap(kernel, src, ker_mats, D=D)
    im_mats = {n: base.image_incl.mat(n) for n in range(D + 1)}
    image = attach_u(base.image, im_mats, tgt, "image")
    image_incl = FuluMap(image, tgt, im_mats, D=D)
    factor = FuluMap(src, image, {n: base.factor.mat(n) for n in range(D + 1)}, D=D)
    coker_u = {
        n: base.coker_reps[n] @ tgt.u_mat(n) @ base.coker_proj.mat(n + 1)
        for n in range(D)
    }
    cokernel = FuluModule(base.cokernel, coker_u, name=base.cokernel.name)
    coker_proj = FuluMap(tgt, cokernel, {n: base.coker_proj.mat(n) for n in range(D + 1)}, D=D)
    return FuluSubquotient(
        kernel, kernel_incl, image, image_incl, factor, cokernel, coker_proj,
        base.coker_reps,
    )


# -- relative tensor product -----------------------------------------------------


@dataclass
class OverFulu:
    """Tensor product over the polynomial algebra, with presentation data.

    ``module`` is the quotient of the plain tensor product by the
    two-sided-u relations; ``proj_mats``/``rep_mats`` present it and
    ``tensor_module``/``layout`` describe the ambient tensor product.
    """

    module: FuluModule
    tensor_module: TruncatedModule
    layout: TensorLayout
    proj_mats: Dict[int, BitMatrix]
    rep_mats: Dict[int, BitMatrix]
    relation_bases: Dict[int, BitMatrix]


def _one_sided_u(N1: FuluModule, N2: FuluModule, T: TruncatedModule,
                 layout: TensorLayout, left: bool) -> Dict[int, BitMatrix]:
    """Matrices of u (x) 1 (left) or 1 (x) u (right) on the tensor product."""
    mats = {}
    for n in range(T.D):
        rows = []
        for p, _, _ in layout.blocks(n):
            q = n - p
            for i in range(N1.dim(p)):
                for j in range(N2.dim(q)):
                    if left:
                        row = layout.tensor_row(n + 1, p + 1, N1.u_mat(p).row_int(i), 1 << j)
                    else:
                        row = layout.tensor_row(n + 1, p, 1 << i, N2.u_mat(q).row_int(j))
                    rows.append(row)
        mats[n] = BitMatrix.from_row_ints(rows, T.dims[n + 1])
    return mats


def tensor_over_fulu(N1: FuluModule, N2: FuluModule, name: Optional[str] = None) -> OverFulu:
    """Coequalize the two u-actions on the tensor product.

    The relation subspace is spanned degreewise by u x (x) y + x (x) u y;
    it is stable under the squaring action, and the induced u on the
    quotient is the (one-sided, hence diagonal) multiplication.
    """
    T, layout = tensor_with_layout(N1.underlying, N2.underlying)
    name = name or f"{N1.name}(xFu){N2.name}"
    u_left = _one_sided_u(N1, N2, T, layout, left=True)
    u_right = _one_sided_u(N1, N2, T, layout, left=False)
    rel: Dict[int, BitMatrix] = {0: BitMatrix.zeros(0, T.dims[0])}
    for n in range(T.D):
        rel[n + 1] = Subspace.from_rows(u_left[n] + u_right[n]).basis
    q = quotient(T, [rel[n] for n in range(T.D + 1)], name)
    u_mats = {n: q.rep_mats[n] @ u_left[n] @ q.proj_mats[n + 1] for n in range(T.D)}
    return OverFulu(FuluModule(q.module, u_mats, name=name), T, layout, q.proj_mats,
                    q.rep_mats, rel)
