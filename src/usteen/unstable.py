"""Degree-truncated unstable modules and their maps.

A module is stored as graded dimensions up to a truncation degree D together
with one GF(2) matrix per squaring operation and source degree.  Matrices act
on row vectors: ``sq(i, n)`` has shape (dim n, dim n+i) and row ``j`` is the
image of the j-th basis vector.  Everything is immutable; derived objects
carry their own certified truncation degree.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from . import steenrod
from .f2core import BitMatrix, RowReducer, Subspace, express_in_rowspace, left_kernel, rref


class TruncationError(Exception):
    """A query beyond the certified degree range."""


class DesuspensionError(ValueError):
    """Input is not a suspension; carries the witnessing degree."""

    def __init__(self, message: str, degree: int):
        super().__init__(message)
        self.degree = degree


class TheoryViolation(RuntimeError):
    """Computed data contradicts a structural identity that must hold."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of a bounded check, always together with its certified range."""

    ok: bool
    certified_degree: int
    witness: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class ValidationReport:
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def __repr__(self) -> str:
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport(\n  " + "\n  ".join(self.violations) + "\n)"


def _subspace_witness(a: "Subspace", b: "Subspace", labels: Sequence[str]) -> str:
    """A labeled vector in the symmetric difference of two subspaces."""
    for sub, other, side in ((a, b, "first"), (b, a, "second")):
        for i in range(sub.dim):
            v = sub.basis.row_int(i)
            if not other.contains_vector(v):
                return f"{_sum_label(labels, v)} (in the {side} side only)"
    return "subspaces agree"


def _sum_label(labels: Sequence[str], row: int, limit: int = 4) -> str:
    terms = []
    while row:
        low = row & -row
        terms.append(labels[low.bit_length() - 1])
        row ^= low
    if not terms:
        return "0"
    if len(terms) > limit:
        return "+".join(terms[:limit]) + f"+...({len(terms)} terms)"
    return "+".join(terms)


class TruncatedModule:
    """An unstable module known up to degree D with its full squaring action."""

    __slots__ = ("name", "D", "dims", "labels", "_act", "meta")

    def __init__(
        self,
        name: str,
        D: int,
        dims: Sequence[int],
        action: Dict[Tuple[int, int], BitMatrix],
        labels: Optional[Sequence[Sequence[str]]] = None,
        meta: Optional[dict] = None,
    ):
        if D < 0:
            raise ValueError("truncation degree must be non-negative")
        dims = tuple(int(d) for d in dims)
        if len(dims) != D + 1 or any(d < 0 for d in dims):
            raise ValueError("dims must list degrees 0..D")
        if labels is None:
            labels = tuple(
                tuple(f"e{n}.{j}" for j in range(dims[n])) for n in range(D + 1)
            )
        else:
            labels = tuple(tuple(ls) for ls in labels)
            if tuple(len(ls) for ls in labels) != dims:
                raise ValueError("labels must match dims")
        act: Dict[Tuple[int, int], BitMatrix] = {}
        for (i, n), m in action.items():
            if i < 1 or n < 0 or n + i > D:
                raise ValueError(f"action key ({i}, {n}) outside range")
            if (m.nrows, m.ncols) != (dims[n], dims[n + i]):
                raise ValueError(f"action ({i}, {n}) has wrong shape")
            if not m.is_zero():
                act[(i, n)] = m
        self.name = name
        self.D = D
        self.dims = dims
        self.labels = labels
        self._act = act
        self.meta = dict(meta) if meta else {}

    # -- access --------------------------------------------------------------

    def dim(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.D:
            raise TruncationError(f"{self.name}: degree {n} beyond truncation {self.D}")
        return self.dims[n]

    def label(self, n: int, j: int) -> str:
        return self.labels[n][j]

    def sq(self, i: int, n: int) -> BitMatrix:
        """Matrix of Sq^i on degree n (rows = images of basis vectors)."""
        if i < 0:
            raise ValueError("negative squaring operation")
        if n < 0:
            return BitMatrix.zeros(0, self.dim(n + i) if n + i >= 0 else 0)
        if n + i > self.D:
            raise TruncationError(
                f"{self.name}: Sq^{i} on degree {n} lands beyond truncation {self.D}"
            )
        if i == 0:
            return BitMatrix.identity(self.dims[n])
        got = self._act.get((i, n))
        if got is not None:
            return got
        return BitMatrix.zeros(self.dims[n], self.dims[n + i])

    def word_action(self, word: Sequence[int], n: int) -> BitMatrix:
        """Matrix of Sq^{i1}...Sq^{ik} on degree n (rightmost factor acts first)."""
        word = tuple(word)
        out = BitMatrix.identity(self.dim(n)) if not word else None
        deg = n
        for i in reversed(word):
            m = self.sq(i, deg)
            out = m if out is None else out @ m
            deg += i
        return out if out is not None else BitMatrix.identity(self.dim(n))

    def renamed(self, name: str) -> "TruncatedModule":
        return TruncatedModule(name, self.D, self.dims, dict(self._act), self.labels, self.meta)

    def action_items(self):
        return sorted(self._act.items())

    # -- validation ------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check instability and Adem coherence for every stored degree."""
        report = ValidationReport()
        for (i, n), m in sorted(self._act.items()):
            if i > n and not m.is_zero():
                report.add(f"instability violated at (i={i}, n={n})")
        for b in range(1, self.D + 1):
            for a in range(1, 2 * b):
                if a + b > self.D:
                    break
                nf = steenrod.adem_normal_form((a, b))
                for n in range(0, self.D - a - b + 1):
                    if self.dims[n] == 0:
                        continue
                    lhs = self.sq(b, n) @ self.sq(a, n + b)
                    rhs = BitMatrix.zeros(self.dims[n], self.dims[n + a + b])
                    for w in nf:
                        rhs = rhs + self.word_action(w, n)
                    if lhs != rhs:
                        report.add(
                            f"Adem coherence fails for Sq^{a}Sq^{b} on degree {n}"
                        )
        return report

    def __eq__(self, other: object) -> bool:
        """Structural equality: truncation, dims and action (labels are metadata)."""
        if not isinstance(other, TruncatedModule):
            return NotImplemented
        return (
            self.D == other.D
            and self.dims == other.dims
            and self._act == other._act
        )

    def __hash__(self) -> int:
        return hash((self.D, self.dims))

    def __repr__(self) -> str:
        return f"TruncatedModule({self.name}, D={self.D}, dims={list(self.dims)})"


class ModuleMap:
    """A degreewise linear map between truncated modules, meant to be A-linear."""

    __slots__ = ("source", "target", "D", "_mats", "name")

    def __init__(
        self,
        source: TruncatedModule,
        target: TruncatedModule,
        mats: Dict[int, BitMatrix],
        D: Optional[int] = None,
        name: str = "",
    ):
        self.D = min(source.D, target.D) if D is None else D
        if self.D > min(source.D, target.D):
            raise TruncationError("map certified beyond its modules")
        for n, m in mats.items():
            if n < 0 or n > self.D:
                raise ValueError(f"map degree {n} outside range")
            if (m.nrows, m.ncols) != (source.dims[n], target.dims[n]):
                raise ValueError(f"map matrix at degree {n} has wrong shape")
        self.source = source
        self.target = target
        self._mats = {n: m for n, m in mats.items() if not m.is_zero()}
        self.name = name

    @classmethod
    def identity(cls, module: TruncatedModule) -> "ModuleMap":
        return cls(
            module,
            module,
            {n: BitMatrix.identity(module.dims[n]) for n in range(module.D + 1)},
            name=f"id_{module.name}",
        )

    @classmethod
    def zero(cls, source: TruncatedModule, target: TruncatedModule) -> "ModuleMap":
        return cls(source, target, {})

    def mat(self, n: int) -> BitMatrix:
        if n < 0:
            return BitMatrix.zeros(0, 0)
        if n > self.D:
            raise TruncationError(f"map {self.name}: degree {n} beyond {self.D}")
        got = self._mats.get(n)
        if got is not None:
            return got
        return BitMatrix.zeros(self.source.dims[n], self.target.dims[n])

    def then(self, other: "ModuleMap") -> "ModuleMap":
        if other.source is not self.target and other.source != self.target:
            raise ValueError("maps are not composable")
        D = min(self.D, other.D)
        return ModuleMap(
            self.source,
            other.target,
            {n: self.mat(n) @ other.mat(n) for n in range(D + 1)},
            D=D,
        )

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        D = min(self.D, other.D)
        return ModuleMap(
            self.source,
            self.target,
            {n: self.mat(n) + other.mat(n) for n in range(D + 1)},
            D=D,
        )

    def validate_linear(self) -> ValidationReport:
        """A-linearity: f(Sq^i x) = Sq^i f(x) for every stored (i, n)."""
        report = ValidationReport()
        for i in range(1, self.D + 1):
            for n in range(0, self.D - i + 1):
                lhs = self.source.sq(i, n) @ self.mat(n + i)
                rhs = self.mat(n) @ self.target.sq(i, n)
                if lhs != rhs:
                    report.add(f"not A-linear at (i={i}, n={n})")
        return report

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModuleMap):
            return NotImplemented
        if self.D != other.D:
            return False
        return all(self.mat(n) == other.mat(n) for n in range(self.D + 1))

    def __hash__(self):
        return hash((self.D, self.source.dims, self.target.dims))

    def __repr__(self) -> str:
        return f"ModuleMap({self.source.name} -> {self.target.name}, D={self.D})"


class GradedLinearMap:
    """A map of underlying graded vector spaces (a dashed arrow).

    Not required to commute with the squaring operations; may shift degrees.
    ``mat(n)`` maps source degree n to target degree n + shift.
    """

    __slots__ = ("source", "target", "shift", "D", "_mats", "name")

    def __init__(self, source, target, mats: Dict[int, BitMatrix], shift: int = 0,
                 D: Optional[int] = None, name: str = ""):
        self.source = source
        self.target = target
        self.shift = shift
        self.D = D if D is not None else min(source.D, target.D - shift)
        for n, m in mats.items():
            tdim = target.dims[n + shift] if n + shift >= 0 else 0
            if (m.nrows, m.ncols) != (source.dims[n], tdim):
                raise ValueError(f"graded map matrix at degree {n} has wrong shape")
        self._mats = dict(mats)
        self.name = name

    def mat(self, n: int) -> BitMatrix:
        if n < 0:
            return BitMatrix.zeros(0, 0)
        if n > self.D:
            raise TruncationError(f"graded map degree {n} beyond {self.D}")
        if n + self.shift < 0:
            return BitMatrix.zeros(self.source.dims[n], 0)
        got = self._mats.get(n)
        if got is not None:
            return got
        return BitMatrix.zeros(self.source.dims[n], self.target.dims[n + self.shift])


# -- constructors -------------------------------------------------------------


def module_from_action(name, D, dims, action, labels=None, meta=None) -> TruncatedModule:
    return TruncatedModule(name, D, dims, action, labels, meta)


def unit_module(D: int) -> TruncatedModule:
    """The ground field in degree 0 (the free module on a degree-0 class)."""
    return TruncatedModule("F", D, [1] + [0] * D, {}, labels=[("1",)] + [()] * D)


def free_unstable(n: int, D: int, name: Optional[str] = None) -> TruncatedModule:
    """The free unstable module on one class of degree n, truncated at D.

    Basis in degree n + d: admissible words of degree d with excess <= n.
    The action concatenates, renormalizes and drops monomials of excess > n.
    """
    if n < 0:
        raise ValueError("generator degree must be non-negative")
    name = name or f"F({n})"
    words: Dict[int, List[steenrod.SqWord]] = {}
    index: Dict[int, Dict[steenrod.SqWord, int]] = {}
    dims = [0] * (D + 1)
    labels: List[List[str]] = [[] for _ in range(D + 1)]
    gen = f"i{n}"
    for m in range(n, D + 1):
        ws = [w for w in steenrod._admissible_words(m - n) if steenrod.excess_of(w) <= n]
        words[m] = ws
        index[m] = {w: j for j, w in enumerate(ws)}
        dims[m] = len(ws)
        labels[m] = [
            gen if not w else steenrod.AdmissibleMonomial(w).label() + f"({gen})"
            for w in ws
        ]
    action: Dict[Tuple[int, int], BitMatrix] = {}
    for m in range(n, D + 1):
        if not words[m]:
            continue
        for i in range(1, D - m + 1):
            rows = []
            for w in words[m]:
                row = 0
                for term in steenrod.adem_normal_form((i,) + w):
                    if steenrod.excess_of(term) <= n:
                        row |= 1 << index[m + i][term]
                rows.append(row)
            action[(i, m)] = BitMatrix.from_row_ints(rows, dims[m + i])
    return TruncatedModule(
        name, D, dims, action, labels,
        meta={"generator_degree": n, "basis_words": words},
    )


@lru_cache(maxsize=None)
def _monomials(r: int, d: int) -> Tuple[Tuple[int, ...], ...]:
    """Exponent tuples of total degree d in r variables, lex ascending.

    Cached per (r, d) and shared by every caller.
    """
    if r == 0:
        return ((),) if d == 0 else ()
    out = []
    for first in range(d + 1):
        for rest in _monomials(r - 1, d - first):
            out.append((first,) + rest)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _monomial_pos(r: int, d: int) -> Dict[Tuple[int, ...], int]:
    """Position of each monomial in ``_monomials(r, d)``; shared, not to be mutated."""
    return {m: i for i, m in enumerate(_monomials(r, d))}


def _mono_label(exps: Tuple[int, ...], varnames: Sequence[str]) -> str:
    parts = []
    for e, v in zip(exps, varnames):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


def _submasks(m: int):
    """All bitwise submasks of m (binomial-odd exponents by Lucas)."""
    s = m
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & m


def polynomial_module(r: int, D: int, varnames: Optional[Sequence[str]] = None,
                      name: Optional[str] = None) -> TruncatedModule:
    """The polynomial algebra on r degree-one generators, as an unstable module.

    This is the mod-2 cohomology of an elementary abelian group of rank r:
    Sq^k acts on a monomial through the total square of each variable,
    with binomials evaluated mod 2.
    """
    if r < 0:
        raise ValueError("rank must be non-negative")
    if varnames is None:
        varnames = ("t",) if r == 1 else tuple(f"t{i + 1}" for i in range(r))
    if len(varnames) != r:
        raise ValueError("need one variable name per generator")
    name = name or (f"H(V{r})" if r != 1 else "H(Z/2)")
    monos = {d: _monomials(r, d) for d in range(D + 1)}
    index = {d: _monomial_pos(r, d) for d in range(D + 1)}
    dims = [len(monos[d]) for d in range(D + 1)]
    labels = [[_mono_label(m, varnames) for m in monos[d]] for d in range(D + 1)]
    action: Dict[Tuple[int, int], BitMatrix] = {}
    for d in range(D + 1):
        if not monos[d]:
            continue
        for k in range(1, D - d + 1):
            rows = []
            for a in monos[d]:
                row = 0
                # Sq^k(t^a) = sum over c <= a (bitwise, by Lucas), |c| = k, of t^(a+c)
                for c in _compositions_submask(a, k):
                    tgt = tuple(ai + ci for ai, ci in zip(a, c))
                    row |= 1 << index[d + k][tgt]
                rows.append(row)
            action[(k, d)] = BitMatrix.from_row_ints(rows, dims[d + k])
    return TruncatedModule(
        name, D, dims, action, labels,
        meta={"rank": r, "varnames": tuple(varnames), "monomials": monos},
    )


def _compositions_submask(a: Tuple[int, ...], k: int) -> List[Tuple[int, ...]]:
    """Tuples c with sum k and each c_i a bitwise submask of a_i."""
    if not a:
        return [()] if k == 0 else []
    out = []
    for c0 in _submasks(a[0]):
        if c0 > k:
            continue
        for rest in _compositions_submask(a[1:], k - c0):
            out.append((c0,) + rest)
    return out


def truncate(M: TruncatedModule, D: int, name: Optional[str] = None) -> TruncatedModule:
    """Forget everything above degree D."""
    if D > M.D:
        raise TruncationError(f"cannot extend {M.name} from {M.D} to {D}")
    action = {(i, n): m for (i, n), m in M.action_items() if n + i <= D}
    return TruncatedModule(name or M.name, D, M.dims[: D + 1], action, M.labels[: D + 1])


def suspend(M: TruncatedModule, name: Optional[str] = None) -> TruncatedModule:
    """Degree shift by +1; action matrices are re-indexed unchanged."""
    name = name or f"S({M.name})"
    D = M.D + 1
    dims = (0,) + M.dims
    labels = [()] + [tuple(f"s({x})" for x in ls) for ls in M.labels]
    action = {(i, n + 1): m for (i, n), m in M.action_items()}
    return TruncatedModule(name, D, dims, action, labels)


def desuspend(M: TruncatedModule, name: Optional[str] = None) -> TruncatedModule:
    """Inverse degree shift; requires M to look like a suspension.

    The test is degree 0 emptiness plus vanishing top squares; the failing
    degree is reported otherwise.
    """
    if M.dim(0) != 0:
        raise DesuspensionError(f"{M.name} is nonzero in degree 0", 0)
    for n in range(1, M.D // 2 + 1):
        if not M.sq(n, n).is_zero():
            raise DesuspensionError(
                f"{M.name} has a non-vanishing top square on degree {n}", n
            )
    name = name or f"S^-1({M.name})"
    D = M.D - 1
    dims = M.dims[1:]
    labels = [tuple(f"ds({x})" for x in ls) for ls in M.labels[1:]]
    action = {(i, n - 1): m for (i, n), m in M.action_items()}
    return TruncatedModule(name, D, dims, action, labels)


def phi(M: TruncatedModule, name: Optional[str] = None) -> TruncatedModule:
    """The degree-doubling functor: even degrees carry M, odd degrees vanish.

    Even squares act through the original action, odd squares act as zero,
    so knowledge extends to degree 2D.
    """
    name = name or f"Ph({M.name})"
    D = 2 * M.D
    dims = [0] * (D + 1)
    labels: List[Tuple[str, ...]] = [()] * (D + 1)
    for n in range(M.D + 1):
        dims[2 * n] = M.dims[n]
        labels[2 * n] = tuple(f"ph({x})" for x in M.labels[n])
    action = {(2 * i, 2 * n): m for (i, n), m in M.action_items()}
    return TruncatedModule(name, D, dims, action, labels, meta={"base": M})


def sq0(M: TruncatedModule, phi_M: Optional[TruncatedModule] = None) -> ModuleMap:
    """The natural map from the doubled module, x -> Sq^{|x|} x."""
    phi_M = phi_M if phi_M is not None else phi(M)
    mats = {}
    for n in range(M.D // 2 + 1):
        mats[2 * n] = M.sq(n, n)
    return ModuleMap(phi_M, M, mats, D=M.D, name=f"Sq0_{M.name}")


class BlockLayout:
    """Where the blocks of a graded basis sit, computed once per object.

    ``widths[n]`` lists ``(key, width)`` pairs in flat order.  In degree n
    the nonempty blocks follow one another from offset 0, so the degree's
    dimension is the sum of their widths.  Offsets are dict lookups and
    ``decode`` is a bisection.
    """

    __slots__ = ("dims", "_blocks", "_where", "_starts")

    def __init__(self, widths: Iterable[Iterable[Tuple[Hashable, int]]]):
        dims, all_blocks, where, starts = [], [], [], []
        for row in widths:
            blocks = []
            off = 0
            for key, width in row:
                if width:
                    blocks.append((key, off, width))
                    off += width
            dims.append(off)
            all_blocks.append(tuple(blocks))
            where.append({key: (o, w) for key, o, w in blocks})
            starts.append([o for _, o, _ in blocks])
        self.dims = tuple(dims)
        self._blocks = all_blocks
        self._where = where
        self._starts = starts

    def blocks(self, n: int) -> Tuple[Tuple[Hashable, int, int], ...]:
        """Triples (key, offset, width) for the nonempty blocks of degree n."""
        return self._blocks[n]

    def block(self, n: int, key: Hashable) -> Tuple[int, int]:
        """(offset, width) of a block of degree n; (0, 0) if it is empty."""
        return self._where[n].get(key, (0, 0))

    def offset(self, n: int, key: Hashable) -> int:
        """Offset of a nonempty block of degree n; KeyError if it is empty."""
        return self._where[n][key][0]

    def decode(self, n: int, flat: int) -> Tuple[Hashable, int]:
        """Inverse of ``offset(n, key) + k``: flat position -> (key, k)."""
        if not 0 <= flat < self.dims[n]:
            raise IndexError(f"flat index {flat} not in degree {n}")
        key, off, _ = self._blocks[n][bisect_right(self._starts[n], flat) - 1]
        return key, flat - off


class TensorLayout:
    """Index bookkeeping for a two-factor tensor product.

    At degree n the basis is grouped in blocks keyed by the left degree p,
    for increasing p; within a block, pairs (i, j) are ordered with the
    right index fastest.
    """

    __slots__ = ("left_dims", "right_dims", "D", "table")

    def __init__(self, left_dims: Sequence[int], right_dims: Sequence[int], D: int):
        self.left_dims = tuple(left_dims)
        self.right_dims = tuple(right_dims)
        self.D = D
        nl, nr = len(self.left_dims), len(self.right_dims)
        self.table = BlockLayout(
            [(p, self.left_dims[p] * self.right_dims[n - p])
             for p in range(max(0, n - nr + 1), min(n, nl - 1) + 1)]
            for n in range(D + 1)
        )

    def blocks(self, n: int) -> Tuple[Tuple[int, int, int], ...]:
        """Triples (p, offset, width) for the nonempty blocks of degree n."""
        return self.table.blocks(n)

    def offset(self, n: int, p: int) -> int:
        return self.table.offset(n, p)

    def index(self, n: int, p: int, i: int, j: int) -> int:
        return self.table.offset(n, p) + i * self.right_dims[n - p] + j

    def tensor_row(self, n: int, p: int, left_row: int, right_row: int) -> int:
        """The flat row of degree n of left_row (x) right_row, for int-packed
        vectors of the left basis in degree p and the right one in n - p."""
        if not (left_row and right_row):
            return 0
        off = self.table.offset(n, p)
        stride = self.right_dims[n - p]
        out = 0
        while left_row:
            low = left_row & -left_row
            out |= right_row << (off + (low.bit_length() - 1) * stride)
            left_row ^= low
        return out


def tensor_with_layout(M: TruncatedModule, N: TruncatedModule,
                       name: Optional[str] = None) -> Tuple[TruncatedModule, TensorLayout]:
    """Tensor product with the Cartan-formula action, plus its index layout."""
    D = min(M.D, N.D)
    name = name or f"{M.name}(x){N.name}"
    layout = TensorLayout(M.dims[: D + 1], N.dims[: D + 1], D)
    dims = layout.table.dims
    labels = [
        tuple(
            f"[{M.labels[p][i]}|{N.labels[n - p][j]}]"
            for p, _, _ in layout.blocks(n)
            for i in range(M.dims[p])
            for j in range(N.dims[n - p])
        )
        for n in range(D + 1)
    ]
    action: Dict[Tuple[int, int], BitMatrix] = {}
    for n in range(D + 1):
        if dims[n] == 0:
            continue
        for k in range(1, D - n + 1):
            rows = [0] * dims[n]
            for p, off, _ in layout.blocks(n):
                q = n - p
                # Cartan formula: Sq^k = sum of Sq^a (x) Sq^(k-a)
                for a in range(max(0, k - q), min(k, p) + 1):
                    ma, nb = M.sq(a, p), N.sq(k - a, q)
                    if ma.is_zero() or nb.is_zero():
                        continue
                    for i in range(M.dims[p]):
                        ra = ma.row_int(i)
                        if not ra:
                            continue
                        for j in range(N.dims[q]):
                            rows[off + i * N.dims[q] + j] ^= layout.tensor_row(
                                n + k, p + a, ra, nb.row_int(j)
                            )
            action[(k, n)] = BitMatrix.from_row_ints(rows, dims[n + k])
    mod = TruncatedModule(name, D, dims, action, labels, meta={"layout": layout})
    return mod, layout


def tensor(M: TruncatedModule, N: TruncatedModule, name: Optional[str] = None) -> TruncatedModule:
    return tensor_with_layout(M, N, name)[0]


def direct_sum(mods: Sequence[TruncatedModule], name: Optional[str] = None,
               tags: Optional[Sequence[str]] = None) -> Tuple[TruncatedModule, List[Dict[int, int]]]:
    """Block direct sum; returns the module plus per-summand degree offsets.

    An offset is that of the summand's block, 0 where the block is empty.
    """
    if not mods:
        raise ValueError("need at least one summand")
    D = min(m.D for m in mods)
    if tags is None:
        tags = [""] * len(mods) if len(mods) == 1 else [f"[{k}]" for k in range(len(mods))]
    name = name or "(+)".join(m.name for m in mods)
    table = BlockLayout([(k, m.dims[n]) for k, m in enumerate(mods)] for n in range(D + 1))
    labels = [
        [tags[k] + x for k, _, _ in table.blocks(n) for x in mods[k].labels[n]]
        for n in range(D + 1)
    ]
    action: Dict[Tuple[int, int], BitMatrix] = {}
    for n in range(D + 1):
        for i in range(1, D - n + 1):
            rows = []
            for k, m in enumerate(mods):
                shift = table.block(n + i, k)[0]
                sub = m.sq(i, n)
                rows.extend((sub.row_int(r) << shift) for r in range(m.dims[n]))
            action[(i, n)] = BitMatrix.from_row_ints(rows, table.dims[n + i])
    offsets = [{n: table.block(n, k)[0] for n in range(D + 1)} for k in range(len(mods))]
    return TruncatedModule(name, D, table.dims, action, labels), offsets


def map_from_free(free: TruncatedModule, target: TruncatedModule, element_row: int,
                  name: str = "") -> ModuleMap:
    """The unique A-map from a free module sending the generator to an element.

    ``free`` must come from :func:`free_unstable`; ``element_row`` is the
    int-packed vector in the target's basis at the generator degree.
    """
    words = free.meta.get("basis_words")
    gen_deg = free.meta.get("generator_degree")
    if words is None or gen_deg is None:
        raise ValueError("source must be a free module built by free_unstable")
    D = min(free.D, target.D)
    gen_row = BitMatrix.from_row_ints([element_row], target.dim(gen_deg))
    mats = {}
    for m in range(gen_deg, D + 1):
        rows = []
        for w in words[m]:
            img = gen_row @ target.word_action(w, gen_deg)
            rows.append(img.row_int(0))
        mats[m] = BitMatrix.from_row_ints(rows, target.dims[m])
    return ModuleMap(free, target, mats, D=D, name=name)


# -- subquotients ---------------------------------------------------------------


@dataclass
class Subquotient:
    """Kernel, image and cokernel of an A-linear map, with structure maps."""

    kernel: TruncatedModule
    kernel_incl: ModuleMap
    image: TruncatedModule
    image_incl: ModuleMap
    factor: ModuleMap
    cokernel: TruncatedModule
    coker_proj: ModuleMap
    coker_reps: Dict[int, BitMatrix]


def _restricted_action(bases: Dict[int, BitMatrix], ambient: TruncatedModule,
                       D: int, what: str) -> Dict[Tuple[int, int], BitMatrix]:
    """Action induced on a graded collection of row-subspaces of ``ambient``.

    Each target degree's basis is eliminated once, on first use.
    """
    action: Dict[Tuple[int, int], BitMatrix] = {}
    reducers: Dict[int, RowReducer] = {}
    for n in range(D + 1):
        bn = bases[n]
        if bn.nrows == 0:
            continue
        for i in range(1, D - n + 1):
            red = reducers.get(n + i)
            if red is None:
                red = reducers[n + i] = RowReducer(bases[n + i])
            coeffs = red.express(bn @ ambient.sq(i, n))
            if coeffs is None:
                raise TheoryViolation(
                    f"{what}: Sq^{i} escapes the subspace at degree {n}"
                )
            action[(i, n)] = coeffs
    return action


def submodule(ambient: TruncatedModule, bases: Dict[int, BitMatrix], name: str,
              D: Optional[int] = None) -> Tuple[TruncatedModule, ModuleMap]:
    """Realize a graded row-span as a module with its inclusion.

    Raises :class:`TheoryViolation` when the span is not stable under the
    action, which always indicates an internal inconsistency upstream.
    """
    D = ambient.D if D is None else D
    full = {n: bases.get(n, BitMatrix.zeros(0, ambient.dims[n])) for n in range(D + 1)}
    dims = [full[n].nrows for n in range(D + 1)]
    labels = [
        tuple(_sum_label(ambient.labels[n], full[n].row_int(r)) for r in range(dims[n]))
        for n in range(D + 1)
    ]
    action = _restricted_action(full, ambient, D, name)
    mod = TruncatedModule(name, D, dims, action, labels)
    incl = ModuleMap(mod, ambient, {n: full[n] for n in range(D + 1)}, D=D)
    return mod, incl


def _coker_data(image_rref: BitMatrix, dim: int) -> Tuple[BitMatrix, BitMatrix, List[int]]:
    """Projection and representative matrices for a quotient by a row space.

    ``image_rref`` must be in reduced row-echelon form without zero rows.
    Returns (proj, reps, rep_cols): proj maps ambient coords to quotient
    coords, reps embeds quotient representatives (standard vectors at the
    non-pivot columns) back into the ambient space.  In closed form, a
    non-pivot coordinate projects to itself and a pivot coordinate to its
    rref row minus the pivot bit, which has only non-pivot bits.
    """
    rows = image_rref.row_ints()
    pivot_bits = 0
    for row in rows:
        pivot_bits |= row & -row
    rep_cols = [c for c in range(dim) if not (pivot_bits >> c) & 1]
    colbit = {c: 1 << k for k, c in enumerate(rep_cols)}
    proj_rows = [colbit.get(t, 0) for t in range(dim)]
    for row in rows:
        low = row & -row
        rest = row ^ low
        out = 0
        while rest:
            b = rest & -rest
            out |= colbit[b.bit_length() - 1]
            rest ^= b
        proj_rows[low.bit_length() - 1] = out
    proj = BitMatrix.from_row_ints(proj_rows, len(rep_cols))
    reps = BitMatrix.from_row_ints([1 << c for c in rep_cols], dim)
    return proj, reps, rep_cols


@dataclass
class Quotient:
    """A quotient module with its projection and the representatives of its basis."""

    module: TruncatedModule
    proj_mats: Dict[int, BitMatrix]
    rep_mats: Dict[int, BitMatrix]


def quotient(M: TruncatedModule, bases: Sequence[BitMatrix], name: str) -> Quotient:
    """The quotient of M by a graded row space, with the induced action.

    ``bases[n]`` is an rref basis without zero rows of the subspace in
    degree n, for n = 0 .. D with D = len(bases) - 1 <= M.D.  The action
    Sq^i is ``reps @ sq @ proj``, which is well defined when the subspace is
    stable under the action.
    """
    D = len(bases) - 1
    proj_mats: Dict[int, BitMatrix] = {}
    rep_mats: Dict[int, BitMatrix] = {}
    dims = []
    labels = []
    for n, basis in enumerate(bases):
        proj_mats[n], rep_mats[n], rep_cols = _coker_data(basis, M.dims[n])
        dims.append(len(rep_cols))
        labels.append(tuple(M.labels[n][c] for c in rep_cols))
    action = {
        (i, n): rep_mats[n] @ m @ proj_mats[n + i]
        for (i, n), m in M.action_items()
        if n + i <= D and dims[n]
    }
    module = TruncatedModule(name, D, dims, action, labels)
    return Quotient(module, proj_mats, rep_mats)


def subquotient(f: ModuleMap, validate: bool = False) -> Subquotient:
    """Degreewise kernel, image and cokernel with induced actions.

    The input must be A-linear; pass ``validate=True`` to enforce the check
    here (constructions in this package validate at the fixture level).
    """
    if validate:
        rep = f.validate_linear()
        if not rep.ok:
            raise ValueError(f"subquotient of a non-A-linear map: {rep.violations[:3]}")
    src, tgt, D = f.source, f.target, f.D
    ker_bases: Dict[int, BitMatrix] = {}
    im_bases: Dict[int, BitMatrix] = {}
    for n in range(D + 1):
        m = f.mat(n)
        ker_bases[n] = left_kernel(m).basis
        im_bases[n] = Subspace.from_rows(m).basis
    kernel, kernel_incl = submodule(src, ker_bases, f"ker({f.name or 'f'})", D)
    image, image_incl = submodule(tgt, im_bases, f"im({f.name or 'f'})", D)
    factor_mats = {}
    for n in range(D + 1):
        coeffs = express_in_rowspace(im_bases[n], f.mat(n))
        if coeffs is None:
            raise TheoryViolation("image basis does not span the image")
        factor_mats[n] = coeffs
    factor = ModuleMap(src, image, factor_mats, D=D)
    coker = quotient(tgt, [im_bases[n] for n in range(D + 1)], f"coker({f.name or 'f'})")
    coker_proj = ModuleMap(tgt, coker.module, coker.proj_mats, D=D)
    return Subquotient(
        kernel, kernel_incl, image, image_incl, factor, coker.module, coker_proj,
        coker.rep_mats,
    )


# -- loop functors -----------------------------------------------------------


@dataclass
class FourTermOmega:
    """The loop module, its first derived partner and the connecting maps.

    ``ker_incl`` embeds the suspension of omega1 into the doubled module and
    ``coker_proj`` projects onto the suspension of omega, with
    ``coker_reps`` its representatives; the four-term sequence they form
    with the Sq0 map is exact in the certified range.
    """

    omega: TruncatedModule
    omega1: TruncatedModule
    ker_incl: ModuleMap
    coker_proj: ModuleMap
    sq0_map: ModuleMap
    coker_reps: Dict[int, BitMatrix]

    def verify(self) -> Verdict:
        D = self.sq0_map.D
        phi_m = self.sq0_map.source
        target = self.sq0_map.target
        for n in range(D + 1):
            incl = self.ker_incl.mat(n)
            if left_kernel(incl).dim != 0:
                return Verdict(False, D, f"kernel term not injective at degree {n}")
            span_in = Subspace.from_rows(incl)
            ker0 = left_kernel(self.sq0_map.mat(n))
            if span_in != ker0:
                bad = _subspace_witness(span_in, ker0, phi_m.labels[n])
                return Verdict(
                    False, D,
                    f"exactness fails at the doubled module, degree {n}: {bad}",
                )
            im = Subspace.from_rows(self.sq0_map.mat(n))
            kerp = left_kernel(self.coker_proj.mat(n))
            if im != kerp:
                bad = _subspace_witness(im, kerp, target.labels[n])
                return Verdict(
                    False, D, f"exactness fails at the module, degree {n}: {bad}"
                )
            pr = rref(self.coker_proj.mat(n))
            if pr.rank != self.coker_proj.target.dims[n]:
                return Verdict(False, D, f"projection not surjective at degree {n}")
        return Verdict(True, D)


def omega(M: TruncatedModule) -> FourTermOmega:
    """Loop functor data from the kernel and cokernel of the Sq0 map."""
    if M.D < 2:
        raise TruncationError("need truncation degree at least 2")
    f = sq0(M)
    sub = subquotient(f)
    try:
        om = desuspend(sub.cokernel, name=f"Om({M.name})")
    except DesuspensionError as exc:
        raise TheoryViolation(
            f"cokernel of Sq0 on {M.name} is not a suspension: {exc}"
        ) from exc
    try:
        om1 = desuspend(sub.kernel, name=f"Om1({M.name})")
    except DesuspensionError as exc:
        raise TheoryViolation(
            f"kernel of Sq0 on {M.name} is not a suspension: {exc}"
        ) from exc
    return FourTermOmega(om, om1, sub.kernel_incl, sub.coker_proj, f, sub.coker_reps)


def is_reduced(M: TruncatedModule, up_to: Optional[int] = None) -> Verdict:
    """Injectivity of the Sq0 map in all certified degrees.

    The top square on degree n lands in degree 2n, so the certificate is
    capped at half the truncation degree.
    """
    cap = M.D // 2
    if up_to is None:
        up_to = cap
    if up_to > cap:
        raise TruncationError(f"cannot certify reducedness beyond degree {cap}")
    for n in range(up_to + 1):
        ker = left_kernel(M.sq(n, n))
        if ker.dim:
            witness = _sum_label(M.labels[n], ker.basis.row_int(0))
            return Verdict(False, up_to, f"Sq0 kills {witness} in degree {n}")
    return Verdict(True, up_to)


# -- symmetric invariants of the rank-one free square ------------------------


@dataclass
class SymLambda:
    """Symmetric-group invariants of F(1) tensored with itself.

    ``invariants`` is verified isomorphic to the free module on a degree-2
    class via ``from_free``; ``diag`` extracts the diagonal coefficient with
    kernel ``lambda2`` (the exterior square).
    """

    invariants: TruncatedModule
    invariants_incl: ModuleMap
    from_free: ModuleMap
    diag: ModuleMap
    lambda2: TruncatedModule
    lambda2_incl: ModuleMap
    free_rank2: TruncatedModule
    phi_f1: TruncatedModule


def sym_lambda(D: int) -> SymLambda:
    f1 = free_unstable(1, D)
    t2, layout = tensor_with_layout(f1, f1)
    swap_mats = {}
    for n in range(t2.D + 1):
        rows = [0] * t2.dims[n]
        for p, off, _ in layout.blocks(n):
            q = n - p
            for i in range(f1.dims[p]):
                for j in range(f1.dims[q]):
                    src = layout.index(n, p, i, j)
                    rows[src] = 1 << layout.index(n, q, j, i)
        swap_mats[n] = BitMatrix.from_row_ints(rows, t2.dims[n])
    swap = ModuleMap(t2, t2, swap_mats, name="swap")
    sub = subquotient(swap + ModuleMap.identity(t2))
    invariants, invariants_incl = sub.kernel, sub.kernel_incl
    invariants = invariants.renamed("Sym2-inv")

    phi_f1 = phi(f1)
    diag_mats = {}
    for n in range(invariants.D + 1):
        if n % 2 == 0 and n // 2 <= f1.D:
            d = n // 2
            rows_t2 = [0] * t2.dims[n]
            if f1.dims[d]:
                for i in range(f1.dims[d]):
                    rows_t2[layout.index(n, d, i, i)] = 1 << i
            extract = BitMatrix.from_row_ints(rows_t2, phi_f1.dims[n])
            diag_mats[n] = invariants_incl.mat(n) @ extract
    diag = ModuleMap(invariants, phi_f1, diag_mats, D=invariants.D, name="diag")

    f2 = free_unstable(2, D)
    # the degree-2 invariant is the square of the fundamental class
    gen_t2 = 1 << layout.index(2, 1, 0, 0)
    coeff = express_in_rowspace(
        invariants_incl.mat(2), BitMatrix.from_row_ints([gen_t2], t2.dims[2])
    )
    if coeff is None:
        raise TheoryViolation("the squared fundamental class is not invariant")
    from_free = map_from_free(f2, invariants, coeff.row_int(0), name="free->inv")

    lam_sub = subquotient(diag)
    lambda2 = lam_sub.kernel.renamed("Lambda2(F(1))")
    return SymLambda(
        invariants, invariants_incl, from_free, diag, lambda2,
        lam_sub.kernel_incl, f2, phi_f1,
    )


def a_span(M: TruncatedModule, seeds: Dict[int, Iterable[int]]) -> Dict[int, BitMatrix]:
    """Row bases (rref) of the submodule generated by int-packed seed vectors."""
    spans: Dict[int, List[int]] = {n: [] for n in range(M.D + 1)}

    def insert(n: int, v: int) -> bool:
        sp = Subspace.from_rows(BitMatrix.from_row_ints(spans[n], M.dims[n]))
        if sp.contains_vector(v):
            return False
        spans[n].append(v)
        return True

    work = []
    for n, vecs in seeds.items():
        for v in vecs:
            if insert(n, v):
                work.append((n, v))
    while work:
        n, v = work.pop()
        row = BitMatrix.from_row_ints([v], M.dims[n])
        for i in range(1, M.D - n + 1):
            w = (row @ M.sq(i, n)).row_int(0)
            if w and insert(n + i, w):
                work.append((n + i, w))
    return {
        n: Subspace.from_rows(BitMatrix.from_row_ints(spans[n], M.dims[n])).basis
        for n in range(M.D + 1)
    }
