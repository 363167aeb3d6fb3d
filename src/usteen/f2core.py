"""Exact linear algebra over the two-element field.

A matrix row is one Python int with column ``j`` at bit ``j``, so every row
operation is a single big-int XOR.  Values are immutable after construction
and all operations are pure functions, safe to share across threads.

Every elimination and product goes through the kernel module
``usteen._gf2py`` (``rref_inplace`` and ``mat_mult``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import _gf2py as _kernel

KERNEL_NAME = "python-int"


def _bits(r: int, n: int) -> str:
    """The ``n`` low bits of ``r`` as a 0/1 string, column 0 first."""
    return bin(r | (1 << n))[:2:-1]


class BitMatrix:
    """An immutable GF(2) matrix: a tuple of row ints, column ``j`` at bit ``j``.

    The constructor trusts its rows to be ints below ``2 ** ncols``; outside
    data goes through ``from_rows`` or ``from_row_ints``, which check it.
    """

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows: int, ncols: int, rows: tuple):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls(nrows, ncols, (0,) * nrows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << j for j in range(n)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> "BitMatrix":
        rows = [list(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        ints = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            v = 0
            for j, b in enumerate(row):
                if b:
                    if b != 1:
                        raise ValueError("entries must be 0 or 1")
                    v |= 1 << j
            ints.append(v)
        return cls(len(ints), ncols, tuple(ints))

    @classmethod
    def from_row_ints(cls, rows: Iterable[int], ncols: int, nrows: Optional[int] = None) -> "BitMatrix":
        rows = tuple(rows)
        if nrows is not None and len(rows) != nrows:
            raise ValueError("row count mismatch")
        limit = 1 << ncols
        for i, r in enumerate(rows):
            if r < 0 or r >= limit:
                raise ValueError(f"row {i} out of range for {ncols} columns")
        return cls(len(rows), ncols, rows)

    # -- access ------------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        """Entry (i, j); out-of-range access is an error, never a silent 0."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i}, {j}) outside {self.nrows}x{self.ncols}")
        return (self._rows[i] >> j) & 1

    def row_int(self, i: int) -> int:
        if not 0 <= i < self.nrows:
            raise IndexError("row index out of range")
        return self._rows[i]

    def row_ints(self) -> list:
        return list(self._rows)

    def to_lists(self) -> list:
        n = self.ncols
        return [[int(c) for c in _bits(r, n)] for r in self._rows]

    def is_zero(self) -> bool:
        return not any(self._rows)

    # -- structure ---------------------------------------------------------

    def transpose(self) -> "BitMatrix":
        out = [0] * self.ncols
        for i, r in enumerate(self._rows):
            bit = 1 << i
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= bit
                r ^= low
        return BitMatrix(self.ncols, self.nrows, tuple(out))

    def take_rows(self, indices: Sequence[int]) -> "BitMatrix":
        rows = tuple(self._rows[i] for i in indices)
        return BitMatrix(len(rows), self.ncols, rows)

    def take_cols(self, indices: Sequence[int]) -> "BitMatrix":
        idx = list(indices)
        if any(not 0 <= j < self.ncols for j in idx):
            raise IndexError("column index out of range")
        pos = {}  # column -> the bits it lands on
        for k, j in enumerate(idx):
            pos[j] = pos.get(j, 0) | 1 << k
        rows = []
        for r in self._rows:
            v = 0
            while r:
                low = r & -r
                v |= pos.get(low.bit_length() - 1, 0)
                r ^= low
            rows.append(v)
        return BitMatrix(self.nrows, len(idx), tuple(rows))

    def concat_cols(self, other: "BitMatrix") -> "BitMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        n = self.ncols
        return BitMatrix(self.nrows, n + other.ncols,
                         tuple(a | (b << n) for a, b in zip(self._rows, other._rows)))

    def stack(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        return BitMatrix(self.nrows + other.nrows, self.ncols, self._rows + other._rows)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return BitMatrix(self.nrows, self.ncols,
                         tuple(a ^ b for a, b in zip(self._rows, other._rows)))

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        return BitMatrix(self.nrows, other.ncols, tuple(_kernel.mat_mult(self._rows, other._rows)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self._rows) == (other.nrows, other.ncols, other._rows)

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self._rows))

    def __repr__(self) -> str:
        if self.nrows * self.ncols <= 256:
            body = ";".join(_bits(r, self.ncols) for r in self._rows)
            return f"BitMatrix({self.nrows}x{self.ncols}:[{body}])"
        return f"BitMatrix({self.nrows}x{self.ncols})"


@dataclass(frozen=True)
class RrefResult:
    matrix: BitMatrix
    rank: int
    pivots: tuple


def rref(m: BitMatrix) -> RrefResult:
    """Canonical reduced row-echelon form (row-equivalent to ``m``)."""
    work = list(m._rows)
    pivots = _kernel.rref_inplace(work, m.nrows, m.ncols, m.ncols)
    return RrefResult(BitMatrix(m.nrows, m.ncols, tuple(work)), len(pivots), tuple(pivots))


def rank(m: BitMatrix) -> int:
    """Rank by forward elimination only, each row reduced by its highest bit.

    Keying on ``bit_length`` avoids the big-int negation of a lowest-bit
    search; the rank is the same either way.
    """
    lead = [0] * (m.ncols + 1)
    n = 0
    for r in m._rows:
        while r:
            h = r.bit_length()
            p = lead[h]
            if not p:
                lead[h] = r
                n += 1
                break
            r ^= p
    return n


def kernel_basis(m: BitMatrix) -> "Subspace":
    """The subspace {v : m @ v = 0}, of dimension cols - rank."""
    res = rref(m)
    pivots = set(res.pivots)
    free = {f: 1 << f for f in range(m.ncols) if f not in pivots}
    for r, p in zip(res.matrix._rows, res.pivots):
        r &= ~(1 << p)
        while r:
            low = r & -r
            free[low.bit_length() - 1] |= 1 << p
            r ^= low
    return Subspace.from_rows(BitMatrix(len(free), m.ncols, tuple(free.values())))


def left_kernel(m: BitMatrix) -> "Subspace":
    """The subspace {x : x @ m = 0} (row relations of ``m``)."""
    return kernel_basis(m.transpose())


def solve(m: BitMatrix, target: Sequence[int]) -> Optional[tuple]:
    """One solution of ``m @ x = target``, or None when inconsistent.

    Deterministic tie-break: free variables are set to 0.  An empty solution
    (zero unknowns) is the empty tuple, distinct from None.
    """
    tgt = list(target)
    if len(tgt) != m.nrows:
        raise ValueError("target length must equal row count")
    col = BitMatrix.from_rows([[b] for b in tgt], 1)
    sols = solve_many(m, col)
    if sols is None:
        return None
    return tuple(sols._rows)


def solve_many(m: BitMatrix, targets: BitMatrix) -> Optional[BitMatrix]:
    """Solve ``m @ X = targets`` column-wise; None if any column fails.

    ``targets`` has one column per system.  Free variables are 0.
    """
    if targets.nrows != m.nrows:
        raise ValueError("target row count mismatch")
    n = m.ncols
    work = [a | (b << n) for a, b in zip(m._rows, targets._rows)]
    pivots = _kernel.rref_inplace(work, m.nrows, n + targets.ncols, n)
    # any row left over after the pivot rows witnesses inconsistency
    if any(work[len(pivots):]):
        return None
    out = [0] * n
    for r, p in zip(work, pivots):
        out[p] = r >> n
    return BitMatrix(n, targets.ncols, tuple(out))


class RowReducer:
    """A basis eliminated once, to express vectors in its row space.

    The basis rows are reduced with an identity block that tracks which
    basis rows each reduced row combines.  After full elimination every
    pivot row holds exactly one pivot bit, so a vector costs one XOR per
    pivot bit it has set.  A dependent basis needs no second path: the
    forward pass sets aside exactly the rows that depend on earlier rows,
    so the coefficients use only the first independent rows and are the
    unique such combination.
    """

    __slots__ = ("nrows", "ncols", "_pmask", "_piv")

    def __init__(self, basis: BitMatrix):
        n = basis.ncols
        work = [r | (1 << (n + i)) for i, r in enumerate(basis._rows)]
        pivots = _kernel.rref_inplace(work, basis.nrows, n + basis.nrows, n)
        mask = (1 << n) - 1
        self.nrows = basis.nrows
        self.ncols = n
        self._pmask = sum(1 << p for p in pivots)
        # pivot bit -> (the reduced row, the basis rows it combines)
        self._piv = {1 << p: (r & mask, r >> n) for p, r in zip(pivots, work)}

    def express(self, vecs: BitMatrix) -> Optional[BitMatrix]:
        """Coefficients C with C @ basis = vecs, or None if some row escapes."""
        if vecs.ncols != self.ncols:
            raise ValueError("ambient width mismatch")
        piv, pmask = self._piv, self._pmask
        out = []
        for v in vecs._rows:
            hits = v & pmask
            acc = coeff = 0
            while hits:
                low = hits & -hits
                r, c = piv[low]
                acc ^= r
                coeff ^= c
                hits ^= low
            if acc != v:
                return None
            out.append(coeff)
        return BitMatrix(vecs.nrows, self.nrows, tuple(out))


def express_in_rowspace(basis: BitMatrix, vecs: BitMatrix) -> Optional[BitMatrix]:
    """Coefficients C with C @ basis = vecs, or None if some row escapes."""
    return RowReducer(basis).express(vecs)


class Subspace:
    """A subspace of GF(2)^n held as a canonical rref basis.

    Canonical form means equality of subspaces is row-wise equality of the
    basis matrices.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: BitMatrix):
        if basis.ncols != ambient_dim:
            raise ValueError("basis width must match ambient dimension")
        pivots = []
        for r in basis._rows:
            if r == 0:
                raise ValueError("canonical basis may not contain zero rows")
            pivots.append((r & -r).bit_length() - 1)
        if any(b <= a for a, b in zip(pivots, pivots[1:])):
            raise ValueError("pivot columns must strictly increase")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_rows(cls, rows: BitMatrix) -> "Subspace":
        res = rref(rows)
        return cls(rows.ncols, BitMatrix(res.rank, rows.ncols, res.matrix._rows[:res.rank]))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, BitMatrix.zeros(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, BitMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def contains_vector(self, v: int) -> bool:
        """Membership of an int-packed vector, by elimination against the basis."""
        for r in self.basis._rows:
            if v & r & -r:
                v ^= r
        return v == 0

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(v) for v in other.basis._rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_rows(self.basis.stack(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked annihilator system."""
        self._check_ambient(other)
        ann_self = kernel_basis(self.basis).basis
        ann_other = kernel_basis(other.basis).basis
        return kernel_basis(ann_self.stack(ann_other))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of F2^{self.ambient_dim})"
