"""Exact linear algebra over the two-element field.

A matrix row is one Python int with column ``j`` at bit ``j``, so every row
operation is a single big-int XOR.  Values are immutable after construction
and all operations are pure functions, safe to share across threads.

Products and full eliminations go through the kernel module
``usteen._gf2py`` (``mat_mult`` and ``rref_inplace``); ``rank`` and
``left_kernel`` need only the forward pass, which runs here.

A matrix's rank is eliminated at most once.  ``rank`` memoizes it on the
matrix, and constructions that know it record it there: ``rref`` and
``left_kernel`` on their input and on the basis they return.
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
    ``_rank`` is the rank once something has computed or certified it.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_rank")

    def __init__(self, nrows: int, ncols: int, rows: tuple):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows
        self._rank = None

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
    def from_row_ints(cls, rows: Iterable[int], ncols: int) -> "BitMatrix":
        rows = tuple(rows)
        limit = 1 << ncols
        for i, r in enumerate(rows):
            if r < 0 or r >= limit:
                raise ValueError(f"row {i} out of range for {ncols} columns")
        return cls(len(rows), ncols, rows)

    # -- access ------------------------------------------------------------

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

    def take_rows(self, indices: Sequence[int]) -> "BitMatrix":
        idx = list(indices)
        if idx and not 0 <= min(idx) <= max(idx) < self.nrows:
            raise IndexError("row index out of range")
        rows = tuple(self._rows[i] for i in idx)
        return BitMatrix(len(rows), self.ncols, rows)

    def take_cols(self, indices: Sequence[int]) -> "BitMatrix":
        """Columns ``indices[k]`` as columns k, in order, repeats allowed,
        moved by their ``column_runs``."""
        idx = list(indices)
        if idx and not 0 <= min(idx) <= max(idx) < self.ncols:
            raise IndexError("column index out of range")
        return self.gather(column_runs(idx), len(idx))

    def gather(self, runs: Sequence[tuple], width: int) -> "BitMatrix":
        """The ``width`` columns that ``runs`` (from ``column_runs``, whose
        indices the caller keeps in range) select, one shift and mask per
        run and row."""
        rows = []
        for r in self._rows:
            v = 0
            if r:
                for start, mask, dest in runs:
                    v |= ((r >> start) & mask) << dest
            rows.append(v)
        return BitMatrix(self.nrows, width, tuple(rows))

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


def column_runs(indices: Sequence[int]) -> tuple:
    """Column indices as runs (start, mask, destination): consecutive
    indices form one run, which a row moves with one shift and mask, so a
    selection of whole blocks costs one step per block, not one per bit."""
    idx = list(indices)
    runs = []
    k = 0
    while k < len(idx):
        end = k + 1
        while end < len(idx) and idx[end] == idx[end - 1] + 1:
            end += 1
        runs.append((idx[k], (1 << (end - k)) - 1, k))
        k = end
    return tuple(runs)


@dataclass(frozen=True)
class RrefResult:
    matrix: BitMatrix
    rank: int
    pivots: tuple


def rref(m: BitMatrix) -> RrefResult:
    """Canonical reduced row-echelon form (row-equivalent to ``m``), whose
    pivot count is recorded as the rank of ``m``."""
    work = list(m._rows)
    pivots = _kernel.rref_inplace(work, m.nrows, m.ncols, m.ncols)
    m._rank = len(pivots)
    return RrefResult(BitMatrix(m.nrows, m.ncols, tuple(work)), len(pivots), tuple(pivots))


def rref_basis(rows: Sequence[int], width: int) -> BitMatrix:
    """The canonical rref basis of the span of int rows below ``2 ** width``,
    by one ``rref_inplace``, with its rank recorded."""
    work = list(rows)
    pivots = _kernel.rref_inplace(work, len(work), width, width)
    basis = BitMatrix(len(pivots), width, tuple(work[:len(pivots)]))
    basis._rank = len(pivots)
    return basis


def _echelon(rows: Iterable[int], width: int) -> list:
    """Forward elimination only, each row reduced by its highest bit.

    Returns ``lead`` with ``lead[h]`` the reduced row of bit length ``h``,
    or 0; the nonzero entries are independent and span the rows.  Keying
    on ``bit_length`` avoids the big-int negation of a lowest-bit search.
    """
    lead = [0] * (width + 1)
    _file_rows(lead, rows)
    return lead


def _file_rows(lead: list, rows: Iterable[int], picked: Optional[list] = None) -> None:
    """Reduce each row against ``lead`` in turn and file it there if it
    survives; a surviving row, as given, is also appended to ``picked``."""
    for v in rows:
        r = v
        while r:
            h = r.bit_length()
            p = lead[h]
            if not p:
                lead[h] = r
                if picked is not None:
                    picked.append(v)
                break
            r ^= p


def complement_rows(seed: BitMatrix, rows: BitMatrix) -> BitMatrix:
    """The rows of ``rows``, in order, that lie outside the span of ``seed``
    and of the rows picked before them.

    One forward pass: ``seed`` fills the lead table of ``_echelon``, then
    each row is reduced against the table and filed there if it survives.
    With ``seed`` the picked rows span the rows of both.
    """
    if seed.ncols != rows.ncols:
        raise ValueError("column count mismatch")
    picked: list = []
    _file_rows(_echelon(seed._rows, seed.ncols), rows._rows, picked)
    return BitMatrix(len(picked), rows.ncols, tuple(picked))


def rank(m: BitMatrix) -> int:
    """Rank by forward elimination only, once per matrix: the result is
    memoized on ``m``, and a rank recorded there before is read instead."""
    r = m._rank
    if r is None:
        r = m._rank = m.ncols + 1 - _echelon(m._rows, m.ncols).count(0)
    return r


def left_kernel(m: BitMatrix) -> "Subspace":
    """The subspace {x : x @ m = 0} (row relations of ``m``).

    Row ``i`` of ``m`` is extended by the unit vector ``e_i`` below it, so
    the forward pass clears the ``m`` part first; the reduced rows that
    lead in the unit part are zero in ``m`` and span the relations.
    The rows that lead in the ``m`` part are independent there, so the
    rank of ``m`` is recorded on it as their count.
    """
    k = m.nrows
    lead = _echelon(((r << k) | (1 << i) for i, r in enumerate(m._rows)), m.ncols + k)
    rest = tuple(r for r in lead[1:k + 1] if r)
    m._rank = k - len(rest)
    return Subspace.from_rows(BitMatrix(len(rest), k, rest))


def image_is_kernel(f: BitMatrix, g: BitMatrix) -> bool:
    """Whether the row space of ``f`` is the left kernel of ``g``.

    ``f @ g == 0`` puts the row space inside the kernel, which has
    dimension ``f.ncols - rank(g)``; equal dimensions make them equal.
    """
    return (f @ g).is_zero() and rank(f) + rank(g) == f.ncols


class RowReducer:
    """A basis made ready, once, to express vectors in its row space.

    A basis whose rows have distinct lowest bits (an echelon form, in any
    row order) is its own pivot table, read with no elimination.  A vector
    is reduced by the row of its lowest bit until nothing is left, or
    until its lowest bit is no row's, and then it escapes: each row's
    other bits lie above its lowest, so each step clears that bit and sets
    only higher ones.  In reduced echelon form (each row's lowest bit set
    in no other row, as in a ``Subspace`` basis) each row clears its pivot
    bit and sets no other, so the pivot bits of a vector name its rows.
    Any other basis is reduced with an identity block that tracks which
    basis rows each reduced row combines.  A dependent basis needs no
    second path: the forward pass sets aside exactly the rows that depend
    on earlier rows, so the coefficients use only the first independent
    rows and are the unique such combination.
    """

    __slots__ = ("nrows", "ncols", "_pmask", "_piv", "_reduced")

    def __init__(self, basis: BitMatrix):
        self.nrows = basis.nrows
        self.ncols = basis.ncols
        # pivot bit -> (its row, the basis rows it combines)
        self._piv = _reduced_pivots(basis._rows)
        self._reduced = self._piv is not None
        if self._piv is None:
            self._piv = _echelon_pivots(basis._rows)
        if self._piv is None:
            self._piv = _eliminated_pivots(basis)
            self._reduced = True
        self._pmask = sum(self._piv)

    def express(self, vecs: BitMatrix) -> Optional[BitMatrix]:
        """Coefficients C with C @ basis = vecs, or None if some row escapes."""
        if vecs.ncols != self.ncols:
            raise ValueError("ambient width mismatch")
        piv = self._piv
        out = []
        for v in vecs._rows:
            coeff = 0
            while v:
                got = piv.get(v & -v)
                if got is None:
                    return None
                v ^= got[0]
                coeff ^= got[1]
            out.append(coeff)
        return BitMatrix(vecs.nrows, self.nrows, tuple(out))

    def remainders(self, vecs: BitMatrix) -> BitMatrix:
        """Each row of ``vecs`` with the row of its lowest pivot bit XORed
        in until no pivot bit is left; the remainder is zero exactly for
        the rows in the row space."""
        if vecs.ncols != self.ncols:
            raise ValueError("ambient width mismatch")
        piv, pmask, reduced = self._piv, self._pmask, self._reduced
        out = []
        for v in vecs._rows:
            hits = v & pmask
            while hits:
                low = hits & -hits
                v ^= piv[low][0]
                hits = hits ^ low if reduced else v & pmask
            out.append(v)
        return BitMatrix(vecs.nrows, vecs.ncols, tuple(out))


def _reduced_pivots(rows: Sequence[int]) -> Optional[dict]:
    """The pivot table of rows in reduced echelon form, or None for other rows.

    Each row's lowest bit must be set in it alone, so each row is its own
    reduced row and combines itself only."""
    pmask = 0
    for r in rows:
        pmask |= r & -r
    if pmask.bit_count() != len(rows) or any(r & pmask != r & -r for r in rows):
        return None
    return {r & -r: (r, 1 << i) for i, r in enumerate(rows)}


def _echelon_pivots(rows: Sequence[int]) -> Optional[dict]:
    """The pivot table of nonzero rows with distinct lowest bits, or None
    for other rows: each row is its own pivot row at its lowest bit."""
    table = {r & -r: (r, 1 << i) for i, r in enumerate(rows)}
    return table if len(table) == len(rows) and 0 not in table else None


def _eliminated_pivots(basis: BitMatrix) -> dict:
    """The pivot table of any basis, by one elimination over [basis | I]."""
    n = basis.ncols
    work = [r | (1 << (n + i)) for i, r in enumerate(basis._rows)]
    pivots = _kernel.rref_inplace(work, basis.nrows, n + basis.nrows, n)
    mask = (1 << n) - 1
    return {1 << p: (r & mask, r >> n) for p, r in zip(pivots, work)}


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
        """The row space of ``rows``; its rref is canonical, so ``__init__``'s
        check of a basis from outside is not run again."""
        sp = cls.__new__(cls)
        sp.ambient_dim = rows.ncols
        sp.basis = rref_basis(rows._rows, rows.ncols)
        rows._rank = sp.basis.nrows
        return sp

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of F2^{self.ambient_dim})"
