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
from functools import cached_property, lru_cache
from operator import xor
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from . import steenrod
from .f2core import (
    BitMatrix,
    RowReducer,
    Subspace,
    certify_rank,
    express_in_rowspace,
    left_kernel,
    rank,
)


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
    """The labels of the set bits of ``row``, lowest first, cut after ``limit``."""
    count = row.bit_count()
    if not count:
        return "0"
    terms = []
    for _ in range(min(count, limit)):
        low = row & -row
        terms.append(labels[low.bit_length() - 1])
        row ^= low
    if count > limit:
        return "+".join(terms) + f"+...({count} terms)"
    return "+".join(terms)


class TruncatedModule:
    """An unstable module known up to degree D with its squaring action.

    ``action`` maps (i, n) to the matrix of Sq^i on degree n.  It is either
    a dict, checked here, or a zero-argument function returning one.  A
    function is called once, on the first read of the action (``sq``,
    ``action_items``, ``validate`` or ``==``), and its result
    gets the same key and shape checks.  ``labels`` (one sequence of names
    per degree) may likewise be a zero-argument function, called once on
    the first read of ``labels`` and checked against the dims then.  Dims
    are always known.
    """

    __slots__ = ("name", "D", "dims", "_labels", "_act")

    def __init__(
        self,
        name: str,
        D: int,
        dims: Sequence[int],
        action: Union[Dict[Tuple[int, int], BitMatrix],
                      Callable[[], Dict[Tuple[int, int], BitMatrix]]],
        labels: Union[None, Sequence[Sequence[str]],
                      Callable[[], Sequence[Sequence[str]]]] = None,
    ):
        if D < 0:
            raise ValueError("truncation degree must be non-negative")
        dims = tuple(int(d) for d in dims)
        if len(dims) != D + 1 or any(d < 0 for d in dims):
            raise ValueError("dims must list degrees 0..D")
        self.name = name
        self.D = D
        self.dims = dims
        if labels is None:
            labels = tuple(
                tuple(f"e{n}.{j}" for j in range(dims[n])) for n in range(D + 1)
            )
        # each slot holds the checked value, or the function still to call
        self._labels = labels if callable(labels) else self._checked_labels(labels)
        self._act = action if callable(action) else self._checked(action)

    def _checked(self, action: Dict[Tuple[int, int], BitMatrix]) -> Dict[Tuple[int, int], BitMatrix]:
        """The nonzero entries of ``action``, after the key and shape checks."""
        act: Dict[Tuple[int, int], BitMatrix] = {}
        for (i, n), m in action.items():
            if i < 1 or n < 0 or n + i > self.D:
                raise ValueError(f"action key ({i}, {n}) outside range")
            if (m.nrows, m.ncols) != (self.dims[n], self.dims[n + i]):
                raise ValueError(f"action ({i}, {n}) has wrong shape")
            if not m.is_zero():
                act[(i, n)] = m
        return act

    def _checked_labels(self, labels: Sequence[Sequence[str]]) -> Tuple[Tuple[str, ...], ...]:
        """``labels`` as tuples, after the check against the dims."""
        labels = tuple(tuple(ls) for ls in labels)
        if tuple(len(ls) for ls in labels) != self.dims:
            raise ValueError("labels must match dims")
        return labels

    @property
    def labels(self) -> Tuple[Tuple[str, ...], ...]:
        """The basis names by degree, built by the pending function on first read."""
        labels = self._labels
        if callable(labels):
            labels = self._labels = self._checked_labels(labels())
        return labels

    def _action(self) -> Dict[Tuple[int, int], BitMatrix]:
        """The stored action, built by the pending function on first read."""
        act = self._act
        if callable(act):
            act = self._act = self._checked(act())
        return act

    # -- access --------------------------------------------------------------

    def dim(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.D:
            raise TruncationError(f"{self.name}: degree {n} beyond truncation {self.D}")
        return self.dims[n]

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
        act = self._act
        if callable(act):
            act = self._action()
        got = act.get((i, n))
        if got is not None:
            return got
        return BitMatrix.zeros(self.dims[n], self.dims[n + i])

    def sq_rows(self, k: int, n: int, rows: BitMatrix) -> BitMatrix:
        """``rows @ sq(k, n)``: rows of degree n under Sq^k.  A module whose
        action has a closed form overrides it, so that no product needs
        the whole action."""
        return rows @ self.sq(k, n)

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

    def action_items(self):
        return sorted(self._action().items())

    # -- validation ------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check instability and Adem coherence for every stored degree."""
        report = ValidationReport()
        for (i, n), m in self.action_items():
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
            and self._action() == other._action()
        )

    def __hash__(self) -> int:
        return hash((self.D, self.dims))

    def __repr__(self) -> str:
        return f"TruncatedModule({self.name}, D={self.D}, dims={list(self.dims)})"


class FuluModule(TruncatedModule):
    """A truncated unstable module with a degree-one multiplication ``u``.

    ``u`` maps n to the matrix of u on degree n, for n < D.  Like the
    action it is a dict, checked here, or a zero-argument function called
    once, on the first read of u (``u_mat``, ``u_items``, ``validate`` or
    ``==``).  Compatibility with the squaring operations is the
    Cartan-twisted rule Sq^i(u x) = u Sq^i(x) + u^2 Sq^{i-1}(x), which
    ``validate`` checks.  A u-module never equals a plain module, even one
    with the same action: equal modules carry the same structure.

    Products with u go through ``times_u`` (rows times u) and ``u_then``
    (u, then a matrix), which a module whose u has a closed form overrides,
    so that no product needs u as a matrix.
    """

    __slots__ = ("_u",)

    def __init__(
        self,
        name: str,
        D: int,
        dims: Sequence[int],
        action: Union[Dict[Tuple[int, int], BitMatrix],
                      Callable[[], Dict[Tuple[int, int], BitMatrix]]],
        labels: Optional[Sequence[Sequence[str]]] = None,
        *,
        u: Union[Dict[int, BitMatrix], Callable[[], Dict[int, BitMatrix]]],
    ):
        super().__init__(name, D, dims, action, labels)
        self._u = u if callable(u) else self._checked_u(u)

    def _checked_u(self, u: Dict[int, BitMatrix]) -> Dict[int, BitMatrix]:
        """The nonzero entries of ``u``, after the key and shape checks."""
        out: Dict[int, BitMatrix] = {}
        for n, m in u.items():
            if n < 0 or n + 1 > self.D:
                raise ValueError(f"u-action key {n} outside range")
            if (m.nrows, m.ncols) != (self.dims[n], self.dims[n + 1]):
                raise ValueError(f"u-action at degree {n} has wrong shape")
            if not m.is_zero():
                out[n] = m
        return out

    def _u_action(self) -> Dict[int, BitMatrix]:
        """The stored u, built by the pending function on first read."""
        u = self._u
        if callable(u):
            u = self._u = self._checked_u(u())
        return u

    def u_mat(self, n: int) -> BitMatrix:
        if n < 0:
            return BitMatrix.zeros(0, self.dim(n + 1))
        if n + 1 > self.D:
            raise TruncationError(f"{self.name}: u on degree {n} beyond truncation")
        got = self._u_action().get(n)
        if got is not None:
            return got
        return BitMatrix.zeros(self.dims[n], self.dims[n + 1])

    def u_items(self):
        """The nonzero matrices of u, by degree."""
        return sorted(self._u_action().items())

    def times_u(self, n: int, rows: BitMatrix) -> BitMatrix:
        """``rows @ u_mat(n)``: rows of degree n multiplied by u."""
        return rows @ self.u_mat(n)

    def u_then(self, n: int, m: BitMatrix) -> BitMatrix:
        """``u_mat(n) @ m``: row j is the image under ``m`` of u times basis
        vector j of degree n."""
        return self.u_mat(n) @ m

    def validate(self) -> ValidationReport:
        """The unstable-module axioms plus the Cartan-twisted u-compatibility."""
        report = super().validate()
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedModule):
            return NotImplemented
        if not isinstance(other, FuluModule):
            return False
        return super().__eq__(other) and self._u_action() == other._u_action()

    __hash__ = TruncatedModule.__hash__

    def __repr__(self) -> str:
        return f"FuluModule({self.name}, D={self.D}, dims={list(self.dims)})"


class ModuleMap:
    """A degreewise linear map between truncated modules, meant to be A-linear,
    and to commute with u when both ends carry it."""

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

    def apply(self, n: int, rows: BitMatrix) -> BitMatrix:
        """``rows @ mat(n)``: rows of the source in degree n, mapped.  A map
        with a closed form overrides it and ``rank``, so that no product
        and no rank needs its matrix."""
        return rows @ self.mat(n)

    def rank(self, n: int) -> int:
        """The rank of ``mat(n)``, eliminated at most once (``f2core.rank``)."""
        return rank(self.mat(n))

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
        """A-linearity: f(Sq^i x) = Sq^i f(x) for every stored (i, n); between
        two u-modules also u-equivariance, f(u x) = u f(x) in every degree."""
        report = ValidationReport()
        for i in range(1, self.D + 1):
            for n in range(0, self.D - i + 1):
                lhs = self.source.sq(i, n) @ self.mat(n + i)
                rhs = self.mat(n) @ self.target.sq(i, n)
                if lhs != rhs:
                    report.add(f"not A-linear at (i={i}, n={n})")
        if isinstance(self.source, FuluModule) and isinstance(self.target, FuluModule):
            for n in range(self.D):
                if self.source.u_mat(n) @ self.mat(n + 1) != self.mat(n) @ self.target.u_mat(n):
                    report.add(f"not u-equivariant at degree {n}")
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


# -- constructors -------------------------------------------------------------


def unit_module(D: int) -> TruncatedModule:
    """The ground field in degree 0 (the free module on a degree-0 class)."""
    return TruncatedModule("F", D, [1] + [0] * D, {}, labels=[("1",)] + [()] * D)


class FreeModule(TruncatedModule):
    """The free unstable module ``F(n)`` on one class of degree n, as built by
    :func:`free_unstable`: ``basis_words[m]`` lists the admissible words that
    name its basis in degree m, in order."""

    __slots__ = ("generator_degree", "basis_words")

    def __init__(self, generator_degree: int, D: int, dims: Sequence[int],
                 action: Dict[Tuple[int, int], BitMatrix], labels: Sequence[Sequence[str]],
                 basis_words: Dict[int, List[steenrod.SqWord]]):
        super().__init__(f"F({generator_degree})", D, dims, action, labels)
        self.generator_degree = generator_degree
        self.basis_words = basis_words


def free_unstable(n: int, D: int) -> FreeModule:
    """The free unstable module on one class of degree n, truncated at D.

    Basis in degree n + d: admissible words of degree d with excess <= n.
    The action concatenates, renormalizes and drops monomials of excess > n.
    """
    if n < 0:
        raise ValueError("generator degree must be non-negative")
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
    return FreeModule(n, D, dims, action, labels, words)


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
    return TruncatedModule(name, D, dims, action, labels)


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


def suspend(M: TruncatedModule) -> TruncatedModule:
    """Degree shift by +1; action matrices are re-indexed unchanged."""
    D = M.D + 1
    dims = (0,) + M.dims
    labels = [()] + [tuple(f"s({x})" for x in ls) for ls in M.labels]
    action = {(i, n + 1): m for (i, n), m in M.action_items()}
    return TruncatedModule(f"S({M.name})", D, dims, action, labels)


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


def phi(M: TruncatedModule) -> TruncatedModule:
    """The degree-doubling functor: even degrees carry M, odd degrees vanish.

    Even squares act through the original action, odd squares act as zero,
    so knowledge extends to degree 2D.
    """
    D = 2 * M.D
    dims = [0] * (D + 1)
    labels: List[Tuple[str, ...]] = [()] * (D + 1)
    for n in range(M.D + 1):
        dims[2 * n] = M.dims[n]
        labels[2 * n] = tuple(f"ph({x})" for x in M.labels[n])
    action = {(2 * i, 2 * n): m for (i, n), m in M.action_items()}
    return TruncatedModule(f"Ph({M.name})", D, dims, action, labels)


def sq0(M: TruncatedModule) -> ModuleMap:
    """The natural map from the doubled module, x -> Sq^{|x|} x."""
    mats = {}
    for n in range(M.D // 2 + 1):
        mats[2 * n] = M.sq(n, n)
    return ModuleMap(phi(M), M, mats, D=M.D, name=f"Sq0_{M.name}")


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

    def kron_rows(self, n: int, p: int, left_rows: Sequence[int],
                  right_rows: Sequence[int]) -> List[int]:
        """The flat rows of degree n of every left (x) right, left rows
        outer, right rows inner, for vectors of the left basis in degree p
        and the right one in n - p.

        Each is one big-int product: with the right factor's width as
        stride, left (x) right is right * spread(left) shifted to the
        block, which has no carries because right < 2 ** stride.
        """
        off = self.table.block(n, p)[0]
        stride = self.right_dims[n - p]
        out: List[int] = []
        for left in left_rows:
            if left:
                spread = _spread(left, stride) << off
                out.extend([right * spread for right in right_rows])
            else:
                out.extend([0] * len(right_rows))
        return out


def _spread(v: int, stride: int) -> int:
    """``v`` with bit b moved to bit b * stride."""
    out = 0
    while v:
        low = v & -v
        out |= 1 << ((low.bit_length() - 1) * stride)
        v ^= low
    return out


def _squares_by_degree(M: TruncatedModule, D: int) -> List[List[Tuple[int, List[int]]]]:
    """For each degree p <= D, the pairs (a, rows of Sq^a on M^p) over the
    nonzero Sq^a with a <= p and p + a <= D, Sq^0 first."""
    out = [[(0, [1 << j for j in range(M.dims[p])])] for p in range(D + 1)]
    for (a, p), m in M.action_items():
        if a <= p and p + a <= D:
            out[p].append((a, m.row_ints()))
    return out


def tensor_with_layout(M: TruncatedModule, N: TruncatedModule) -> Tuple[TruncatedModule, TensorLayout]:
    """Tensor product with the Cartan-formula action, plus its index layout.

    Sq^k(x (x) y) = sum over a + b = k of Sq^a x (x) Sq^b y, and Sq^a on
    degree p vanishes for a > p (instability), so only the nonzero Sq^a of
    M^p (Sq^0 included) are paired with the nonzero Sq^b of N^q, each pair
    one block of Kronecker rows (``TensorLayout.kron_rows``).  The action
    and the labels are built on first read.
    """
    D = min(M.D, N.D)
    layout = TensorLayout(M.dims[: D + 1], N.dims[: D + 1], D)
    dims = layout.table.dims

    def labels() -> List[Tuple[str, ...]]:
        ml, nl = M.labels, N.labels
        return [
            tuple(f"[{x}|{y}]" for p, _, _ in layout.blocks(n) for x in ml[p] for y in nl[n - p])
            for n in range(D + 1)
        ]

    def action() -> Dict[Tuple[int, int], BitMatrix]:
        left, right = _squares_by_degree(M, D), _squares_by_degree(N, D)
        acc: Dict[Tuple[int, int], List[int]] = {}
        for n in range(D + 1):
            for p, off, width in layout.blocks(n):
                for a, ma in left[p]:
                    for b, nb in right[n - p]:
                        k = a + b
                        if k == 0 or n + k > D:
                            continue
                        rows = acc.get((k, n))
                        if rows is None:
                            rows = acc[(k, n)] = [0] * dims[n]
                        block = layout.kron_rows(n + k, p + a, ma, nb)
                        rows[off:off + width] = map(xor, rows[off:off + width], block)
        return {(k, n): BitMatrix(dims[n], dims[n + k], tuple(rows))
                for (k, n), rows in acc.items()}

    mod = TruncatedModule(f"{M.name}(x){N.name}", D, dims, action, labels)
    return mod, layout


def tensor(M: TruncatedModule, N: TruncatedModule) -> TruncatedModule:
    return tensor_with_layout(M, N)[0]


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


def map_from_free(free: FreeModule, target: TruncatedModule, element_row: int,
                  name: str = "") -> ModuleMap:
    """The unique A-map from a free module sending the generator to an element.

    ``free`` must come from :func:`free_unstable`; ``element_row`` is the
    int-packed vector in the target's basis at the generator degree.
    """
    if not isinstance(free, FreeModule):
        raise ValueError("source must be a free module built by free_unstable")
    words, gen_deg = free.basis_words, free.generator_degree
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


class Subquotient:
    """Kernel, image and cokernel of an A-linear map, with structure maps.

    The kernel, its inclusion and its canonical subspace in each degree
    (``kernel_spaces``) come with the object.  The image (with
    ``image_incl`` and ``factor``) and the cokernel (with ``coker_proj`` and
    ``coker_cols``) are built on first read, once each; the image checks
    its Sq-closure when it is built.  Each part carries u when the module
    it is cut from does (see ``submodule`` and ``quotient``).
    """

    def __init__(self, f: ModuleMap, kernel: TruncatedModule, kernel_incl: ModuleMap,
                 kernel_spaces: List[Subspace]):
        self.f = f
        self.kernel = kernel
        self.kernel_incl = kernel_incl
        self.kernel_spaces = kernel_spaces

    @cached_property
    def _im_bases(self) -> List[BitMatrix]:
        return [Subspace.from_rows(self.f.mat(n)).basis for n in range(self.f.D + 1)]

    @cached_property
    def _image(self) -> Tuple[TruncatedModule, ModuleMap]:
        f = self.f
        return submodule(f.target, dict(enumerate(self._im_bases)), f"im({f.name or 'f'})", f.D)

    @property
    def image(self) -> TruncatedModule:
        return self._image[0]

    @property
    def image_incl(self) -> ModuleMap:
        return self._image[1]

    @cached_property
    def factor(self) -> ModuleMap:
        mats = {}
        for n, basis in enumerate(self._im_bases):
            coeffs = express_in_rowspace(basis, self.f.mat(n))
            if coeffs is None:
                raise TheoryViolation("image basis does not span the image")
            mats[n] = coeffs
        return ModuleMap(self.f.source, self.image, mats, D=self.f.D)

    @cached_property
    def _coker(self) -> Quotient:
        return quotient(self.f.target, self._im_bases, f"coker({self.f.name or 'f'})")

    @property
    def cokernel(self) -> TruncatedModule:
        return self._coker.module

    @cached_property
    def coker_proj(self) -> ModuleMap:
        return ModuleMap(self.f.target, self.cokernel, self._coker.proj_mats, D=self.f.D)

    @property
    def coker_cols(self) -> Sequence[Sequence[int]]:
        """The columns whose unit vectors represent the cokernel's basis."""
        return self._coker.rep_cols


def _express(bases: Dict[int, BitMatrix], reducers: Dict[int, RowReducer], n: int,
             vecs: BitMatrix, escape: str) -> BitMatrix:
    """The coefficients of ``vecs`` in the rows of ``bases[n]``, by the one
    reducer of degree n, built on first use; ``escape`` names a row outside."""
    red = reducers.get(n)
    if red is None:
        red = reducers[n] = RowReducer(bases[n])
    coeffs = red.express(vecs)
    if coeffs is None:
        raise TheoryViolation(escape)
    return coeffs


def _restricted_action(bases: Dict[int, BitMatrix], ambient: TruncatedModule,
                       D: int, what: str,
                       reducers: Optional[Dict[int, RowReducer]] = None
                       ) -> Dict[Tuple[int, int], BitMatrix]:
    """Action induced on a graded collection of row-subspaces of ``ambient``.

    Only the ambient's stored, nonzero Sq matrices are read: the rows of a
    zero matrix lie in every subspace and induce the zero matrix, which is
    not stored.  They are read by degree, so an escape names the lowest
    degree.  Each target degree's basis is eliminated once, on first use,
    into ``reducers``, which a caller may share.
    """
    reducers = {} if reducers is None else reducers
    action: Dict[Tuple[int, int], BitMatrix] = {}
    for (i, n), sq in sorted(ambient.action_items(), key=lambda item: item[0][1]):
        if n + i > D or bases[n].nrows == 0:
            continue
        action[(i, n)] = _express(bases, reducers, n + i, bases[n] @ sq,
                                  f"{what}: Sq^{i} escapes the subspace at degree {n}")
    return action


def submodule(ambient: TruncatedModule, bases: Dict[int, BitMatrix], name: str,
              D: Optional[int] = None) -> Tuple[TruncatedModule, ModuleMap]:
    """Realize a graded row-span as a module with its inclusion.

    The module carries u when the ambient does.  Sq and u are induced
    through one reducer per target degree, so each degree's basis is
    eliminated at most once.  Raises :class:`TheoryViolation` when the span
    is not stable under the action or u, which always indicates an
    internal inconsistency upstream.  Labels are built on first read.
    """
    D = ambient.D if D is None else D
    full = {n: bases.get(n, BitMatrix.zeros(0, ambient.dims[n])) for n in range(D + 1)}
    dims = [full[n].nrows for n in range(D + 1)]

    def labels() -> List[Tuple[str, ...]]:
        names = ambient.labels
        return [tuple(_sum_label(names[n], r) for r in full[n].row_ints()) for n in range(D + 1)]

    reducers: Dict[int, RowReducer] = {}
    action = _restricted_action(full, ambient, D, name, reducers)
    if isinstance(ambient, FuluModule):
        u = {}
        for n in range(D):
            if dims[n]:
                # zero rows lie in every subspace and induce the zero u, not stored
                image = ambient.times_u(n, full[n])
                if not image.is_zero():
                    u[n] = _express(full, reducers, n + 1, image,
                                    f"{name}: u escapes the subspace at degree {n}")
        mod: TruncatedModule = FuluModule(name, D, dims, action, labels, u=u)
    else:
        mod = TruncatedModule(name, D, dims, action, labels)
    incl = ModuleMap(mod, ambient, {n: full[n] for n in range(D + 1)}, D=D)
    return mod, incl


def _coker_data(image_rref: BitMatrix, dim: int) -> Tuple[BitMatrix, List[int]]:
    """Projection and representatives for a quotient by a row space.

    ``image_rref`` must be in reduced row-echelon form without zero rows.
    Returns (proj, rep_cols): proj maps ambient coords to quotient coords,
    and the quotient representatives are the standard vectors at the
    non-pivot columns ``rep_cols``.  In closed form, a non-pivot coordinate
    projects to itself and a pivot coordinate to its rref row minus the
    pivot bit, which has only non-pivot bits.  So proj has identity rows at
    ``rep_cols``, a certificate of its rank (``f2core.certify_rank``).
    """
    rows = image_rref.row_ints()
    pivot_bits = 0
    for row in rows:
        pivot_bits |= row & -row
    flags = bin(pivot_bits | (1 << dim))[:2:-1]  # column 0 first
    rep_cols = [c for c, f in enumerate(flags) if f == "0"]
    colbit = {c: 1 << k for k, c in enumerate(rep_cols)}
    proj_rows = [colbit.get(t, 0) for t in range(dim)]
    for row in rows:
        low = (row & -row).bit_length() - 1
        bits = bin(row)[:1:-1]  # column 0 first
        out = 0
        j = bits.find("1", low + 1)
        while j >= 0:
            out |= colbit[j]
            j = bits.find("1", j + 1)
        proj_rows[low] = out
    return BitMatrix(dim, len(rep_cols), tuple(proj_rows)), rep_cols


class Quotient:
    """A quotient module with its projection and the representatives of its basis.

    The representative of basis vector k in degree n is the ambient unit
    vector at ``rep_cols[n][k]``, so the product of the representatives
    with a matrix m is the row selection ``m.take_rows(rep_cols[n])``.
    """

    def __init__(self, module: TruncatedModule, proj_mats: Dict[int, BitMatrix],
                 rep_cols: Sequence[Sequence[int]]):
        self.module = module
        self.proj_mats = proj_mats
        self.rep_cols = rep_cols

    def project(self, n: int, rows: BitMatrix) -> BitMatrix:
        """``rows @ proj_mats[n]``: ambient rows of degree n, projected."""
        return rows @ self.proj_mats[n]


def quotient(M: TruncatedModule, bases: Sequence[BitMatrix], name: str) -> Quotient:
    """The quotient of M by a graded row space, with the induced action.

    ``bases[n]`` is an rref basis without zero rows of the subspace in
    degree n, for n = 0 .. D with D = len(bases) - 1 <= M.D.  The action
    Sq^i is ``reps @ sq @ proj``, which is well defined when the subspace is
    stable under the action.  When M carries u, so does the quotient, with
    u = ``reps @ u @ proj``, well defined when the subspace is stable under
    u.  Both, and the labels, are built on first read; ``reps @`` is a row
    selection, and ``u @ proj`` is ``M.u_then``.  Each projection carries
    its rank, certified by its identity rows.
    """
    D = len(bases) - 1
    proj_mats: Dict[int, BitMatrix] = {}
    dims = []
    cols = []
    for n, basis in enumerate(bases):
        proj, rep_cols = _coker_data(basis, M.dims[n])
        proj_mats[n] = certify_rank(proj, rep_cols)
        dims.append(len(rep_cols))
        cols.append(rep_cols)

    def labels() -> List[Tuple[str, ...]]:
        names = M.labels
        return [tuple(names[n][c] for c in rep_cols) for n, rep_cols in enumerate(cols)]

    def action() -> Dict[Tuple[int, int], BitMatrix]:
        return {
            (i, n): m.take_rows(cols[n]) @ proj_mats[n + i]
            for (i, n), m in M.action_items()
            if n + i <= D and dims[n]
        }

    if isinstance(M, FuluModule):
        def u() -> Dict[int, BitMatrix]:
            return {n: M.u_then(n, proj_mats[n + 1]).take_rows(cols[n])
                    for n in range(D) if dims[n]}

        module: TruncatedModule = FuluModule(name, D, dims, action, labels, u=u)
    else:
        module = TruncatedModule(name, D, dims, action, labels)
    return Quotient(module, proj_mats, cols)


def subquotient(f: ModuleMap) -> Subquotient:
    """Degreewise kernel, image and cokernel with induced actions.

    The input must be A-linear, and commute with u where its ends carry
    it; ``f.validate_linear()`` checks that (constructions in this package
    validate at the fixture level).  Only the kernel is built here; see
    :class:`Subquotient`.
    """
    spaces = [left_kernel(f.mat(n)) for n in range(f.D + 1)]
    kernel, kernel_incl = submodule(f.source, {n: sp.basis for n, sp in enumerate(spaces)},
                                    f"ker({f.name or 'f'})", f.D)
    return Subquotient(f, kernel, kernel_incl, spaces)


# -- exact sequences ---------------------------------------------------------


def exact_sequence(maps: Sequence[ModuleMap], names: Sequence[str]) -> Verdict:
    """Exactness of 0 -> A0 -> A1 -> ... -> Ak -> 0 in every certified degree.

    ``maps[i]`` goes from the object named ``names[i]`` to ``names[i + 1]``.
    Each map's rank is read once per degree (``ModuleMap.rank``): the head
    must be injective, each consecutive pair must pass the test of
    ``f2core.image_is_kernel``, with the product taken by ``g.apply``, and
    the tail must be surjective.  So the last map's matrix is never read
    unless a labelled witness is built, which happens only for a failing
    check.
    """
    if len(names) != len(maps) + 1:
        raise ValueError("one name per object of the sequence")
    D = min(f.D for f in maps)
    head, tail = maps[0], maps[-1]
    for n in range(D + 1):
        ranks = [f.rank(n) for f in maps]
        if ranks[0] != head.source.dims[n]:
            bad = _subspace_witness(left_kernel(head.mat(n)), Subspace.zero(head.source.dims[n]),
                                    head.source.labels[n])
            return Verdict(False, D, f"not injective on {names[0]} in degree {n}: {bad}")
        for i, (f, g) in enumerate(zip(maps, maps[1:])):
            if not (g.apply(n, f.mat(n)).is_zero() and ranks[i] + ranks[i + 1] == f.target.dims[n]):
                bad = _subspace_witness(Subspace.from_rows(f.mat(n)), left_kernel(g.mat(n)),
                                        f.target.labels[n])
                return Verdict(False, D, f"exactness fails at {names[i + 1]} in degree {n}: {bad}")
        if ranks[-1] != tail.target.dims[n]:
            bad = _subspace_witness(Subspace.from_rows(tail.mat(n)),
                                    Subspace.full(tail.target.dims[n]), tail.target.labels[n])
            return Verdict(False, D, f"not surjective onto {names[-1]} in degree {n}: {bad}")
    return Verdict(True, D)


# -- loop functors -----------------------------------------------------------


@dataclass
class FourTermOmega:
    """The loop module, its first derived partner and the connecting maps.

    ``ker_incl`` embeds the suspension of omega1 into the doubled module and
    ``coker_proj`` projects onto the suspension of omega, whose basis
    vector k of degree n is represented by the unit vector at
    ``coker_cols[n][k]``; the four-term sequence they form with the Sq0 map
    is exact in the certified range.
    """

    omega: TruncatedModule
    omega1: TruncatedModule
    ker_incl: ModuleMap
    coker_proj: ModuleMap
    sq0_map: ModuleMap
    coker_cols: Sequence[Sequence[int]]

    def verify(self) -> Verdict:
        return exact_sequence(
            (self.ker_incl, self.sq0_map, self.coker_proj),
            ("the suspended derived loop module", "the doubled module", "the module",
             "the suspended loop module"),
        )


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
    return FourTermOmega(om, om1, sub.kernel_incl, sub.coker_proj, f, sub.coker_cols)


def is_reduced(M: TruncatedModule) -> Verdict:
    """Injectivity of the Sq0 map in all certified degrees.

    The top square on degree n lands in degree 2n, so the certificate is
    capped at half the truncation degree.
    """
    cap = M.D // 2
    for n in range(cap + 1):
        ker = left_kernel(M.sq(n, n))
        if ker.dim:
            witness = _sum_label(M.labels[n], ker.basis.row_int(0))
            return Verdict(False, cap, f"Sq0 kills {witness} in degree {n}")
    return Verdict(True, cap)


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
    return SymLambda(
        invariants, invariants_incl, from_free, diag, lam_sub.kernel,
        lam_sub.kernel_incl, f2, phi_f1,
    )
