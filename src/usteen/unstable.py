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
from itertools import product
from operator import add, xor
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from . import _gf2py, steenrod
from .f2core import (
    BitMatrix,
    RowReducer,
    Subspace,
    column_runs,
    complement_rows,
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


# -- identities on stored products ------------------------------------------------
#
# A matrix here is a list of row ints, or None for a zero matrix: modules
# and maps store only their nonzero matrices, so an absent one is zero, a
# word with an absent factor is zero, and no product is formed for it.


def _stored_rows(mats: Dict[Hashable, BitMatrix]) -> Dict[Hashable, list]:
    """The rows of stored matrices (nonzero by the constructors' checks), by key."""
    return {key: m.row_ints() for key, m in mats.items()}


def _nonzero_rows(m: BitMatrix) -> Optional[list]:
    rows = m.row_ints()
    return rows if any(rows) else None


def _times(a: Optional[list], b: Optional[list]) -> Optional[list]:
    """The product ``a @ b``, formed only when both factors are nonzero."""
    if a is None or b is None:
        return None
    out = _gf2py.mat_mult(a, b)
    return out if any(out) else None


def _vanishes(terms: Iterable[Optional[list]]) -> bool:
    """Whether the terms of one identity (all of one shape) sum to zero.
    An identity with no nonzero term holds with nothing added."""
    acc = None
    for t in terms:
        if t is not None:
            acc = t if acc is None else list(map(xor, acc, t))
    return acc is None or not any(acc)


@lru_cache(maxsize=None)
def _adem_relation(a: int, b: int) -> Tuple[Tuple[Tuple[int, ...], ...], FrozenSet[int]]:
    """The words of the relation Sq^a Sq^b = (its admissible normal form),
    the left side first, and the squares that act first in them."""
    words = ((a, b),) + tuple(steenrod.adem_normal_form((a, b)))
    return words, frozenset(w[-1] for w in words)


def _axiom_report(M: "TruncatedModule", sq: Dict[Hashable, list]) -> ValidationReport:
    """Instability and the Adem relations of ``M``, from the rows ``sq`` of
    its stored nonzero matrices.

    Each relation on degree n is the vanishing of the sum of its words
    there.  A word is zero on n when the square acting first is not stored
    there, so a relation none of whose first squares is stored on n holds
    with no product.  Otherwise each (word, degree) product is formed once
    per call, and only from nonzero factors: word(w, n) = word(w[1:], n) @
    Sq^{w[0]} on degree n + |w[1:]|."""
    report = ValidationReport()
    stored: Dict[int, set] = {}  # degree -> the squares stored on it
    for i, n in sorted(sq):
        if i > n:
            report.add(f"instability violated at (i={i}, n={n})")
        stored.setdefault(n, set()).add(i)
    words: Dict[Tuple[Tuple[int, ...], int], Optional[list]] = {}

    def word(w: Tuple[int, ...], n: int) -> Optional[list]:
        key = (w, n)
        if key not in words:
            rest = w[1:]
            if rest:
                words[key] = _times(word(rest, n), sq.get((w[0], n + sum(rest))))
            else:
                words[key] = sq.get((w[0], n))
        return words[key]

    D = M.D
    for b in range(1, D + 1):
        for a in range(1, min(2 * b, D - b + 1)):
            relation, firsts = _adem_relation(a, b)
            for n in range(0, D - a - b + 1):
                live = stored.get(n)
                if live and not firsts.isdisjoint(live) and not _vanishes(
                        [word(w, n) for w in relation]):
                    report.add(f"Adem coherence fails for Sq^{a}Sq^{b} on degree {n}")
    return report


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
        """Check instability and Adem coherence for every stored degree, on
        the stored nonzero matrices only (``_axiom_report``)."""
        return _axiom_report(self, _stored_rows(self._action()))

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

    Products with u go through ``times_u`` (rows times u), which a module
    whose u has a closed form overrides, so that no product needs u as a
    matrix.  ``submodule`` certifies a u-submodule's Sq-stability on its
    u-generators, which the rule makes sound.
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

    def validate(self) -> ValidationReport:
        """The unstable-module axioms plus the Cartan-twisted u-compatibility.

        On degree n the rule reads u Sq^i + Sq^i u + Sq^{i-1} u u = 0 as
        matrices (Sq^0 the identity), and like the Adem relations it is
        checked on the stored nonzero matrices only: u u on each degree is
        formed once, and only when a nonzero word needs it."""
        sq = _stored_rows(self._action())
        report = _axiom_report(self, sq)
        u = _stored_rows(self._u_action())
        u2: Dict[int, Optional[list]] = {}

        def u_squared(m: int) -> Optional[list]:
            if m not in u2:
                u2[m] = _times(u.get(m), u.get(m + 1))
            return u2[m]

        for i in range(1, self.D):
            for n in range(0, self.D - i):
                if i == 1:
                    twist = u_squared(n)
                else:
                    lower = sq.get((i - 1, n))
                    twist = None if lower is None else _times(lower, u_squared(n + i - 1))
                if not _vanishes((_times(u.get(n), sq.get((i, n + 1))),
                                  _times(sq.get((i, n)), u.get(n + i)), twist)):
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
        two u-modules also u-equivariance, f(u x) = u f(x) in every degree.
        Both are checked on the stored nonzero matrices only, as in
        ``TruncatedModule.validate``; each degree's matrix is read once."""
        report = ValidationReport()
        if self.D == 0:  # no relation to check, and nothing is read
            return report
        f = [_nonzero_rows(self.mat(n)) for n in range(self.D + 1)]
        src, tgt = _stored_rows(self.source._action()), _stored_rows(self.target._action())
        for i in range(1, self.D + 1):
            for n in range(0, self.D - i + 1):
                if not _vanishes((_times(src.get((i, n)), f[n + i]),
                                  _times(f[n], tgt.get((i, n))))):
                    report.add(f"not A-linear at (i={i}, n={n})")
        if isinstance(self.source, FuluModule) and isinstance(self.target, FuluModule):
            su, tu = _stored_rows(self.source._u_action()), _stored_rows(self.target._u_action())
            for n in range(self.D):
                if not _vanishes((_times(su.get(n), f[n + 1]), _times(f[n], tu.get(n)))):
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
    with binomials evaluated mod 2.  So Sq(t^a) is the sum of t^(a+c) over
    the c with each c_i a bitwise submask of a_i (Lucas), and each monomial
    walks the product of its per-variable submasks once, each c landing in
    the row of Sq^|c|.
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
        top = D - d
        if not monos[d] or not top:
            continue
        rows = [[] for _ in range(top + 1)]  # rows[k]: the rows of Sq^k on degree d
        for a in monos[d]:
            acc = [0] * (top + 1)
            for c in product(*map(_submask_tuple, a)):
                k = sum(c)
                if 0 < k <= top:
                    acc[k] |= 1 << index[d + k][tuple(map(add, a, c))]
            for k in range(1, top + 1):
                rows[k].append(acc[k])
        for k in range(1, top + 1):
            action[(k, d)] = BitMatrix(dims[d], dims[d + k], tuple(rows[k]))
    return TruncatedModule(name, D, dims, action, labels)


@lru_cache(maxsize=None)
def _submask_tuple(m: int) -> Tuple[int, ...]:
    """``_submasks(m)`` as a tuple, shared per m."""
    return tuple(_submasks(m))


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
    (``tensor_action``) and the labels (``tensor_labels``) are built on
    first read.
    """
    D = min(M.D, N.D)
    layout = TensorLayout(M.dims[: D + 1], N.dims[: D + 1], D)
    mod = TruncatedModule(f"{M.name}(x){N.name}", D, layout.table.dims,
                          lambda: tensor_action(M, N, layout), lambda: tensor_labels(M, N, layout))
    return mod, layout


def tensor_labels(M: TruncatedModule, N: TruncatedModule,
                  layout: TensorLayout) -> List[Tuple[str, ...]]:
    """The labels [x|y] of M (x) N, by degree, in the order of ``layout``."""
    ml, nl = M.labels, N.labels
    return [
        tuple(f"[{x}|{y}]" for p, _, _ in layout.blocks(n) for x in ml[p] for y in nl[n - p])
        for n in range(layout.D + 1)
    ]


def tensor_action(M: TruncatedModule, N: TruncatedModule,
                  layout: TensorLayout) -> Dict[Tuple[int, int], BitMatrix]:
    """The Cartan-formula action of M (x) N on the basis of ``layout``."""
    D, dims = layout.D, layout.table.dims
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


def tensor(M: TruncatedModule, N: TruncatedModule) -> TruncatedModule:
    return tensor_with_layout(M, N)[0]


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


# -- submodules, kernels and quotients -------------------------------------------


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
                       reducers: Optional[Dict[int, RowReducer]] = None,
                       known: Optional[Dict[Tuple[int, int], BitMatrix]] = None
                       ) -> Dict[Tuple[int, int], BitMatrix]:
    """Action induced on a graded collection of row-subspaces of ``ambient``.

    Only the ambient's stored, nonzero Sq matrices are read: the rows of a
    zero matrix lie in every subspace and induce the zero matrix, which is
    not stored.  They are read by degree, so an escape names the lowest
    degree.  Each target degree's basis is eliminated once, on first use,
    into ``reducers``, which a caller may share.  ``known`` holds matrices
    of the induced action already expressed (a certificate's, on every
    row), which are taken as they are.
    """
    reducers = {} if reducers is None else reducers
    known = {} if known is None else known
    action: Dict[Tuple[int, int], BitMatrix] = {}
    for (i, n), sq in sorted(ambient.action_items(), key=lambda item: item[0][1]):
        if n + i > D or bases[n].nrows == 0:
            continue
        got = known.get((i, n))
        if got is None:
            got = _express(bases, reducers, n + i, bases[n] @ sq,
                           f"{what}: Sq^{i} escapes the subspace at degree {n}")
        action[(i, n)] = got
    return action


def submodule(ambient: TruncatedModule, bases: Dict[int, BitMatrix], name: str,
              D: Optional[int] = None, u_gens: Optional[Sequence[int]] = None
              ) -> Tuple[TruncatedModule, ModuleMap]:
    """Realize a graded row-span as a module with its inclusion.

    The module carries u when the ambient does.  Sq and u are induced
    through one reducer per target degree (``f2core.RowReducer``), so each
    degree's basis is read or eliminated at most once.  Raises
    :class:`TheoryViolation` when the span is not stable under the action
    or u, which always indicates an internal inconsistency upstream.

    u, when the ambient carries it, is induced first and at once.
    ``u_gens[n]``, when given, says that ``bases[n]`` is its first
    ``u_gens[n]`` rows, the u-generators, then u times the rows of
    ``bases[n - 1]`` in order (the closed basis of ker(taubar)): u is then
    the index map onto those rows, checked row for row, and nothing is
    expressed.  Without ``u_gens`` the u-generators of degree n are picked
    with ``f2core.complement_rows``; without u every row generates.
    Sq-stability is then certified at once on the generators
    (``_certify_on_generators``), and the induced action and the labels
    are built on first read, the action with the full escape check.
    Without u the generators are every row, so the certificate's
    coefficients are matrices of the action, which takes them as they
    are: each Sq^k on each degree is formed once.
    """
    D = ambient.D if D is None else D
    full = {n: bases.get(n, BitMatrix.zeros(0, ambient.dims[n])) for n in range(D + 1)}
    dims = [full[n].nrows for n in range(D + 1)]

    def labels() -> List[Tuple[str, ...]]:
        names = ambient.labels
        return [tuple(_sum_label(names[n], r) for r in full[n].row_ints()) for n in range(D + 1)]

    reducers: Dict[int, RowReducer] = {}
    u, gens = None, dict(full)  # without u, every row generates
    if isinstance(ambient, FuluModule):
        u = {}
        for n in range(D + 1):
            # zero rows lie in every subspace and induce the zero u, not stored
            below = ambient.times_u(n - 1, full[n - 1]) if n and dims[n - 1] else None
            if u_gens is not None:
                g = u_gens[n]
                if full[n]._rows[g:] != (() if below is None else below._rows):
                    raise TheoryViolation(f"{name}: the rows of degree {n} after its "
                                          f"u-generators are not u times degree {n - 1}")
                gens[n] = full[n].take_rows(range(g))
                if below is not None:
                    u[n - 1] = BitMatrix(dims[n - 1], dims[n],
                                         tuple(1 << (g + i) for i in range(dims[n - 1])))
            elif below is not None:
                gens[n] = complement_rows(below, full[n])
                if not below.is_zero():
                    u[n - 1] = _express(full, reducers, n, below,
                                        f"{name}: u escapes the subspace at degree {n - 1}")

    expressed = _certify_on_generators(full, gens, ambient, D, name, reducers)
    known = expressed if u is None else None  # every row generates: the action's matrices

    def action() -> Dict[Tuple[int, int], BitMatrix]:
        return _restricted_action(full, ambient, D, name, reducers, known)

    args = (name, D, dims, action, labels)
    mod = TruncatedModule(*args) if u is None else FuluModule(*args, u=u)
    return mod, ModuleMap(mod, ambient, full, D=D)


def _certify_on_generators(full: Dict[int, BitMatrix], gens: Dict[int, BitMatrix],
                           ambient: TruncatedModule, D: int, what: str,
                           reducers: Dict[int, RowReducer]
                           ) -> Dict[Tuple[int, int], BitMatrix]:
    """Sq-stability of a graded span K of ``ambient``, u-stable when the
    ambient carries u, read on its generators; raises
    :class:`TheoryViolation` on an escape, and returns the coefficients of
    Sq^k of the generators of degree n in the rows of K, keyed (k, n).

    ``gens[n]`` are rows of K^n that span it together with u K^{n-1}
    (every row of K^n when the ambient has no u), and each goes through
    Sq^{2^i} by the ambient's ``sq_rows``, which on a scalar extension is
    the row Cartan sum, so that ambient's action is not built.

    Soundness, on a valid ambient: the Sq^{2^j} with j < i generate every
    Sq^k with k < 2^i (Adem).  With no u, K is stable under Sq^{2^i} once
    its rows are, and so under all of A.  With u, the ambient satisfies
    Sq^k(u x) = u Sq^k x + u^2 Sq^{k-1} x, which ``FuluModule.validate``
    checks.  Suppose K is stable under the Sq^{2^j} with j < i.  K^n is
    spanned by its generators and u K^{n-1}, and for y in K^{n-1},
    Sq^{2^i}(u y) = u Sq^{2^i} y + u^2 Sq^{2^i - 1} y lies in K by
    induction on the degree, on i and by u-stability.  So K is stable
    under Sq^{2^i} once its generators are, and by induction on i, under
    all of A.  ``fulu.u_linear_verdict`` argues the same way for a map
    that commutes with u by construction.  The ambient is unstable, so
    Sq^k vanishes on degree n < k, and only k <= n is read.
    """
    expressed: Dict[Tuple[int, int], BitMatrix] = {}
    for n in range(D + 1):
        k = 1
        while gens[n].nrows and k <= min(n, D - n):
            expressed[(k, n)] = _express(full, reducers, n + k, ambient.sq_rows(k, n, gens[n]),
                                         f"{what}: Sq^{k} escapes the subspace at degree {n}")
            k *= 2
    return expressed


class Quotient(ModuleMap):
    """The projection of a module onto its quotient by a graded row space,
    as an operator; ``quotient`` builds it.

    ``bases[n]`` is a basis of the subspace in degree n whose rows have
    distinct lowest bits, the pivots of its rref: a canonical rref basis,
    or an echelon one.  A row maps by its remainder against it
    (``RowReducer.remainders``), which has no pivot bit set and so is the
    same on either, then by the gather of the non-pivot columns
    ``rep_cols[n]``, whose unit vectors represent the quotient's basis.  A
    row inside the subspace maps to zero with nothing gathered.  A
    representative is its own remainder and gathers to a unit vector, so
    the representatives map to the identity: the rank is the width, which
    ``rank`` reads, and no degree is eliminated.  ``mat(n)`` is built only
    when read, for tests and witnesses.  The product of the representatives
    with a matrix m is the row selection ``m.take_rows(rep_cols[n])``.  A
    subclass whose ``apply`` reads no basis (Q of a scalar extension, a
    mask) passes None for ``bases``.
    """

    def __init__(self, ambient: TruncatedModule, target: TruncatedModule,
                 bases: Optional[Sequence[BitMatrix]], rep_cols: Sequence[Sequence[int]]):
        super().__init__(ambient, target, {}, D=target.D)
        self.bases = bases
        self.rep_cols = rep_cols
        self._reducers: Dict[int, RowReducer] = {}

    @cached_property
    def _rep_runs(self) -> List[tuple]:
        """The ``column_runs`` of ``rep_cols``, which ``apply`` gathers."""
        return [column_runs(cols) for cols in self.rep_cols]

    def apply(self, n: int, rows: BitMatrix) -> BitMatrix:
        red = self._reducers.get(n)
        if red is None:
            red = self._reducers[n] = RowReducer(self.bases[n])
        rest = red.remainders(rows)
        if rest.is_zero():
            return BitMatrix.zeros(rows.nrows, self.target.dims[n])
        return rest.gather(self._rep_runs[n], self.target.dims[n])

    def rank(self, n: int) -> int:
        return self.target.dims[n]

    def mat(self, n: int) -> BitMatrix:
        if not 0 <= n <= self.D:
            return super().mat(n)
        got = self._mats.get(n)
        if got is None:
            got = self._mats[n] = self.apply(n, BitMatrix.identity(self.source.dims[n]))
        return got


def quotient(M: TruncatedModule, bases: Sequence[BitMatrix], name: str) -> Quotient:
    """The projection of M onto its quotient by a graded row space, whose
    target carries the induced structure.

    ``bases[n]`` is a basis of the subspace in degree n with distinct lowest
    bits (``Quotient``), for n = 0 .. D with D = len(bases) - 1 <= M.D;
    only its lowest bits place the quotient's basis.  On the quotient, Sq^i
    is the projection of the representatives under Sq^i, which is well
    defined only when the subspace is stable under the squares: on a span
    that is not (T15's random u-subspaces) only the dims, labels and u of
    the quotient may be read.  When M carries u, so does the quotient, with
    u the projection of u times the representatives (``M.times_u``), well
    defined when the subspace is stable under u.  The action, u and the
    labels are built on first read.
    """
    D = len(bases) - 1
    cols = []
    for n in range(D + 1):
        pivots = 0
        for r in bases[n].row_ints():
            pivots |= r & -r
        flags = bin(pivots | (1 << M.dims[n]))[:2:-1]  # column 0 first
        cols.append([c for c, f in enumerate(flags) if f == "0"])
    dims = [len(c) for c in cols]

    def labels() -> List[Tuple[str, ...]]:
        names = M.labels
        return [tuple(names[n][c] for c in rep_cols) for n, rep_cols in enumerate(cols)]

    def action() -> Dict[Tuple[int, int], BitMatrix]:
        return {(i, n): proj.apply(n + i, m.take_rows(cols[n]))
                for (i, n), m in M.action_items() if n + i <= D and dims[n]}

    if isinstance(M, FuluModule):
        def u() -> Dict[int, BitMatrix]:
            reps = [BitMatrix(dims[n], M.dims[n], tuple(1 << c for c in cols[n]))
                    for n in range(D)]
            return {n: proj.apply(n + 1, M.times_u(n, reps[n])) for n in range(D) if dims[n]}

        target: TruncatedModule = FuluModule(name, D, dims, action, labels, u=u)
    else:
        target = TruncatedModule(name, D, dims, action, labels)
    proj = Quotient(M, target, bases, cols)  # action() and u() read it when called
    return proj


def kernel_of(f: ModuleMap) -> Tuple[TruncatedModule, ModuleMap]:
    """The kernel of f with its inclusion: ``submodule`` on the
    ``left_kernel`` bases of f in every degree.  f must be A-linear, and
    commute with u where its ends carry it (``f.validate_linear()``).  A
    cokernel is ``quotient`` on the canonical bases of f's image."""
    bases = {n: left_kernel(f.mat(n)).basis for n in range(f.D + 1)}
    return submodule(f.source, bases, f"ker({f.name or 'f'})", f.D)


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
    ``coker_proj.rep_cols[n][k]``; the four-term sequence they form with
    the Sq0 map is exact in the certified range.
    """

    omega: TruncatedModule
    omega1: TruncatedModule
    ker_incl: ModuleMap
    coker_proj: Quotient
    sq0_map: ModuleMap

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
    kernel, kernel_incl = kernel_of(f)
    coker = quotient(f.target, [Subspace.from_rows(f.mat(n)).basis for n in range(f.D + 1)],
                     f"coker({f.name})")
    try:
        om = desuspend(coker.target, name=f"Om({M.name})")
    except DesuspensionError as exc:
        raise TheoryViolation(
            f"cokernel of Sq0 on {M.name} is not a suspension: {exc}"
        ) from exc
    try:
        om1 = desuspend(kernel, name=f"Om1({M.name})")
    except DesuspensionError as exc:
        raise TheoryViolation(
            f"kernel of Sq0 on {M.name} is not a suspension: {exc}"
        ) from exc
    return FourTermOmega(om, om1, kernel_incl, coker, f)


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
    invariants, invariants_incl = kernel_of(swap + ModuleMap.identity(t2))

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

    lambda2, lambda2_incl = kernel_of(diag)
    return SymLambda(
        invariants, invariants_incl, from_free, diag, lambda2, lambda2_incl, f2, phi_f1,
    )
