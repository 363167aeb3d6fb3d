"""Reference implementations that only the tests read.

Each one is an oracle for, or a building block of, a test: the package
itself certifies with ``rank``, ``left_kernel``, ``image_is_kernel`` and
``RowReducer`` and never needs these.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from usteen import _gf2py, cli, fulu, harness, lannes, steenrod
from usteen.f2core import BitMatrix, Subspace, column_runs, express_in_rowspace, left_kernel, rref
from usteen.fulu import GradedSubspace
from usteen.lannes import _component_targets
from usteen.unstable import (
    BlockLayout,
    FuluModule,
    ModuleMap,
    TensorLayout,
    TruncatedModule,
    _monomial_pos,
    _monomials,
    _submasks,
    kernel_of,
    polynomial_module,
    quotient,
    submodule,
)

# -- process memos ---------------------------------------------------------------


def clear_memos() -> None:
    """Forget every object the package shares within a process: the realm
    calculi and the index of the widest one per realm object, the built-in
    modules of the command line, the H(V_r), the powers of u and the
    division data of T12 and T13.  The next reader builds and certifies
    them again."""
    lannes._calculus.cache_clear()
    lannes._widest_degree.clear()
    cli._builtin_module.cache_clear()
    lannes.hv_module.cache_clear()
    fulu._u_powers.cache_clear()
    harness._doubled_free_division.cache_clear()


# -- GF(2) linear algebra ------------------------------------------------------


def transpose(m: BitMatrix) -> BitMatrix:
    out = [0] * m.ncols
    for i, r in enumerate(m.row_ints()):
        bit = 1 << i
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= bit
            r ^= low
    return BitMatrix(m.ncols, m.nrows, tuple(out))


def concat_cols(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """The columns of ``a``, then those of ``b``."""
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch")
    n = a.ncols
    return BitMatrix(a.nrows, n + b.ncols, tuple(x | (y << n) for x, y in zip(a.row_ints(), b.row_ints())))


def stack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """The rows of ``a``, then those of ``b``."""
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    return BitMatrix(a.nrows + b.nrows, a.ncols, tuple(a.row_ints() + b.row_ints()))


def kernel_basis(m: BitMatrix) -> Subspace:
    """The subspace {v : m @ v = 0}, of dimension cols - rank."""
    res = rref(m)
    pivots = set(res.pivots)
    free = {f: 1 << f for f in range(m.ncols) if f not in pivots}
    for r, p in zip(res.matrix.row_ints(), res.pivots):
        r &= ~(1 << p)
        while r:
            low = r & -r
            free[low.bit_length() - 1] |= 1 << p
            r ^= low
    return Subspace.from_rows(BitMatrix(len(free), m.ncols, tuple(free.values())))


def solve(m: BitMatrix, target: Sequence[int]) -> Optional[tuple]:
    """One solution of ``m @ x = target``, or None when inconsistent.

    Free variables are set to 0.  An empty solution (zero unknowns) is the
    empty tuple, distinct from None.
    """
    tgt = list(target)
    if len(tgt) != m.nrows:
        raise ValueError("target length must equal row count")
    sols = solve_many(m, BitMatrix.from_rows([[b] for b in tgt], 1))
    return None if sols is None else tuple(sols.row_ints())


def solve_many(m: BitMatrix, targets: BitMatrix) -> Optional[BitMatrix]:
    """Solve ``m @ X = targets`` column-wise; None if any column fails.

    ``targets`` has one column per system.  Free variables are 0.
    """
    if targets.nrows != m.nrows:
        raise ValueError("target row count mismatch")
    n = m.ncols
    work = [a | (b << n) for a, b in zip(m.row_ints(), targets.row_ints())]
    pivots = _gf2py.rref_inplace(work, m.nrows, n + targets.ncols, n)
    # any row left over after the pivot rows witnesses inconsistency
    if any(work[len(pivots):]):
        return None
    out = [0] * n
    for r, p in zip(work, pivots):
        out[p] = r >> n
    return BitMatrix(n, targets.ncols, tuple(out))


def _check_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")


def contains(a: Subspace, b: Subspace) -> bool:
    _check_ambient(a, b)
    return all(a.contains_vector(v) for v in b.basis.row_ints())


def span_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_ambient(a, b)
    return Subspace.from_rows(stack(a.basis, b.basis))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked annihilator system."""
    _check_ambient(a, b)
    return kernel_basis(stack(kernel_basis(a.basis).basis, kernel_basis(b.basis).basis))


# -- modules ---------------------------------------------------------------------


def u_on_span_by_solving(incl: Dict[int, BitMatrix], ambient: FuluModule,
                         D: int) -> Dict[int, BitMatrix]:
    """u on the span of the rows ``incl[n]`` of a u-module: the C_n with
    C_n @ incl[n + 1] = incl[n] @ u, one plain solve per degree."""
    return {
        n: transpose(solve_many(transpose(incl[n + 1]), transpose(incl[n] @ ambient.u_mat(n))))
        for n in range(D)
    }


def u_on_quotient_by_solving(proj: Dict[int, BitMatrix], ambient: FuluModule,
                             D: int) -> Dict[int, BitMatrix]:
    """u on a quotient of a u-module with surjections ``proj[n]``: the X_n
    with proj[n] @ X_n = u @ proj[n + 1], one plain solve per degree."""
    return {n: solve_many(proj[n], ambient.u_mat(n) @ proj[n + 1]) for n in range(D)}


def validate_dense(M: TruncatedModule) -> List[str]:
    """The violations of ``TruncatedModule.validate``, from dense matrices:
    every (a, b, n) of every relation takes its products, a zero factor or
    not, with each (word, degree) product formed once."""
    violations = []
    for (i, n), m in M.action_items():
        if i > n and not m.is_zero():
            violations.append(f"instability violated at (i={i}, n={n})")
    words: Dict[tuple, BitMatrix] = {}

    def word(w: tuple, n: int) -> BitMatrix:
        got = words.get((w, n))
        if got is None:
            rest = w[1:]
            got = word(rest, n) @ M.sq(w[0], n + sum(rest)) if rest else M.sq(w[0], n)
            words[(w, n)] = got
        return got

    for b in range(1, M.D + 1):
        for a in range(1, 2 * b):
            if a + b > M.D:
                break
            nf = steenrod.adem_normal_form((a, b))
            for n in range(0, M.D - a - b + 1):
                if M.dims[n] == 0:
                    continue
                rhs = BitMatrix.zeros(M.dims[n], M.dims[n + a + b])
                for w in nf:
                    rhs = rhs + word(w, n)
                if word((a, b), n) != rhs:
                    violations.append(f"Adem coherence fails for Sq^{a}Sq^{b} on degree {n}")
    return violations


def validate_fulu_dense(M: FuluModule) -> List[str]:
    """The violations of ``FuluModule.validate``, from dense matrices:
    Sq^i(u x) = u Sq^i x + u^2 Sq^{i-1} x as products on every (i, n)."""
    violations = validate_dense(M)
    for i in range(1, M.D):
        for n in range(0, M.D - i):
            lhs = M.u_mat(n) @ M.sq(i, n + 1)
            rhs = M.sq(i, n) @ M.u_mat(n + i)
            if i >= 2:
                rhs = rhs + M.sq(i - 1, n) @ M.u_mat(n + i - 1) @ M.u_mat(n + i)
            else:
                rhs = rhs + M.u_mat(n) @ M.u_mat(n + 1)
            if lhs != rhs:
                violations.append(f"u-multiplication not Cartan-compatible at (i={i}, n={n})")
    return violations


def validate_linear_dense(f: ModuleMap) -> List[str]:
    """The violations of ``ModuleMap.validate_linear``, from dense matrices:
    both sides of f Sq^i = Sq^i f (and f u = u f) as products on every degree."""
    violations = []
    for i in range(1, f.D + 1):
        for n in range(0, f.D - i + 1):
            if f.source.sq(i, n) @ f.mat(n + i) != f.mat(n) @ f.target.sq(i, n):
                violations.append(f"not A-linear at (i={i}, n={n})")
    if isinstance(f.source, FuluModule) and isinstance(f.target, FuluModule):
        for n in range(f.D):
            if f.source.u_mat(n) @ f.mat(n + 1) != f.mat(n) @ f.target.u_mat(n):
                violations.append(f"not u-equivariant at degree {n}")
    return violations


def with_u(M: TruncatedModule, u: Dict[int, BitMatrix]) -> FuluModule:
    """M, with its name, labels and Sq action, and the multiplication ``u``."""
    return FuluModule(M.name, M.D, M.dims, dict(M.action_items()), M.labels, u=u)


def fulu_algebra(D: int) -> FuluModule:
    """The rank-one polynomial algebra itself, with u acting by the shift."""
    return with_u(polynomial_module(1, D, varnames=("u",), name="F[u]"),
                  {n: BitMatrix.identity(1) for n in range(D)})


# -- quotients --------------------------------------------------------------------


def coker_data(image_rref: BitMatrix, dim: int) -> Tuple[BitMatrix, List[int]]:
    """Dense projection and representatives for a quotient by a row space;
    the oracle of ``unstable.Quotient``'s ``mat`` and ``rep_cols``.

    ``image_rref`` must be in reduced row-echelon form without zero rows.
    Returns (proj, rep_cols): proj maps ambient coords to quotient coords,
    and the quotient representatives are the standard vectors at the
    non-pivot columns ``rep_cols``.  In closed form, a non-pivot coordinate
    projects to itself and a pivot coordinate to its rref row minus the
    pivot bit, which has only non-pivot bits.
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


@dataclass
class DenseQuotient:
    """A quotient module with one dense projection matrix per degree and the
    non-pivot columns whose unit vectors represent its basis."""

    module: TruncatedModule
    proj_mats: Dict[int, BitMatrix]
    rep_cols: List[List[int]]


def dense_quotient(M: TruncatedModule, bases: Sequence[BitMatrix], name: str) -> DenseQuotient:
    """M modulo the graded row space with rref ``bases``, densely: the
    ``coker_data`` projection of every degree, Sq^i = reps @ sq @ proj and,
    when M carries u, u = reps @ u @ proj; the oracle of
    ``unstable.quotient``, whose projection is an operator."""
    D = len(bases) - 1
    proj, cols = {}, []
    for n in range(D + 1):
        proj[n], rep_cols = coker_data(bases[n], M.dims[n])
        cols.append(rep_cols)
    dims = [len(c) for c in cols]
    labels = [tuple(M.labels[n][c] for c in cols[n]) for n in range(D + 1)]
    action = {(i, n): m.take_rows(cols[n]) @ proj[n + i]
              for (i, n), m in M.action_items() if n + i <= D}
    if isinstance(M, FuluModule):
        u = {n: (M.u_mat(n) @ proj[n + 1]).take_rows(cols[n]) for n in range(D)}
        module: TruncatedModule = FuluModule(name, D, dims, action, labels, u=u)
    else:
        module = TruncatedModule(name, D, dims, action, labels)
    return DenseQuotient(module, proj, cols)


def image_submodule(f: ModuleMap):
    """The image of f as the ``submodule`` of its target on the canonical
    bases of f's row spaces, with its inclusion and f expressed in it (the
    factor map f = factor then inclusion)."""
    bases = {n: Subspace.from_rows(f.mat(n)).basis for n in range(f.D + 1)}
    image, incl = submodule(f.target, bases, f"im({f.name or 'f'})", f.D)
    factor = {n: express_in_rowspace(bases[n], f.mat(n)) for n in range(f.D + 1)}
    return image, incl, ModuleMap(f.source, image, factor, D=f.D)


def q_data_by_elimination(N: FuluModule) -> DenseQuotient:
    """N/uN by eliminating the image of u in every degree, for any u-module;
    the oracle of ``fulu.q_data``."""
    images = [BitMatrix.zeros(0, N.dim(0))] + [
        Subspace.from_rows(N.u_mat(n - 1)).basis for n in range(1, N.D + 1)
    ]
    return dense_quotient(N, images, f"Q({N.name})")


def u_quotient_by_elimination(X) -> FuluModule:
    """The ambient of a graded u-subspace X modulo X as a graded u-module
    (no Sq: X need not be stable under it), by ``dense_quotient``."""
    amb = X.ambient
    space = FuluModule(amb.name, amb.D, amb.dims, {}, amb.labels, u=dict(amb.u_items()))
    return dense_quotient(space, [X.bases[n] for n in range(amb.D + 1)], f"({amb.name})/X").module


def graded_span_by_elimination(ambient: FuluModule,
                               seeds: Dict[int, Sequence[int]]) -> Dict[int, BitMatrix]:
    """Canonical bases of the u-submodule generated by seed vectors: in
    every degree the seeds and u times the previous basis, eliminated."""
    bases: Dict[int, BitMatrix] = {}
    for n in range(ambient.D + 1):
        mat = BitMatrix.from_row_ints(seeds.get(n, ()), ambient.dim(n))
        if n > 0:
            mat = stack(mat, bases[n - 1] @ ambient.u_mat(n - 1))
        bases[n] = Subspace.from_rows(mat).basis
    return bases


def checked_graded_subspace(ambient, bases: Dict[int, BitMatrix]) -> GradedSubspace:
    """A graded u-subspace of a scalar extension on given bases: each is
    re-eliminated to its canonical rref basis, a missing degree is zero,
    and u-closure is tested vector by vector.  The checked constructor that
    ``GradedSubspace.from_vectors`` made unnecessary, kept as its oracle."""
    full = {}
    for n in range(ambient.D + 1):
        b = bases.get(n, BitMatrix.zeros(0, ambient.dim(n)))
        if b.ncols != ambient.dim(n):
            raise ValueError(f"basis width mismatch at degree {n}")
        full[n] = Subspace.from_rows(b).basis
    for n in range(ambient.D):
        target = Subspace(ambient.dim(n + 1), full[n + 1])
        if not all(map(target.contains_vector, ambient.times_u(n, full[n]).row_ints())):
            raise ValueError(f"not closed under u at degree {n}")
    X = GradedSubspace.__new__(GradedSubspace)
    X.ambient, X.bases = ambient, full
    return X


def shifted_subspace_by_elimination(rng, E) -> Dict[int, BitMatrix]:
    """The bases of a style-2 random subspace of T14 as it was first built,
    the oracle of ``harness._random_subspace``: the span X of the style-1
    seeds (up to two random vectors of the base's degree n in E's u^0
    block, for each n), then k in {1, 2} products with u of each X^n,
    placed in degree n + k, then the span of those, all by elimination.
    The draws from ``rng`` are those of ``_random_subspace``, in order."""
    seeds: Dict[int, List[int]] = {}
    for n in range(E.D + 1):
        if E.base.dims[n]:
            for _ in range(rng.randint(0, 2)):
                seeds.setdefault(n, []).append(rng.randrange(1, 1 << E.base.dims[n]) << E.block(n, 0)[0])
    inner = graded_span_by_elimination(E, seeds)
    k = rng.randint(1, 2)
    shifted = {}
    for n in range(E.D + 1 - k):
        mat = inner[n]
        for step in range(k):
            mat = mat @ E.u_mat(n + step)
        shifted[n + k] = mat.row_ints()
    return graded_span_by_elimination(E, shifted)


def unit_rows(cols: Sequence[int], width: int) -> BitMatrix:
    """The matrix whose row k is the unit vector at ``cols[k]``: a quotient's
    representatives, or the embedding of a block."""
    return BitMatrix.from_row_ints([1 << c for c in cols], width)


def take_cols_by_bits(m: BitMatrix, indices: Sequence[int]) -> BitMatrix:
    """Column ``indices[k]`` of ``m`` as column k, one bit at a time."""
    rows = tuple(sum(((r >> j) & 1) << k for k, j in enumerate(indices)) for r in m.row_ints())
    return BitMatrix(m.nrows, len(indices), rows)


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


def direct_sum(mods: Sequence[TruncatedModule], name: Optional[str] = None,
               tags: Optional[Sequence[str]] = None) -> Tuple[TruncatedModule, List[Dict[int, int]]]:
    """Block direct sum; returns the module plus per-summand degree offsets.

    An offset is that of the summand's block, 0 where the block is empty.
    No code in the package reads a sum of modules; realm objects place
    their summands in one ``BlockLayout`` of their own.
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


def tensor_row(layout: TensorLayout, n: int, p: int, left_row: int, right_row: int) -> int:
    """The flat row of degree n of left_row (x) right_row, for int-packed
    vectors of the left basis in degree p and the right one in n - p: one
    shifted copy of the right row per set bit of the left one."""
    if not (left_row and right_row):
        return 0
    off = layout.offset(n, p)
    stride = layout.right_dims[n - p]
    out = 0
    while left_row:
        low = left_row & -left_row
        out |= right_row << (off + (low.bit_length() - 1) * stride)
        left_row ^= low
    return out


def tensor_by_pairs(M: TruncatedModule, N: TruncatedModule):
    """The layout, action and labels of M (x) N, with the action by the
    Cartan formula one basis pair at a time: for every (k, n), block p and
    a, the rows of Sq^a on M^p and Sq^(k-a) on N^(n-p), pair by pair."""
    D = min(M.D, N.D)
    layout = TensorLayout(M.dims[: D + 1], N.dims[: D + 1], D)
    dims = layout.table.dims
    labels = tuple(
        tuple(f"[{x}|{y}]" for p, _, _ in layout.blocks(n) for x in M.labels[p] for y in N.labels[n - p])
        for n in range(D + 1)
    )
    action = {}
    for n in range(D + 1):
        if dims[n] == 0:
            continue
        for k in range(1, D - n + 1):
            rows = [0] * dims[n]
            for p, off, _ in layout.blocks(n):
                q = n - p
                for a in range(max(0, k - q), min(k, p) + 1):
                    ma, nb = M.sq(a, p), N.sq(k - a, q)
                    for i in range(M.dims[p]):
                        for j in range(N.dims[q]):
                            rows[off + i * N.dims[q] + j] ^= tensor_row(
                                layout, n + k, p + a, ma.row_int(i), nb.row_int(j))
            if any(rows):
                action[(k, n)] = BitMatrix.from_row_ints(rows, dims[n + k])
    return layout, action, labels


def one_sided_u_by_pairs(N1: FuluModule, N2: FuluModule, layout: TensorLayout,
                         left: bool) -> Dict[int, BitMatrix]:
    """u (x) 1 (left) or 1 (x) u (right) on N1 (x) N2, one basis pair at a time."""
    mats = {}
    for n in range(layout.D):
        rows = []
        for p, _, _ in layout.blocks(n):
            q = n - p
            for i in range(N1.dim(p)):
                for j in range(N2.dim(q)):
                    if left:
                        rows.append(tensor_row(layout, n + 1, p + 1, N1.u_mat(p).row_int(i), 1 << j))
                    else:
                        rows.append(tensor_row(layout, n + 1, p, 1 << i, N2.u_mat(q).row_int(j)))
        mats[n] = BitMatrix.from_row_ints(rows, layout.table.dims[n + 1])
    return mats


# -- mutants -----------------------------------------------------------------------


def flip_bit(m: BitMatrix, row: int, col: int) -> BitMatrix:
    rows = m.row_ints()
    rows[row] ^= 1 << col
    return BitMatrix(m.nrows, m.ncols, tuple(rows))


def one_bit_flips(stored: Dict, shapes: Dict, rng, count: int):
    """Copies of the matrix dict ``stored``, each with one bit flipped:
    ``count`` in stored matrices, then ``count`` in absent (zero) ones, as
    pairs (flipped in a stored matrix, copy).  ``shapes`` gives the shape of
    every key a matrix may have; keys of an empty shape are skipped."""
    keys = [k for k, (r, c) in shapes.items() if r and c]
    for in_stored in (True, False):
        pool = [k for k in keys if (k in stored) == in_stored]
        for _ in range(count if pool else 0):
            k = rng.choice(pool)
            r, c = shapes[k]
            mats = dict(stored)
            mats[k] = flip_bit(stored.get(k, BitMatrix.zeros(r, c)), rng.randrange(r), rng.randrange(c))
            yield in_stored, mats


def drop_u0_copies(calc, drop) -> None:
    """Make the tau of ``calc`` miss the components v in ``drop`` in every
    u^0 term: the pattern that places a term of support 0 on every copy of
    its summand (``RealmCalculus._support_pattern``, read through the
    calculus) loses the copies at those v.

    The u^0 terms lie outside bar, so taubar is unchanged and only the
    equalizer verdict can see it; its first failing row is the unit."""
    real = calc._support_pattern

    def pattern(r, support, width):
        out = real(r, support, width)
        if not support:
            for v in drop:
                out &= ~(1 << (v * width))
        return out

    calc._support_pattern = pattern


def bar_runs_by_columns(calc) -> List[tuple]:
    """The columns of F[u] (x) TX that bar keeps, listed one by one in
    bar's order (u-power, then reduced component, then monomial) and
    grouped by ``column_runs``: the oracle of where taubar's u^0 layer
    keeps the columns of tau's.  The u^a blocks are placed by the
    ``TensorLayout`` of F[u] (x) TX."""
    reduced = [calc.TX.comp_pos[comp] for comp in calc.tbar.components]
    table, layout = calc.TX.table, calc.ETX.layout.table
    runs = []
    for d in range(calc.D + 1):
        cols = []
        for a in range(1, d + 1):
            start = layout.block(d, a)[0]
            for c in reduced:
                off, width = table.block(d - a, c)
                cols.extend(range(start + off, start + off + width))
        runs.append(column_runs(cols))
    return runs


def compositions_submask(a: Tuple[int, ...], k: int) -> List[Tuple[int, ...]]:
    """Tuples c with sum k and each c_i a bitwise submask of a_i, by
    recursion over the variables: the terms of Sq^k(t^a)."""
    if not a:
        return [()] if k == 0 else []
    out = []
    for c0 in _submasks(a[0]):
        if c0 > k:
            continue
        for rest in compositions_submask(a[1:], k - c0):
            out.append((c0,) + rest)
    return out


def polynomial_action_by_compositions(r: int, D: int) -> Dict[Tuple[int, int], BitMatrix]:
    """The stored action of ``polynomial_module(r, D)``, one composition
    enumeration per (monomial, square)."""
    action = {}
    for d in range(D + 1):
        for k in range(1, D - d + 1):
            pos = _monomial_pos(r, d + k)
            rows = []
            for a in _monomials(r, d):
                row = 0
                for c in compositions_submask(a, k):
                    row |= 1 << pos[tuple(x + y for x, y in zip(a, c))]
                rows.append(row)
            m = BitMatrix(len(rows), len(pos), tuple(rows))
            if not m.is_zero():
                action[(k, d)] = m
    return action


class Subquotient:
    """Kernel and cokernel of an A-linear map f: the kernel and its
    inclusion by ``kernel_of``, the cokernel projection ``coker`` by
    ``quotient`` on the canonical bases of f's image, built on first read."""

    def __init__(self, f: ModuleMap):
        self.f = f
        self.kernel, self.kernel_incl = kernel_of(f)

    @cached_property
    def coker(self):
        f = self.f
        bases = [Subspace.from_rows(f.mat(n)).basis for n in range(f.D + 1)]
        return quotient(f.target, bases, f"coker({f.name or 'f'})")


def taubar_subquotient(calc) -> Subquotient:
    """Kernel and cokernel of taubar by elimination: ``left_kernel`` of
    taubar's full matrix in every degree, the kernel realized by
    ``submodule`` with a reducer per degree.  The package builds ker(taubar)
    on its closed basis (``RealmCalculus.st1_basis``) instead; this is the
    oracle of that basis and its module."""
    return Subquotient(calc.taubar)


def taubar_image_rref(calc) -> GradedSubspace:
    """im(taubar) as the graded u-submodule of bar generated by taubar's
    u^0 layer, on canonical rref bases (``GradedSubspace.from_vectors``):
    the route the package took before it read the image off leg (c) of
    the certificate of ker(taubar) (``RealmCalculus.image_basis``), kept as
    its oracle."""
    return GradedSubspace.from_vectors(calc.bar, dict(enumerate(calc.taubar.layer)))


def q_of_quotient(q_amb, X: GradedSubspace):
    """The projection Q(N) -> Q(N/X) for a graded u-subspace X of a scalar
    extension N, read off the pivots of X: ``q_amb`` is ``q_data(N)``.

    Q is right exact, so Q(N/X) is Q(N) modulo the image of X.  Q(N) is
    the lowest u-block, the lowest bits, so that image is spanned by the
    rref rows of X whose pivot lies in the block, masked to it; the other
    rows vanish there.  The masked rows keep their pivots and their reduced
    form, so they are canonical bases as they are.  The oracle of T8's
    quotient by ``RealmCalculus.q_image_bases``.
    """
    amb = X.ambient
    bases = {}
    for n in range(amb.D + 1):
        width = amb.block(n, amb.start)[1]
        mask = (1 << width) - 1
        rows = tuple(r & mask for r in X.bases[n].row_ints() if r & mask)
        bases[n] = BitMatrix(len(rows), width, rows)
    return quotient(q_amb.target, bases, f"({q_amb.target.name})/X")


def taubar_kernel_spaces(calc) -> List[Subspace]:
    """ker(taubar) in every degree by ``left_kernel`` of taubar's full
    matrix: the oracle of ``RealmCalculus.kernel_spaces``."""
    return [left_kernel(calc.taubar.mat(n)) for n in range(calc.D + 1)]


def twist_terms(mono: Tuple[int, ...], v: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """The twist of t^m = ``mono`` by the group element v, the algebra map
    t_i -> t_i + v_i u, as pairs (u-power, leftover monomial): the expansion
    of prod (t_i + v_i u)^{m_i}, one variable at a time."""
    terms = [(0, ())]
    for i, b in enumerate(mono):
        if (v >> i) & 1:
            terms = [(e + sub, m + (b - sub,)) for sub in _submasks(b) for e, m in terms]
        else:
            terms = [(e, m + (b,)) for e, m in terms]
    return terms


# -- maps that only move components ---------------------------------------------


def component_map(src, tgt, P: BitMatrix) -> Dict[int, BitMatrix]:
    """The degreewise matrices of a map of realm objects that only moves
    components: P (x) I, the oracle of the verdicts the package reads on P.

    Bit ``c2`` of row ``c`` of ``P`` sends each monomial of component ``c``
    of ``src`` to the same monomial of component ``c2`` of ``tgt``.  Both
    components must be copies of one summand (``lannes._component_targets``
    refuses any other pair), so their blocks list the same monomials in the
    same order; a source block then maps by one pattern of target offsets,
    shifted by the position inside the block.
    """
    targets = _component_targets(src.summands, tgt.summands, P)
    mats = {}
    for n in range(src.D + 1):
        rows = []
        for c, _, width in src.table.blocks(n):
            pattern = 0
            for c2 in targets[c]:
                pattern ^= 1 << tgt.table.offset(n, c2)
            rows.extend(pattern << k for k in range(width))
        mats[n] = BitMatrix(len(rows), tgt.table.dims[n], tuple(rows))
    return mats


def diag_map(calc) -> ModuleMap:
    """The splitting embedding of the base into its expansion, as a map of
    modules on its component matrix ``diag_components``."""
    mats = component_map(calc.X, calc.TX, calc.diag_components)
    return ModuleMap(calc.X.module, calc.TX.module, mats, name="diag")
