"""Reference implementations that only the tests read.

Each one is an oracle for, or a building block of, a test: the package
itself certifies with ``rank``, ``left_kernel``, ``image_is_kernel`` and
``RowReducer`` and never needs these.
"""

from typing import Dict, Iterable, List, Optional, Sequence

from usteen import _gf2py
from usteen.f2core import BitMatrix, Subspace, rref
from usteen.fulu import u_linear_map
from usteen.unstable import (
    FuluModule,
    ModuleMap,
    Quotient,
    TensorLayout,
    TruncatedModule,
    polynomial_module,
    quotient,
)

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
    return Subspace.from_rows(a.basis.stack(b.basis))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked annihilator system."""
    _check_ambient(a, b)
    return kernel_basis(kernel_basis(a.basis).basis.stack(kernel_basis(b.basis).basis))


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


def with_u(M: TruncatedModule, u: Dict[int, BitMatrix]) -> FuluModule:
    """M, with its name, labels and Sq action, and the multiplication ``u``."""
    return FuluModule(M.name, M.D, M.dims, dict(M.action_items()), M.labels, u=u)


def fulu_algebra(D: int) -> FuluModule:
    """The rank-one polynomial algebra itself, with u acting by the shift."""
    return with_u(polynomial_module(1, D, varnames=("u",), name="F[u]"),
                  {n: BitMatrix.identity(1) for n in range(D)})


def q_data_by_elimination(N: FuluModule) -> Quotient:
    """N/uN by eliminating the image of u in every degree, for any u-module;
    the oracle of the closed form that ``fulu.q_data`` takes on a scalar
    extension."""
    images = [BitMatrix.zeros(0, N.dim(0))] + [
        Subspace.from_rows(N.u_mat(n - 1)).basis for n in range(1, N.D + 1)
    ]
    return quotient(N, images, f"Q({N.name})")


def quotient_u_module_by_elimination(X) -> FuluModule:
    """The ambient of a graded u-subspace X modulo X, by ``quotient``: a
    dense projection per degree and u as ``reps @ u @ proj``; the oracle of
    ``fulu.quotient_u_module``, which projects by an operator."""
    amb = X.ambient
    space = FuluModule(amb.name, amb.D, amb.dims, {}, amb.labels, u=dict(amb.u_items()))
    return quotient(space, [X.bases[n] for n in range(amb.D + 1)], f"({amb.name})/X").module


def graded_span_by_elimination(ambient: FuluModule,
                               seeds: Dict[int, Sequence[int]]) -> Dict[int, BitMatrix]:
    """Canonical bases of the u-submodule generated by seed vectors: in
    every degree the seeds and u times the previous basis, eliminated."""
    bases: Dict[int, BitMatrix] = {}
    for n in range(ambient.D + 1):
        mat = BitMatrix.from_row_ints(seeds.get(n, ()), ambient.dim(n))
        if n > 0:
            mat = mat.stack(bases[n - 1] @ ambient.u_mat(n - 1))
        bases[n] = Subspace.from_rows(mat).basis
    return bases


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


def mutant_tau(calc, drop) -> ModuleMap:
    """The tau of a realm calculus with the u^0 copy of the unit in the
    components ``drop`` removed from its degree-0 row, extended u-linearly.

    Dropping the copy in component 0 leaves taubar = pi o tau unchanged,
    so only the equalizer verdict can see it."""
    layer = [calc.tau.mat(d).take_rows(range(calc.X.table.dims[d])).row_ints()
             for d in range(calc.D + 1)]
    unit = (0,) * calc.X.summands[0].r
    for c in drop:
        layer[0][0] ^= 1 << calc.ETX.index(0, 0, calc.TX.index(0, c, unit))
    return u_linear_map(calc.E, calc.ETX, layer, name="tau")
