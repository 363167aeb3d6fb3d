import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usteen import _gf2py, f2core
from usteen.f2core import (
    BitMatrix,
    RowReducer,
    Subspace,
    complement_rows,
    express_in_rowspace,
    image_is_kernel,
    left_kernel,
    rank,
    rref,
)

from reference import (
    intersect,
    kernel_basis,
    solve,
    solve_many,
    span_sum,
    stack,
    take_cols_by_bits,
    transpose,
)


def random_matrix(rng, nrows, ncols):
    return BitMatrix.from_rows(rng.integers(0, 2, size=(nrows, ncols), dtype=np.uint8).tolist())


def naive_rank(rows):
    """Reference rank by field-of-fractions-free elimination on 0/1 lists."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                work[i] = [(x + y) % 2 for x, y in zip(work[i], work[r])]
        r += 1
    return r


def naive_rref(rows, ncols, npivot_cols=None):
    """Gauss-Jordan on 0/1 lists; pivots searched in the first ``npivot_cols`` columns."""
    work = [list(r) for r in rows]
    pivots = []
    for c in range(ncols if npivot_cols is None else npivot_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                work[i] = [(x + y) % 2 for x, y in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


def naive_kernel(rows, ncols):
    """Canonical basis (nonzero rref rows) of {v : rows . v = 0}, from the free columns."""
    red, pivots = naive_rref(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = red[i][f]
        basis.append(v)
    red, pivots = naive_rref(basis, ncols)
    return red[:len(pivots)]


def naive_transpose(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


def as_lists(ints, ncols):
    return [[(v >> j) & 1 for j in range(ncols)] for v in ints]


# word boundaries at 64 and 128, plus the empty and one-column cases
DIFF_WIDTHS = [0, 1, 2, 5, 63, 64, 65, 129]


@st.composite
def bit_rows(draw, ncols=None):
    if ncols is None:
        ncols = draw(st.sampled_from(DIFF_WIDTHS))
    ints = draw(st.lists(st.integers(0, (1 << ncols) - 1), min_size=0, max_size=7))
    return as_lists(ints, ncols), ncols


@settings(max_examples=150, deadline=None)
@given(bit_rows())
def test_differential_rref_kernels_transpose(case):
    rows, ncols = case
    m = BitMatrix.from_rows(rows, ncols)
    red, pivots = naive_rref(rows, ncols)
    res = rref(m)
    assert res.matrix.to_lists() == red
    assert list(res.pivots) == pivots and res.rank == len(pivots)
    assert rank(m) == len(pivots)
    assert transpose(m).to_lists() == naive_transpose(rows, ncols)
    assert transpose(transpose(m)) == m
    cols = list(range(ncols))[::-2] + [0] * (ncols > 0)
    assert m.take_cols(cols).to_lists() == [[row[j] for j in cols] for row in rows]
    assert kernel_basis(m).basis.to_lists() == naive_kernel(rows, ncols)
    assert left_kernel(m).basis.to_lists() == naive_kernel(naive_transpose(rows, ncols), len(rows))


@settings(max_examples=200, deadline=None)
@given(bit_rows(), st.data())
def test_take_cols_by_runs_matches_the_per_bit_oracle(case, data):
    """Consecutive indices move as one run; unsorted, repeated, empty and
    run-shaped index lists select exactly what a bit-by-bit copy does."""
    rows, ncols = case
    m = BitMatrix.from_rows(rows, ncols)
    if ncols:
        col = st.integers(0, ncols - 1)
        scattered = st.lists(col, max_size=2 * ncols + 2)
        runs = st.lists(st.tuples(col, st.integers(1, 70)), max_size=4).map(
            lambda rs: [j for start, n in rs for j in range(start, min(start + n, ncols))])
        idx = data.draw(st.one_of(scattered, runs))
    else:
        idx = []
    got = m.take_cols(idx)
    assert got.ncols == len(idx)
    assert got == take_cols_by_bits(m, idx)


@settings(max_examples=150, deadline=None)
@given(bit_rows(), st.data())
def test_differential_augmented_rref_inplace(case, data):
    rows, ncols = case
    npivot = data.draw(st.integers(0, ncols))
    red, pivots = naive_rref(rows, ncols, npivot)
    work = BitMatrix.from_rows(rows, ncols).row_ints()
    assert _gf2py.rref_inplace(work, len(rows), ncols, npivot) == pivots
    got = as_lists(work, ncols)
    k = len(pivots)
    # the pivot rows agree on the search columns; the rows after them are zero
    # there and span the same space, so consistency is decided alike
    assert [r[:npivot] for r in got[:k]] == [r[:npivot] for r in red[:k]]
    assert all(not any(r[:npivot]) for r in got[k:])
    rest, rest_piv = naive_rref(got[k:], ncols)
    want, want_piv = naive_rref(red[k:], ncols)
    assert rest[:len(rest_piv)] == want[:len(want_piv)]
    if not any(map(any, red[k:])):
        assert got == red


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DIFF_WIDTHS), st.data())
def test_differential_product(inner, data):
    a, _ = data.draw(bit_rows(ncols=inner))
    b_ncols = data.draw(st.sampled_from(DIFF_WIDTHS))
    b = data.draw(st.lists(st.integers(0, (1 << b_ncols) - 1), min_size=inner, max_size=inner))
    b = as_lists(b, b_ncols)
    prod = BitMatrix.from_rows(a, inner) @ BitMatrix.from_rows(b, b_ncols)
    want = [[sum(x * y for x, y in zip(row, col)) % 2 for col in naive_transpose(b, b_ncols)]
            for row in a]
    assert prod.to_lists() == want
    assert (prod.nrows, prod.ncols) == (len(a), b_ncols)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DIFF_WIDTHS), st.data())
def test_differential_complement_rows(ncols, data):
    """Against a pick loop that takes the naive rank of the span once per row."""
    seed, _ = data.draw(bit_rows(ncols=ncols))
    rows, _ = data.draw(bit_rows(ncols=ncols))
    want, span = [], list(seed)
    for row in rows:
        if naive_rank(span + [row]) > naive_rank(span):
            want.append(row)
            span.append(row)
    got = complement_rows(BitMatrix.from_rows(seed, ncols), BitMatrix.from_rows(rows, ncols))
    assert got.to_lists() == want and got.ncols == ncols
    with pytest.raises(ValueError, match="column count"):
        complement_rows(BitMatrix.zeros(0, ncols + 1), BitMatrix.from_rows(rows, ncols))


def test_rref_zero_matrix():
    res = rref(BitMatrix.zeros(3, 3))
    assert res.rank == 0
    assert res.pivots == ()
    assert res.matrix.is_zero()


def test_rref_identity():
    m = BitMatrix.identity(4)
    res = rref(m)
    assert res.matrix == m
    assert res.rank == 4


def test_rref_dependent_rows():
    res = rref(BitMatrix.from_rows([[1, 1], [1, 1]]))
    assert res.matrix.to_lists() == [[1, 1], [0, 0]]
    assert res.rank == 1


def test_rref_idempotent_and_canonical():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = random_matrix(rng, rng.integers(1, 12), rng.integers(1, 12))
        red = rref(m).matrix
        assert rref(red).matrix == red
        # row-equivalent matrices share the rref: permute and add rows
        rows = m.to_lists()
        rng.shuffle(rows)
        if len(rows) > 1:
            rows[0] = [(a + b) % 2 for a, b in zip(rows[0], rows[1])]
        assert rref(BitMatrix.from_rows(rows)).matrix == red


def test_row_access_bounds():
    # a negative row must not wrap around to the last row
    m = BitMatrix.zeros(2, 3)
    for i in (2, -1):
        with pytest.raises(IndexError):
            m.row_int(i)


def test_take_rows_and_cols_refuse_out_of_range_indices():
    # a negative index must not wrap around to the last row or column
    m = BitMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    assert m.take_rows([1, 0, 1]).to_lists() == [[0, 1, 0], [1, 0, 0], [0, 1, 0]]
    for bad in (-1, 2):
        with pytest.raises(IndexError):
            m.take_rows([0, bad])
    for bad in (-1, 3):
        with pytest.raises(IndexError):
            m.take_cols([0, bad])


def test_kernel_identity_and_zero():
    assert kernel_basis(BitMatrix.identity(5)).dim == 0
    assert kernel_basis(BitMatrix.zeros(4, 6)) == Subspace.full(6)


def test_kernel_small_example():
    # brute force over all 8 vectors pins span{(1,1,1)}
    m = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    expected = [v for v in range(8) if all((bin(v & r).count("1")) % 2 == 0 for r in m.row_ints())]
    ker = kernel_basis(m)
    assert ker.dim == 1
    assert sorted(expected) == sorted(
        [0] + [ker.basis.row_int(i) for i in range(ker.dim)]
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_rank_nullity(nrows, ncols, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, nrows, ncols)
    assert rank(m) + kernel_basis(m).dim == ncols


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_rank_matches_naive(nrows, ncols, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(nrows, ncols), dtype=np.uint8).tolist()
    assert rank(BitMatrix.from_rows(rows)) == naive_rank(rows)


def test_bitpacked_matches_naive_exhaustive_small():
    # every 3x3 matrix
    for code in range(2**9):
        rows = [[(code >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        assert rank(BitMatrix.from_rows(rows)) == naive_rank(rows)


def test_wide_matrices_cross_word_boundary():
    rng = np.random.default_rng(3)
    for ncols in (63, 64, 65, 127, 129):
        m = random_matrix(rng, 20, ncols)
        assert rank(m) + kernel_basis(m).dim == ncols
        assert rank(transpose(m)) == rank(m)


def test_solve_identity():
    assert solve(BitMatrix.identity(4), [1, 0, 1, 1]) == (1, 0, 1, 1)


def test_solve_no_solution_vs_empty():
    assert solve(BitMatrix.zeros(3, 2), [0, 1, 0]) is None
    # zero unknowns but consistent: the empty solution
    assert solve(BitMatrix.zeros(2, 0), [0, 0]) == ()


def test_solve_free_variable_tie_break():
    assert solve(BitMatrix.from_rows([[1, 1]]), [1]) == (1, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_solve_roundtrip(nrows, ncols, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, nrows, ncols)
    x = rng.integers(0, 2, size=ncols).tolist()
    target = [sum((m.row_int(i) >> j & 1) * x[j] for j in range(ncols)) % 2 for i in range(nrows)]
    got = solve(m, target)
    assert got is not None
    back = [sum((m.row_int(i) >> j & 1) * got[j] for j in range(ncols)) % 2 for i in range(nrows)]
    assert back == target


def test_solve_many_mixed_consistency():
    m = BitMatrix.from_rows([[1, 0], [1, 0]])
    ok = solve_many(m, BitMatrix.from_rows([[1], [1]]))
    assert ok is not None and ok.to_lists() == [[1], [0]]
    assert solve_many(m, BitMatrix.from_rows([[1], [0]])) is None


def test_express_in_rowspace():
    basis = BitMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
    vecs = BitMatrix.from_rows([[1, 1, 1], [0, 0, 0]])
    coeffs = express_in_rowspace(basis, vecs)
    assert coeffs is not None
    assert coeffs @ basis == vecs
    assert express_in_rowspace(basis, BitMatrix.from_rows([[1, 0, 0]])) is None


def test_tie_break_uses_first_independent_rows():
    # free variables are 0: coefficients land on the first independent rows
    basis = BitMatrix.from_rows([[1, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]])
    vecs = BitMatrix.from_rows([[1, 1, 0], [1, 1, 1], [0, 0, 0]])
    coeffs = express_in_rowspace(basis, vecs)
    assert coeffs.to_lists() == [[1, 0, 1, 0, 0], [1, 0, 1, 0, 1], [0, 0, 0, 0, 0]]
    m = BitMatrix.from_rows([[1, 1, 0, 1], [0, 0, 1, 1]])
    sols = solve_many(m, BitMatrix.from_rows([[1, 0, 1], [1, 1, 0]]))
    assert sols.to_lists() == [[1, 0, 1], [0, 0, 0], [1, 1, 0], [0, 0, 0]]


def express_by_transposed_solve(basis, vecs):
    """Reference for ``RowReducer``: solve the transposed system column-wise."""
    sols = solve_many(transpose(basis), transpose(vecs))
    return None if sols is None else transpose(sols)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0, 1, 63, 64, 65]), st.data())
def test_row_reducer_matches_transposed_solve(ncols, data):
    ints = st.integers(0, (1 << ncols) - 1)
    rows = data.draw(st.lists(ints, min_size=0, max_size=6))
    if rows and data.draw(st.booleans()):
        # make the basis dependent: repeat a row, add a sum of two, add zero
        rows.insert(data.draw(st.integers(0, len(rows))), rows[0])
        rows.append(rows[0] ^ rows[-1])
        rows.append(0)
    basis = BitMatrix.from_row_ints(rows, ncols)
    # combinations of the basis, which lie in the row space
    picks = data.draw(st.lists(st.integers(0, (1 << len(rows)) - 1), max_size=4))
    inside = BitMatrix.from_row_ints(picks, len(rows)) @ basis
    reducer = RowReducer(basis)
    got = reducer.express(inside)
    assert got == express_by_transposed_solve(basis, inside)
    assert got @ basis == inside
    # arbitrary vectors, which may escape the row space
    vecs = BitMatrix.from_row_ints(data.draw(st.lists(ints, max_size=4)), ncols)
    want = express_by_transposed_solve(basis, vecs)
    assert reducer.express(vecs) == want
    assert express_in_rowspace(basis, vecs) == want
    escapes = [v for v in vecs.row_ints() if not Subspace.from_rows(basis).contains_vector(v)]
    assert (want is None) == bool(escapes)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 63, 64, 65, 130]), st.data())
def test_row_reducer_reads_an_rref_basis_as_the_elimination_would(ncols, data):
    """On a basis in reduced echelon form, in any row order, the pivot table
    read off the rows equals the one the elimination over [basis | I]
    builds, and both express every vector alike; any other basis takes the
    eliminating path."""
    ints = st.integers(0, (1 << ncols) - 1)
    rows = data.draw(st.lists(ints, min_size=1, max_size=8))
    basis = Subspace.from_rows(BitMatrix.from_row_ints(rows, ncols)).basis
    order = data.draw(st.permutations(range(basis.nrows)))
    vecs = BitMatrix.from_row_ints(data.draw(st.lists(ints, max_size=5)), ncols)
    for b in (basis, basis.take_rows(order)):
        read = f2core._reduced_pivots(b.row_ints())
        assert read is not None and read == f2core._eliminated_pivots(b)
        fast = RowReducer(b)
        assert fast._piv == read
        assert fast.express(vecs) == express_by_transposed_solve(b, vecs)
    if basis.nrows >= 2:
        # one row added to another: the same span, no longer reduced
        mixed = basis.row_ints()
        mixed[1] ^= mixed[0]
        assert f2core._reduced_pivots(mixed) is None
        mixed = BitMatrix.from_row_ints(mixed, ncols)
        assert RowReducer(mixed).express(vecs) == express_by_transposed_solve(mixed, vecs)
    assert f2core._reduced_pivots(basis.row_ints() + [0]) is None


def test_rank_is_eliminated_once_and_read_from_certificates(monkeypatch):
    m = BitMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 1, 1]])
    calls = []
    echelon = f2core._echelon

    def counting(rows, width):
        calls.append(width)
        return echelon(rows, width)

    monkeypatch.setattr(f2core, "_echelon", counting)
    assert rank(m) == rank(m) == 2 and len(calls) == 1
    # rref and left_kernel record the rank of their input and their basis
    fresh = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    basis = Subspace.from_rows(fresh).basis
    assert (rank(fresh), rank(basis)) == (2, 2)
    other = BitMatrix.from_rows([[1, 0], [1, 0], [0, 1]])
    kernel = left_kernel(other)
    calls.clear()
    assert (rank(other), rank(kernel.basis)) == (2, 1) and calls == []
    proj = BitMatrix.from_rows([[0, 1], [1, 0], [1, 1]])
    assert rank(proj) == 2 and len(calls) == 1
    # a new matrix carries no rank, even with the rows of one that does
    flipped = BitMatrix.from_row_ints([r ^ (i == 2) for i, r in enumerate(proj.row_ints())], 2)
    assert rank(flipped) == 2 and len(calls) == 2
    zeroed = BitMatrix.from_row_ints([0, 0, proj.row_int(2)], 2)
    assert rank(zeroed) == 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 63, 64, 65, 130]), st.data())
def test_row_reducer_remainders_are_the_vectors_modulo_the_row_space(ncols, data):
    """A remainder differs from its vector by an element of the row space,
    has no pivot bit set, and is zero exactly for the vectors inside; on an
    rref basis and on a basis that is not reduced."""
    ints = st.integers(0, (1 << ncols) - 1)
    rows = data.draw(st.lists(ints, min_size=0, max_size=8))
    space = Subspace.from_rows(BitMatrix.from_row_ints(rows, ncols))
    pivots = sum(r & -r for r in space.basis.row_ints())
    vecs = BitMatrix.from_row_ints(data.draw(st.lists(ints, max_size=5)), ncols)
    for basis in (space.basis, BitMatrix.from_row_ints(rows, ncols)):
        rest = RowReducer(basis).remainders(vecs)
        assert (rest.nrows, rest.ncols) == (vecs.nrows, ncols)
        for v, w in zip(vecs.row_ints(), rest.row_ints()):
            assert space.contains_vector(v ^ w) and not w & pivots
            assert (w == 0) == space.contains_vector(v)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 63, 64, 65, 130]), st.data())
def test_row_reducer_reads_rows_with_distinct_lowest_bits_without_elimination(ncols, data):
    """Rows whose lowest bits are distinct, in any order and not reduced,
    are their own pivot table: no elimination runs, and express and
    remainders agree with the transposed solve and with the rref basis."""
    ints = st.integers(0, (1 << ncols) - 1)
    rows = data.draw(st.lists(ints, min_size=1, max_size=8))
    lows = {}
    for r in rows:  # keep one row per lowest bit, with its higher bits as drawn
        if r:
            lows.setdefault(r & -r, r)
    order = data.draw(st.permutations(sorted(lows)))
    basis = BitMatrix.from_row_ints([lows[b] for b in order], ncols)
    vecs = BitMatrix.from_row_ints(data.draw(st.lists(ints, max_size=5)), ncols)
    inside = BitMatrix.from_row_ints(
        data.draw(st.lists(st.integers(0, (1 << basis.nrows) - 1), max_size=3)), basis.nrows) @ basis
    eliminated = []
    real = f2core._eliminated_pivots
    f2core._eliminated_pivots = lambda b: eliminated.append(b) or real(b)
    try:
        reducer = RowReducer(basis)
    finally:
        f2core._eliminated_pivots = real
    assert eliminated == []
    canonical = RowReducer(Subspace.from_rows(basis).basis)
    for m in (vecs, inside):
        assert reducer.express(m) == express_by_transposed_solve(basis, m)
        assert reducer.remainders(m) == canonical.remainders(m)


def test_row_reducer_rejects_a_width_mismatch():
    with pytest.raises(ValueError):
        RowReducer(BitMatrix.identity(3)).express(BitMatrix.zeros(1, 4))
    with pytest.raises(ValueError):
        RowReducer(BitMatrix.identity(3)).remainders(BitMatrix.zeros(0, 4))


def test_left_kernel():
    m = BitMatrix.from_rows([[1, 1], [1, 1], [0, 1]])
    lk = left_kernel(m)
    assert lk.dim == 1
    assert lk.basis.to_lists() == [[1, 1, 0]]


def image_is_kernel_by_subspaces(f, g):
    """Reference for ``image_is_kernel``: compare the two canonical subspaces."""
    return Subspace.from_rows(f) == left_kernel(g)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 1, 63, 64, 65]),
       st.sampled_from(["exact", "rank gap", "nonzero composite", "arbitrary"]), st.data())
def test_image_is_kernel_matches_the_subspace_comparison(width, case, data):
    # g = a @ b has rank at most k, so its left kernel is large
    k = data.draw(st.integers(0, 3))
    ncols = data.draw(st.sampled_from([0, 1, 5, 64, 65]))

    def rows(n, bits):
        return data.draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=n, max_size=n))

    g = BitMatrix.from_row_ints(rows(width, k), k) @ BitMatrix.from_row_ints(rows(k, ncols), ncols)
    ker = left_kernel(g).basis

    def with_combinations(m):
        picks = data.draw(st.lists(st.integers(0, (1 << m.nrows) - 1), max_size=3))
        return stack(m, BitMatrix.from_row_ints(picks, m.nrows) @ m)

    if case == "exact":
        f, expect = with_combinations(ker), True
    elif case == "rank gap":
        # a spanning set of the kernel less one basis vector
        f = with_combinations(ker.take_rows(range(max(ker.nrows - 1, 0))))
        assert (f @ g).is_zero()
        expect = ker.nrows == 0
    elif case == "nonzero composite":
        hit = [i for i, r in enumerate(g.row_ints()) if r]
        extra = [1 << data.draw(st.sampled_from(hit))] if hit else []
        f = stack(with_combinations(ker), BitMatrix.from_row_ints(extra, width))
        assert (f @ g).is_zero() == (not hit)
        expect = not hit
    else:
        f = BitMatrix.from_row_ints(rows(data.draw(st.integers(0, 4)), width), width)
        expect = image_is_kernel_by_subspaces(f, g)
    assert image_is_kernel(f, g) == image_is_kernel_by_subspaces(f, g) == expect


def test_image_is_kernel_examples():
    g = BitMatrix.from_rows([[1, 1], [1, 1], [0, 1]])
    assert image_is_kernel(BitMatrix.from_rows([[1, 1, 0]]), g)
    assert image_is_kernel(BitMatrix.from_rows([[1, 1, 0], [0, 0, 0], [1, 1, 0]]), g)
    assert not image_is_kernel(BitMatrix.zeros(0, 3), g)  # rank gap
    assert not image_is_kernel(BitMatrix.from_rows([[1, 0, 0]]), g)  # nonzero composite
    assert image_is_kernel(BitMatrix.zeros(0, 2), BitMatrix.identity(2))
    assert image_is_kernel(BitMatrix.identity(2), BitMatrix.zeros(2, 0))
    with pytest.raises(ValueError):
        image_is_kernel(BitMatrix.identity(2), BitMatrix.identity(3))


def test_subspace_idempotence_and_axes():
    rng = np.random.default_rng(11)
    a = Subspace.from_rows(random_matrix(rng, 4, 6))
    assert intersect(a, a) == a
    assert span_sum(a, a) == a
    e1 = Subspace.from_rows(BitMatrix.from_rows([[1, 0]]))
    e2 = Subspace.from_rows(BitMatrix.from_rows([[0, 1]]))
    assert intersect(e1, e2).dim == 0


def test_subspace_intersection_example():
    # span{e1+e2, e2+e3} meets span{e1, e3} in span{e1+e3}; 16 candidates checked
    a = Subspace.from_rows(BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]]))
    b = Subspace.from_rows(BitMatrix.from_rows([[1, 0, 0], [0, 0, 1]]))
    got = intersect(a, b)
    members_a = {0}
    for v in range(8):
        if a.contains_vector(v) and b.contains_vector(v):
            members_a.add(v)
    assert got.dim == 1
    assert got.basis.row_int(0) == 0b101
    assert members_a == {0, 0b101}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_subspace_dimension_formula(ambient, seed):
    rng = np.random.default_rng(seed)
    a = Subspace.from_rows(random_matrix(rng, rng.integers(1, 6), ambient))
    b = Subspace.from_rows(random_matrix(rng, rng.integers(1, 6), ambient))
    assert span_sum(a, b).dim + intersect(a, b).dim == a.dim + b.dim


@given(bit_rows())
def test_from_rows_builds_the_canonical_basis_the_constructor_accepts(case):
    rows, ncols = case
    sp = Subspace.from_rows(BitMatrix.from_rows(rows, ncols))
    work, pivots = naive_rref(rows, ncols)
    assert sp.basis.to_lists() == work[:len(pivots)]
    assert Subspace(ncols, sp.basis) == sp


def test_from_rows_trusts_its_own_rref_and_the_constructor_checks_the_rest(monkeypatch):
    def refuse(self, ambient_dim, basis):
        raise AssertionError("from_rows re-checked its rref")

    with monkeypatch.context() as m:
        m.setattr(Subspace, "__init__", refuse)
        sp = Subspace.from_rows(BitMatrix.from_rows([[0, 1, 1], [0, 1, 1], [1, 1, 0]]))
    assert sp.basis.to_lists() == [[1, 0, 1], [0, 1, 1]]
    with pytest.raises(ValueError, match="zero rows"):
        Subspace(2, BitMatrix.from_rows([[1, 0], [0, 0]]))
    with pytest.raises(ValueError, match="strictly increase"):
        Subspace(2, BitMatrix.from_rows([[0, 1], [1, 0]]))


def test_subspace_ambient_mismatch():
    a = Subspace.full(2)
    b = Subspace.full(3)
    with pytest.raises(ValueError):
        span_sum(a, b)


def test_matmul_against_naive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_matrix(rng, rng.integers(1, 9), rng.integers(1, 9))
        b = random_matrix(rng, a.ncols, rng.integers(1, 9))
        prod = a @ b
        la, lb = a.to_lists(), b.to_lists()
        for i in range(prod.nrows):
            for j in range(prod.ncols):
                assert prod.row_int(i) >> j & 1 == sum(la[i][k] * lb[k][j] for k in range(a.ncols)) % 2


def test_bitpacked_matches_naive_around_word_boundary():
    rng = np.random.default_rng(17)
    for ncols in (32, 63, 64, 65, 66, 100, 130):
        for _ in range(3):
            rows = rng.integers(0, 2, size=(ncols, ncols), dtype=np.uint8).tolist()
            assert rank(BitMatrix.from_rows(rows)) == naive_rank(rows)
