"""The GF(2) elimination and product kernels on Python-int rows.

A matrix is a list of non-negative ints, one per row, with column ``j`` at
bit ``j``; a row operation is one big-int XOR.
"""

from __future__ import annotations


def rref_inplace(work: list, nrows: int, ncols: int, npivot_cols: int, /) -> list:
    """Reduce the ``nrows`` rows of ``work`` to reduced row-echelon form in place.

    Pivots are searched in the first ``npivot_cols`` columns only; row
    operations still apply to all ``ncols`` columns (augmented solves rely
    on this).  On return ``work`` holds the pivot rows in pivot-column order,
    followed by the rows that are zero in the pivot search columns.  Returns
    the list of pivot columns.  ``nrows`` and ``ncols`` state the shape of
    ``work``; the ints carry it, so they are not read.
    """
    search = (1 << npivot_cols) - 1
    piv = {}  # pivot bit -> the row whose lowest search bit it is
    rest = []
    for r in work:
        while True:
            low = r & search
            if not low:
                rest.append(r)
                break
            b = low & -low
            p = piv.get(b)
            if p is None:
                piv[b] = r
                break
            r ^= p
    order = sorted(piv)
    # back-substitute from the last pivot down, so that every row XORed in
    # is already zero in the other pivot columns
    pmask = sum(order)
    for b in reversed(order):
        r = piv[b]
        hits = (r & pmask) ^ b
        while hits:
            h = hits & -hits
            r ^= piv[h]
            hits ^= h
        piv[b] = r
    work[:] = [piv[b] for b in order] + rest
    return [b.bit_length() - 1 for b in order]


def mat_mult(a: list, b: list, /) -> list:
    """GF(2) product rows: row ``i`` is the XOR of ``b[j]`` over bits ``j`` of ``a[i]``.

    Every row of ``a`` must be below ``2 ** len(b)``.  The cost is one XOR
    per set bit of ``a``: the catalog's left factors are at most a few
    percent dense, where this beats 8-row XOR tables (M4RM) by over 10x.
    """
    out = []
    for r in a:
        acc = 0
        while r:
            low = r & -r
            acc ^= b[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return out
