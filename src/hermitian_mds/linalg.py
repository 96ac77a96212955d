"""Dense exact linear algebra over GF(q).

Matrices are plain lists of rows, entries canonical GF(q) integers.  rref
binds the field's GF(q) tables (q_add_table, q_neg_table, q_mul_table,
q_inv_table) once per call.  Everything downstream (generator matrices,
MDS minors, plane solves, curve fitting) is small and exact, so the
implementation favors determinism over asymptotics: row reduction scans
columns left to right and always picks the first usable pivot row.
"""


def rref(F, rows):
    """Reduced row echelon form of rows over GF(q), with its pivot columns.

    Returns (rows, pivots) as new lists; the input is not modified.
    """
    ADD, NEG, MUL, INV = F.q_add_table, F.q_neg_table, F.q_mul_table, F.q_inv_table
    rows = [list(row) for row in rows]
    m = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == m:
            break
        sel = next((i for i in range(r, m) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        scale = MUL[INV[rows[r][c]]]
        prow = rows[r] = [scale[x] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                # row - f*prow = row + (-f)*prow; prow is zero left of c
                sub = MUL[NEG[row[c]]]
                rows[i] = row[:c] + [ADD[x][sub[y]] for x, y in zip(row[c:], prow[c:])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(F, rows):
    """Rank of rows over GF(q): the number of pivots rref finds."""
    return len(rref(F, rows)[1])
