"""Dense exact linear algebra over GF(q).

Matrices are lists of rows, entries canonical GF(q) integers, with all
arithmetic delegated to a FieldTower's GF(q) suite.  Everything downstream
(generator matrices, plane solves, curve fitting) is small and exact, so
the implementation favors determinism over asymptotics: row reduction scans
columns left to right and always picks the first usable pivot row.
"""


class MatrixFq:
    """A dense matrix over GF(q) tied to a field tower."""

    def __init__(self, field, rows):
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        if ncols == 0 or any(len(r) != ncols for r in rows):
            raise ValueError("rows must be non-empty and of equal length")
        q = field.q
        for r in rows:
            for x in r:
                if not 0 <= x < q:
                    raise ValueError(f"entry {x} outside GF({q})")
        self.field = field
        self.rows = rows

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form together with its pivot columns.

        Deterministic: columns are processed left to right and the pivot is
        the first row at or below the current one with a nonzero entry.
        Returns (MatrixFq, pivot_columns).
        """
        F = self.field
        rows = [r[:] for r in self.rows]
        m, n = len(rows), len(rows[0])
        pivots = []
        r = 0
        for c in range(n):
            if r == m:
                break
            sel = None
            for i in range(r, m):
                if rows[i][c]:
                    sel = i
                    break
            if sel is None:
                continue
            rows[r], rows[sel] = rows[sel], rows[r]
            s = F.q_inv(rows[r][c])
            rows[r] = [F.q_mul(s, x) for x in rows[r]]
            for i in range(m):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [F.q_sub(x, F.q_mul(f, y)) for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        return MatrixFq(F, rows), pivots

    def rank(self):
        return len(self.rref()[1])

    def solve(self, b):
        """A particular x with self @ x = b (free variables zero), or None."""
        F = self.field
        if len(b) != self.nrows:
            raise ValueError("dimension mismatch")
        aug = MatrixFq(F, [r + [bv] for r, bv in zip(self.rows, b)])
        R, pivots = aug.rref()
        n = self.ncols
        if n in pivots:
            return None  # inconsistent system
        x = [0] * n
        for i, pc in enumerate(pivots):
            x[pc] = R.rows[i][n]
        return x

    def __eq__(self, other):
        if not isinstance(other, MatrixFq):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __repr__(self):
        return f"MatrixFq({self.nrows}x{self.ncols} over GF({self.field.q}))"
