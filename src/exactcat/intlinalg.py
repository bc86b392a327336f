"""Exact linear algebra over the integers.

Everything downstream (kernels, cokernels, pushouts, homotopy solving)
reduces to the primitives in this module: Smith normal form with
unimodular transforms, Hermite bases for lattices, and exact solving of
integer linear systems and congruence systems.  Vector spaces over F_p
are the presented groups Z^n / p Z^n, so they need no separate backend.
All matrices are immutable grids of unbounded Python integers; there is
no floating point anywhere.

One Hermite elimination serves every caller.  Lattice bases, membership
and preimages need only the canonical H (``column_hnf``); only ``_Solver``
and ``unimodular_inverse`` need the transform V (``column_hnf_transform``),
whose entries grow far beyond those of H.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Optional, Sequence


# Bound of every data-keyed memo in the package (only the model factories are
# unbounded): a bench chunk sees up to 6k keys per memo, yet each memo keeps
# 98.7-99.7% of its unbounded hits within 1,024 of them.
CACHE_SIZE = 1024
memo = lru_cache(maxsize=CACHE_SIZE)


class DimensionMismatch(ValueError):
    """Shapes of the operands do not line up."""


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


@dataclass(frozen=True)
class IntMatrix:
    """Immutable row-major integer matrix; 0xN and Nx0 shapes are legal."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        # rows given as lists are stored as tuples, so the matrix hashes
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        if len(self.entries) != self.rows:
            raise DimensionMismatch("row count does not match entry grid")
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged entry grid")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        return IntMatrix(len(data), cols, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return _trusted(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return _trusted(rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    def diagonal(values: Sequence[int], rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        values = list(values)
        r = rows if rows is not None else len(values)
        c = cols if cols is not None else len(values)
        return _trusted(r, c, tuple(
            tuple(values[i] if i == j and i < len(values) else 0 for j in range(c))
            for i in range(r)))

    @staticmethod
    def hstack(*mats: "IntMatrix") -> "IntMatrix":
        if not mats:
            raise DimensionMismatch("hstack of nothing")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise DimensionMismatch("hstack with differing row counts")
        data = tuple(tuple(chain.from_iterable(parts))
                     for parts in zip(*(m.entries for m in mats)))
        return _trusted(rows, sum(m.cols for m in mats), data)

    @staticmethod
    def vstack(*mats: "IntMatrix") -> "IntMatrix":
        if not mats:
            raise DimensionMismatch("vstack of nothing")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise DimensionMismatch("vstack with differing column counts")
        data = tuple(row for m in mats for row in m.entries)
        return _trusted(sum(m.rows for m in mats), cols, data)

    @staticmethod
    def block_diag(*mats: "IntMatrix") -> "IntMatrix":
        cols = sum(m.cols for m in mats)
        data = []
        c0 = 0
        for m in mats:
            data.extend((0,) * c0 + row + (0,) * (cols - c0 - m.cols) for row in m.entries)
            c0 += m.cols
        return _trusted(len(data), cols, tuple(data))

    @staticmethod
    def kron(a: "IntMatrix", b: "IntMatrix") -> "IntMatrix":
        data = []
        for i in range(a.rows):
            for k in range(b.rows):
                row = []
                for j in range(a.cols):
                    aij = a.entries[i][j]
                    row.extend(aij * x for x in b.entries[k])
                data.append(tuple(row))
        return _trusted(a.rows * b.rows, a.cols * b.cols, tuple(data))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._zip_with(operator.add, other, "addition")

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._zip_with(operator.sub, other, "subtraction")

    def _zip_with(self, op, other: "IntMatrix", what: str) -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"matrix {what} shape mismatch")
        return _trusted(self.rows, self.cols, tuple(
            tuple(map(op, ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return _trusted(self.rows, self.cols,
                        tuple(tuple(map(operator.neg, row)) for row in self.entries))

    def scale(self, k: int) -> "IntMatrix":
        return _trusted(self.rows, self.cols, tuple(tuple(k * a for a in row) for row in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"matrix product shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if not self.cols:
            # zip(*()) below would lose the column count of other
            return IntMatrix.zeros(self.rows, other.cols)
        mul = operator.mul
        cols = tuple(zip(*other.entries))
        data = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.entries)
        return _trusted(self.rows, other.cols, data)

    def transpose(self) -> "IntMatrix":
        if not self.rows:
            return IntMatrix.zeros(self.cols, 0)
        return _trusted(self.cols, self.rows, tuple(zip(*self.entries)))

    # -- accessors ----------------------------------------------------

    def column_at(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def take_columns(self, idx: Iterable[int]) -> "IntMatrix":
        idx = list(idx)
        return _trusted(self.rows, len(idx),
                        tuple(tuple(row[j] for j in idx) for row in self.entries))

    def take_rows(self, idx: Iterable[int]) -> "IntMatrix":
        idx = list(idx)
        return _trusted(len(idx), self.cols, tuple(self.entries[i] for i in idx))

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __repr__(self) -> str:  # compact, for test failure readability
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(a) for a in row) for row in self.entries)
        return f"IntMatrix[{body}]"


def _trusted(rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> IntMatrix:
    """A grid built here, rectangular by construction: only its dimensions are checked."""
    if rows < 0 or cols < 0:
        raise DimensionMismatch("negative matrix dimension")
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "rows", rows)   # as the frozen dataclass __init__ does
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "entries", entries)
    return m


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D a non-negative divisibility chain."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.entries[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d != 0)

    def check(self, a: IntMatrix) -> bool:
        return self.U @ a @ self.V == self.D


def _swap_rows(m: list[list[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: list[list[int]], i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _addmul_row(m: list[list[int]], dst: int, src: int, k: int) -> None:
    if k:
        md, ms = m[dst], m[src]
        for j in range(len(md)):
            md[j] += k * ms[j]


def _addmul_col(m: list[list[int]], dst: int, src: int, k: int) -> None:
    if k:
        for row in m:
            row[dst] += k * row[src]


def _negate_row(m: list[list[int]], i: int) -> None:
    m[i] = [-x for x in m[i]]


@memo
def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Diagonalize ``a`` as U @ a @ V = D.

    Pivoting always selects the entry of smallest nonzero absolute value in
    the remaining block, which keeps the coefficient growth moderate, and
    the routine is fully deterministic so downstream presentations are
    reproducible bit for bit.
    """
    r, c = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def pivot_search(t: int) -> Optional[tuple[int, int]]:
        best = None
        best_abs = None
        for i in range(t, r):
            di = d[i]
            for j in range(t, c):
                x = di[j]
                if x:
                    ax = abs(x)
                    if best_abs is None or ax < best_abs:
                        best, best_abs = (i, j), ax
                        if ax == 1:
                            return best
        return best

    t = 0
    limit = min(r, c)
    while t < limit:
        pos = pivot_search(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            _swap_rows(d, t, i)
            _swap_rows(u, t, i)
        if j != t:
            _swap_cols(d, t, j)
            _swap_cols(v, t, j)
        while True:
            # Clear column t with row operations, restarting on a smaller remainder.
            restart = False
            for i in range(r):
                if i != t and d[i][t]:
                    q = d[i][t] // d[t][t]
                    _addmul_row(d, i, t, -q)
                    _addmul_row(u, i, t, -q)
                    if d[i][t]:
                        _swap_rows(d, t, i)
                        _swap_rows(u, t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(c):
                if j != t and d[t][j]:
                    q = d[t][j] // d[t][t]
                    _addmul_col(d, j, t, -q)
                    _addmul_col(v, j, t, -q)
                    if d[t][j]:
                        _swap_cols(d, t, j)
                        _swap_cols(v, t, j)
                        restart = True
                        break
            if restart:
                continue
            if all(d[i][t] == 0 for i in range(r) if i != t) and \
               all(d[t][j] == 0 for j in range(c) if j != t):
                break
        t += 1

    # Sign normalization.
    for i in range(limit):
        if d[i][i] < 0:
            _negate_row(d, i)
            _negate_row(u, i)

    # Enforce the divisibility chain d_i | d_{i+1} by 2x2 gcd repairs.  The
    # diagonal is positive and then zero (a pivot is taken while the block is
    # nonzero), and a fold keeps it so: it leaves g = gcd(di, dj) > 0 and
    # di dj / g > 0, and g | dj clears d[i][i+1] = y dj exactly.
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            di, dj = d[i][i], d[i + 1][i + 1]
            if di == 0 or dj % di == 0:
                continue
            # Fold slot i+1 into slot i: col_i += col_{i+1}, then gcd dance.
            _addmul_col(d, i, i + 1, 1)
            _addmul_col(v, i, i + 1, 1)
            a_, b_ = d[i][i], d[i + 1][i]
            g, x, y = _xgcd(a_, b_)
            # Row combination (x, y; -b/g, a/g) on rows i, i+1 is unimodular.
            ai, bi = a_ // g, b_ // g
            ri, rj = d[i], d[i + 1]
            d[i] = [x * p + y * q for p, q in zip(ri, rj)]
            d[i + 1] = [-bi * p + ai * q for p, q in zip(ri, rj)]
            ri, rj = u[i], u[i + 1]
            u[i] = [x * p + y * q for p, q in zip(ri, rj)]
            u[i + 1] = [-bi * p + ai * q for p, q in zip(ri, rj)]
            # Clear the off-diagonal remainder in column i+1 / row i.
            q2 = d[i][i + 1] // g
            _addmul_col(d, i + 1, i, -q2)
            _addmul_col(v, i + 1, i, -q2)
            changed = True

    um = IntMatrix.from_rows(u, cols=r)
    vm = IntMatrix.from_rows(v, cols=c)
    dm = IntMatrix.from_rows(d, cols=c) if r else IntMatrix.zeros(0, c)
    return SmithDecomposition(um, dm, vm)


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular square matrix: m @ V = H = I in Hermite form."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices can be unimodular")
    h, v = column_hnf_transform(m)
    if h != IntMatrix.identity(m.rows):
        raise ValueError("matrix is not unimodular")
    return v


def _hermite(cols: list[list[int]], pivot_rows: int) -> int:
    """Column Hermite elimination in place on the first ``pivot_rows`` entries;
    returns the number of pivot columns, which come first.  Later entries
    ride along, which is how a transform (an appended identity) is tracked.
    """
    c = len(cols)
    fixed = 0
    for r in range(pivot_rows):
        while True:
            live = [j for j in range(fixed, c) if cols[j][r]]
            if len(live) <= 1:
                break
            live.sort(key=lambda j: (abs(cols[j][r]), j))
            j0 = live[0]
            for j in live[1:]:
                q = cols[j][r] // cols[j0][r]
                if q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[j0])]
        live = [j for j in range(fixed, c) if cols[j][r]]
        if not live:
            continue
        j0 = live[0]
        cols[fixed], cols[j0] = cols[j0], cols[fixed]
        if cols[fixed][r] < 0:
            cols[fixed] = [-x for x in cols[fixed]]
        piv = cols[fixed][r]
        for j in range(fixed):
            q = cols[j][r] // piv
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[fixed])]
        fixed += 1
    return fixed


def _from_columns(rows: int, cols: Sequence[Sequence[int]], start: int = 0) -> IntMatrix:
    """The matrix whose columns are ``cols``, each read from entry ``start`` on."""
    return _trusted(rows, len(cols), tuple(tuple(col[start + i] for col in cols)
                                           for i in range(rows)))


@memo
def column_hnf_transform(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column Hermite basis with its unimodular transform: a @ V = [H | 0].

    Only ``_Solver`` and ``unimodular_inverse`` need V, where the
    coefficients grow; the kernel is spanned by its trailing columns.
    """
    n, c = a.rows, a.cols
    cols = [list(a.column_at(j)) + [1 if i == j else 0 for i in range(c)] for j in range(c)]
    fixed = _hermite(cols, n)
    return _from_columns(n, cols[:fixed]), _from_columns(c, cols, n)


@memo
def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the integer kernel lattice {x : a @ x = 0}."""
    h, v = column_hnf_transform(a)
    return v.take_columns(range(h.cols, a.cols))


@memo
def column_hnf(a: IntMatrix) -> IntMatrix:
    """Canonical column Hermite basis of the lattice spanned by the columns.

    Pivots are positive, pivot rows strictly increase, and the entries of
    earlier columns in a pivot row are reduced into [0, pivot).  Zero
    columns are dropped, so the result is a canonical basis.  No V is kept.
    """
    cols = [list(a.column_at(j)) for j in range(a.cols)]
    return _from_columns(a.rows, cols[:_hermite(cols, a.rows)])


def saturation(a: IntMatrix) -> IntMatrix:
    """Canonical basis of the saturation {x : k x in col(a) for some k != 0}."""
    snf = smith_normal_form(a)
    return column_hnf(unimodular_inverse(snf.U).take_columns(range(snf.rank)))


def _pivots(h: IntMatrix) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(pivot row, column) for each column of a Hermite basis."""
    return tuple((next(i for i, x in enumerate(col) if x), col) for col in zip(*h.entries))


@memo
def _lattice_reducer(lattice_gens: IntMatrix) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The pivots of the lattice's HNF.  Its keys are among those of
    ``column_hnf``, but each memo evicts its own least recently used
    entries, so a miss here may still hit the Hermite memo."""
    return _pivots(column_hnf(lattice_gens))


def reduce_columns_mod_lattice(m: IntMatrix, lattice_gens: IntMatrix) -> IntMatrix:
    """Canonically reduce each column of ``m`` modulo the lattice.

    The result depends only on the coset of each column, not on its
    representative, and is zero exactly for the columns in the lattice.
    """
    if lattice_gens.cols == 0 or m.cols == 0:
        return m
    pivots = _lattice_reducer(lattice_gens)
    if not pivots:
        return m
    cols = []
    for v in zip(*m.entries):
        for pr, h in pivots:
            q = v[pr] // h[pr]
            if q:
                v = [x - q * y for x, y in zip(v, h)]
        cols.append(v)
    return _trusted(m.rows, m.cols, tuple(zip(*cols)))


class _Solver:
    """Cached Hermite-backed solver for A x = b over the integers.

    The one user of the Hermite transform a @ V = [H | 0] besides
    ``unimodular_inverse``: a solution is V y with y read off H, and
    ``sample_solution`` draws from the kernel, the trailing columns of V.
    Hermite elimination (rather than full Smith reduction) keeps
    coefficients reduced modulo the pivots.  One solver serves every
    column (or row) of a decoupled matrix equation, see
    ``solve_columns_mod_lattice`` and ``solve_rows_mod_lattice``, and the
    Kronecker-assembled systems of ``MatrixEquationSystem``, which only
    null homotopies reach after their degreewise pass fails.
    """

    def __init__(self, a: IntMatrix):
        self.a = a
        self.h, self.v = column_hnf_transform(a)
        self.pivots = _pivots(self.h)

    @cached_property
    def kernel(self) -> IntMatrix:
        return self.v.take_columns(range(self.h.cols, self.a.cols))

    def solve(self, b: Sequence[int]) -> Optional[tuple[int, ...]]:
        if len(b) != self.a.rows:
            raise DimensionMismatch("right-hand side length mismatch")
        resid = b
        y = []
        for r, col in self.pivots:
            q, rem = divmod(resid[r], col[r])
            if rem:
                return None
            y.append(q)
            if q:
                resid = [x - q * h for x, h in zip(resid, col)]
        if any(resid):
            return None
        return tuple(sum(map(operator.mul, row, y)) for row in self.v.entries)

    def sample_solution(self, b: Sequence[int], rng: random.Random,
                        amplitude: int = 2) -> Optional[tuple[int, ...]]:
        x = self.solve(b)
        if x is None:
            return None
        k = self.kernel
        if k.cols == 0:
            return x
        coeffs = [rng.randint(-amplitude, amplitude) for _ in range(k.cols)]
        return tuple(x[i] + sum(k.entries[i][j] * coeffs[j] for j in range(k.cols))
                     for i in range(len(x)))


@memo
def _solver(a: IntMatrix) -> _Solver:
    return _Solver(a)


def solve_integer(a: IntMatrix, b: Sequence[int] | IntMatrix) -> Optional[tuple[int, ...]]:
    """Some integer solution of a @ x = b, or None when none exists."""
    if isinstance(b, IntMatrix):
        if b.cols != 1:
            raise DimensionMismatch("right-hand side must be a column")
        b = b.column_at(0)
    return _solver(a).solve(tuple(b))


def lattice_contains(outer: IntMatrix, inner: IntMatrix) -> bool:
    """True iff every column of ``inner`` lies in the column lattice of ``outer``."""
    if outer.rows != inner.rows:
        raise DimensionMismatch("lattice comparison in different ambients")
    return reduce_columns_mod_lattice(inner, outer).is_zero()


def lattice_equal(a: IntMatrix, b: IntMatrix) -> bool:
    return column_hnf(a) == column_hnf(b)


def solve_columns_mod_lattice(a: IntMatrix, b: IntMatrix, lattice_gens: IntMatrix,
                              dom_rel: Optional[IntMatrix] = None,
                              cod_rel: Optional[IntMatrix] = None,
                              rng: Optional[random.Random] = None) -> Optional[IntMatrix]:
    """Some X with a @ X = b modulo col(lattice_gens), or None.

    With ``dom_rel`` given, X must also carry col(dom_rel) into col(cod_rel)
    (no ``cod_rel`` means the zero lattice): X is then a well-defined map
    between the presented groups Z^n / dom_rel and Z^m / cod_rel.  Writing
    X = X' U with U dom_rel V = D in Smith form turns that constraint into
    one per column, d_j x'_j in col(cod_rel), so column j of X' ranges over
    the lattice P_j = {x : d_j x in col(cod_rel)} and every column is solved
    on its own against the cached solver of [a P_j | lattice_gens].  With
    ``rng`` each column is a random point of its solution set.
    """
    if b.rows != a.rows or lattice_gens.rows != a.rows:
        raise DimensionMismatch("right-hand side and lattice must live in the row space of a")
    n = a.cols
    diag: tuple[int, ...] = ()
    u = None
    if dom_rel is not None and dom_rel.cols:
        if dom_rel.rows != b.cols:
            raise DimensionMismatch("domain relations must have one row per column of b")
        snf = smith_normal_form(dom_rel)
        u, diag = snf.U, snf.diagonal
        b = b @ unimodular_inverse(u)
    if cod_rel is None:
        cod_rel = IntMatrix.zeros(n, 0)
    # per distinct d: (basis of P_d or None for all of Z^n, solver of [a P_d | lattice])
    spaces: dict[int, tuple[Optional[IntMatrix], _Solver]] = {}
    cols = []
    for j in range(b.cols):
        d = diag[j] if j < len(diag) else 0
        if d not in spaces:
            basis = None if d == 0 else preimage_basis(IntMatrix.diagonal([d] * n), cod_rel)
            lhs = a if basis is None else a @ basis
            spaces[d] = basis, _solver(IntMatrix.hstack(lhs, lattice_gens))
        basis, solver = spaces[d]
        rhs = b.column_at(j)
        sol = solver.sample_solution(rhs, rng) if rng is not None else solver.solve(rhs)
        if sol is None:
            return None
        y = sol[:n if basis is None else basis.cols]
        cols.append(y if basis is None else
                    tuple(sum(map(operator.mul, row, y)) for row in basis.entries))
    x = _from_columns(n, cols)
    return x if u is None else x @ u


def solve_rows_mod_lattice(r: IntMatrix, c: IntMatrix, lattice_gens: IntMatrix,
                           dom_rel: Optional[IntMatrix] = None,
                           rng: Optional[random.Random] = None) -> Optional[IntMatrix]:
    """Some X with X @ r = c modulo col(lattice_gens), or None.

    With ``dom_rel`` given, X must also carry col(dom_rel) into
    col(lattice_gens).  Multiplying by U, where U lattice_gens V = D is in
    Smith form with diagonal e_i, makes the modulus coordinatewise, so row i
    of U X solves [r | dom_rel]^T x = (c_i, 0) modulo e_i on its own: one
    cached solver per distinct e_i, and rows with e_i = 1 are free.  With
    ``rng`` each row is a random point of its solution set.
    """
    if r.cols != c.cols or lattice_gens.rows != c.rows:
        raise DimensionMismatch("right-hand side and lattice must match the shape of X r")
    stacked, rhs = r, c
    if dom_rel is not None and dom_rel.cols:
        if dom_rel.rows != r.rows:
            raise DimensionMismatch("domain relations must have one row per row of r")
        stacked = IntMatrix.hstack(r, dom_rel)
        rhs = IntMatrix.hstack(c, IntMatrix.zeros(c.rows, dom_rel.cols))
    diag: tuple[int, ...] = ()
    u = None
    if lattice_gens.cols:
        snf = smith_normal_form(lattice_gens)
        u, diag = snf.U, snf.diagonal
        rhs = u @ rhs
    at = stacked.transpose()
    solvers: dict[int, _Solver] = {}
    rows = []
    for i in range(c.rows):
        e = diag[i] if i < len(diag) else 0
        if e == 1:
            rows.append((0,) * r.rows)
            continue
        if e not in solvers:
            solvers[e] = _solver(at if e == 0 else
                                 IntMatrix.hstack(at, IntMatrix.diagonal([e] * at.rows)))
        solver = solvers[e]
        row = rhs.entries[i]
        sol = solver.sample_solution(row, rng) if rng is not None else solver.solve(row)
        if sol is None:
            return None
        rows.append(sol[:r.rows])
    x = _trusted(c.rows, r.rows, tuple(rows))
    return x if u is None else unimodular_inverse(u) @ x


@memo
def preimage_basis(m: IntMatrix, lattice_gens: IntMatrix) -> IntMatrix:
    """Canonical basis of the lattice {x : m @ x in col(lattice_gens)}.

    One H-only Hermite pass over [[m | G], [I | 0]] (G = lattice_gens),
    whose columns span {(m x + G y, x)}: its basis columns that vanish on
    the top rows span the part with m x + G y = 0, and their bottom rows
    are already the canonical basis of the preimage.
    """
    if m.rows != lattice_gens.rows:
        raise DimensionMismatch("preimage lattice ambient mismatch")
    r, n = m.rows, m.cols
    cols = [list(m.column_at(j)) + [1 if i == j else 0 for i in range(n)] for j in range(n)]
    cols += [list(lattice_gens.column_at(j)) + [0] * n for j in range(lattice_gens.cols)]
    fixed = _hermite(cols, r + n)
    top = sum(1 for col in cols[:fixed] if any(col[:r]))
    return _from_columns(n, cols[top:fixed], r)


# -- primality -------------------------------------------------------


# Miller-Rabin with the first 13 prime bases decides primality exactly below
# this bound, the least strong pseudoprime to all of them (Sorenson-Webster,
# Math. Comp. 86, 2017).  The first 12 bases alone are fooled earlier, by
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def _check_prime(p: int) -> None:
    """Raise ValueError unless p is prime (deterministic Miller-Rabin).

    Primes at or above ``PRIMALITY_BOUND`` are refused rather than guessed.
    """
    if p >= PRIMALITY_BOUND:
        raise ValueError(f"primality of {p} is only decided below {PRIMALITY_BOUND}")
    if p < 2:
        raise ValueError(f"{p} is not prime")
    for q in _MR_BASES:
        if p % q == 0:
            if p == q:
                return
            raise ValueError(f"{p} is not prime")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"{p} is not prime")


# -- linear systems in matrix unknowns --------------------------------


class MatrixEquationSystem:
    """Integer linear system whose unknowns are matrix blocks.

    Equations have the shape ``sum_k L_k @ H_{b_k} @ R_k = C`` where the
    ``H_b`` are unknown blocks, optionally modulo a lattice applied to each
    column of ``C``.  The system is vectorized columnwise
    (vec(L H R) = kron(R^T, L) vec(H)) and handed to one integer solve.

    This is for genuinely coupled systems only: several unknowns in one
    equation, or an unknown multiplied on both sides.  A single unknown
    multiplied on one side decouples into columns or rows; solve it with
    ``solve_columns_mod_lattice`` or ``solve_rows_mod_lattice`` instead,
    which never build the Kronecker product.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, tuple[int, int]] = {}
        self._order: list[str] = []
        self._equations: list[tuple[list[tuple[str, IntMatrix, IntMatrix]], IntMatrix, Optional[IntMatrix]]] = []

    def unknown(self, name: str, rows: int, cols: int) -> None:
        if name in self._blocks:
            raise ValueError(f"duplicate unknown block {name!r}")
        self._blocks[name] = (rows, cols)
        self._order.append(name)

    def equation(self, terms: Sequence[tuple[str, IntMatrix, IntMatrix]],
                 rhs: IntMatrix, mod: Optional[IntMatrix] = None) -> None:
        for name, left, right in terms:
            br, bc = self._blocks[name]
            if left.cols != br or right.rows != bc:
                raise DimensionMismatch(f"term for block {name!r} has incompatible shapes")
            if left.rows != rhs.rows or right.cols != rhs.cols:
                raise DimensionMismatch("equation term does not match the right-hand side shape")
        if mod is not None and mod.rows != rhs.rows:
            raise DimensionMismatch("congruence lattice lives in the wrong ambient")
        self._equations.append((list(terms), rhs, mod))

    def _assemble(self) -> tuple[IntMatrix, tuple[int, ...], list[tuple[str, int, int, int]]]:
        layout: list[tuple[str, int, int, int]] = []
        offset = 0
        for name in self._order:
            r, c = self._blocks[name]
            layout.append((name, offset, r, c))
            offset += r * c
        # each equation's congruence slack gets its own block of columns
        slacks = [IntMatrix.kron(IntMatrix.identity(rhs.cols), mod) if mod is not None
                  else IntMatrix.zeros(rhs.rows * rhs.cols, 0) for _, rhs, mod in self._equations]
        width = sum(sc.cols for sc in slacks)
        big_rows: list[IntMatrix] = []
        rhs_all: list[int] = []
        before = 0
        for (terms, rhs, _mod), sc in zip(self._equations, slacks):
            nrows = rhs.rows * rhs.cols
            acc: dict[str, IntMatrix] = {}
            for name, left, right in terms:
                k = IntMatrix.kron(right.transpose(), left)
                acc[name] = acc[name] + k if name in acc else k
            big_rows.append(IntMatrix.hstack(
                *(acc.get(name, IntMatrix.zeros(nrows, r * c)) for name, _off, r, c in layout),
                IntMatrix.zeros(nrows, before), sc,
                IntMatrix.zeros(nrows, width - before - sc.cols)))
            before += sc.cols
            for j in range(rhs.cols):
                rhs_all.extend(rhs.entries[i][j] for i in range(rhs.rows))
        big = IntMatrix.vstack(*big_rows) if big_rows else IntMatrix.zeros(0, offset)
        return big, tuple(rhs_all), layout

    def solve(self, rng: Optional[random.Random] = None,
              amplitude: int = 2) -> Optional[dict[str, IntMatrix]]:
        big, rhs, layout = self._assemble()
        solver = _solver(big)
        sol = solver.sample_solution(rhs, rng, amplitude) if rng is not None else solver.solve(rhs)
        if sol is None:
            return None
        out: dict[str, IntMatrix] = {}
        for name, off, r, c in layout:
            out[name] = _from_columns(r, [sol[off + j * r:off + (j + 1) * r] for j in range(c)])
        return out
