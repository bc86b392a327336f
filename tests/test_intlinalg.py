import random

import pytest

from exactcat.documents import ParseError, matrix_from_json
from exactcat.intlinalg import (
    DimensionMismatch,
    IntMatrix,
    MatrixEquationSystem,
    PRIMALITY_BOUND,
    _check_prime,
    _solver,
    column_hnf,
    column_hnf_transform,
    kernel_basis,
    lattice_contains,
    lattice_equal,
    preimage_basis,
    reduce_columns_mod_lattice,
    saturation,
    smith_normal_form,
    solve_integer,
    solve_columns_mod_lattice,
    solve_rows_mod_lattice,
    unimodular_inverse,
)
from exactcat.models import fgab


def is_unimodular(m):
    if m.rows != m.cols:
        return False
    snf = smith_normal_form(m)
    return snf.D == IntMatrix.identity(m.rows)


def check_snf(a):
    snf = smith_normal_form(a)
    assert snf.check(a), f"U A V != D for {a}"
    assert is_unimodular(snf.U)
    assert is_unimodular(snf.V)
    diag = snf.diagonal
    # off-diagonal zero
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D.entries[i][j] == 0
    for d in diag:
        assert d >= 0
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    return snf


def test_snf_identity():
    snf = check_snf(IntMatrix.identity(2))
    assert snf.D == IntMatrix.identity(2)


def test_snf_diag_2_3():
    # diag(2, 3) has invariant factors (1, 6): verified by reconstruction.
    snf = check_snf(IntMatrix.diagonal([2, 3]))
    assert snf.invariant_factors == (1, 6)


def test_snf_single_row():
    snf = check_snf(IntMatrix.from_rows([[4, 6]]))
    assert snf.diagonal == (2,)


def test_snf_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        a = IntMatrix.zeros(*shape)
        snf = check_snf(a)
        assert snf.D.rows == shape[0] and snf.D.cols == shape[1]


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(150):
        r = rng.randrange(0, 5)
        c = rng.randrange(0, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], cols=c)
        check_snf(a)


def test_unimodular_inverse():
    m = IntMatrix.from_rows([[2, 3], [1, 2]])
    inv = unimodular_inverse(m)
    assert m @ inv == IntMatrix.identity(2)
    assert inv @ m == IntMatrix.identity(2)
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix.diagonal([2, 1]))


def test_solve_scalar():
    assert solve_integer(IntMatrix.from_rows([[2]]), [4]) == (2,)
    assert solve_integer(IntMatrix.from_rows([[2]]), [3]) is None


def test_solve_bezout():
    a = IntMatrix.from_rows([[2, 3]])
    x = solve_integer(a, [1])
    assert x is not None
    assert 2 * x[0] + 3 * x[1] == 1


def test_solve_no_solution_has_obstruction():
    # When the solver reports absence, the SNF data exhibits the obstruction:
    # some residue class modulo an invariant factor is missed.
    rng = random.Random(3)
    for _ in range(100):
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)], cols=c)
        b = [rng.randint(-6, 6) for _ in range(r)]
        x = solve_integer(a, b)
        if x is not None:
            got = [sum(a.entries[i][j] * x[j] for j in range(c)) for i in range(r)]
            assert got == list(b)
        else:
            snf = smith_normal_form(a)
            cvec = [sum(snf.U.entries[i][k] * b[k] for k in range(r)) for i in range(r)]
            obstructed = False
            for i in range(min(r, c)):
                d = snf.D.entries[i][i]
                if d and cvec[i] % d:
                    obstructed = True
                if not d and cvec[i]:
                    obstructed = True
            for i in range(min(r, c), r):
                if cvec[i]:
                    obstructed = True
            assert obstructed
            # Randomized residue probe modulo the first nontrivial invariant
            # factor (or the rank obstruction) never finds a solution.
            probe = random.Random(11)
            for _ in range(50):
                cand = [probe.randint(-8, 8) for _ in range(c)]
                got = [sum(a.entries[i][j] * cand[j] for j in range(c)) for i in range(r)]
                assert got != list(b)


def test_solve_mod_lattice_examples():
    # one column of solve_columns_mod_lattice solves a x = b modulo a lattice
    one = IntMatrix.from_rows([[1]])
    lat3 = IntMatrix.from_rows([[3]])
    x = solve_columns_mod_lattice(one, IntMatrix.from_rows([[5]]), lat3)
    assert x is not None
    assert (x.entries[0][0] - 5) % 3 == 0

    two = IntMatrix.from_rows([[2]])
    lat4 = IntMatrix.from_rows([[4]])
    assert solve_columns_mod_lattice(two, IntMatrix.from_rows([[1]]), lat4) is None

    zero = IntMatrix.zeros(1, 1)
    assert solve_columns_mod_lattice(zero, IntMatrix.zeros(1, 1), lat4) is not None


def test_solve_mod_lattice_brute_force():
    # Agreement with brute force on small systems: entries in [-4, 4], rank <= 3.
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(1, 3)
        m = rng.randrange(1, 3)
        g = rng.randrange(1, 3)
        a = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)], cols=m)
        gl = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(g)] for _ in range(n)], cols=g)
        b = [rng.randint(-4, 4) for _ in range(n)]
        x = solve_columns_mod_lattice(a, IntMatrix.from_rows([[v] for v in b]), gl)
        if x is not None:
            residual = [b[i] - sum(a.entries[i][j] * x.entries[j][0] for j in range(m))
                        for i in range(n)]
            assert solve_integer(gl, residual) is not None
        else:
            # brute force over a box that must contain a solution for these bounds
            found = False
            rng_box = range(-8, 9)
            import itertools
            for x in itertools.product(rng_box, repeat=m):
                residual = [b[i] - sum(a.entries[i][j] * x[j] for j in range(m))
                            for i in range(n)]
                if solve_integer(gl, residual) is not None:
                    found = True
                    break
            assert not found


def test_lattice_membership_examples():
    assert lattice_contains(IntMatrix.from_rows([[3]]), IntMatrix.from_rows([[6]]))
    assert not lattice_contains(IntMatrix.from_rows([[4]]), IntMatrix.from_rows([[2]]))
    assert lattice_contains(IntMatrix.identity(2), IntMatrix.from_rows([[1], [1]]))


def test_kernel_basis():
    a = IntMatrix.from_rows([[2, 3, 1]])
    k = kernel_basis(a)
    assert k.cols == 2
    assert (a @ k).is_zero()


def test_column_hnf_canonical():
    rng = random.Random(9)
    for _ in range(80):
        r = rng.randrange(1, 4)
        c = rng.randrange(0, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)], cols=c)
        h = column_hnf(a)
        # same lattice: mutual containment
        assert lattice_equal(a, h)
        # canonical under generator shuffling/combination
        if c >= 1:
            perm = list(range(c))
            rng.shuffle(perm)
            b = a.take_columns(perm)
            assert column_hnf(b) == h


def test_saturation():
    a = IntMatrix.from_rows([[2], [4]])
    s = saturation(a)
    assert lattice_contains(s, IntMatrix.from_rows([[1], [2]]))
    assert s.cols == 1


def test_preimage_basis():
    # {x : 2x in 6Z} = 3Z
    m = IntMatrix.from_rows([[2]])
    lat = IntMatrix.from_rows([[6]])
    pb = preimage_basis(m, lat)
    assert pb == IntMatrix.from_rows([[3]])


def test_reduce_columns_mod_lattice():
    m = IntMatrix.from_rows([[7], [5]])
    lat = IntMatrix.from_rows([[3, 0], [0, 2]])
    red = reduce_columns_mod_lattice(m, lat)
    assert red == IntMatrix.from_rows([[1], [1]])


def test_matrix_equation_system():
    # Find g with f g f = f for the idempotent f = diag(1, 0).
    f = IntMatrix.diagonal([1, 0])
    sys = MatrixEquationSystem()
    sys.unknown("g", 2, 2)
    sys.equation([("g", f, f)], f)
    sol = sys.solve()
    assert sol is not None
    g = sol["g"]
    assert f @ g @ f == f
    # No g with (2)g(2) = (2) over Z.
    two = IntMatrix.from_rows([[2]])
    sys2 = MatrixEquationSystem()
    sys2.unknown("g", 1, 1)
    sys2.equation([("g", two, two)], two)
    assert sys2.solve() is None


def test_matrix_equation_system_congruence():
    # Left inverse of (2): Z -> Z modulo 6: s * 2 = 1 mod 6 has no solution;
    # mod 5 it does (coefficients land in the lattice 5Z).
    two = IntMatrix.from_rows([[2]])
    one = IntMatrix.identity(1)
    sys = MatrixEquationSystem()
    sys.unknown("s", 1, 1)
    sys.equation([("s", one, two)], one, mod=IntMatrix.from_rows([[5]]))
    sol = sys.solve()
    assert sol is not None
    assert (sol["s"].entries[0][0] * 2 - 1) % 5 == 0
    sys2 = MatrixEquationSystem()
    sys2.unknown("s", 1, 1)
    sys2.equation([("s", one, two)], one, mod=IntMatrix.from_rows([[6]]))
    assert sys2.solve() is None



def test_solve_columns_mod_lattice_matches_assembled_system():
    # Oracle: the Kronecker-assembled MatrixEquationSystem for A X = C mod L.
    rng = random.Random(17)

    def rand(rows, cols, bound):
        return IntMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(cols)]
                                    for _ in range(rows)], cols=cols)

    for _ in range(60):
        rows = rng.randint(1, 3)
        a = rand(rows, rng.randint(0, 3), 3)
        lat = rand(rows, rng.randint(0, 2), 4)
        c = rand(rows, rng.randint(0, 3), 5)
        sys = MatrixEquationSystem()
        sys.unknown("x", a.cols, c.cols)
        sys.equation([("x", a, IntMatrix.identity(c.cols))], c, mod=lat)
        expected = sys.solve()
        x = solve_columns_mod_lattice(a, c, lat)
        assert (x is None) == (expected is None)
        if x is not None:
            assert (x.rows, x.cols) == (a.cols, c.cols)
            resid = a @ x - c
            assert all(solve_integer(lat, resid.column_at(j)) is not None
                       for j in range(c.cols))


def _torsion_object(rng, rand):
    # a presented group with a few relations of mixed size, often torsion
    n = rng.randint(0, 3)
    return fgab().object(n, rand(n, rng.randint(0, 2), 4))


def _morphism_oracle(dom, cod, eq_left, eq_right, rhs, mod):
    # the assembled Kronecker system: one equation plus the well-definedness
    # constraint H rel(dom) in col rel(cod)
    sys = MatrixEquationSystem()
    sys.unknown("h", cod.payload.ngens, dom.payload.ngens)
    sys.equation([("h", eq_left, eq_right)], rhs, mod=mod)
    rel_dom, rel_cod = dom.payload.relations, cod.payload.relations
    if rel_dom.cols:
        sys.equation([("h", IntMatrix.identity(cod.payload.ngens), rel_dom)],
                     IntMatrix.zeros(cod.payload.ngens, rel_dom.cols), mod=rel_cod)
    return sys.solve()


@pytest.mark.parametrize("form", ["columns", "rows"])
def test_one_sided_solvers_match_assembled_system(form):
    # Oracle: MatrixEquationSystem.  Left form L H = C mod rel(Z), right
    # form H R = C mod rel(Y), both with H: X -> Y well defined, on random
    # presented groups with torsion on both sides.  Half the right-hand
    # sides come from a known morphism, half are random (often unsolvable).
    rng = random.Random(23 if form == "columns" else 29)
    model = fgab()

    def rand(rows, cols, bound):
        return IntMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(cols)]
                                    for _ in range(rows)], cols=cols)

    seen = {True: 0, False: 0}
    for trial in range(120):
        x, y, z = (_torsion_object(rng, rand) for _ in range(3))
        nx, ny, nz = x.payload.ngens, y.payload.ngens, z.payload.ngens
        known = model.random_morphism(rng, x, y).matrix
        if form == "columns":
            left = rand(nz, ny, 3)
            rhs = left @ known if trial % 2 else rand(nz, nx, 4)
            mod = z.payload.relations
            expected = _morphism_oracle(x, y, left, IntMatrix.identity(nx), rhs, mod)
            h = solve_columns_mod_lattice(left, rhs, mod, dom_rel=x.payload.relations,
                                          cod_rel=y.payload.relations)
            sampled = solve_columns_mod_lattice(left, rhs, mod, dom_rel=x.payload.relations,
                                                cod_rel=y.payload.relations,
                                                rng=random.Random(trial))
        else:
            right = rand(nx, nz, 3)
            rhs = known @ right if trial % 2 else rand(ny, nz, 4)
            mod = y.payload.relations
            expected = _morphism_oracle(x, y, IntMatrix.identity(ny), right, rhs, mod)
            h = solve_rows_mod_lattice(right, rhs, mod, dom_rel=x.payload.relations)
            sampled = solve_rows_mod_lattice(right, rhs, mod, dom_rel=x.payload.relations,
                                             rng=random.Random(trial))
        assert (h is None) == (expected is None)
        assert (sampled is None) == (h is None)
        seen[h is not None] += 1
        for sol in (h, sampled):
            if sol is None:
                continue
            assert (sol.rows, sol.cols) == (ny, nx)
            resid = (left @ sol if form == "columns" else sol @ right) - rhs
            assert lattice_contains(mod, resid)
            model.morphism(x, y, sol, check=True)
    assert seen[True] >= 15 and seen[False] >= 15


def _naive_product(a, b):
    return [[sum(a.entries[i][k] * b.entries[k][j] for k in range(a.cols))
             for j in range(b.cols)] for i in range(a.rows)]


def _reference_reduce(m, lattice_gens):
    # reduce_columns_mod_lattice as it was before the cached reducer
    if lattice_gens.cols == 0:
        return m
    h = column_hnf(lattice_gens)
    if h.cols == 0:
        return m
    pivots = []
    for j in range(h.cols):
        for i in range(h.rows):
            if h.entries[i][j]:
                pivots.append((i, j))
                break
    cols = []
    for j in range(m.cols):
        v = list(m.column_at(j))
        for (pr, pc) in pivots:
            piv = h.entries[pr][pc]
            q = v[pr] // piv
            if q:
                for i in range(m.rows):
                    v[i] -= q * h.entries[i][pc]
        cols.append(v)
    return IntMatrix(m.rows, m.cols, tuple(tuple(c[i] for c in cols) for i in range(m.rows)))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (2, 3)])
def test_row_tuple_kernels_on_degenerate_shapes(shape):
    r, c = shape
    rng = random.Random(r * 10 + c)
    a = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)], cols=c)
    for k in (0, 2):
        b = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(k)] for _ in range(c)],
                                cols=k)
        p = a @ b
        assert (p.rows, p.cols) == (r, k)
        assert p.to_lists() == _naive_product(a, b)
        left = IntMatrix.from_rows([[1] * r for _ in range(k)], cols=r)
        p = left @ a
        assert (p.rows, p.cols) == (k, c)
        assert p.to_lists() == _naive_product(left, a)
    t = a.transpose()
    assert (t.rows, t.cols) == (c, r)
    assert all(t.entries[j][i] == a.entries[i][j] for i in range(r) for j in range(c))
    assert t.transpose() == a
    assert [list(a.column_at(j)) for j in range(c)] == t.to_lists()
    z = IntMatrix.zeros(r, 2)
    h = IntMatrix.hstack(a, z, a)
    assert (h.rows, h.cols) == (r, 2 * c + 2)
    assert h.to_lists() == [row + [0, 0] + row for row in a.to_lists()]
    for lat in (IntMatrix.zeros(r, 0), IntMatrix.zeros(r, 2),
                IntMatrix.diagonal([3] * r)):
        assert reduce_columns_mod_lattice(a, lat) == _reference_reduce(a, lat)
    # a lattice whose Hermite basis is empty leaves every column alone
    assert column_hnf(IntMatrix.zeros(r, 3)).cols == 0
    assert reduce_columns_mod_lattice(a, IntMatrix.zeros(r, 3)) == a


def test_reduce_columns_mod_lattice_matches_reference():
    rng = random.Random(2024)
    ranks = set()
    for trial in range(300):
        n = rng.randint(1, 5)
        k = rng.randint(0, 5)
        if trial % 3 == 0:
            # rank-deficient: a product through a smaller inner dimension
            inner = rng.randint(0, max(0, n - 1))
            lat = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(n)], cols=inner) @ \
                IntMatrix.from_rows(
                    [[rng.randint(-4, 4) for _ in range(k)] for _ in range(inner)], cols=k)
        else:
            lat = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)], cols=k)
        ranks.add((column_hnf(lat).cols, n))
        c = rng.randint(0, 4)
        m = IntMatrix.from_rows([[rng.randint(-60, 60) for _ in range(c)] for _ in range(n)],
                                cols=c)
        red = reduce_columns_mod_lattice(m, lat)
        assert red == _reference_reduce(m, lat)
        # the result depends only on the coset of each column
        shift = lat @ IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)], cols=c)
        assert reduce_columns_mod_lattice(m + shift, lat) == red
    assert any(rank < n for rank, n in ranks) and any(rank == n for rank, n in ranks)


def test_check_prime_miller_rabin():
    def is_prime(p):
        try:
            _check_prime(p)
        except ValueError:
            return False
        return True

    def trial_division(p):
        return p >= 2 and all(p % q for q in range(2, int(p ** 0.5) + 1))

    assert all(is_prime(p) == trial_division(p) for p in range(-10, 5000))
    # Carmichael 561; 3215031751 is a strong pseudoprime to 2, 3, 5 and 7;
    # the next one fools the first 12 prime bases
    for composite in (561, 3215031751, 318665857834031151167461, -7, 0, 1):
        assert not is_prime(composite)
    for prime in (2 ** 61 - 1, 10 ** 18 + 3, 2 ** 31 - 1):
        assert is_prime(prime)
    with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)):
        _check_prime(PRIMALITY_BOUND)
    with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)):
        _check_prime(2 ** 127 - 1)


# -- Hermite entry points against the pre-change bodies ---------------------


def _reference_hnf_transform(a):
    # column_hnf_transform as it was before H-only elimination: one loop
    # that always carries V
    n, c = a.rows, a.cols
    cols = [list(a.column_at(j)) for j in range(c)]
    vcols = [[1 if i == j else 0 for i in range(c)] for j in range(c)]
    fixed = 0
    for r in range(n):
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
                    vcols[j] = [x - q * y for x, y in zip(vcols[j], vcols[j0])]
        live = [j for j in range(fixed, c) if cols[j][r]]
        if not live:
            continue
        j0 = live[0]
        cols[fixed], cols[j0] = cols[j0], cols[fixed]
        vcols[fixed], vcols[j0] = vcols[j0], vcols[fixed]
        if cols[fixed][r] < 0:
            cols[fixed] = [-x for x in cols[fixed]]
            vcols[fixed] = [-x for x in vcols[fixed]]
        piv = cols[fixed][r]
        for j in range(fixed):
            q = cols[j][r] // piv
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[fixed])]
                vcols[j] = [x - q * y for x, y in zip(vcols[j], vcols[fixed])]
        fixed += 1
    h = IntMatrix(n, fixed, tuple(tuple(cols[j][i] for j in range(fixed)) for i in range(n)))
    v = IntMatrix(c, c, tuple(tuple(vcols[j][i] for j in range(c)) for i in range(c)))
    return h, v


def _reference_preimage(m, lattice_gens):
    # preimage_basis as it was: a kernel basis from V, then a second pass
    aug = IntMatrix.hstack(m, lattice_gens)
    h, v = _reference_hnf_transform(aug)
    top = v.take_columns(range(h.cols, aug.cols)).take_rows(range(m.cols))
    return _reference_hnf_transform(top)[0]


def _rand(rng, rows, cols, bound=9):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols)


def _random_case(rng, trial, rows=None, max_dim=5):
    """A random matrix; every third one is rank-deficient, and 0-row and
    0-column shapes come up on their own."""
    r = rng.randint(0, max_dim) if rows is None else rows
    c = rng.randint(0, max_dim)
    if trial % 3 == 0:
        inner = rng.randint(0, max(0, min(r, c) - 1))
        return _rand(rng, r, inner, 4) @ _rand(rng, inner, c, 4)
    return _rand(rng, r, c)


def _shape_coverage(mats):
    kinds = set()
    for a in mats:
        rank = smith_normal_form(a).rank
        kinds.add("0-row" if a.rows == 0 else "0-col" if a.cols == 0 else
                  "deficient" if rank < min(a.rows, a.cols) else "full")
    return kinds


def test_column_hnf_matches_reference_transform():
    rng = random.Random(7001)
    seen = []
    for trial in range(300):
        a = _random_case(rng, trial)
        seen.append(a)
        h, v = _reference_hnf_transform(a)
        assert column_hnf(a) == h
        assert column_hnf_transform(a) == (h, v)
    assert _shape_coverage(seen) == {"0-row", "0-col", "deficient", "full"}


def test_preimage_basis_matches_kernel_reference():
    rng = random.Random(7002)
    seen = []
    for trial in range(300):
        m = _random_case(rng, trial)
        # an empty lattice every fourth case, else a random (often singular) one
        g = _random_case(rng, trial + 1, rows=m.rows) if trial % 4 else IntMatrix.zeros(m.rows, 0)
        seen.append(m)
        pb = preimage_basis(m, g)
        assert pb == _reference_preimage(m, g)
        assert pb.rows == m.cols
        assert lattice_contains(g, m @ pb)
    assert _shape_coverage(seen) == {"0-row", "0-col", "deficient", "full"}


def test_lattice_contains_matches_solver():
    rng = random.Random(7003)
    outcomes = set()
    for trial in range(300):
        outer = _random_case(rng, trial)
        k = rng.randint(0, 3)
        inner = outer @ _rand(rng, outer.cols, k, 3)
        if trial % 2:
            inner = inner + _rand(rng, outer.rows, k, 1)
        s = _solver(outer)
        expected = all(s.solve(inner.column_at(j)) is not None for j in range(inner.cols))
        assert lattice_contains(outer, inner) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}
    with pytest.raises(ValueError):
        lattice_contains(IntMatrix.zeros(2, 1), IntMatrix.zeros(3, 1))


def _random_unimodular(rng, n):
    rows = IntMatrix.identity(n).to_lists()
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.randint(-3, 3)
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        elif rng.random() < 0.3:
            rows[i] = [-x for x in rows[i]]
    rng.shuffle(rows)
    return IntMatrix.from_rows(rows, cols=n)


def test_unimodular_inverse_matches_smith():
    rng = random.Random(7004)
    outcomes = set()
    for trial in range(300):
        n = rng.randint(0, 5)
        m = _random_unimodular(rng, n) if trial % 2 else _rand(rng, n, n, 3)
        snf = smith_normal_form(m)
        unimodular = snf.D == IntMatrix.identity(n)
        outcomes.add(unimodular)
        if unimodular:
            inv = unimodular_inverse(m)
            assert m @ inv == IntMatrix.identity(n)
            assert inv == snf.V @ snf.U
        else:
            with pytest.raises(ValueError):
                unimodular_inverse(m)
    assert outcomes == {True, False}


# -- independent oracles --------------------------------------------------


def test_smith_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(7005)
    for trial in range(200):
        a = _random_case(rng, trial)
        theirs = invariant_factors(_to_sympy(sympy, a), domain=sympy.ZZ)
        assert smith_normal_form(a).diagonal == tuple(int(d) for d in theirs)


def test_solve_integer_matches_sympy_smith_decomposition():
    """A returned x solves a x = b; a None is confirmed by sympy's own
    decomposition U a V = D, under which a x = b reads D y = U b."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_decomp
    rng = random.Random(7016)
    mats, outcomes = [], set()
    for trial in range(320):
        a = _random_case(rng, trial)
        if trial % 2:
            b = [rng.randint(-6, 6) for _ in range(a.rows)]
        else:
            b = list((a @ _rand(rng, a.cols, 1)).column_at(0)) if a.cols else [0] * a.rows
        x = solve_integer(a, b)
        outcomes.add(x is None)
        mats.append(a)
        if x is not None:
            assert [sum(e * xj for e, xj in zip(row, x)) for row in a.entries] == b
            continue
        d, u, _ = smith_normal_decomp(_to_sympy(sympy, a), domain=sympy.ZZ)
        ub = u * sympy.Matrix(a.rows, 1, b)
        assert any(ub[i] % d[i, i] if i < a.cols and d[i, i] else ub[i]
                   for i in range(a.rows))
    assert outcomes == {True, False}
    assert {"0-row", "0-col"} <= _shape_coverage(mats)


def _to_sympy(sympy, a):
    return sympy.Matrix(a.rows, a.cols, [x for row in a.entries for x in row])


def _sympy_volume(sympy, a):
    """Rank and product of the nonzero invariant factors, both from sympy."""
    from sympy.matrices.normalforms import invariant_factors
    mat = _to_sympy(sympy, a)
    prod = 1
    for d in invariant_factors(mat, domain=sympy.ZZ):
        prod *= int(d) or 1
    return mat.rank(), prod


def test_column_hnf_against_independent_checks():
    """H is canonical, col(a) lies in col(H), and a and H have the same
    rank and the same product of invariant factors, so the index of
    col(a) in col(H) is 1 and the lattices are equal."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7006)
    for trial in range(200):
        a = _random_case(rng, trial)
        h = column_hnf(a)
        assert h.rows == a.rows
        pivots = []
        for j in range(h.cols):
            col = h.column_at(j)
            assert any(col), "zero column in a canonical basis"
            pr = next(i for i, x in enumerate(col) if x)
            assert col[pr] > 0
            assert not pivots or pr > pivots[-1][0]
            for k in range(j):
                assert 0 <= h.entries[pr][k] < col[pr]
            pivots.append((pr, j))
        # triangular back-substitution: each column of a in col(H)
        for j in range(a.cols):
            v = list(a.column_at(j))
            for pr, k in pivots:
                piv = h.entries[pr][k]
                assert v[pr] % piv == 0
                q = v[pr] // piv
                v = [x - q * y for x, y in zip(v, h.column_at(k))]
            assert not any(v)
        rank, vol = _sympy_volume(sympy, a)
        assert h.cols == rank
        assert _sympy_volume(sympy, h) == (rank, vol)


def test_lattice_membership_matches_solve_integer():
    # membership is a reduction modulo the cached Hermite basis; the solver
    # is the independent reference
    rng = random.Random(7005)
    seen, outcomes = [], set()
    for trial in range(300):
        gens = _random_case(rng, trial)
        seen.append(gens)
        v = gens @ _rand(rng, gens.cols, 1, 3)
        if trial % 2:
            v = v + _rand(rng, gens.rows, 1, 1)
        expected = solve_integer(gens, v) is not None
        assert lattice_contains(gens, v) == expected
        assert lattice_contains(column_hnf(gens), v) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}
    assert _shape_coverage(seen) == {"0-row", "0-col", "deficient", "full"}
    empty = IntMatrix.zeros(2, 0)
    assert lattice_contains(empty, IntMatrix.zeros(2, 1))
    assert not lattice_contains(empty, IntMatrix.from_rows([[0], [1]]))
    with pytest.raises(ValueError):
        lattice_contains(empty, IntMatrix.zeros(1, 1))


def test_public_constructors_still_reject_ragged_grids():
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 2, ((1, 2), (3,)))
    with pytest.raises(DimensionMismatch):
        IntMatrix(3, 2, ((1, 2), (3, 4)))
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ParseError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 2], [3]]})
    # kernel-built grids skip the row check but not the dimension check
    with pytest.raises(DimensionMismatch):
        IntMatrix.zeros(-1, 2)
    with pytest.raises(DimensionMismatch):
        IntMatrix.identity(-1)
    built = IntMatrix.hstack(IntMatrix.identity(2), IntMatrix.zeros(2, 1))
    assert built == IntMatrix(2, 3, ((1, 0, 0), (0, 1, 0)))
    assert hash(built) == hash(IntMatrix(2, 3, ((1, 0, 0), (0, 1, 0))))


def test_list_rows_are_stored_as_tuples():
    listed = IntMatrix(2, 2, [[2, 1], [0, 3]])
    tupled = IntMatrix(2, 2, ((2, 1), (0, 3)))
    assert listed.entries == tupled.entries and isinstance(listed.entries[0], tuple)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert column_hnf(listed) == column_hnf(tupled)
    assert IntMatrix(1, 1, [[2]]) == IntMatrix.from_rows([[2]])
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 2, [[1, 2], [3]])


# -- Smith form against the earlier routine with its divisibility repairs --------


def _oracle_smith(a, taken):
    """smith_normal_form as it stood with repairs for a zero before a nonzero
    diagonal entry and for negative entries after a fold; ``taken`` counts
    the folds and every repair that fired.  Returns the rows of U, D, V."""
    r, c = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]

    def swap_rows(m, i, j):
        m[i], m[j] = m[j], m[i]

    def swap_cols(m, i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def addmul_row(m, dst, src, k):
        m[dst] = [x + k * y for x, y in zip(m[dst], m[src])]

    def addmul_col(m, dst, src, k):
        for row in m:
            row[dst] += k * row[src]

    def negate_row(m, i):
        m[i] = [-x for x in m[i]]

    def xgcd(p, q):
        x, nx, y, ny, g, ng = 1, 0, 0, 1, p, q
        while ng:
            k = g // ng
            x, nx, y, ny, g, ng = nx, x - k * nx, ny, y - k * ny, ng, g - k * ng
        return (-g, -x, -y) if g < 0 else (g, x, y)

    def pivot_search(t):
        best, best_abs = None, None
        for i in range(t, r):
            for j in range(t, c):
                x = d[i][j]
                if x and (best_abs is None or abs(x) < best_abs):
                    best, best_abs = (i, j), abs(x)
                    if best_abs == 1:
                        return best
        return best

    limit = min(r, c)
    for t in range(limit):
        pos = pivot_search(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            swap_rows(d, t, i)
            swap_rows(u, t, i)
        if j != t:
            swap_cols(d, t, j)
            swap_cols(v, t, j)
        while True:
            restart = False
            for i in range(r):
                if i != t and d[i][t]:
                    q = d[i][t] // d[t][t]
                    addmul_row(d, i, t, -q)
                    addmul_row(u, i, t, -q)
                    if d[i][t]:
                        swap_rows(d, t, i)
                        swap_rows(u, t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(c):
                if j != t and d[t][j]:
                    q = d[t][j] // d[t][t]
                    addmul_col(d, j, t, -q)
                    addmul_col(v, j, t, -q)
                    if d[t][j]:
                        swap_cols(d, t, j)
                        swap_cols(v, t, j)
                        restart = True
                        break
            if restart:
                continue
            if all(d[i][t] == 0 for i in range(r) if i != t) and \
               all(d[t][j] == 0 for j in range(c) if j != t):
                break
    for i in range(limit):
        if d[i][i] < 0:
            negate_row(d, i)
            negate_row(u, i)
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            di, dj = d[i][i], d[i + 1][i + 1]
            if di and dj % di == 0:
                continue
            if di == 0 and dj == 0:
                continue
            if di == 0:
                taken["zero swap"] += 1
                swap_rows(d, i, i + 1)
                swap_rows(u, i, i + 1)
                swap_cols(d, i, i + 1)
                swap_cols(v, i, i + 1)
                changed = True
                continue
            taken["fold"] += 1
            addmul_col(d, i, i + 1, 1)
            addmul_col(v, i, i + 1, 1)
            a_, b_ = d[i][i], d[i + 1][i]
            g, x, y = xgcd(a_, b_)
            ai, bi = a_ // g, b_ // g
            for m in (d, u):
                ri, rj = m[i], m[i + 1]
                m[i] = [x * p + y * q for p, q in zip(ri, rj)]
                m[i + 1] = [-bi * p + ai * q for p, q in zip(ri, rj)]
            if not d[i][i]:
                taken["zero pivot guard"] += 1
            q2 = d[i][i + 1] // d[i][i] if d[i][i] else 0
            addmul_col(d, i + 1, i, -q2)
            addmul_col(v, i + 1, i, -q2)
            for k in (i + 1, i):
                if d[k][k] < 0:
                    taken["negation"] += 1
                    negate_row(d, k)
                    negate_row(u, k)
            changed = True
    return tuple(map(tuple, u)), tuple(map(tuple, d)), tuple(map(tuple, v))


def _smith_case(rng, k):
    r, c = rng.randrange(0, 8), rng.randrange(0, 8)
    kind = k % 4
    if kind == 0:
        # diagonal entries that mostly do not divide each other, some zero or negative
        rows = [[0] * c for _ in range(r)]
        for i in range(min(r, c)):
            rows[i][i] = rng.choice([0, 1, -1]) * rng.randint(2, 1000) \
                if rng.random() < 0.3 else rng.randint(2, 1000)
        return IntMatrix.from_rows(rows, cols=c)
    bound = (9, 1000, 1000, 1000)[kind]
    rows = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(c)]
            for _ in range(r)]
    if kind == 2 and r and c:
        # zero rows and columns
        for i in rng.sample(range(r), rng.randrange(0, r + 1)):
            rows[i] = [0] * c
        for j in rng.sample(range(c), rng.randrange(0, c + 1)):
            for row in rows:
                row[j] = 0
    return IntMatrix.from_rows(rows, cols=c)


def test_smith_matches_the_routine_with_the_unreachable_repairs():
    rng = random.Random(20)
    taken = {"fold": 0, "zero swap": 0, "zero pivot guard": 0, "negation": 0}
    shapes = set()
    for k in range(2000):
        a = _smith_case(rng, k)
        shapes.add((a.rows, a.cols))
        snf = smith_normal_form(a)
        assert (snf.U.entries, snf.D.entries, snf.V.entries) == _oracle_smith(a, taken), a
        # U^-1 is built alongside U, by the inverse of each row operation
        assert snf.U @ snf.U_inv == IntMatrix.identity(a.rows)
        assert snf.U_inv == unimodular_inverse(snf.U)
    assert {(0, 0), (7, 7)} <= shapes
    # the repair folds, and none of the removed branches ever fires
    assert taken["fold"] > 100
    assert taken["zero swap"] == taken["zero pivot guard"] == taken["negation"] == 0


# -- Hermite entry points against the elimination that redid every entry ----------


def _oracle_hermite(cols, pivot_rows):
    """_hermite as it stood before its column operations were restricted to
    the entries from the pivot row down: every operation rewrites whole
    columns, and the live columns are sorted to find the pivot."""
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


def _oracle_from_columns(rows, cols, start=0):
    return IntMatrix(rows, len(cols), tuple(tuple(col[start + i] for col in cols)
                                            for i in range(rows)))


def _oracle_hnf_transform(a):
    n, c = a.rows, a.cols
    cols = [list(a.column_at(j)) + [1 if i == j else 0 for i in range(c)] for j in range(c)]
    fixed = _oracle_hermite(cols, n)
    return _oracle_from_columns(n, cols[:fixed]), _oracle_from_columns(c, cols, n)


def _oracle_column_hnf(a):
    cols = [list(a.column_at(j)) for j in range(a.cols)]
    return _oracle_from_columns(a.rows, cols[:_oracle_hermite(cols, a.rows)])


def _oracle_preimage_basis(m, lattice_gens):
    r, n = m.rows, m.cols
    cols = [list(m.column_at(j)) + [1 if i == j else 0 for i in range(n)] for j in range(n)]
    cols += [list(lattice_gens.column_at(j)) + [0] * n for j in range(lattice_gens.cols)]
    fixed = _oracle_hermite(cols, r + n)
    top = sum(1 for col in cols[:fixed] if any(col[:r]))
    return _oracle_from_columns(n, cols[top:fixed], r)


def _hermite_case(rng, k):
    """Shapes 0x0 to 8x8 with entries up to 1000 in size; every third case
    has zero rows and columns, every fifth is small and rank-deficient."""
    r, c = rng.randrange(0, 9), rng.randrange(0, 9)
    if k % 5 == 0:
        inner = rng.randint(0, max(0, min(r, c) - 1))
        return _rand(rng, r, inner, 3) @ _rand(rng, inner, c, 3)
    bound = rng.choice((1, 9, 1000))
    rows = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(c)]
            for _ in range(r)]
    if k % 3 == 0 and r and c:
        for i in rng.sample(range(r), rng.randrange(0, r + 1)):
            rows[i] = [0] * c
        for j in rng.sample(range(c), rng.randrange(0, c + 1)):
            for row in rows:
                row[j] = 0
    return IntMatrix.from_rows(rows, cols=c)


def test_hermite_matches_the_whole_column_elimination():
    rng = random.Random(22)
    shapes, zero_lines, large, preimage_shapes = set(), 0, 0, set()
    for k in range(2000):
        a = _hermite_case(rng, k)
        shapes.add((a.rows, a.cols))
        zero_lines += any(not any(row) for row in a.entries) or \
            any(not any(col) for col in zip(*a.entries))
        large += any(abs(x) > 100 for row in a.entries for x in row)
        assert column_hnf_transform(a) == _oracle_hnf_transform(a), a
        assert column_hnf(a) == _oracle_column_hnf(a), a
        # preimages run the elimination on the augmented [[m | G], [I | 0]]
        g = _hermite_case(rng, k + 1)
        g = IntMatrix.from_rows(g.to_lists()[:a.rows] + [[0] * g.cols] * (a.rows - g.rows),
                                cols=g.cols)
        preimage_shapes.add((a.rows + a.cols, a.cols + g.cols))
        assert preimage_basis(a, g) == _oracle_preimage_basis(a, g), (a, g)
    assert len(shapes) == 81   # every shape from 0x0 to 8x8
    assert zero_lines > 1000 and large > 300
    assert (16, 16) in preimage_shapes and len(preimage_shapes) > 200
