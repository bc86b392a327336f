"""Property tests with shrinking; they need hypothesis and skip without it."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from exactcat import resolutions  # noqa: E402
from exactcat.complexes import _certified, is_acyclic  # noqa: E402
from exactcat.documents import parse_model_name  # noqa: E402
from exactcat.intlinalg import (  # noqa: E402
    IntMatrix,
    column_hnf,
    lattice_contains,
    lattice_equal,
    preimage_basis,
    reduce_columns_mod_lattice,
    smith_normal_form,
    solve_columns_mod_lattice,
    solve_rows_mod_lattice,
    unimodular_inverse,
)
from exactcat.kernel import GenBounds, PreconditionError  # noqa: E402
from exactcat.models import cyclic, fgab, iso_invariants  # noqa: E402
from exactcat.resolutions import projective_resolution  # noqa: E402


@st.composite
def matrices(draw, max_rows=4, max_cols=4, bound=9, rows=None, cols=None):
    rows = draw(st.integers(0, max_rows)) if rows is None else rows
    cols = draw(st.integers(0, max_cols)) if cols is None else cols
    entries = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=cols,
                                     max_size=cols), min_size=rows, max_size=rows))
    return IntMatrix.from_rows(entries, cols=cols)


@st.composite
def column_operations(draw, a):
    """A times a product of random elementary column operations."""
    cols = [list(a.column_at(j)) for j in range(a.cols)]
    for _ in range(draw(st.integers(0, 6)) if cols else 0):
        i, j = draw(st.integers(0, a.cols - 1)), draw(st.integers(0, a.cols - 1))
        kind = draw(st.sampled_from(["swap", "negate", "add"]))
        if kind == "swap":
            cols[i], cols[j] = cols[j], cols[i]
        elif kind == "negate":
            cols[i] = [-x for x in cols[i]]
        elif i != j:
            k = draw(st.integers(-3, 3))
            cols[i] = [x + k * y for x, y in zip(cols[i], cols[j])]
    return IntMatrix.from_rows([list(r) for r in zip(*cols)] if cols else [[]] * a.rows,
                               cols=a.cols)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_smith_form_is_a_unimodular_divisibility_chain(a):
    sympy = pytest.importorskip("sympy")
    snf = smith_normal_form(a)
    assert snf.U @ a @ snf.V == snf.D
    for t in (snf.U, snf.V):
        assert sympy.Matrix(t.rows, t.cols, [x for r in t.entries for x in r]).det() in (1, -1)
    diag = snf.diagonal
    assert all(snf.D.entries[i][j] == 0 for i in range(a.rows) for j in range(a.cols)
               if i != j)
    assert all(d >= 0 for d in diag)
    rank = snf.rank
    assert all(diag[:rank]) and not any(diag[rank:])
    assert all(y % x == 0 for x, y in zip(diag[:rank], diag[1:rank]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(max_rows=6, max_cols=6, bound=60))
def test_smith_form_carries_the_inverse_of_u(a):
    snf = smith_normal_form(a)
    one = IntMatrix.identity(a.rows)
    assert snf.U @ snf.U_inv == one and snf.U_inv @ snf.U == one
    assert snf.U_inv == unimodular_inverse(snf.U)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_column_hnf_is_canonical_and_idempotent(data):
    a = data.draw(matrices())
    aw = data.draw(column_operations(a))
    h = column_hnf(a)
    assert column_hnf(aw) == h
    assert column_hnf(h) == h


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_preimage_basis_is_exactly_the_preimage(data):
    m = data.draw(matrices())
    g = data.draw(matrices(rows=m.rows))
    # x0 lies in the preimage because m x0 joins the lattice's generators
    x0 = data.draw(matrices(max_cols=2, rows=m.cols))
    g = IntMatrix.hstack(g, m @ x0)
    basis = preimage_basis(m, g)
    assert basis.rows == m.cols
    assert lattice_contains(g, m @ basis)
    assert reduce_columns_mod_lattice(x0, basis).is_zero()
    x = data.draw(matrices(max_cols=3, bound=4, rows=m.cols))
    for j in range(x.cols):
        col = x.take_columns([j])
        assert lattice_contains(g, m @ col) == reduce_columns_mod_lattice(col, basis).is_zero()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_lattice_kernels_see_only_the_lattice_of_the_modulus(data):
    # kernel and image lattices are taken over an object's basis, not its relations
    m = data.draw(matrices(max_rows=5, max_cols=5))
    g = data.draw(matrices(max_cols=5, rows=m.rows))
    h = column_hnf(g)
    assert preimage_basis(m, g) == preimage_basis(m, h)
    assert column_hnf(IntMatrix.hstack(m, g)) == column_hnf(IntMatrix.hstack(m, h))


PRESENTED = ["fgab", "vect:3", "fgab_split", "free_exact", "free_split", "even_rank_split"]


def _edge_objects(model):
    """The zero object and, where the model has them, zero relation columns."""
    edge = [model.zero_object()]
    for make in (lambda: cyclic(0, model=model),
                 lambda: model.object(2, IntMatrix.zeros(2, 2))):
        try:
            edge.append(make())
        except PreconditionError:
            pass
    return edge


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(PRESENTED), st.integers(0, 2**16))
def test_injective_and_surjective_agree_with_the_lattice_oracles(name, seed):
    model, rng, bounds = parse_model_name(name), random.Random(seed), GenBounds(max_gens=3)
    pool = [model.random_object(rng, bounds) for _ in range(2)] + _edge_objects(model)
    a, b = rng.choice(pool), rng.choice(pool)
    s = model.random_ses(rng, bounds)
    arrows = [model.random_morphism(rng, a, b), model.identity(a), s.i, s.p,
              model.random_admissible_monic_from(rng, a, bounds),
              model.random_admissible_epic_onto(rng, b, bounds)]
    for f in arrows:
        dom, cod = f.dom.payload, f.cod.payload
        injective = lattice_equal(preimage_basis(f.matrix, cod.relations), dom.relations)
        surjective = lattice_contains(IntMatrix.hstack(f.matrix, cod.relations),
                                      IntMatrix.identity(cod.ngens))
        assert model._is_injective(f) == injective
        assert model._is_surjective(f) == surjective


@st.composite
def presentations(draw, max_gens=3, max_rels=3, bound=6):
    ngens = draw(st.integers(0, max_gens))
    nrels = draw(st.integers(0, max_rels))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=nrels,
                                  max_size=nrels), min_size=ngens, max_size=ngens))
    return fgab().object(ngens, IntMatrix.from_rows(rows, cols=nrels))


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_resolution_certificate_verifies_and_agrees_with_is_acyclic(a):
    made = []

    def spy(x, epics, monics):
        made.append(_certified(x, epics, monics))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolutions, "_certified", spy)
        res = projective_resolution(a)
    assert not res.truncated and len(made) == 1
    cert, x = made[0], res.augmented_complex()
    oracle = is_acyclic(x)
    assert cert is not None and oracle is not None
    for n in range(x.lo, x.hi + 2):
        assert iso_invariants(cert.z_object(n)) == iso_invariants(oracle.z_object(n))


@st.composite
def planted_map(draw, dom_gens, cod_gens, cod_rel):
    """(X0, dom_rel): a random X0 and, when drawn, relations it carries into
    col(cod_rel), spanned by part of the preimage of col(cod_rel) under X0."""
    x0 = draw(matrices(bound=4, rows=cod_gens, cols=dom_gens))
    if not draw(st.booleans()):
        return x0, None
    pre = preimage_basis(x0, cod_rel)
    dom_rel = pre @ draw(matrices(max_cols=3, bound=3, rows=pre.cols))
    assert lattice_contains(cod_rel, x0 @ dom_rel)
    return x0, dom_rel


@st.composite
def right_hand_side(draw, planted, modulus):
    """planted + a lattice vector, moved off the solution set when drawn."""
    c = planted + modulus @ draw(matrices(bound=3, rows=modulus.cols, cols=planted.cols))
    exact = draw(st.booleans())
    if not exact:
        c = c + draw(matrices(bound=2, rows=c.rows, cols=c.cols))
    return c, exact


def _rng(data):
    return random.Random(data.draw(st.integers(0, 2**16))) if data.draw(st.booleans()) else None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_columns_mod_lattice_is_sound_and_finds_planted_solutions(data):
    # a X = b mod col(lattice), X carrying col(dom_rel) into col(cod_rel)
    a = data.draw(matrices(max_rows=3, max_cols=3, bound=5))
    lattice = data.draw(matrices(max_cols=3, bound=5, rows=a.rows))
    cod_rel = data.draw(matrices(max_cols=2, bound=4, rows=a.cols)) \
        if data.draw(st.booleans()) else None
    x0, dom_rel = data.draw(planted_map(data.draw(st.integers(0, 3)), a.cols,
                                        cod_rel if cod_rel is not None
                                        else IntMatrix.zeros(a.cols, 0)))
    b, exact = data.draw(right_hand_side(a @ x0, lattice))
    x = solve_columns_mod_lattice(a, b, lattice, dom_rel=dom_rel, cod_rel=cod_rel,
                                  rng=_rng(data))
    assert x is not None or not exact
    if x is not None:
        assert lattice_contains(lattice, a @ x - b)
        if dom_rel is not None:
            target = cod_rel if cod_rel is not None else IntMatrix.zeros(a.cols, 0)
            assert lattice_contains(target, x @ dom_rel)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_rows_mod_lattice_is_sound_and_finds_planted_solutions(data):
    # X r = c mod col(lattice), X carrying col(dom_rel) into col(lattice)
    r = data.draw(matrices(max_rows=3, max_cols=3, bound=5))
    lattice = data.draw(matrices(max_rows=3, max_cols=3, bound=5))
    x0, dom_rel = data.draw(planted_map(r.rows, lattice.rows, lattice))
    c, exact = data.draw(right_hand_side(x0 @ r, lattice))
    x = solve_rows_mod_lattice(r, c, lattice, dom_rel=dom_rel, rng=_rng(data))
    assert x is not None or not exact
    if x is not None:
        assert lattice_contains(lattice, x @ r - c)
        if dom_rel is not None:
            assert lattice_contains(lattice, x @ dom_rel)
