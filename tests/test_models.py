import random

import pytest

from exactcat.intlinalg import (
    IntMatrix,
    column_hnf,
    preimage_basis,
    smith_normal_form,
    unimodular_inverse,
)
from exactcat.completion import CompletedModel, complete
from exactcat.kernel import GenBounds, MorphismSystem, ObjectAbsent, PreconditionError
from exactcat.models import (
    PresentedObject,
    cyclic,
    even_rank_split,
    fgab,
    fgab_object,
    fgab_split,
    free,
    free_exact,
    free_split,
    is_projective,
    iso_invariants,
    normalize_presentation,
    projective_cover_epi,
    vect,
    vect_model,
)

B = GenBounds()


def test_object_builders():
    z6 = cyclic(6)
    inv = iso_invariants(z6)
    assert inv.free_rank == 0 and inv.torsion_factors == (6,)

    f2 = free(2)
    inv = iso_invariants(f2)
    assert inv.free_rank == 2 and inv.torsion_factors == ()

    a = fgab_object(2, [[2], [4]])
    inv = iso_invariants(a)
    assert inv.free_rank == 1 and inv.torsion_factors == (2,)

    assert iso_invariants(cyclic(0)) == iso_invariants(free(1))
    assert iso_invariants(cyclic(1)).torsion_factors == ()


def test_iso_invariants_examples():
    m = fgab()
    # Z/2 + Z/3 has invariant factor chain (6)
    a = fgab_object(2, [[2, 0], [0, 3]])
    assert iso_invariants(a).torsion_factors == (6,)
    assert iso_invariants(m.zero_object()) == iso_invariants(fgab_object(0))
    b = fgab_object(2, [[2], [0]])
    assert iso_invariants(b).free_rank == 1
    assert iso_invariants(b).torsion_factors == (2,)


def test_invariants_stable_under_presentation_change():
    rng = random.Random(0)
    m = fgab()
    for _ in range(40):
        a = m.random_object(rng, B)
        rel = a.payload.relations
        if rel.cols == 0:
            continue
        # augment relations by integer combinations of existing relators
        combos = []
        for _ in range(rng.randrange(1, 3)):
            c = [rng.randint(-2, 2) for _ in range(rel.cols)]
            combos.append([sum(rel.entries[i][j] * c[j] for j in range(rel.cols))
                           for i in range(rel.rows)])
        aug = IntMatrix.hstack(rel, IntMatrix.from_rows(combos, cols=rel.rows).transpose()
                               if combos else IntMatrix.zeros(rel.rows, 0))
        b = m.object(a.payload.ngens, aug)
        assert iso_invariants(a) == iso_invariants(b)


def test_vect_objects():
    v = vect(3, 5)
    assert iso_invariants(v).torsion_factors == (5, 5, 5)
    with pytest.raises(PreconditionError):
        vect_model(4)
    with pytest.raises(PreconditionError):
        # Z/2 + Z is not an F_2 space
        vect_model(2).object(2, IntMatrix.from_rows([[2], [0]]))


def test_well_definedness():
    m = fgab()
    z4, z2 = cyclic(4), cyclic(2)
    # quotient map Z/4 -> Z/2 is fine
    m.morphism(z4, z2, IntMatrix.from_rows([[1]]))
    # there is no nonzero hom Z/2 -> Z/4 sending the generator to a generator
    with pytest.raises(PreconditionError):
        m.morphism(z2, z4, IntMatrix.from_rows([[1]]))
    # multiplication by 2 is a well-defined hom Z/2 -> Z/4
    m.morphism(z2, z4, IntMatrix.from_rows([[2]]))


def test_morphism_equality_mod_relations():
    m = fgab()
    z, z2 = cyclic(0), cyclic(2)
    f = m.morphism(z, z2, IntMatrix.from_rows([[1]]))
    g = m.morphism(z, z2, IntMatrix.from_rows([[3]]))
    assert f.same_as(g)
    assert not f.same_as(m.zero_morphism(z, z2))


def test_composition_preserves_well_definedness():
    rng = random.Random(1)
    m = fgab()
    for _ in range(30):
        a = m.random_object(rng, B)
        b = m.random_object(rng, B)
        c = m.random_object(rng, B)
        f = m.random_morphism(rng, a, b)
        g = m.random_morphism(rng, b, c)
        h = g @ f
        # re-validate explicitly
        m.morphism(a, c, h.matrix)


def test_projectivity():
    assert is_projective(free(3))
    assert not is_projective(cyclic(4))
    assert is_projective(fgab_object(2, [[0], [0]]))
    # split structures: everything is projective
    ms = fgab_split()
    assert ms.is_projective(ms.object(1, IntMatrix.from_rows([[4]])))
    me = even_rank_split()
    assert me.is_projective(me.object(2))


def test_projectivity_lifting_oracle():
    # is_projective agrees with the lifting property against admissible epics.
    rng = random.Random(2)
    m = fgab()
    for _ in range(25):
        a = m.random_object(rng, B)
        e = m.random_admissible_epic_onto(rng, m.random_object(rng, B), B)
        g = m.random_morphism(rng, a, e.cod)
        lift = m.solve_right_factor(e, g)
        if is_projective(a):
            assert lift is not None
        if lift is not None:
            assert (e @ lift).same_as(g)
    # and cyclic(4) concretely fails a lift: Z ->> Z/4 against id: Z/4 -> Z/4
    z4 = cyclic(4)
    cover = projective_cover_epi(z4)
    assert m.solve_right_factor(cover, m.identity(z4)) is None


def test_projective_cover():
    z4 = cyclic(4)
    e = projective_cover_epi(z4)
    assert iso_invariants(e.dom).free_rank == 1
    assert e.model.is_admissible_epic(e)
    f2 = free(2)
    e2 = projective_cover_epi(f2)
    assert e2.model.is_iso(e2)
    a = fgab_object(2, [[0], [2]])
    e3 = projective_cover_epi(a)
    assert iso_invariants(e3.dom).free_rank == 2
    assert e3.model.is_admissible_epic(e3)


@pytest.mark.parametrize("model", [fgab(), fgab_split(), vect_model(3),
                                   free_exact(), free_split(), even_rank_split()])
def test_random_ses_is_short_exact(model):
    rng = random.Random(42)
    for _ in range(60):
        s = model.random_ses(rng, B)
        assert model.is_short_exact(s.i, s.p), (model.model_id, s)


@pytest.mark.parametrize("model", [fgab(), fgab_split(), free_exact(), even_rank_split()])
def test_random_admissible_has_analysis(model):
    rng = random.Random(43)
    for _ in range(40):
        f = model.random_admissible(rng, B)
        an = model.analyze(f)
        assert an is not None
        assert (an.image_monic @ an.coimage_epic).same_as(f)


def test_degenerate_bounds():
    rng = random.Random(44)
    m = fgab()
    small = GenBounds(max_gens=1, max_rel_entry=9, max_entry=9)
    for _ in range(20):
        a = m.random_object(rng, small)
        assert a.payload.ngens <= 1
    z6 = cyclic(6)
    zero_entries = m.random_morphism(random.Random(1), m.zero_object(), z6)
    assert zero_entries.is_zero()


@pytest.mark.parametrize("model", [fgab(), vect_model(3), free_exact(), even_rank_split()],
                         ids=["fgab", "vect:3", "free_exact", "even_rank_split"])
def test_zero_object_is_one_handle_per_model(model):
    z = model.zero_object()
    assert model.zero_object() is z
    assert model.is_zero_object(z) and z.model is model


def test_random_morphism_well_defined():
    rng = random.Random(45)
    m = fgab()
    for _ in range(40):
        a = m.random_object(rng, B)
        b = m.random_object(rng, B)
        f = m.random_morphism(rng, a, b)
        m.morphism(a, b, f.matrix)  # re-check well-definedness


def test_even_rank_split_validators():
    me = even_rank_split()
    with pytest.raises(PreconditionError):
        me.object(3)
    with pytest.raises(PreconditionError):
        free_exact().object(1, IntMatrix.from_rows([[2]]))


def test_split_exactness_agrees_with_ambient_free():
    # on free split models the witness-based exactness test coincides with
    # the ambient kernel-equals-image characterization
    rng = random.Random(50)
    fe = free_exact()
    fs = free_split()
    me = even_rank_split()
    for _ in range(25):
        s = fs.random_ses(rng, B)
        # witness-exact implies ambient-exact
        assert fe.is_short_exact(
            fe.morphism(fe.object(s.i.dom.payload.ngens),
                        fe.object(s.i.cod.payload.ngens), s.i.matrix),
            fe.morphism(fe.object(s.p.dom.payload.ngens),
                        fe.object(s.p.cod.payload.ngens), s.p.matrix))
        # ambient-exact free sequences are split in turn
        t = fe.random_ses(rng, B)
        assert fs.is_short_exact(
            fs.morphism(fs.object(t.i.dom.payload.ngens),
                        fs.object(t.i.cod.payload.ngens), t.i.matrix),
            fs.morphism(fs.object(t.p.dom.payload.ngens),
                        fs.object(t.p.cod.payload.ngens), t.p.matrix))
        # and with even ranks they land in the even-rank structure
        if all(x.payload.ngens % 2 == 0 for x in (t.sub, t.mid, t.quot)):
            assert me.is_short_exact(
                me.morphism(me.object(t.i.dom.payload.ngens),
                            me.object(t.i.cod.payload.ngens), t.i.matrix),
                me.morphism(me.object(t.p.dom.payload.ngens),
                            me.object(t.p.cod.payload.ngens), t.p.matrix))


def test_analysis_factorization_unique_up_to_iso():
    # two epic-monic factorizations of the same arrow are linked by a
    # unique isomorphism commuting with both triangles
    rng = random.Random(51)
    m = fgab()
    for _ in range(15):
        a = m.random_object(rng, B)
        b = m.random_object(rng, B)
        f = m.random_morphism(rng, a, b)
        an1 = m.analyze(f)
        u = m.random_automorphism(rng, a)
        an2 = m.analyze(f @ u)   # same image subobject, different coimage path
        comp = m.solve_right_factor(an2.image_monic, an1.image_monic)
        assert comp is not None and m.is_iso(comp)
        assert (an2.image_monic @ comp).same_as(an1.image_monic)


def _kernel_mod_p(a, p):
    # Gauss-Jordan elimination over F_p; integer lifts (entries in [0, p))
    # of a basis of the kernel of a mod p, one column per free variable
    m = [[x % p for x in row] for row in a.entries]
    pivots = []
    for j in range(a.cols):
        r = len(pivots)
        piv = next((i for i in range(r, a.rows) if m[i][j]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][j], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(a.rows):
            if i != r and m[i][j]:
                c = m[i][j]
                m[i] = [(x - c * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(j)
    cols = []
    for j in (j for j in range(a.cols) if j not in pivots):
        v = [0] * a.cols
        v[j] = 1
        for r, pj in enumerate(pivots):
            v[pj] = -m[r][j] % p
        cols.append(v)
    return IntMatrix(a.cols, len(cols), tuple(tuple(c[i] for c in cols)
                                              for i in range(a.cols)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_vect_kernel_lattice_matches_mod_p_elimination(p):
    # the generic lattice preimage agrees with Gaussian elimination mod p
    rng = random.Random(p)
    model = vect_model(p)
    for _ in range(25):
        n, k = rng.randint(0, 4), rng.randint(0, 4)
        m = IntMatrix.from_rows([[rng.randint(-2 * p, 2 * p) for _ in range(n)]
                                 for _ in range(k)], cols=n)
        f = model.morphism(vect(n, p), vect(k, p), m)
        expected = column_hnf(IntMatrix.hstack(_kernel_mod_p(m, p),
                                               IntMatrix.diagonal([p] * n)))
        assert model._kernel_lattice(f) == expected


def _split_witness_oracle(i, p):
    # The assembled two-unknown system: s i = 1, p t = 1, i s + t p = 1.
    model = i.model
    if isinstance(model, CompletedModel):
        i, p, model = model.to_target(i), model.to_target(p), model.target
    if not (p @ i).is_zero():
        return False
    na, nb, nc = i.matrix.cols, i.matrix.rows, p.matrix.rows
    sys = MorphismSystem(model)
    sys.unknown_morphism("s", i.cod, i.dom)
    sys.unknown_morphism("t", p.cod, p.dom)
    sys.equation([("s", IntMatrix.identity(na), i.matrix)], IntMatrix.identity(na),
                 cod=i.dom)
    sys.equation([("t", p.matrix, IntMatrix.identity(nc))], IntMatrix.identity(nc),
                 cod=p.cod)
    sys.equation([("s", i.matrix, IntMatrix.identity(nb)),
                  ("t", IntMatrix.identity(nb), p.matrix)],
                 IntMatrix.identity(nb), cod=i.cod)
    return sys.solve() is not None


def _coordinate_pair(model, k):
    # Z^k -> Z^3k onto the first block, Z^3k -> Z^k the third block:
    # p i = 0 and both one-sided inverses exist, yet the middle block is
    # left over, so the pair is not exact
    base = model.base if isinstance(model, CompletedModel) else model
    a, b = base.object(k), base.object(3 * k)
    one, zero = IntMatrix.identity(k), IntMatrix.zeros(k, k)
    i = base.morphism(a, b, IntMatrix.vstack(one, zero, zero))
    p = base.morphism(b, a, IntMatrix.hstack(zero, zero, one))
    if isinstance(model, CompletedModel):
        i, p = model.embed_morphism(i), model.embed_morphism(p)
    return i, p


@pytest.mark.parametrize("model", [fgab_split(), free_split(), even_rank_split(),
                                   complete(even_rank_split())],
                         ids=lambda m: m.model_id)
def test_split_exactness_matches_witness_system(model):
    # is_short_exact decides from one-sided inverses; the oracle solves for
    # a full witness pair in one coupled system
    rng = random.Random(61)
    k = 2 if "even_rank" in model.model_id else 1
    cases = [(_coordinate_pair(model, k), False)]
    if model is fgab_split():
        cases.append(((model.morphism(free(1, model), free(1, model), IntMatrix.from_rows([[2]])),
                       model.morphism(free(1, model), cyclic(2, model), IntMatrix.identity(1))),
                      False))
    for _ in range(25):
        s = model.random_ses(rng, B)
        bp = model.biproduct(model.random_object(rng, B), model.random_object(rng, B))
        t, tinv = model._random_shear_pair(rng, bp)
        cases += [((s.i, s.p), True),
                  ((t @ bp.inj1, bp.proj2 @ tinv), True),
                  # doubled, or sheared on one side only: decided by the oracle
                  ((s.i + s.i, s.p), None),
                  ((s.i, s.p + s.p), None),
                  ((t @ bp.inj1, bp.proj2), None)]
    seen = {True: 0, False: 0}
    for (i, p), expected in cases:
        got = model.is_short_exact(i, p)
        assert got == _split_witness_oracle(i, p), (model.model_id, i, p)
        if expected is not None:
            assert got == expected, (model.model_id, i, p)
        seen[got] += 1
    assert seen[False] >= 10, seen


def _regular_splitting_oracle(f):
    # The two-sided criterion: some g with f g f = f, from one assembled
    # system, and the images of 1 - g f, f g and 1 - f g are objects.
    model = f.model
    if isinstance(model, CompletedModel):
        f, model = model.to_target(f), model.target
    sys = MorphismSystem(model)
    sys.unknown_morphism("g", f.cod, f.dom)
    sys.equation([("g", f.matrix, f.matrix)], f.matrix, cod=f.cod)
    sol = sys.solve()
    if sol is None:
        return False
    g = sol["g"]
    one_dom, one_cod = model.identity(f.dom), model.identity(f.cod)
    for host, w in ((f.dom, one_dom - g @ f), (f.cod, f @ g), (f.cod, one_cod - f @ g)):
        try:
            model.subobject(host, model._image_lattice(w))
        except PreconditionError:
            return False
    return True


@pytest.mark.parametrize("model", [fgab_split(), free_split(), even_rank_split(),
                                   complete(even_rank_split())],
                         ids=lambda m: m.model_id)
def test_split_analysis_matches_regular_splitting(model):
    # analyze reads admissibility off the ambient factorisation; the oracle
    # is the generalised-inverse criterion it replaces
    rng = random.Random(71)
    cases = []
    if model is fgab_split():
        z, z2, z4 = free(1, model), cyclic(2, model), cyclic(4, model)
        cases += [(model.morphism(z, z, IntMatrix.from_rows([[2]])), False),
                  (model.morphism(z2, z4, IntMatrix.from_rows([[2]])), False),
                  (model.morphism(z4, z2, IntMatrix.identity(1)), False)]
    if model is even_rank_split():
        host = model.object(2)
        cases.append((model.morphism(host, host, IntMatrix.diagonal([1, 0])), False))
    for _ in range(25):
        a, b = model.random_object(rng, B), model.random_object(rng, B)
        f = model.random_morphism(rng, a, b)
        cases += [(model.random_admissible(rng, B), True), (f, None), (f + f, None)]
    seen = {True: 0, False: 0}
    for f, expected in cases:
        an = model.analyze(f)
        got = an is not None
        assert got == _regular_splitting_oracle(f), (model.model_id, f)
        if expected is not None:
            assert got == expected, (model.model_id, f)
        seen[got] += 1
        if an is None:
            continue
        k, e, m, c = an.kernel_arrow, an.coimage_epic, an.image_monic, an.cokernel_arrow
        assert (m @ e).same_as(f)
        assert (f @ k).is_zero() and (c @ f).is_zero()
        assert model.is_short_exact(k, e) and model.is_short_exact(m, c)
        assert model.is_admissible_monic(k) and model.is_admissible_monic(m)
        assert model.is_admissible_epic(e) and model.is_admissible_epic(c)
    assert seen[True] >= 25 and seen[False] >= 5, seen


def _reference_hom_basis(a, b):
    # PresentedModel._hom_basis as it was: vec X with X R_a in col(R_b) as a
    # Kronecker preimage system
    na, nb = a.ngens, b.ngens
    ra = a.relations.cols
    lhs = IntMatrix.kron(a.relations.transpose(), IntMatrix.identity(nb))
    lat = IntMatrix.kron(IntMatrix.identity(ra), b.relations)
    return preimage_basis(lhs, lat) if ra else IntMatrix.identity(na * nb)


@pytest.mark.parametrize("model", [fgab(), vect_model(3)], ids=["fgab", "vect:3"])
def test_hom_basis_matches_kronecker_system(model):
    rng = random.Random(47)
    bounds = GenBounds(max_gens=4, max_rel_entry=12, max_entry=9)
    special = [PresentedObject(0, IntMatrix.zeros(0, 0)),     # zero generators
               PresentedObject(0, IntMatrix.zeros(0, 2)),
               PresentedObject(3, IntMatrix.zeros(3, 0)),     # relation-free
               PresentedObject(2, IntMatrix.zeros(2, 2)),     # zero relations
               PresentedObject(2, IntMatrix.from_rows([[2, 4], [6, 12]]))]
    for trial in range(200):
        a, b = (special[rng.randrange(len(special))] if rng.random() < 0.3
                else model.random_object(rng, bounds).payload for _ in range(2))
        basis = model._hom_basis(a, b)
        assert basis == _reference_hom_basis(a, b), (a, b)
        # every basis column is a well-defined map a -> b
        for j in range(basis.cols if a.ngens and b.ngens else 0):
            x = IntMatrix(b.ngens, a.ngens, tuple(
                tuple(basis.entries[jj * b.ngens + i][j] for jj in range(a.ngens))
                for i in range(b.ngens)))
            ab = fgab()
            ab.morphism(ab.object(a.ngens, a.relations), ab.object(b.ngens, b.relations), x)


def test_absent_object_is_the_only_missing_kernel():
    me = even_rank_split()
    x = me.object(2)
    proj = me.morphism(x, x, IntMatrix.diagonal([1, 0]))
    # the rank-one kernel, cokernel and image are not objects of the model
    assert me.kernel(proj) is None
    assert me.cokernel(proj) is None
    assert me.analyze(proj) is None
    with pytest.raises(ObjectAbsent, match="even rank"):
        me.object(1)


@pytest.mark.parametrize("op", ["kernel", "cokernel", "analyze"])
def test_other_preconditions_propagate_from_kernels(op):
    # a PreconditionError raised for any other reason while building the
    # kernel, cokernel or image object is not mistaken for "none exists"
    class Faulty(type(fgab())):
        model_id = "faulty"
        armed = False

        def validate_object(self, payload):
            super().validate_object(payload)
            if self.armed:
                raise PreconditionError("validator fault")

    m = Faulty()
    a = m.object(2)
    f = m.morphism(a, a, IntMatrix.from_rows([[2, 0], [0, 0]]))
    m.armed = True
    if op != "analyze":
        with pytest.raises(PreconditionError, match="validator fault"):
            getattr(m, op)(f)
        return
    # an analysis builds each part when it is read, so the fault surfaces there
    an = m.analyze(f)
    for part in ("kernel_arrow", "cokernel_arrow", "image_monic"):
        with pytest.raises(PreconditionError, match="validator fault"):
            getattr(an, part)


def _selection_normalization(payload):
    # normalize_presentation as it was: the change of generators as products
    # with a 0/1 selection matrix, and U^-1 from a second elimination
    n, rel = payload.ngens, payload.relations
    snf = smith_normal_form(rel)
    m = min(rel.rows, rel.cols)
    diag = [snf.D.entries[i][i] if i < m else 0 for i in range(n)]
    kept = [i for i in range(n) if diag[i] != 1]
    torsion = [diag[i] for i in kept if diag[i] > 1]
    sel = IntMatrix(len(kept), n,
                    tuple(tuple(1 if j == i else 0 for j in range(n)) for i in kept))
    new_rel = IntMatrix(len(kept), len(torsion), tuple(
        tuple(torsion[j] if i == j else 0 for j in range(len(torsion)))
        for i in range(len(kept))))
    return (PresentedObject(len(kept), new_rel), unimodular_inverse(snf.U) @ sel.transpose(),
            sel @ snf.U)


def test_normalize_presentation_matches_the_selection_products():
    rng = random.Random(2200)
    dropped = torsion = 0
    for k in range(500):
        n, r = rng.randrange(0, 7), rng.randrange(0, 7)
        bound = (1, 4, 30)[k % 3]
        rel = IntMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(r)]
                                   for _ in range(n)], cols=r)
        payload = PresentedObject(n, rel)
        ours = normalize_presentation(payload)
        assert ours == _selection_normalization(payload), payload
        dropped += ours[0].ngens < n
        torsion += ours[0].relations.cols > 0
    assert dropped > 100 and torsion > 100
