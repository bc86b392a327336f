import random

import pytest

from exactcat.completion import CompletedModel, complete
from exactcat.documents import parse_model_name
from exactcat.intlinalg import IntMatrix, column_hnf, reduce_by_pivots, saturation
from exactcat.kernel import (
    GenBounds,
    MorphismHandle,
    NotAdmissible,
    PreconditionError,
    analyze,
    biproduct,
    cokernel,
    is_admissible_epic,
    is_admissible_monic,
    is_short_exact,
    kernel,
    pullback_along_epic,
    pushout_along_monic,
)
from exactcat.laws import LAW_SUITES, LawConfig, run_suites
from exactcat.models import (
    FreeExactModel,
    SplitModel,
    cyclic,
    even_rank_split,
    fgab,
    fgab_object,
    free,
    free_split,
    iso_invariants,
)

B = GenBounds()
M = fgab()


def mor(dom, cod, rows):
    return dom.model.morphism(dom, cod, IntMatrix.from_rows(rows, cols=dom.payload.ngens))


def test_split_inclusion_projection_is_short_exact():
    a, b = cyclic(6), free(1)
    bp = biproduct(a, b)
    assert is_short_exact(bp.inj1, bp.proj2)
    assert is_short_exact(bp.inj2, bp.proj1)


def test_identity_to_zero_is_short_exact():
    a = cyclic(4)
    z = M.zero_object()
    i = M.identity(a)
    p = M.zero_morphism(a, z)
    assert is_short_exact(i, p)
    assert is_short_exact(M.zero_morphism(z, a), M.identity(a))


def test_times_two_identity_not_short_exact():
    z = cyclic(0)
    two = mor(z, z, [[2]])
    one = M.identity(z)
    # the cokernel of x2 is Z/2, not Z, so (x2, id) is not a pair
    assert not is_short_exact(two, one)


def test_admissibility_basics():
    z = cyclic(0)
    two = mor(z, z, [[2]])
    assert is_admissible_monic(M.identity(z))
    assert is_admissible_epic(M.identity(z))
    assert is_admissible_monic(two)
    assert not is_admissible_epic(two)


def test_even_rank_split_idempotent_neither():
    me = even_rank_split()
    z2 = me.object(2)
    e = me.morphism(z2, z2, IntMatrix.diagonal([1, 0]))
    assert not me.is_admissible_monic(e)
    assert not me.is_admissible_epic(e)
    assert me.analyze(e) is None
    assert me.kernel(e) is None
    assert me.cokernel(e) is None


def test_kernel_cokernel_abelian():
    z = cyclic(0)
    two = mor(z, z, [[2]])
    k = kernel(two)
    assert iso_invariants(k.dom).free_rank == 0
    assert iso_invariants(k.dom).torsion_factors == ()
    c = cokernel(two)
    assert iso_invariants(c.cod).torsion_factors == (2,)
    assert M.is_admissible_epic(c)


def test_analyze_times_two_abelian():
    z = cyclic(0)
    two = mor(z, z, [[2]])
    an = analyze(two)
    assert an is not None
    # kernel 0, coimage Z, image 2Z (free rank 1), cokernel Z/2
    assert iso_invariants(an.kernel_object).free_rank == 0
    assert iso_invariants(an.image_object).free_rank == 1
    assert iso_invariants(an.cokernel_object).torsion_factors == (2,)
    assert (an.image_monic @ an.coimage_epic).same_as(two)
    assert is_short_exact(an.kernel_arrow, an.coimage_epic)
    assert is_short_exact(an.image_monic, an.cokernel_arrow)


def test_analyze_zero_morphism():
    a, b = cyclic(4), cyclic(6)
    z = M.zero_morphism(a, b)
    an = analyze(z)
    assert an is not None
    assert M.is_iso(an.kernel_arrow)
    assert iso_invariants(an.image_object).torsion_factors == ()
    assert M.is_iso(an.cokernel_arrow)


def test_analyze_times_two_not_admissible_in_free_split():
    mf = free_split()
    z = mf.object(1)
    two = mf.morphism(z, z, IntMatrix.from_rows([[2]]))
    assert mf.analyze(two) is None
    # exhaustive rank argument: a factorization Z ->> W >-> Z has W of rank
    # 0 or 1; rank 0 composes to 0, rank 1 forces both arrows invertible,
    # so the composite is a unit, never multiplication by 2.
    for w_rank, units in [(0, [0]), (1, [1, -1])]:
        for e in units:
            for m_ in units:
                assert e * m_ != 2


def test_pushout_times2_times3():
    # pushout of x2: Z >-> Z along x3: Z -> Z is Z with f' = x3, i' = x2
    z = cyclic(0)
    two = mor(z, z, [[2]])
    three = mor(z, z, [[3]])
    po = pushout_along_monic(two, three)
    assert iso_invariants(po.ob) == iso_invariants(z)
    assert (po.map @ two).same_as(po.monic @ three)
    # Smith-canonical cokernel of the column (2, -3): the sequence
    # Z >-> Z^2 ->> Z is short exact (checked by hand below)
    col = po.column
    assert is_short_exact(col, po.cokernel_arrow)
    # brute-force kernel check of the cokernel arrow (q kills exactly Z(2,-3))
    q = po.cokernel_arrow.matrix
    assert q.rows == 1
    a, b = q.entries[0]
    # q @ (2, -3) = 0 and gcd(a, b) = 1
    assert 2 * a - 3 * b == 0
    import math
    assert math.gcd(a, b) == 1


def test_pushout_along_identity():
    rng = random.Random(1)
    for _ in range(10):
        s = M.random_ses(rng, B)
        i = s.i
        po = pushout_along_monic(i, M.identity(i.dom))
        assert iso_invariants(po.ob) == iso_invariants(i.cod)
        assert M.is_iso(po.map)


def test_pushout_into_zero():
    # i = (1 0)^T : Z >-> Z^2, f = 0 : Z -> 0 gives B' = Z and f' = (0 1)
    z, z2 = free(1), free(2)
    i = mor(z, z2, [[1], [0]])
    f = M.zero_morphism(z, M.zero_object())
    po = pushout_along_monic(i, f)
    assert iso_invariants(po.ob).free_rank == 1
    assert iso_invariants(po.ob).torsion_factors == ()
    # f' kills the first generator
    assert (po.map @ i).is_zero()


def test_pushout_requires_admissible_monic():
    z = cyclic(0)
    notmono = mor(z, z, [[0]])
    with pytest.raises(NotAdmissible):
        pushout_along_monic(notmono, M.identity(z))


def test_pullback_quotient_along_zero():
    # p: Z ->> Z/2, g: 0 -> Z/2 pulls back to the kernel 2Z
    z, z2 = cyclic(0), cyclic(2)
    p = mor(z, z2, [[1]])
    g = M.zero_morphism(M.zero_object(), z2)
    pb = pullback_along_epic(p, g)
    assert iso_invariants(pb.ob).free_rank == 1
    # the map into Z is multiplication by 2 up to sign
    assert pb.map.matrix.entries[0][0] in (2, -2)


def test_pullback_along_identity():
    rng = random.Random(2)
    for _ in range(10):
        s = M.random_ses(rng, B)
        pb = pullback_along_epic(s.p, M.identity(s.p.cod))
        assert iso_invariants(pb.ob) == iso_invariants(s.p.dom)
        assert M.is_iso(pb.map)


def test_pullback_proj_along_times3():
    # p = (0 1): Z^2 ->> Z, g = x3: Z -> Z gives A' of rank 2
    z2, z = free(2), free(1)
    p = mor(z2, z, [[0, 1]])
    g = mor(z, z, [[3]])
    pb = pullback_along_epic(p, g)
    assert iso_invariants(pb.ob).free_rank == 2
    assert (p @ pb.map).same_as(g @ pb.epic)
    # universal property against sampled cones
    rng = random.Random(3)
    for _ in range(10):
        x = M.random_object(rng, B)
        w0 = M.random_morphism(rng, x, pb.ob)
        u = pb.map @ w0
        v = pb.epic @ w0
        # solve for w with map w = u and epic w = v; must recover w0
        sysu = M.solve_right_factor(pb.kernel_arrow,
                                    (pb.sum.inj1 @ u) + (pb.sum.inj2 @ v))
        assert sysu is not None
        assert sysu.same_as(w0)


def test_biproduct_identities_and_examples():
    a, b = cyclic(2), cyclic(3)
    bp = biproduct(a, b)
    one = M.identity(bp.ob)
    assert (bp.proj1 @ bp.inj1).same_as(M.identity(a))
    assert (bp.proj2 @ bp.inj2).same_as(M.identity(b))
    assert (bp.proj1 @ bp.inj2).is_zero()
    assert ((bp.inj1 @ bp.proj1) + (bp.inj2 @ bp.proj2)).same_as(one)
    assert iso_invariants(bp.ob).torsion_factors == (6,)

    z = M.zero_object()
    bp0 = biproduct(z, b)
    assert iso_invariants(bp0.ob) == iso_invariants(b)

    zf = free(1)
    bp1 = biproduct(zf, a)
    inv = iso_invariants(bp1.ob)
    assert inv.free_rank == 1 and inv.torsion_factors == (2,)


def test_pushout_bicartesian_prop():
    # for computed pushouts: the square commutes, the two-term sequence is
    # short exact, and the square has the pullback property against cones
    rng = random.Random(4)
    for _ in range(15):
        s = M.random_ses(rng, B)
        i = s.i
        f = M.random_morphism(rng, i.dom, M.random_object(rng, B))
        po = pushout_along_monic(i, f)
        assert (po.map @ i).same_as(po.monic @ f)
        assert is_short_exact(po.column, po.cokernel_arrow)
        # pullback property of the square: cones (u: X -> B, v: X -> A')
        # with f' u = i' v factor uniquely through A
        x = M.random_object(rng, B)
        w0 = M.random_morphism(rng, x, i.dom)
        u, v = i @ w0, f @ w0
        col = po.column
        w = M.solve_right_factor(col, (po.sum.inj1 @ u) - (po.sum.inj2 @ v))
        assert w is not None and w.same_as(w0)
        # uniqueness: the column arrow is monic
        assert M._is_injective(col)


def test_analysis_in_fgab_always_exists():
    rng = random.Random(5)
    for _ in range(25):
        a = M.random_object(rng, B)
        b = M.random_object(rng, B)
        f = M.random_morphism(rng, a, b)
        an = analyze(f)
        assert an is not None
        assert (an.image_monic @ an.coimage_epic).same_as(f)
        assert is_short_exact(an.kernel_arrow, an.coimage_epic)
        assert is_short_exact(an.image_monic, an.cokernel_arrow)


def test_e1_closure_composition():
    rng = random.Random(6)
    for model in (fgab(), even_rank_split()):
        for _ in range(12):
            a = model.random_object(rng, B)
            i1 = model.random_admissible_monic_from(rng, a, B)
            i2 = model.random_admissible_monic_from(rng, i1.cod, B)
            assert model.is_admissible_monic(i2 @ i1)
            e1 = model.random_admissible_epic_onto(rng, a, B)
            e2 = model.random_admissible_epic_onto(rng, e1.dom, B)
            assert model.is_admissible_epic(e1 @ e2)


def test_pushout_pullback_error_paths():
    import pytest
    from exactcat.kernel import ComposabilityError
    z = cyclic(0)
    z4 = cyclic(4)
    two = mor(z, z, [[2]])
    f_on_other = M.identity(z4)
    with pytest.raises(ComposabilityError):
        pushout_along_monic(two, f_on_other)
    with pytest.raises(NotAdmissible):
        pullback_along_epic(two, M.identity(z))


ALL_MODELS = ["fgab", "vect:3", "fgab_split", "free_exact", "free_split", "even_rank_split",
              "completion:fgab", "completion:fgab_split", "completion:free_exact",
              "completion:free_split", "completion:even_rank_split"]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_arithmetic_matches_coercion_path(name):
    # compose, add, negate and - reduce the raw matrix without going back
    # through morphism(); they must store exactly what morphism() stores
    model = parse_model_name(name)
    rng = random.Random(41)
    bounds = GenBounds(max_gens=3)

    def coerced(dom, cod, raw):
        return model.morphism(dom, cod, raw, check=True).matrix

    for _ in range(25):
        s = model.random_ses(rng, bounds)
        a, b, c = s.sub, s.mid, s.quot
        pool = {(a, b): [s.i, model.random_morphism(rng, a, b)],
                (b, c): [s.p, model.random_morphism(rng, b, c)],
                (a, c): [model.random_morphism(rng, a, c)]}
        for (dom, cod), arrows in pool.items():
            arrows.append(model.random_morphism(rng, dom, cod))
            f, g = arrows[0], arrows[-1]
            assert (f + g).matrix == coerced(dom, cod, f.matrix + g.matrix)
            assert (f - g).matrix == coerced(dom, cod, f.matrix - g.matrix)
            assert (-f).matrix == coerced(dom, cod, -f.matrix)
            assert model.negate(g).matrix == coerced(dom, cod, -g.matrix)
        for f in pool[(b, c)]:
            for g in pool[(a, b)]:
                h = f @ g
                assert (h.dom, h.cod) == (a, c)
                assert h.matrix == coerced(a, c, f.matrix @ g.matrix)
                assert (h - pool[(a, c)][0]).matrix == \
                    coerced(a, c, h.matrix - pool[(a, c)][0].matrix)


def _sample_objects(model, rng):
    """Random objects plus, where the model allows them, presentations with
    unit or off-diagonal relations and non-identity idempotents."""
    objs = [model.zero_object()]
    base = model.base if isinstance(model, CompletedModel) else model
    if base.model_id in ("fgab", "fgab_split"):
        extra = [fgab_object(2, [[1], [2]], model=base),
                 fgab_object(3, [[2, 1], [0, 3], [1, 0]], model=base)]
        if isinstance(model, CompletedModel):
            extra = [model.embed(x) for x in extra] + [
                model.pair(cyclic(6, model=base), IntMatrix.from_rows([[3]]))]
        objs += extra
    elif model.model_id == "vect(3)":
        objs.append(model.object(2, IntMatrix.from_rows([[3, 1], [0, 1]])))
    objs += [model.random_object(rng, GenBounds(max_gens=3)) for _ in range(6)]
    return objs


def _old_identity(model, a):
    # the per-class definitions that the cached base identity replaced
    if isinstance(model, CompletedModel):
        return model.morphism(a, a, a.payload.idem, check=False)
    return model.morphism(a, a, IntMatrix.identity(a.payload.ngens), check=False)


def _old_biproduct(model, a, b):
    # every structure map coerced through morphism()
    ab = model._obj(model.biproduct_payload(a.payload, b.payload))
    na, nb = model._gens(a.payload), model._gens(b.payload)
    i1 = IntMatrix.vstack(IntMatrix.identity(na), IntMatrix.zeros(nb, na))
    i2 = IntMatrix.vstack(IntMatrix.zeros(na, nb), IntMatrix.identity(nb))
    p1 = IntMatrix.hstack(IntMatrix.identity(na), IntMatrix.zeros(na, nb))
    p2 = IntMatrix.hstack(IntMatrix.zeros(nb, na), IntMatrix.identity(nb))
    return ab, [model.morphism(a, ab, i1), model.morphism(b, ab, i2),
                model.morphism(ab, a, p1), model.morphism(ab, b, p2)]


def _old_shear_pair(model, rng, bp):
    # the composite-and-sum path that the closed form replaced
    a, c = bp.inj1.dom, bp.inj2.dom
    f = model.random_morphism(rng, c, a)
    g = model.random_morphism(rng, a, c)
    one = _old_identity(model, bp.ob)
    upper = one + (bp.inj1 @ f @ bp.proj2)
    lower = one + (bp.inj2 @ g @ bp.proj1)
    upper_inv = one - (bp.inj1 @ f @ bp.proj2)
    lower_inv = one - (bp.inj2 @ g @ bp.proj1)
    return upper @ lower, lower_inv @ upper_inv


@pytest.mark.parametrize("name", ALL_MODELS)
def test_biproduct_and_shear_closed_forms_match_coercion_path(name):
    model = parse_model_name(name)
    rng = random.Random(name)
    objs = _sample_objects(model, rng)
    pairs = list(zip(objs, objs[1:] + objs[:1])) + [(objs[-1], objs[-1])]
    for k, (a, b) in enumerate(pairs):
        assert model.identity(a).matrix == _old_identity(model, a).matrix
        bp = model.biproduct(a, b)
        ab, old = _old_biproduct(model, a, b)
        assert bp.ob == ab
        for new, ref in zip((bp.inj1, bp.inj2, bp.proj1, bp.proj2), old):
            assert (new.dom, new.cod, new.matrix) == (ref.dom, ref.cod, ref.matrix)
        assert model.biproduct(a, b) is bp
        r1, r2 = random.Random(k), random.Random(k)
        t, tinv = model._random_shear_pair(r1, bp)
        t_old, tinv_old = _old_shear_pair(model, r2, bp)
        assert r1.random() == r2.random()   # the same draws were made
        assert t.matrix == t_old.matrix and tinv.matrix == tinv_old.matrix
        one = model.identity(ab)
        assert (t @ tinv).same_as(one) and (tinv @ t).same_as(one)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_memoised_analyze_matches_uncached(name):
    model = parse_model_name(name)
    rng = random.Random(name)
    bounds = GenBounds(max_gens=3)
    outcomes = set()
    for _ in range(12):
        a, b = model.random_object(rng, bounds), model.random_object(rng, bounds)
        for f in (model.random_morphism(rng, a, b), model.random_admissible(rng, bounds)):
            memo, plain = model.analyze(f), model._analyze(f)
            outcomes.add(memo is None)
            assert (memo is None) == (plain is None)
            if memo is not None:
                for field in ("kernel_arrow", "coimage_epic", "image_monic", "cokernel_arrow"):
                    x, y = getattr(memo, field), getattr(plain, field)
                    assert (x.dom, x.cod, x.matrix) == (y.dom, y.cod, y.matrix)
            # an equal arrow built afresh hits the memo
            again = model.morphism(f.dom, f.cod, f.matrix, check=False)
            assert model.analyze(again) is memo
    assert False in outcomes


def test_memoised_analyze_keeps_none():
    two = free_split().morphism(free(1, free_split()), free(1, free_split()),
                                IntMatrix.from_rows([[2]]))
    assert two.model.analyze(two) is None and two.model._analyze(two) is None
    assert two.model.analyze(two) is None


# test_complexes.ORACLE_MODELS plus a model of each remaining class
DIFFERENTIAL_MODELS = ["fgab", "free_split", "even_rank_split", "completion:even_rank_split",
                       "completion:fgab_split", "fgab_split", "free_exact", "vect:5"]
PARTS = ("kernel_arrow", "coimage_epic", "image_monic", "cokernel_arrow")


def _eager_analyze(model, f):
    """Each model's _analyze as it was when it built all four arrows at
    once: (kernel, coimage epic, image monic, cokernel), or None."""
    if isinstance(model, CompletedModel):
        an = _eager_analyze(model.target, model.to_target(f))
        if an is None:
            return None
        k, e, m, c = an
        e = model._lift(e, dom=f.dom)
        return (model._lift(k, cod=f.dom), e, model._lift(m, dom=e.cod, cod=f.cod),
                model._lift(c, dom=f.cod))
    if isinstance(model, FreeExactModel) and saturation(f.matrix) != column_hnf(f.matrix):
        return None
    k, c = model.kernel(f), model.cokernel(f)
    if k is None or c is None:
        return None
    e, m = model._image_factorisation(f)
    if isinstance(model, SplitModel) and not (
            model.is_admissible_monic(k) and model.is_admissible_monic(m)):
        return None
    return k, e, m, c


def _seeded_arrows(model, rng, n=10):
    bounds = GenBounds(max_gens=3)
    for _ in range(n):
        a, b = model.random_object(rng, bounds), model.random_object(rng, bounds)
        g = model.random_morphism(rng, a, b)
        yield from (g, g + g, model.random_admissible(rng, bounds))


@pytest.mark.parametrize("name", DIFFERENTIAL_MODELS)
def test_lazy_analysis_matches_the_eager_one(name):
    model = parse_model_name(name)
    rng, order = random.Random(f"lazy {name}"), random.Random(name)
    host = getattr(model, "target", model)   # where a completion factors its arrows
    verdicts, absent, factored = set(), 0, set()
    for f in _seeded_arrows(model, rng):
        lazy, eager = model._analyze(f), _eager_analyze(model, f)
        verdicts.add(lazy is None)
        assert (lazy is None) == (eager is None)
        if not model.abelian and model.kernel(f) is not None:
            # Def. 8.1 itself: f is admissible iff its ambient coimage epic is
            # an admissible epic and its image monic an admissible monic
            e, m = host._image_factorisation(f if host is model else model.to_target(f))
            admissible = host.is_admissible_epic(e) and host.is_admissible_monic(m)
            assert (lazy is not None) == admissible
            factored.add(admissible)
        if lazy is None:
            absent += model.model_id == "even_rank_split" and model.kernel(f) is None
            continue
        # the parts are read in a random order: no part depends on another being built
        for k in order.sample(range(4), 4):
            x, y = getattr(lazy, PARTS[k]), eager[k]
            assert (x.dom, x.cod, x.matrix) == (y.dom, y.cod, y.matrix), PARTS[k]
    assert False in verdicts
    if model.model_id in ("fgab_split", "free_exact", "free_split", "even_rank_split"):
        assert True in verdicts and factored == {False, True}
    assert absent or model.model_id != "even_rank_split"   # odd-rank kernels were refused


@pytest.mark.parametrize("name", ["fgab", "completion:fgab"])
def test_analysis_builds_each_half_when_read(name, monkeypatch):
    model = parse_model_name(name)
    host = getattr(model, "target", model)   # the model whose kernels a completion lifts
    calls = []
    # patched on the class: undoing a patch on the instance would leave the
    # bound method behind as an instance attribute, which hides later
    # class-level patches of the same method in other tests
    for meth in ("kernel", "cokernel", "_image_factorisation"):
        def counted(self, f, _meth=meth, _orig=getattr(type(host), meth)):
            calls.append(_meth)
            return _orig(self, f)
        monkeypatch.setattr(type(host), meth, counted)
    rng = random.Random(31)
    for f in _seeded_arrows(model, rng, n=4):
        type(model).analyze.cache_clear()   # the target's analyses are built afresh
        if model is not host:
            model.to_target(f)   # splitting the endpoints factors their idempotents
            del calls[:]
        image_first, kernel_first = model._analyze(f), model._analyze(f)
        assert calls == []
        image_first.image_monic, image_first.coimage_epic
        assert calls == ["_image_factorisation"]
        del calls[:]
        kernel_first.kernel_arrow
        assert calls == ["kernel"]
        kernel_first.cokernel_arrow
        assert calls == ["kernel", "cokernel"]
        del calls[:]


def _exactness_cases(model, rng):
    """Short exact pairs from random_ses and non-exact variants of each:
    swapped, with a nonzero composite, and not composable."""
    bounds = GenBounds(max_gens=3)
    for _ in range(6):
        s = model.random_ses(rng, bounds)
        yield s.i, s.p
        yield s.p, s.i
        yield model.identity(s.mid), s.p
        yield s.i, model.identity(s.quot)


@pytest.mark.parametrize("name", DIFFERENTIAL_MODELS)
def test_memoised_exactness_matches_uncached(name):
    model = parse_model_name(name)
    memo = type(model).is_short_exact
    cases = list(_exactness_cases(model, random.Random(f"exact {name}")))
    verdicts = []
    for i, p in cases:
        composable = i.cod == p.dom
        plain = composable and model._is_short_exact(i, p)
        assert model.is_short_exact(i, p) == plain
        # an equal pair built afresh hits the memo, composable or not
        before = memo.cache_info()
        again = [model.morphism(g.dom, g.cod, g.matrix, check=False) for g in (i, p)]
        assert model.is_short_exact(*again) == plain
        after = memo.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        verdicts.append((composable, plain))
    assert {(True, True), (True, False), (False, False)} <= set(verdicts)
    memo.cache_clear()
    assert [model.is_short_exact(i, p) for i, p in cases] == [v for _, v in verdicts]


CLI_MODEL_NAMES = ALL_MODELS + ["completion:vect:3"]   # the twelve of the CI check sweep


@pytest.mark.parametrize("name", CLI_MODEL_NAMES)
def test_every_arrow_stores_its_canonical_matrix(name, monkeypatch):
    # == is arrow equality only while every handle holds the matrix that
    # morphism would store for it, whichever path built it
    init, built = MorphismHandle.__init__, []

    def checked(self, dom, cod, matrix):
        init(self, dom, cod, matrix)
        built.append(self.model._coerce_matrix(dom, cod, matrix) == matrix)

    monkeypatch.setattr(MorphismHandle, "__init__", checked)
    run_suites(parse_model_name(name),
               LawConfig(seed=0, iterations=2, bounds=GenBounds(max_gens=2)), list(LAW_SUITES))
    assert len(built) > 1000 and all(built)


def _oracle_equal(f, g):
    """Arrow equality as it was decided before handles compared by ==:
    equal endpoints and a difference that reduces to zero."""
    return f.dom == g.dom and f.cod == g.cod and _oracle_zero(f - g)


def _oracle_zero(f):
    return reduce_by_pivots(f.matrix, f.model._pivots(f.cod.payload)).is_zero()


@pytest.mark.parametrize("name", CLI_MODEL_NAMES)
def test_arrow_equality_matches_the_reduction(name):
    # arrows built along different paths; each pair in `equal` is one arrow
    model = parse_model_name(name)
    rng = random.Random(f"equal {name}")
    bounds = GenBounds(max_gens=3)
    equal, other, arrows = [], [], []
    for _ in range(20):
        a, b, c = (model.random_object(rng, bounds) for _ in range(3))
        f, g = model.random_morphism(rng, a, b), model.random_morphism(rng, a, b)
        h = model.random_morphism(rng, c, a)
        raw = f.matrix + g.matrix
        equal += [((f + g) @ h, f @ h + g @ h), (f @ model.identity(a), f),
                  (-f + f, model.zero_morphism(a, b)),
                  (model._reduced(a, b, raw), model.morphism(a, b, raw, check=False))]
        if isinstance(model, CompletedModel):
            # a raw base arrow and its sandwich between the idempotents
            m = model.base.random_morphism(rng, a.payload.base, b.payload.base).matrix
            equal.append((model.morphism(a, b, m),
                          model.morphism(a, b, b.payload.idem @ m @ a.payload.idem)))
        other += [(f, g), ((f + g) @ h, f @ h)]
        arrows += [f, g, -f + f, (f + g) @ h - f @ h - g @ h]
    for x, y in equal + other:
        assert x.same_as(y) == (x == y) == _oracle_equal(x, y)
    assert all(x.same_as(y) for x, y in equal)
    for x in arrows:
        assert x.is_zero() == _oracle_zero(x)
    assert {x.same_as(y) for x, y in other} == {x.is_zero() for x in arrows} == {True, False}


def test_invalid_or_unhashable_payload_raises_precondition():
    with pytest.raises(PreconditionError):
        M._obj("not a presentation")
    with pytest.raises(PreconditionError):
        M._obj(["not", "hashable"])
    with pytest.raises(PreconditionError):
        complete(M)._obj(["not", "hashable"])
    listed = IntMatrix(1, 1, [[2]])   # the public constructor accepts lists
    with pytest.raises(PreconditionError):
        complete(M).pair(cyclic(0), listed)

    class BrokenModel(CompletedModel):
        def validate_object(self, payload):
            raise TypeError("a bug inside validation")

    # a TypeError from validation itself is not mistaken for an unhashable payload
    with pytest.raises(TypeError, match="a bug inside validation"):
        BrokenModel(M)._obj(1)
