import math
import random

import pytest

from exactcat.complexes import (
    chain_complex,
    chain_map,
    find_null_homotopy,
    homology,
    homology_induced,
    is_acyclic,
    mapping_cone,
)
from exactcat.diagrams import is_exact_pair
from exactcat.completion import complete
from exactcat.intlinalg import IntMatrix
from exactcat.kernel import GenBounds, PreconditionError, ShortExactSequence
from exactcat.models import (
    cyclic,
    even_rank_split,
    fgab,
    fgab_object,
    free,
    iso_invariants,
)
from exactcat.resolutions import (
    FunctorSpec,
    _connecting_map,
    compare_lift,
    derived,
    derived_les,
    ext_values,
    hom_structure,
    horseshoe,
    lift_homotopy,
    projective_replacement,
    projective_resolution,
    random_resolution,
    tor_values,
)

B = GenBounds()
M = fgab()


def mor(dom, cod, rows):
    return M.morphism(dom, cod, IntMatrix.from_rows(rows, cols=dom.payload.ngens))


def invs(obj):
    inv = iso_invariants(obj)
    return (inv.free_rank, inv.torsion_factors)


# -- brute-force oracle in explicit finite cyclic groups ------------------
#
# Tor_1(Z/m, Z/n) is the kernel of multiplication by m on the explicit
# group {0, ..., n-1}; Ext^1(Z/m, Z/n) is its cokernel.  Subgroups and
# quotients of a finite cyclic group are cyclic, so the group structure is
# determined by the element count, which we obtain by enumeration.


def brute_tor1(m, n):
    kernel = [x for x in range(n) if (m * x) % n == 0]
    assert len(kernel) == math.gcd(m, n)
    return len(kernel)


def brute_ext1(m, n):
    image = sorted({(m * x) % n for x in range(n)})
    cosets = n // len(image) if image else 1
    assert cosets == math.gcd(m, n)
    return cosets


def as_cyclic_invs(order):
    return (0, ()) if order == 1 else (0, (order,))


# -- resolutions -----------------------------------------------------------


def test_resolution_of_z4():
    res = projective_resolution(cyclic(4))
    assert res.length == 1
    assert invs(res.component(0)) == (1, ())
    assert invs(res.component(1)) == (1, ())
    assert abs(res.differential(1).matrix.entries[0][0]) == 4
    assert not res.truncated


def test_resolution_of_free():
    res = projective_resolution(free(2))
    assert res.length == 0
    assert invs(res.component(0)) == (2, ())


def test_resolution_of_mixed():
    a = fgab_object(2, [[0], [6]])
    res = projective_resolution(a)
    assert res.length == 1
    assert invs(res.component(0)) == (2, ())
    assert invs(res.component(1)) == (1, ())


def test_resolution_refuses_negative_max_length():
    with pytest.raises(PreconditionError, match="max_length must be >= 0, got -1"):
        projective_resolution(cyclic(4), max_length=-1)
    res = projective_resolution(cyclic(4), max_length=0)
    assert res.length == 0 and res.truncated


def test_random_resolutions_valid():
    # completion objects get unpadded covers (no object(ngens) to pad with)
    small = GenBounds(max_gens=3)
    for model, bounds, count in ((M, B, 15), (complete(fgab()), small, 10),
                                 (complete(even_rank_split()), small, 10)):
        rng = random.Random(30)
        for _ in range(count):
            a = model.random_object(rng, bounds)
            res = random_resolution(a, rng)
            assert not res.truncated
            assert is_acyclic(res.augmented_complex()) is not None


# -- comparison theorem ------------------------------------------------------


def test_compare_lift_identity_homotopy():
    z4 = cyclic(4)
    p = projective_resolution(z4)
    lift1 = compare_lift(M.identity(z4), p, p, rng=random.Random(1))
    lift2 = compare_lift(M.identity(z4), p, p, rng=random.Random(2))
    h = lift_homotopy(lift1, lift2)
    assert h is not None


def test_compare_lift_quotient():
    z4, z2 = cyclic(4), cyclic(2)
    f = mor(z4, z2, [[1]])
    p = projective_resolution(z4)
    q = projective_resolution(z2)
    lift = compare_lift(f, p, q)
    # the degree-0 square commutes: q.aug o f0 = f o p.aug, and the stated
    # lift (f0, f1) = (1, 2) satisfies 2*f1 = f0*4; ours is homotopic to it
    f0 = lift.component(0)
    f1 = lift.component(-1)
    assert (2 * f1.matrix.entries[0][0] - 4 * f0.matrix.entries[0][0]) == 0
    assert f0.matrix.entries[0][0] % 2 == 1
    stated = {0: M.morphism(p.component(0), q.component(0),
                            IntMatrix.from_rows([[1]])),
              -1: M.morphism(p.component(1), q.component(1),
                             IntMatrix.from_rows([[2]]))}
    from exactcat.complexes import chain_map
    stated_map = chain_map(p.complex, q.complex, stated)
    h = lift_homotopy(lift, stated_map)
    assert h is not None


def test_compare_lift_zero():
    z4, z9 = cyclic(4), cyclic(9)
    f = M.zero_morphism(z4, z9)
    p, q = projective_resolution(z4), projective_resolution(z9)
    lift = compare_lift(f, p, q)
    h = find_null_homotopy(lift)
    assert h is not None


def test_comparison_random():
    rng = random.Random(31)
    for _ in range(10):
        a = M.random_object(rng, B)
        b = M.random_object(rng, B)
        f = M.random_morphism(rng, a, b)
        p = random_resolution(a, rng)
        q = random_resolution(b, rng)
        l1 = compare_lift(f, p, q, rng=rng)
        l2 = compare_lift(f, p, q, rng=rng)
        lift_homotopy(l1, l2)


def test_compare_lift_into_shorter_truncation_is_precondition():
    # Z/4 has a length-1 resolution; its length-0 truncation is not exact
    # at P_0, so the identity has no lift in degree 1
    z4 = cyclic(4)
    with pytest.raises(PreconditionError, match="truncated at length 0"):
        compare_lift(M.identity(z4), projective_resolution(z4),
                     projective_resolution(z4, max_length=0))


def test_compare_lift_into_truncation_as_long_as_the_source():
    z, z4 = cyclic(0), cyclic(4)
    f, p, q = mor(z, z4, [[1]]), projective_resolution(z), projective_resolution(z4, max_length=0)
    assert q.truncated and q.length == 0
    lift = compare_lift(f, p, q)
    assert (q.augmentation @ lift.component(0)).same_as(f @ p.augmentation)


def test_lifts_into_a_short_truncation_are_not_homotopic():
    # both lifts exist, but the truncated target is not exact one degree
    # beyond the source, so their difference (a multiple of 4) has no homotopy
    z, z4 = cyclic(0), cyclic(4)
    f, p, q = mor(z, z4, [[1]]), projective_resolution(z), projective_resolution(z4, max_length=0)
    rng = random.Random(5)
    l1, l2 = compare_lift(f, p, q, rng=rng), compare_lift(f, p, q, rng=rng)
    assert not (l1 - l2).is_zero()
    with pytest.raises(PreconditionError, match="two lifts of one morphism.*exact one "
                       "degree beyond the source"):
        lift_homotopy(l1, l2)


# -- horseshoe ---------------------------------------------------------------


def split_ses(a, c):
    bp = M.biproduct(a, c)
    return ShortExactSequence(bp.inj1, bp.proj2)


def test_horseshoe_split_case():
    s = split_ses(cyclic(4), cyclic(2))
    hs = horseshoe(s, projective_resolution(s.sub), projective_resolution(s.quot))
    assert hs.middle.length == 1
    assert invs(hs.middle.component(0)) == (2, ())
    for col in hs.columns:
        assert M.is_short_exact(col.i, col.p)


def test_horseshoe_times2():
    z, z2 = cyclic(0), cyclic(2)
    i = mor(z, z, [[2]])
    p = mor(z, z2, [[1]])
    s = ShortExactSequence(i, p)
    hs = horseshoe(s, projective_resolution(z), projective_resolution(z2))
    # middle resolution of Z with P0 = Z^2, P1 = Z
    assert invs(hs.middle.component(0)) == (2, ())
    assert invs(hs.middle.component(1)) == (1, ())
    assert is_acyclic(hs.middle.augmented_complex()) is not None


def test_horseshoe_random():
    rng = random.Random(32)
    for _ in range(10):
        s = M.random_ses(rng, B)
        hs = horseshoe(s, projective_resolution(s.sub),
                       projective_resolution(s.quot))
        assert is_acyclic(hs.middle.augmented_complex()) is not None
        for col in hs.columns:
            assert M.is_short_exact(col.i, col.p)


def test_horseshoe_refuses_truncated_outer_resolutions():
    rng = random.Random(3)
    M.random_ses(rng, B)
    s = M.random_ses(rng, B)   # its sub needs a resolution of length 1
    with pytest.raises(PreconditionError, match="p_sub is truncated"):
        horseshoe(s, projective_resolution(s.sub, max_length=0),
                  projective_resolution(s.quot))
    z2, z4 = cyclic(2), cyclic(4)
    s = ShortExactSequence(mor(z2, z4, [[2]]), mor(z4, z2, [[1]]))
    with pytest.raises(PreconditionError, match="p_sub is truncated"):
        horseshoe(s, projective_resolution(z2, max_length=0), projective_resolution(z2))
    with pytest.raises(PreconditionError, match="p_quot is truncated"):
        horseshoe(s, projective_resolution(z2), projective_resolution(z2, max_length=0))


# -- projective replacement ----------------------------------------------


def test_replacement_of_projective_complex():
    z = free(1)
    x = chain_complex(M, 0, [z], [])
    rep = projective_replacement(x)
    assert rep.certificate is not None


def test_replacement_of_z2():
    from exactcat.complexes import object_as_complex
    x = object_as_complex(cyclic(2))
    rep = projective_replacement(x)
    # coincides with the projective resolution Z -2-> Z
    comps = [rep.complex.component(n) for n in rep.complex.degrees()]
    assert [invs(c) for c in comps] == [(1, ()), (1, ())]
    d = rep.complex.differential(-1)
    assert abs(d.matrix.entries[0][0]) == 2


def test_replacement_of_torsion_window():
    z4, z2 = cyclic(4), cyclic(2)
    x = chain_complex(M, 0, [z4, z2], [mor(z4, z2, [[1]])])
    rep = projective_replacement(x)
    for n in rep.complex.degrees():
        assert M.is_projective(rep.complex.component(n))
    assert is_acyclic(mapping_cone(rep.map)) is not None


def test_replacement_random():
    rng = random.Random(33)
    for _ in range(8):
        x = _random_bounded_complex(rng, max_len=3)
        rep = projective_replacement(x)
        assert rep.certificate is not None


def _random_bounded_complex(rng, max_len=4):
    length = rng.randrange(1, max_len + 1)
    comps = [M.random_object(rng, GenBounds(max_gens=2)) for _ in range(length)]
    diffs = []
    for k in range(length - 1):
        # sample a morphism killed by the previous differential
        f = M.random_morphism(rng, comps[k], comps[k + 1])
        if k:
            prev = diffs[-1]
            sys_f = _solve_zero_composite(prev, comps[k + 1], rng)
            f = sys_f if sys_f is not None else M.zero_morphism(comps[k], comps[k + 1])
        diffs.append(f)
    return chain_complex(M, 0, comps, diffs)


def _solve_zero_composite(prev, target, rng):
    """Random g with g o prev = 0."""
    from exactcat.kernel import MorphismSystem
    model = prev.model
    sys = MorphismSystem(model)
    sys.unknown_morphism("g", prev.cod, target)
    sys.equation([("g", IntMatrix.identity(target.payload.ngens), prev.matrix)],
                 model.zero_morphism(prev.dom, target).matrix, cod=target)
    sol = sys.solve(rng=rng, amplitude=2)
    return sol["g"] if sol else None


# -- derived functors --------------------------------------------------------


def test_tor_table_example():
    vals = tor_values(4, 6)
    assert invs(vals[0]) == (0, (2,))
    assert invs(vals[1]) == (0, (2,))


def test_ext_table_example():
    vals = ext_values(4, 6)
    assert invs(vals[0]) == (0, (2,))
    assert invs(vals[1]) == (0, (2,))


def test_exact_functor_trivial_higher():
    # tensoring with Z is exact: L_0 is the identity, higher vanish
    f = FunctorSpec("tensor", cyclic(0))
    a = fgab_object(2, [[2], [0]])
    res = derived(f, a, max_degree=2)
    assert invs(res.values[0]) == invs(a)
    assert invs(res.values[1]) == (0, ())
    assert invs(res.values[2]) == (0, ())


def test_hom_from_z_identity_like():
    f = FunctorSpec("hom_from", cyclic(0))
    a = fgab_object(2, [[4], [0]])
    res = derived(f, a, max_degree=1)
    assert invs(res.values[0]) == invs(a)
    assert invs(res.values[1]) == (0, ())


def test_gcd_law_against_brute_oracle():
    for m in range(2, 13):
        for n in range(2, 13):
            g = math.gcd(m, n)
            assert invs(tor_values(m, n)[1]) == as_cyclic_invs(brute_tor1(m, n))
            assert invs(ext_values(m, n)[1]) == as_cyclic_invs(brute_ext1(m, n))
            assert invs(tor_values(m, n)[1]) == as_cyclic_invs(g)


def test_tor_symmetry_small():
    for m in range(2, 8):
        for n in range(2, 8):
            assert invs(tor_values(m, n)[1]) == invs(tor_values(n, m)[1])


def test_resolution_independence():
    f = FunctorSpec("tensor", cyclic(6))
    rng = random.Random(34)
    for _ in range(8):
        a = M.random_object(rng, B)
        r1 = random_resolution(a, random.Random(rng.randrange(10 ** 6)))
        r2 = random_resolution(a, random.Random(rng.randrange(10 ** 6)))
        d1 = derived(f, a, max_degree=1, res=r1)
        d2 = derived(f, a, max_degree=1, res=r2)
        assert invs(d1.values[0]) == invs(d2.values[0])
        assert invs(d1.values[1]) == invs(d2.values[1])


def test_derived_les_tensor():
    z, z2 = cyclic(0), cyclic(2)
    s = ShortExactSequence(mor(z, z, [[2]]), mor(z, z2, [[1]]))
    f = FunctorSpec("tensor", cyclic(6))
    res = derived_les(f, s, max_degree=1)
    assert res.exact


def test_derived_les_ext():
    z, z2 = cyclic(0), cyclic(2)
    s = ShortExactSequence(mor(z, z, [[2]]), mor(z, z2, [[1]]))
    f = FunctorSpec("hom_into", cyclic(4))
    res = derived_les(f, s, max_degree=1)
    assert res.exact


def test_derived_les_random():
    # exact at every joint for 100 generated short exact sequences
    rng = random.Random(35)
    f = FunctorSpec("tensor", cyclic(6))
    g = FunctorSpec("hom_into", cyclic(4))
    for k in range(100):
        s = M.random_ses(rng, B)
        assert derived_les(f, s, max_degree=1).exact
        if k < 25:
            assert derived_les(g, s, max_degree=1).exact


def _derived_les_two_branches(functor, s, max_degree):
    # derived_les as it was written with one branch per variance, kept as
    # the oracle of the single-loop version
    model = s.i.model
    p_sub = projective_resolution(s.sub)
    p_quot = projective_resolution(s.quot)
    hs = horseshoe(s, p_sub, p_quot)
    f_sub = functor.apply_complex(p_sub.complex)
    f_mid = functor.apply_complex(hs.middle.complex)
    f_quot = functor.apply_complex(p_quot.complex)
    inj_comps, proj_comps, sect_comps = {}, {}, {}
    for k in range(len(hs.columns)):
        col = hs.columns[k]
        deg = -k if not functor.contravariant else k
        if not functor.contravariant:
            inj_comps[deg] = functor.apply_morphism(col.i)
            proj_comps[deg] = functor.apply_morphism(col.p)
            sect_comps[deg] = functor.apply_morphism(hs.sections[k])
        else:
            inj_comps[deg] = functor.apply_morphism(col.p)
            proj_comps[deg] = functor.apply_morphism(col.i)
            sect_comps[deg] = functor.apply_morphism(hs.retractions[k])
    if not functor.contravariant:
        sub_cx, quot_cx = f_sub, f_quot
    else:
        sub_cx, quot_cx = f_quot, f_sub
    inj = chain_map(sub_cx, f_mid, inj_comps, check=True)
    proj = chain_map(f_mid, quot_cx, proj_comps, check=True)

    def value(cx, i):
        return homology(cx, i if functor.contravariant else -i)

    def induced(f, i):
        return homology_induced(f, i if functor.contravariant else -i)

    arrows, objects = [], []
    if not functor.contravariant:
        for i in range(max_degree, -1, -1):
            if not arrows:
                objects.append(value(sub_cx, i))
            arrows.append(induced(inj, i))
            objects.append(value(f_mid, i))
            arrows.append(induced(proj, i))
            objects.append(value(quot_cx, i))
            if i > 0:
                arrows.append(_connecting_map(inj, proj, sect_comps, -i))
                objects.append(value(sub_cx, i - 1))
    else:
        for i in range(0, max_degree + 1):
            if not arrows:
                objects.append(value(sub_cx, i))
            arrows.append(induced(inj, i))
            objects.append(value(f_mid, i))
            arrows.append(induced(proj, i))
            objects.append(value(quot_cx, i))
            if i < max_degree:
                arrows.append(_connecting_map(inj, proj, sect_comps, i))
                objects.append(value(sub_cx, i + 1))
    zero_head = model.zero_morphism(model.zero_object(), arrows[0].dom)
    zero_tail = model.zero_morphism(arrows[-1].cod, model.zero_object())
    seq = [zero_head] + arrows + [zero_tail]
    exact = all(is_exact_pair(u, v) for u, v in zip(seq, seq[1:]))
    return arrows, objects, exact


@pytest.mark.parametrize("variant,target", [("tensor", cyclic(6)),
                                            ("hom_from", cyclic(0)),
                                            ("hom_from", cyclic(4)),
                                            ("hom_into", cyclic(4)),
                                            ("hom_into", cyclic(0))])
def test_derived_les_matches_two_branch_oracle(variant, target):
    functor = FunctorSpec(variant, target)
    rng = random.Random(91)
    seqs = [ShortExactSequence(mor(cyclic(0), cyclic(0), [[2]]),
                               mor(cyclic(0), cyclic(2), [[1]]))]
    seqs += [M.random_ses(rng, B) for _ in range(6)]
    for s in seqs:
        for max_degree in (0, 1, 2):
            got = derived_les(functor, s, max_degree=max_degree)
            arrows, objects, exact = _derived_les_two_branches(functor, s, max_degree)
            assert [(a.dom.payload, a.cod.payload, a.matrix) for a in got.arrows] == \
                [(a.dom.payload, a.cod.payload, a.matrix) for a in arrows]
            assert [o.payload for o in got.objects] == [o.payload for o in objects]
            assert got.exact == exact
            assert len(got.arrows) == 3 * max_degree + 2


def test_functor_variance_facts():
    z, z2 = cyclic(0), cyclic(2)
    i, p = mor(z, z, [[2]]), mor(z, z2, [[1]])
    for variant in ("tensor", "hom_from", "hom_into"):
        f = FunctorSpec(variant, cyclic(4))
        fi, fp = f.apply_morphism(i), f.apply_morphism(p)
        first, second = f.exact_pair(i, p)
        if variant == "hom_into":
            assert [f.degree(k) for k in range(3)] == [0, 1, 2]
            assert f.in_order("a", "b") == ("b", "a")
            assert first.same_as(fp) and second.same_as(fi)
        else:
            assert [f.degree(k) for k in range(3)] == [0, -1, -2]
            assert f.in_order("a", "b") == ("a", "b")
            assert first.same_as(fi) and second.same_as(fp)
        # the pair composes in the order given
        assert first.cod == second.dom
        assert (second @ first).is_zero()


def hom_generator(hs, src, dst, k):
    """Generator k of Hom(src, dst) as a matrix: column k of hs.gens un-vec'd."""
    nd, ns = dst.payload.ngens, src.payload.ngens
    col = hs.gens.column_at(k)
    return IntMatrix(nd, ns, tuple(tuple(col[j * nd + i] for j in range(ns))
                                   for i in range(nd)))


@pytest.mark.parametrize("variant", ["hom_from", "hom_into"])
def test_hom_action_matches_generatorwise_composites(variant):
    # the Kronecker action on the vec'd basis equals composing with each
    # Hom generator and solving for its coordinates
    rng = random.Random(92)
    for t in (cyclic(0), cyclic(4), fgab_object(2, [[2], [0]])):
        functor = FunctorSpec(variant, t)
        for _ in range(8):
            a, b = M.random_object(rng, B), M.random_object(rng, B)
            f = M.random_morphism(rng, a, b)
            got = functor.apply_morphism(f)
            if variant == "hom_from":
                hs_dom, hs_cod = hom_structure(t, a), hom_structure(t, b)
                mats = [f.matrix @ hom_generator(hs_dom, t, a, k)
                        for k in range(hs_dom.ob.payload.ngens)]
            else:
                hs_dom, hs_cod = hom_structure(b, t), hom_structure(a, t)
                mats = [hom_generator(hs_dom, b, t, k) @ f.matrix
                        for k in range(hs_dom.ob.payload.ngens)]
            nrows = hs_cod.gens.rows
            vecs = IntMatrix(nrows, len(mats), tuple(
                tuple(m.entries[r % m.rows][r // m.rows] for m in mats)
                for r in range(nrows)))
            coords = hs_cod.coords(vecs)
            want = M.morphism(hs_dom.ob, hs_cod.ob, coords)
            assert (got.dom, got.cod) == (want.dom, want.cod)
            assert got.matrix == want.matrix


def test_functor_additivity():
    rng = random.Random(36)
    t = cyclic(6)
    for spec in (FunctorSpec("tensor", t), FunctorSpec("hom_from", t),
                 FunctorSpec("hom_into", t)):
        for _ in range(5):
            a = M.random_object(rng, B)
            b = M.random_object(rng, B)
            f = M.random_morphism(rng, a, b)
            g = M.random_morphism(rng, a, b)
            lhs = spec.apply_morphism(M.add(f, g))
            rhs = M.add(spec.apply_morphism(f), spec.apply_morphism(g))
            assert lhs.same_as(rhs)
            assert spec.apply_morphism(M.zero_morphism(a, b)).is_zero()


def test_functor_target_needs_abelian_presented_model():
    # completion(fgab) is abelian but its objects are not presentations
    target = complete(fgab()).embed(cyclic(4))
    for variant in ("tensor", "hom_from", "hom_into"):
        with pytest.raises(PreconditionError, match="abelian model of presented groups"):
            FunctorSpec(variant, target)


def test_hom_structure_concrete():
    # Hom(Z/4, Z/6) is cyclic of order 2, generated by 1 |-> 3
    hs = hom_structure(cyclic(4), cyclic(6))
    assert invs(hs.ob) == (0, (2,))
    gen = hom_generator(hs, cyclic(4), cyclic(6), 0)
    assert gen.entries[0][0] % 6 in (3,)


def test_effaceability():
    # L_i F vanishes on projectives for i > 0
    f = FunctorSpec("tensor", cyclic(6))
    res = derived(f, free(2), max_degree=2)
    assert invs(res.values[1]) == (0, ())
    assert invs(res.values[2]) == (0, ())


def test_no_maps_projective_complex_to_acyclic():
    # generated chain maps from a right-bounded projective complex to an
    # acyclic complex are null-homotopic
    rng = random.Random(37)
    from exactcat.complexes import chain_map as cm
    from exactcat.kernel import MorphismSystem
    for _ in range(6):
        p = projective_resolution(M.random_object(rng, B)).complex
        acyc = _acyclic(rng)
        f = _sample_chain_map(rng, p, acyc)
        if f is None:
            continue
        assert find_null_homotopy(f) is not None


def _acyclic(rng):
    z = cyclic(0)
    k = rng.randrange(1, 4)
    i = mor(z, z, [[k]]) if k else M.identity(z)
    co = M.cokernel(i)
    return chain_complex(M, -1, [z, z, co.cod], [i, co])


def _sample_chain_map(rng, x, y):
    """A random solution of the chain-map equations from x to y."""
    from exactcat.kernel import MorphismSystem
    sys = MorphismSystem(M)
    degs = [n for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1)
            if x.component(n).payload.ngens and y.component(n).payload.ngens]
    if not degs:
        return None
    for n in degs:
        sys.unknown_morphism(f"f{n}", x.component(n), y.component(n))
    for n in range(min(degs) - 1, max(degs) + 1):
        rows = y.component(n + 1).payload.ngens
        cols = x.component(n).payload.ngens
        if rows == 0 or cols == 0:
            continue
        terms = []
        if n in degs:
            terms.append((f"f{n}", y.differential(n).matrix,
                          IntMatrix.identity(cols)))
        if n + 1 in degs:
            terms.append((f"f{n + 1}",
                          IntMatrix.identity(rows).scale(-1),
                          x.differential(n).matrix))
        if terms:
            sys.equation(terms, IntMatrix.zeros(rows, cols),
                         cod=y.component(n + 1))
    sol = sys.solve(rng=rng, amplitude=3)
    if sol is None:
        return None
    from exactcat.complexes import chain_map as cm
    return cm(x, y, {n: sol[f"f{n}"] for n in degs})
