import json
import random
import subprocess
import sys

import pytest

from exactcat import completion
from exactcat.completion import (
    CompletedModel,
    ComposedFunctor,
    IdentityFunctor,
    complete,
    extend_functor,
    retraction_kernel_probe,
    split_idempotent,
)
from exactcat.complexes import (
    periodic_idempotent_complex,
    periodic_is_acyclic,
    periodic_null_homotopy,
)
from exactcat.intlinalg import IntMatrix, column_hnf, solve_columns_mod_lattice
from exactcat.kernel import GenBounds, PreconditionError
from exactcat.models import cyclic, even_rank_split, fgab, fgab_split, free_split
from exactcat.resolutions import FunctorSpec

B = GenBounds()


def test_embed_fully_faithful():
    comp = complete(even_rank_split())
    base = even_rank_split()
    a = base.object(2)
    b = base.object(4)
    ea, eb = comp.embed(a), comp.embed(b)
    rng = random.Random(1)
    for _ in range(10):
        f = base.random_morphism(rng, a, b)
        lifted = comp.morphism(ea, eb, f.matrix)
        # the embedded hom-set coincides: the matrix is unchanged
        assert lifted.matrix == f.matrix


def test_completion_splits_the_stuck_idempotent():
    base = even_rank_split()
    comp = complete(base)
    host = comp.embed(base.object(2))
    p = comp.morphism(host, host, IntMatrix.diagonal([1, 0]))
    res = split_idempotent(host, p)
    assert comp.iso_invariants(res.image_part).free_rank == 1
    assert comp.iso_invariants(res.kernel_part).free_rank == 1


def test_split_idempotent_trivial_cases():
    comp = complete(even_rank_split())
    host = comp.embed(even_rank_split().object(2))
    zero = comp.zero_morphism(host, host)
    res0 = split_idempotent(host, zero)
    assert comp.iso_invariants(res0.kernel_part).free_rank == 2
    assert comp.iso_invariants(res0.image_part).free_rank == 0
    res1 = split_idempotent(host, comp.identity(host))
    assert comp.iso_invariants(res1.kernel_part).free_rank == 0
    assert comp.iso_invariants(res1.image_part).free_rank == 2


def test_every_generated_idempotent_splits():
    rng = random.Random(2)
    for base in (even_rank_split(), fgab()):
        comp = complete(base)
        for _ in range(10):
            x, q = comp.random_split_pair(rng, B)
            assert (q @ q).same_as(q)
            res = split_idempotent(x, q)
            # X is isomorphic to K + I
            bp = comp.biproduct(res.kernel_part, res.image_part)
            fwd = (res.k @ bp.proj1) + (res.i @ bp.proj2)
            assert comp.is_iso(fwd)


def test_embedding_preserves_and_reflects_exactness():
    rng = random.Random(3)
    base = even_rank_split()
    comp = complete(base)
    for _ in range(12):
        s = base.random_ses(rng, B)
        ei = comp.embed_morphism(s.i)
        ep = comp.embed_morphism(s.p)
        assert comp.is_short_exact(ei, ep)
    # a non-exact embedded pair stays non-exact
    a = base.object(2)
    two = base.morphism(a, a, IntMatrix.diagonal([2, 2]))
    z = base.morphism(a, base.object(0), IntMatrix.zeros(0, 2))
    assert not base.is_short_exact(two, z)
    assert not comp.is_short_exact(comp.embed_morphism(two), comp.embed_morphism(z))


def test_completions_do_not_nest():
    # a completion is already idempotent complete
    with pytest.raises(PreconditionError, match="completions do not nest"):
        complete(complete(fgab()))


def test_completion_is_idempotent_complete_flagwise():
    comp = complete(even_rank_split())
    assert comp.idempotent_complete
    assert comp.weakly_idempotent_complete


def test_completion_random_ses_and_analysis():
    rng = random.Random(4)
    comp = complete(even_rank_split())
    for _ in range(10):
        s = comp.random_ses(rng, B)
        assert comp.is_short_exact(s.i, s.p)
        f = comp.random_admissible(rng, B)
        an = comp.analyze(f)
        assert an is not None
        assert (an.image_monic @ an.coimage_epic).same_as(f)
        assert comp.is_short_exact(an.kernel_arrow, an.coimage_epic)
        assert comp.is_short_exact(an.image_monic, an.cokernel_arrow)


def test_periodic_complex_acyclic_after_completion():
    base = even_rank_split()
    comp = complete(base)
    a = base.object(2)
    p = base.morphism(a, a, IntMatrix.diagonal([1, 0]))
    x = periodic_idempotent_complex(base, a, p, 6)
    assert periodic_is_acyclic(x) is None
    host = comp.embed(a)
    pc = comp.morphism(host, host, p.matrix)
    y = periodic_idempotent_complex(comp, host, pc, 6)
    assert periodic_null_homotopy(y) is not None
    assert periodic_is_acyclic(y) is not None


def test_extend_functor_identity():
    comp = complete(even_rank_split())
    ext = extend_functor(IdentityFunctor(), comp, comp)
    rng = random.Random(5)
    x = comp.random_object(rng, B)
    y = comp.random_object(rng, B)
    f = comp.random_morphism(rng, x, y)
    assert ext.apply_object(x) == x
    assert ext.apply_morphism(f).same_as(f)


def test_extend_functor_tensor():
    m = fgab()
    comp = complete(m)
    t = FunctorSpec("tensor", cyclic(2))
    ext = extend_functor(t, comp, comp)
    rng = random.Random(6)
    for _ in range(6):
        x, q = comp.random_split_pair(rng, GenBounds(max_gens=2))
        fx = ext.apply_object(x)
        # extension commutes with the embedding on split instances:
        # F^(A, 1) = (F A, 1)
        a = m.random_object(rng, GenBounds(max_gens=2))
        ea = comp.embed(a)
        fea = ext.apply_object(ea)
        assert fea.payload.base == t.apply_object(a)
        assert fea.payload.idem == t.apply_morphism(m.identity(a)).matrix


def test_extend_functor_contravariant_reverses_arrows():
    # Hom(-, Z) on completion objects: (A, p) -> (Hom(A, Z), Hom(p, Z))
    m = fgab()
    comp = complete(m)
    ext = extend_functor(FunctorSpec("hom_into", cyclic(0)), comp, comp)
    rng = random.Random(7)
    for _ in range(6):
        x, _ = comp.random_split_pair(rng, GenBounds(max_gens=2))
        y, _ = comp.random_split_pair(rng, GenBounds(max_gens=2))
        h = comp.random_morphism(rng, x, y)
        fh = ext.apply_morphism(h)
        assert fh.dom == ext.apply_object(y) and fh.cod == ext.apply_object(x)


def test_completion_pair_from_list_row_idempotent():
    comp = complete(fgab())
    a = fgab().object(2)
    listed = comp.pair(a, IntMatrix(2, 2, [[1, 0], [0, 0]]))
    assert listed == comp.pair(a, IntMatrix.from_rows([[1, 0], [0, 0]]))
    assert comp.iso_invariants(listed).free_rank == 1


def test_extend_functor_composition_law():
    m = fgab()
    comp = complete(m)
    f1 = FunctorSpec("tensor", cyclic(2))
    f2 = FunctorSpec("tensor", cyclic(6))
    gf = ComposedFunctor(f2, f1)
    e1 = extend_functor(f1, comp, comp)
    e2 = extend_functor(f2, comp, comp)
    egf = extend_functor(gf, comp, comp)
    rng = random.Random(7)
    for _ in range(5):
        x, _ = comp.random_split_pair(rng, GenBounds(max_gens=2))
        lhs = egf.apply_object(x)
        rhs = e2.apply_object(e1.apply_object(x))
        assert lhs == rhs
        y, _ = comp.random_split_pair(rng, GenBounds(max_gens=2))
        h = comp.random_morphism(rng, x, y)
        assert egf.apply_morphism(h).same_as(
            e2.apply_morphism(e1.apply_morphism(h)))


def test_extend_functor_rejects_non_idempotent():
    class Broken:
        contravariant = False

        def apply_object(self, a):
            return a

        def apply_morphism(self, f):
            model = f.model
            return model.morphism(f.dom, f.cod, f.matrix + IntMatrix.from_rows(
                [[1] * f.matrix.cols] * f.matrix.rows, cols=f.matrix.cols)
                if f.matrix.rows else f.matrix, check=False)

    m = fgab()
    comp = complete(m)
    ext = extend_functor(Broken(), comp, comp)
    a = comp.embed(cyclic(0))
    with pytest.raises(PreconditionError):
        ext.apply_object(a)


def test_retraction_kernel_probe_canonical():
    m = fgab()
    a, c = cyclic(4), cyclic(0)
    bp = m.biproduct(a, c)
    res = retraction_kernel_probe(bp.proj2, bp.inj2)
    assert m.iso_invariants(res.kernel_arrow.dom).torsion_factors == (4,)


def test_retraction_kernel_probe_random_fgab():
    rng = random.Random(8)
    m = fgab()
    for _ in range(10):
        a = m.random_object(rng, B)
        c = m.random_object(rng, B)
        bp = m.biproduct(a, c)
        t, tinv = m._random_shear_pair(rng, bp)
        r = bp.proj2 @ tinv
        s = t @ bp.inj2
        res = retraction_kernel_probe(r, s)
        assert res.forward.model.is_iso(res.forward)


def test_retraction_kernel_probe_even_rank():
    # a projection Z^4 ->> Z^2 has an in-category kernel: the model is WIC
    me = even_rank_split()
    z4, z2 = me.object(4), me.object(2)
    r = me.morphism(z4, z2, IntMatrix.hstack(IntMatrix.zeros(2, 2),
                                             IntMatrix.identity(2)))
    s = me.morphism(z2, z4, IntMatrix.vstack(IntMatrix.zeros(2, 2),
                                             IntMatrix.identity(2)))
    res = retraction_kernel_probe(r, s)
    assert me.iso_invariants(res.kernel_arrow.dom).free_rank == 2


def test_wic_cancellation_prop():
    # for generated f, g with g o f an admissible epic, g is admissible epic
    rng = random.Random(9)
    for model in (fgab(), even_rank_split(), free_split()):
        for _ in range(10):
            b = model.random_object(rng, B)
            h = model.random_admissible_epic_onto(rng, b, B)
            a = h.dom
            bp = model.biproduct(a, model.random_object(rng, B))
            t, tinv = model._random_shear_pair(rng, bp)
            f = t @ bp.inj1
            g = (h @ bp.proj1) @ tinv
            assert (g @ f).same_as(h)
            assert model.is_admissible_epic(g)


def test_even_rank_generated_retractions_have_kernels():
    # weak idempotent completeness by rank parity: every generated
    # retraction splits through its kernel
    me = even_rank_split()
    rng = random.Random(31)
    for _ in range(10):
        a = me.random_object(rng, B)
        c = me.random_object(rng, B)
        bp = me.biproduct(a, c)
        t, tinv = me._random_shear_pair(rng, bp)
        r = bp.proj2 @ tinv
        s = t @ bp.inj2
        res = retraction_kernel_probe(r, s)
        assert me.iso_invariants(res.kernel_arrow.dom).free_rank % 2 == 0


def test_completion_summand_closure():
    # direct summands of embedded sequences are short exact in the
    # completion: glue an embedded sequence with a generated one and check
    # the sum splits back into exact summands
    from exactcat.laws import LawConfig, check_summands
    comp = complete(even_rank_split())
    rep = check_summands(comp, LawConfig(seed=52, iterations=15))
    assert rep.passed, rep.to_json()[:800]


@pytest.mark.parametrize("base", [even_rank_split(), fgab_split()],
                         ids=lambda m: m.model_id)
def test_split_data_matches_per_base_formulas(base):
    # _split goes through the target model alone; on a free host that is the
    # column Hermite basis of p with a column solve, otherwise the base's
    # image subobject with its retraction, except that (A, 1) splits as A
    model = CompletedModel(base)
    rng = random.Random(81)
    objs = [model.zero_object()] + [model.random_object(rng, B) for _ in range(30)]
    objs += [model.embed(base.random_object(rng, B)) for _ in range(5)]
    for a in objs:
        host, p = a.payload.base, a.payload.idem
        if base.idempotent_complete and p == IntMatrix.identity(p.rows):
            target, monic, retract = host, p, p
        elif base.idempotent_complete:
            pm = base.morphism(host, host, p, check=False)
            mono = base.subobject(host, base._image_lattice(pm))
            target, monic = mono.dom, mono.matrix
            retract = base.solve_right_factor(mono, pm).matrix
        else:
            monic = column_hnf(p)
            target = free_split().object(monic.cols)
            retract = solve_columns_mod_lattice(monic, p, IntMatrix.zeros(p.rows, 0))
        got = model._split(a)
        assert (got.target, got.monic, got.retract) == (target, monic, retract), a



def _fields(data):
    return (data.target, data.monic, data.retract)


def test_identity_pair_splits_as_itself_in_any_order():
    # (A, 1) splits as (A, 1, 1) whether _split runs before or after
    # embed_target or _lift; the zero object with three zero relations is
    # not the canonical zero that its image lattice would present
    base = fgab_split()
    rng = random.Random(5)
    objs = [base.object(0, IntMatrix.zeros(0, 3))]
    objs += [base.random_object(rng, B) for _ in range(6)]
    for a in objs:
        one = IntMatrix.identity(a.payload.ngens)
        first = CompletedModel(base)
        before = _fields(first._split(first.embed(a)))
        first.embed_target(a)
        second = CompletedModel(base)
        second._lift(base.identity(a))
        third = CompletedModel(base)
        third.embed_target(a)
        for m in (first, second, third):
            assert _fields(m._split(m.embed(a))) == before == (a, one, one)


@pytest.mark.parametrize("base", [even_rank_split(), fgab_split()],
                         ids=lambda m: m.model_id)
def test_embed_target_writes_no_splitting(base):
    model = CompletedModel(base)
    rng = random.Random(9)
    for _ in range(8):
        t = model.target.random_object(rng, B)
        before = dict(model._splits)
        host = model.embed_target(t)
        assert model._splits == before
        # the image rule recovers t as the split of its host
        assert model._split(host).target == t


def test_splits_cache_is_bounded_and_recomputes_evicted_pairs(monkeypatch):
    monkeypatch.setattr(completion, "CACHE_SIZE", 4)
    model = CompletedModel(even_rank_split())
    rng = random.Random(3)
    objs = [model.random_object(rng, B) for _ in range(12)]
    first = [_fields(model._split(a)) for a in objs]
    assert len(model._splits) <= 4
    assert objs[0].payload not in model._splits
    assert [_fields(model._split(a)) for a in objs] == first
    assert len(model._splits) <= 4


@pytest.mark.parametrize("seed", ["6", "10"])
def test_check_completion_fgab_split_passes(seed):
    proc = subprocess.run(
        [sys.executable, "-m", "exactcat.cli", "--json", "check", "--model",
         "completion:fgab_split", "--suite", "all", "--iters", "4",
         "--max-gens", "3", "--seed", seed],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


# -- transport through the target model, against the per-method path -------


def _same(f, g):
    return (f.dom.payload, f.cod.payload, f.matrix) == \
        (g.dom.payload, g.cod.payload, g.matrix)


def _old_kernel(m, f):
    k = m.target.kernel(m.to_target(f))
    if k is None:
        return None
    return m.from_target(k, m.embed_target(k.dom), f.dom)


def _old_cokernel(m, f):
    c = m.target.cokernel(m.to_target(f))
    if c is None:
        return None
    return m.from_target(c, f.cod, m.embed_target(c.cod))


def _old_analyze(m, f):
    an = m.target.analyze(m.to_target(f))
    if an is None:
        return None
    kobj = m.embed_target(an.kernel_arrow.dom)
    iobj = m.embed_target(an.image_monic.dom)
    cobj = m.embed_target(an.cokernel_arrow.cod)
    return (m.from_target(an.kernel_arrow, kobj, f.dom),
            m.from_target(an.coimage_epic, f.dom, iobj),
            m.from_target(an.image_monic, iobj, f.cod),
            m.from_target(an.cokernel_arrow, f.cod, cobj))


def _old_random_ses(m, rng):
    s = m.target.random_ses(rng, B)
    sub, mid, quot = (m.embed_target(x) for x in (s.sub, s.mid, s.quot))
    return m.from_target(s.i, sub, mid), m.from_target(s.p, mid, quot)


def _old_random_admissible(m, rng):
    f = m.target.random_admissible(rng, B)
    return m.from_target(f, m.embed_target(f.dom), m.embed_target(f.cod))


def _old_monic_from(m, rng, a):
    i = m.target.random_admissible_monic_from(rng, m._split(a).target, B)
    return m.from_target(i, a, m.embed_target(i.cod))


def _old_epic_onto(m, rng, b):
    e = m.target.random_admissible_epic_onto(rng, m._split(b).target, B)
    return m.from_target(e, m.embed_target(e.dom), b)


def _old_cover(m, a):
    cover = m.target.projective_cover_epi(m._split(a).target)
    return m.from_target(cover, m.embed_target(cover.dom), a)


@pytest.mark.parametrize("base", [fgab(), even_rank_split()], ids=lambda m: m.model_id)
def test_completion_transport_matches_per_method_path(base):
    comp = complete(base)
    rng = random.Random(93)
    for k in range(12):
        seed = rng.randrange(10 ** 6)
        s = comp.random_ses(random.Random(seed), B)
        old_i, old_p = _old_random_ses(comp, random.Random(seed))
        assert _same(s.i, old_i) and _same(s.p, old_p)
        f = comp.random_admissible(random.Random(seed), B)
        assert _same(f, _old_random_admissible(comp, random.Random(seed)))
        a = comp.random_object(rng, B)
        assert _same(comp.random_admissible_monic_from(random.Random(seed), a, B),
                     _old_monic_from(comp, random.Random(seed), a))
        assert _same(comp.random_admissible_epic_onto(random.Random(seed), a, B),
                     _old_epic_onto(comp, random.Random(seed), a))
        assert _same(comp.projective_cover_epi(a), _old_cover(comp, a))
        # admissible arrows and arbitrary ones, whose kernel may be absent
        for g in (f, s.i, s.p, comp.random_morphism(rng, a, comp.random_object(rng, B))):
            for new, old in ((comp.kernel(g), _old_kernel(comp, g)),
                             (comp.cokernel(g), _old_cokernel(comp, g))):
                assert (new is None) == (old is None)
                assert new is None or _same(new, old)
            an, old_an = comp._analyze(g), _old_analyze(comp, g)
            assert (an is None) == (old_an is None)
            if an is not None:
                assert all(_same(x, y) for x, y in zip(
                    (an.kernel_arrow, an.coimage_epic, an.image_monic,
                     an.cokernel_arrow), old_an))
