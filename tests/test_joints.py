"""Exactness at a joint and the certificates built from it.

Presented models decide a joint u, v as ker v = im u on canonical Hermite
bases (``PresentedModel.is_exact_at``), and a pair (i, p) as that test
after the admissibility of i and p; completions decide both on their
target, ``diagrams.is_exact_pair`` alone refuses a non-admissible arrow,
and ``is_acyclic`` hands out a certificate whose parts are built when
read.  The oracles here are the image monic and coimage epic of a joint
tested for short exactness independently of that code: on the split
models by one-sided inverses, elsewhere by ambient short exactness
written on raw relation matrices through ``lattice_equal`` and
``lattice_contains``, and on a completion by the same oracle on its
target.  The certificate oracle reads every part off the analyses at
once.
"""

import random

import pytest

from exactcat import models
from exactcat.completion import CompletedModel
from exactcat.complexes import (
    AcyclicityCertificate,
    PeriodicComplex,
    chain_complex,
    is_acyclic,
    object_as_complex,
    periodic_idempotent_complex,
    periodic_is_acyclic,
)
from exactcat.diagrams import is_exact_pair
from exactcat.documents import parse_model_name
from exactcat.intlinalg import IntMatrix, lattice_contains, lattice_equal, preimage_basis
from exactcat.kernel import ExactStructureModel, GenBounds, NotAdmissible
from exactcat.laws import _spliced_acyclic
from exactcat.models import PresentedModel, SplitModel, fgab, free_exact

PRESENTED = ["fgab", "vect:3", "fgab_split", "free_exact", "free_split", "even_rank_split"]
COMPLETED = ["completion:fgab", "completion:even_rank_split"]
BOUNDS = GenBounds(max_gens=3)


def _oracle_short_exact(model, i, p):
    """Short exactness of (i, p) without the models' exactness code: the
    split models' one-sided-inverse test, ambient short exactness on the
    raw relation matrices, or either on the target of a completion."""
    if isinstance(model, CompletedModel):
        return _oracle_short_exact(model.target, model.to_target(i), model.to_target(p))
    if not (p @ i).is_zero():
        return False
    if isinstance(model, SplitModel):
        # split iff (1 - i s)(1 - t p) = 0 for a left inverse s of i and a
        # right inverse t of p
        s = model.solve_left_factor(i, model.identity(i.dom))
        t = model.solve_right_factor(p, model.identity(p.cod))
        if s is None or t is None:
            return False
        one = model.identity(i.cod)
        return ((one - i @ s) @ (one - t @ p)).is_zero()
    mid, quot = i.cod.payload, p.cod.payload
    return (lattice_equal(preimage_basis(i.matrix, mid.relations), i.dom.payload.relations)
            and lattice_contains(IntMatrix.hstack(p.matrix, quot.relations),
                                 IntMatrix.identity(quot.ngens))
            and lattice_equal(preimage_basis(p.matrix, quot.relations),
                              IntMatrix.hstack(i.matrix, mid.relations)))


def _oracle_exact_pair(u, v):
    """``is_exact_pair`` before joints became a model hook."""
    au, av = u.model.analyze(u), v.model.analyze(v)
    if au is None or av is None:
        raise NotAdmissible("exactness is defined for admissible morphisms")
    return _oracle_short_exact(u.model, au.image_monic, av.coimage_epic)


def _verdict(fn, u, v):
    try:
        return fn(u, v)
    except NotAdmissible:
        return "refused"


def _cokernel_or_zero(model, f):
    c = model.cokernel(f)
    return c if c is not None else model.zero_morphism(f.cod, model.zero_object())


def _composable_pairs(model, rng):
    s = model.random_ses(rng, BOUNDS)
    yield s.i, s.p
    a, b, c = (model.random_object(rng, BOUNDS) for _ in range(3))
    f = model.random_morphism(rng, a, b)
    k = model.kernel(f)
    if k is not None:
        yield k, f
    q = _cokernel_or_zero(model, f)
    yield f, q
    yield f, model.random_morphism(rng, q.cod, c) @ q
    yield f, model.random_morphism(rng, b, c)
    yield model.zero_morphism(model.zero_object(), a), f
    yield f, model.zero_morphism(b, model.zero_object())
    m = model.random_admissible_monic_from(rng, b, BOUNDS)
    yield m, _cokernel_or_zero(model, m)


@pytest.mark.parametrize("name", PRESENTED)
def test_exact_pair_matches_the_generic_path(name):
    model = parse_model_name(name)
    rng = random.Random(2501)
    seen = set()
    for _ in range(12):
        for u, v in _composable_pairs(model, rng):
            want = _verdict(_oracle_exact_pair, u, v)
            assert _verdict(is_exact_pair, u, v) == want, (name, u, v)
            seen.add(want)
    assert {True, False} <= seen
    assert ("refused" in seen) == (not model.abelian)


def test_free_exact_saturation_cannot_change_a_verdict():
    # injective i whose image may be unsaturated, with p the cokernel of i,
    # which divides by the saturation: exact iff im i is saturated
    model = free_exact()
    rng = random.Random(2505)
    verdicts = set()
    for _ in range(40):
        b = model.object(rng.randrange(1, 4))
        k = rng.randrange(1, b.payload.ngens + 1)
        i = model.morphism(model.object(k), b, model._rand_matrix(rng, b.payload.ngens, k, 3))
        if not model._is_injective(i):
            continue
        p = model.cokernel(i)
        verdict = model.is_short_exact(i, p)
        assert verdict == _oracle_short_exact(model, i, p) == model.is_admissible_monic(i)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["fgab", "fgab_split", "completion:fgab", "completion:fgab_split"])
def test_a_non_split_monic_is_refused_when_p_is_onto(name):
    # Z --2--> Z ->> Z/2 has ker p = im i and p surjective: short exact in
    # fgab, but 2 has no left inverse, so the split structure refuses it
    # although the epic side is tested only for surjectivity
    model = parse_model_name(name)
    base = getattr(model, "base", model)
    z, z2 = base.object(1), base.object(1, IntMatrix.from_rows([[2]]))
    i = base.morphism(z, z, IntMatrix.from_rows([[2]]))
    p = base.morphism(z, z2, IntMatrix.from_rows([[1]]))
    if isinstance(model, CompletedModel):
        i, p = model.embed_morphism(i), model.embed_morphism(p)
    split = name.endswith("_split")
    assert model.is_short_exact(i, p) == (not split) == _oracle_short_exact(model, i, p)


NON_ABELIAN = ["fgab_split", "free_exact", "free_split", "even_rank_split",
               "completion:fgab_split", "completion:even_rank_split"]


@pytest.mark.parametrize("name", NON_ABELIAN)
def test_is_exact_pair_refuses_a_non_admissible_arrow(name):
    # twice the identity of Z^2 is injective but neither split nor with a
    # saturated image, so no non-abelian model admits it
    model = parse_model_name(name)
    if isinstance(model, CompletedModel):
        a = model.embed(model.base.object(2))
    else:
        a = model.object(2)
    two = model.morphism(a, a, IntMatrix.diagonal([2, 2]))
    assert model.analyze(two) is None
    one, zero = model.identity(a), model.zero_morphism(a, model.zero_object())
    for u, v in [(two, zero), (one, two), (two, two)]:
        with pytest.raises(NotAdmissible):
            is_exact_pair(u, v)
    assert is_exact_pair(one, zero) is True


def _random_complexes(model, rng):
    yield _spliced_acyclic(model, rng, BOUNDS)
    a, b, c = (model.random_object(rng, BOUNDS) for _ in range(3))
    f = model.random_morphism(rng, a, b)
    yield chain_complex(model, 0, [a, b], [f])
    q = _cokernel_or_zero(model, f)
    yield chain_complex(model, -1, [a, b, q.cod], [f, q])
    yield chain_complex(model, 0, [a, b, c], [f, model.random_morphism(rng, q.cod, c) @ q])
    k = model.kernel(f)
    if k is not None:
        yield chain_complex(model, 1, [k.dom, a, b, q.cod], [k, f, q])
    yield object_as_complex(a, degree=2)


def _oracle_certificate(x):
    """``is_acyclic`` before joints became a model hook and before its
    certificate was built lazily."""
    ds = [x.differential(n) for n in range(x.lo - 1, x.hi + 1)]
    analyses = [d.model.analyze(d) for d in ds]
    if any(an is None for an in analyses) or not all(
            _oracle_exact_pair(u, v) for u, v in zip(ds, ds[1:])):
        return None
    degrees = range(x.lo, x.hi + 2)
    return ({n: an.image_object for n, an in zip(degrees, analyses)},
            {n: an.coimage_epic for n, an in zip(degrees, analyses)},
            {n: an.image_monic for n, an in zip(degrees, analyses)})


def _same_arrow(u, v):
    return u.dom == v.dom and u.cod == v.cod and u.matrix == v.matrix


def _assert_certificate_matches(cert, eager):
    zobj, epics, monics = eager
    x = cert.complex
    for n in range(x.lo - 2, x.hi + 4):
        assert cert.z_object(n) == zobj.get(n, x.model.zero_object())
        if n in monics:
            assert _same_arrow(cert.monic(n), monics[n])
            assert _same_arrow(cert.epic(n), epics[n])
        else:
            assert cert.monic(n).is_zero() and cert.epic(n).is_zero()
    assert cert.z_objects == zobj
    assert sorted(cert.epics) == sorted(epics) and sorted(cert.monics) == sorted(monics)


@pytest.mark.parametrize("name", PRESENTED + COMPLETED)
def test_is_acyclic_matches_the_eager_certificate(name):
    model = parse_model_name(name)
    rng = random.Random(2502)
    verdicts = set()
    for _ in range(6):
        for x in _random_complexes(model, rng):
            cert, eager = is_acyclic(x), _oracle_certificate(x)
            assert (cert is None) == (eager is None), (name, x)
            verdicts.add(cert is not None)
            if cert is not None:
                _assert_certificate_matches(cert, eager)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["fgab_split", "even_rank_split"])
def test_is_acyclic_looks_each_differential_up_once(name, monkeypatch):
    model = parse_model_name(name)
    rng = random.Random(2506)
    lookups = []
    analyze = ExactStructureModel.analyze

    def counted(self, f):
        lookups.append(f)
        return analyze(self, f)

    monkeypatch.setattr(ExactStructureModel, "analyze", counted)
    acyclic = 0
    for _ in range(6):
        for x in _random_complexes(model, rng):
            ds = [x.differential(n) for n in range(x.lo - 1, x.hi + 1)]
            lookups.clear()
            cert = is_acyclic(x)
            if cert is not None:
                acyclic += 1
                assert len(lookups) == len(ds), (name, x)
            else:
                assert len(lookups) <= len(ds), (name, x)
    assert acyclic


def _random_periodic(model, rng):
    a, p = model.random_split_pair(rng, BOUNDS)
    yield periodic_idempotent_complex(model, a, p, 2)
    b = model.random_object(rng, BOUNDS)
    f = model.random_morphism(rng, a, b)
    yield PeriodicComplex(model, (a, b), (f, model.zero_morphism(b, a)))
    s = model.random_ses(rng, BOUNDS)
    yield PeriodicComplex(model, (s.sub, s.mid, s.quot),
                          (s.i, s.p, model.zero_morphism(s.quot, s.sub)))
    edge = model.idempotent_edge()
    if edge is not None:
        yield periodic_idempotent_complex(model, *edge, 4)


@pytest.mark.parametrize("name", PRESENTED + COMPLETED)
def test_periodic_is_acyclic_matches_the_generic_path(name):
    model = parse_model_name(name)
    rng = random.Random(2503)
    verdicts = set()
    for _ in range(6):
        for x in _random_periodic(model, rng):
            d = x.differentials
            ds = d[-1:] + d
            oracle = all(model.analyze(e) is not None for e in ds) and all(
                _oracle_exact_pair(u, v) for u, v in zip(ds, ds[1:]))
            assert (periodic_is_acyclic(x) is not None) == oracle, (name, x)
            verdicts.add(oracle)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["fgab", "vect:3"])
def test_is_acyclic_builds_no_image_factorisation_until_read(name, monkeypatch):
    model = parse_model_name(name)
    calls = []
    build = PresentedModel._image_factorisation

    def counted(self, f):
        calls.append(f)
        return build(self, f)

    monkeypatch.setattr(PresentedModel, "_image_factorisation", counted)
    ExactStructureModel.analyze.cache_clear()
    x = _spliced_acyclic(model, random.Random(2504), BOUNDS)
    calls.clear()
    cert = is_acyclic(x)
    assert cert is not None and calls == []
    assert cert.z_object(x.lo + 1) is not None
    assert len(calls) == 1
    cert.epic(x.lo + 1)
    cert.monic(x.lo + 1)
    assert len(calls) == 1   # both come from the factorisation just built


def test_certificate_takes_a_construction_splice_as_given():
    a = fgab().object(1)
    one = fgab().identity(a)
    x = chain_complex(fgab(), 0, [a, a], [one])
    zero = fgab().zero_object()
    epics = {1: one}
    monics = {1: one, 0: fgab().zero_morphism(zero, a)}
    cert = AcyclicityCertificate(x, epics, monics)
    assert cert.epics is epics and cert.monics is monics
    assert cert.z_objects == {1: a, 0: zero}
    assert cert.epic(0).is_zero() and cert.epic(0).cod == zero


def test_presented_objects_carry_their_hermite_basis():
    assert models.cyclic(0).payload.basis == IntMatrix.zeros(1, 0)
    free3 = fgab().object(3).payload
    assert free3.basis is free3.relations
    b = fgab().object(2, IntMatrix.from_rows([[2, 4], [0, 6]])).payload
    assert b.basis == IntMatrix.from_rows([[2, 0], [0, 6]])
    assert b.pivots == ((0, (2, 0)), (1, (0, 6)))
