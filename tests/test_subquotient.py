"""One subquotient recipe behind subobjects, images, homology objects and
Hom objects.

The oracles below are the separate recipes each caller used to write out:
preimage lattice, Smith normalisation, generators lifted through to_raw,
and coordinates solved modulo the same lattice; and, for images, the
coimage epic found by the general factor solver.
"""

import random

import pytest

from exactcat.completion import SplitData, complete
from exactcat.complexes import (
    chain_complex,
    chain_map,
    homology,
    homology_induced,
    identity_chain_map,
    strict_triangle,
)
from exactcat.intlinalg import IntMatrix, preimage_basis, solve_columns_mod_lattice
from exactcat.kernel import Analysis, GenBounds, ObjectAbsent
from exactcat.models import (
    PresentedModel,
    PresentedObject,
    cyclic,
    even_rank_split,
    fgab,
    free_split,
    iso_invariants,
    normalize_presentation,
)
from exactcat.resolutions import FunctorSpec, hom_structure

M = fgab()
B = GenBounds(max_gens=3)


# -- the recipes as written before they were shared ----------------------------


def _oracle_normalized(model, ngens, relations):
    canon, to_raw, _ = normalize_presentation(PresentedObject(ngens, relations))
    return model._obj(canon), to_raw


def _oracle_subobject(model, a, lattice_basis):
    rel = preimage_basis(lattice_basis, a.payload.relations)
    k, to_raw = _oracle_normalized(model, lattice_basis.cols, rel)
    return model.morphism(k, a, lattice_basis @ to_raw, check=False)


def _oracle_analyze(model, f):
    """PresentedModel._analyze with the image monic from subobject and the
    coimage epic from solve_right_factor."""
    k, c = model.kernel(f), model.cokernel(f)
    if k is None or c is None:
        return None
    try:
        m = _oracle_subobject(model, f.cod, model._image_lattice(f))
    except ObjectAbsent:
        return None
    e = model.solve_right_factor(m, f)
    return None if e is None else Analysis(lambda: k, lambda: c, lambda: (e, m))


def _oracle_split(model, a):
    """CompletedModel._split without its cache: a pair other than (A, 1)
    splits through the image of p, retracted by the factor of p through it."""
    target, payload = model.target, a.payload
    host = target._obj(payload.base.payload)
    one = IntMatrix.identity(payload.idem.rows)
    if payload.idem == one:
        return SplitData(host, one, one)
    p = target.morphism(host, host, payload.idem, check=False)
    mono = _oracle_subobject(target, host, target._image_lattice(p))
    return SplitData(mono.dom, mono.matrix, target.solve_right_factor(mono, p).matrix)


def _oracle_homology(x, n):
    """(object, cycle representatives, boundary lattice) of H^n."""
    model = x.model
    kbasis = model._kernel_lattice(x.differential(n))
    denom = IntMatrix.hstack(x.differential(n - 1).matrix,
                             x.component(n).payload.relations)
    ob, to_raw = _oracle_normalized(model, kbasis.cols, preimage_basis(kbasis, denom))
    return ob, kbasis @ to_raw, denom


def _oracle_homology_induced(f, n):
    src_ob, src_cycles, _ = _oracle_homology(f.source, n)
    tgt_ob, tgt_cycles, denom = _oracle_homology(f.target, n)
    coords = solve_columns_mod_lattice(tgt_cycles, f.component(n).matrix @ src_cycles, denom)
    return f.model.morphism(src_ob, tgt_ob, coords, check=False)


def _oracle_hom(src, dst):
    """(object, vec'd generators, modulus) of Hom(src, dst)."""
    model = src.model
    k = model._hom_basis(src.payload, dst.payload)
    nmat = IntMatrix.kron(IntMatrix.identity(src.payload.ngens), dst.payload.relations)
    rel = preimage_basis(k, nmat) if k.cols else IntMatrix.zeros(0, 0)
    ob, to_raw = _oracle_normalized(model, k.cols, rel)
    return ob, k @ to_raw, nmat


# -- random complexes with homology ---------------------------------------------


def _random_complex(rng):
    """X^0 -> X^1 -> X^2 with d^1 = g coker(d^0), so d^1 d^0 = 0."""
    x0, x1, x2 = (M.random_object(rng, B) for _ in range(3))
    d0 = M.random_morphism(rng, x0, x1)
    c = M.cokernel(d0)
    d1 = M.random_morphism(rng, c.cod, x2) @ c
    return chain_complex(M, rng.randrange(-1, 2), [x0, x1, x2], [d0, d1])


def _random_chain_maps(rng, x):
    """The identity, a multiple k of it and the two maps of k's strict triangle."""
    k = rng.randint(-3, 3)
    f = chain_map(x, x, {n: M.morphism(c, c, IntMatrix.identity(c.payload.ngens).scale(k))
                         for n, c in zip(x.degrees(), x.components)})
    tri = strict_triangle(f)
    return [identity_chain_map(x), f, tri.inclusion, tri.projection]


def _same_morphism(got, want):
    return (got.dom.payload, got.cod.payload, got.matrix) == \
        (want.dom.payload, want.cod.payload, want.matrix)


def test_homology_matches_the_separate_recipe():
    rng = random.Random(180)
    for _ in range(25):
        x = _random_complex(rng)
        for f in _random_chain_maps(rng, x):
            for n in range(min(f.source.lo, f.target.lo) - 1,
                           max(f.source.hi, f.target.hi) + 2):
                assert homology(f.source, n).payload == _oracle_homology(f.source, n)[0].payload
                assert _same_morphism(homology_induced(f, n), _oracle_homology_induced(f, n))


def test_hom_structure_matches_the_separate_recipe():
    rng = random.Random(181)
    for _ in range(40):
        a, b = M.random_object(rng, B), M.random_object(rng, B)
        hs = hom_structure(a, b)
        ob, gens, nmat = _oracle_hom(a, b)
        assert (hs.ob.payload, hs.gens, hs.modulus) == (ob.payload, gens, nmat)
        # coordinates of homomorphisms, and of matrices that are none
        na, nb = a.payload.ngens, b.payload.ngens
        mats = [M.random_morphism(rng, a, b).matrix for _ in range(3)]
        mats.append(M._rand_matrix(rng, nb, na, 3))
        vecs = IntMatrix(na * nb, len(mats), tuple(
            tuple(m.entries[r % nb][r // nb] for m in mats) for r in range(na * nb)))
        assert hs.coords(vecs) == solve_columns_mod_lattice(gens, vecs, nmat)
        # the Hom functors act on the generators through the same coordinates
        t = cyclic(rng.choice([0, 2, 6]))
        f = M.random_morphism(rng, a, b)
        one = IntMatrix.identity(t.payload.ngens)
        for variant, (dom, cod), act in (
                ("hom_from", (_oracle_hom(t, a), _oracle_hom(t, b)), IntMatrix.kron(one, f.matrix)),
                ("hom_into", (_oracle_hom(b, t), _oracle_hom(a, t)),
                 IntMatrix.kron(f.matrix.transpose(), one))):
            want = M.morphism(dom[0], cod[0], solve_columns_mod_lattice(
                cod[1], act @ dom[1], cod[2]), check=False)
            assert _same_morphism(FunctorSpec(variant, t).apply_morphism(f), want)


def test_subobject_matches_the_separate_recipe():
    rng = random.Random(182)
    for _ in range(40):
        a = M.random_object(rng, B)
        basis = M._rand_matrix(rng, a.payload.ngens, rng.randrange(0, 4), 3)
        assert _same_morphism(M.subobject(a, basis), _oracle_subobject(M, a, basis))
        f = M.random_morphism(rng, a, M.random_object(rng, B))
        assert _same_morphism(M.kernel(f), _oracle_subobject(M, a, M._kernel_lattice(f)))


@pytest.mark.parametrize("src,dst,vec_rows", [
    (cyclic(2), cyclic(0), 1),           # Hom(Z/2, Z) = 0
    (M.zero_object(), cyclic(3), 0),     # Hom(0, Z/3) = 0
])
def test_zero_hom_objects(src, dst, vec_rows):
    hs = hom_structure(src, dst)
    assert hs.ob.payload == PresentedObject(0, IntMatrix.zeros(0, 0))
    assert (hs.gens.rows, hs.gens.cols) == (vec_rows, 0)
    zero = IntMatrix.zeros(vec_rows, 2)
    assert hs.coords(zero) == IntMatrix.zeros(0, 2)
    if vec_rows:
        # 1 -> 1 is no homomorphism Z/2 -> Z
        assert hs.coords(IntMatrix.from_rows([[1]])) is None


def test_analyze_matches_the_separate_recipe(monkeypatch):
    # the presented models among test_complexes.ORACLE_MODELS; the split
    # and free analyses wrap PresentedModel._analyze, so patching it there
    # gives each model's analysis as it was computed before
    rng = random.Random(190)
    rejected = torsion = 0
    for model in (fgab(), free_split(), even_rank_split()):
        arrows = []
        for _ in range(30):
            a, b = model.random_object(rng, B), model.random_object(rng, B)
            arrows += [model.random_morphism(rng, a, b), model.random_admissible(rng, B)]
        got = [model._analyze(f) for f in arrows]
        with monkeypatch.context() as mp:
            mp.setattr(PresentedModel, "_analyze", _oracle_analyze)
            want = [model._analyze(f) for f in arrows]
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if g is None:
                rejected += 1
                continue
            for part in ("kernel_arrow", "coimage_epic", "image_monic", "cokernel_arrow"):
                assert _same_morphism(getattr(g, part), getattr(w, part))
            torsion += bool(iso_invariants(g.image_monic.dom).torsion_factors)
    assert rejected and torsion


@pytest.mark.parametrize("base", [even_rank_split(), fgab()], ids=lambda m: m.model_id)
def test_split_matches_the_separate_recipe(base):
    model = complete(base)
    rng = random.Random(191)
    proper = 0
    for _ in range(40):
        a = model.random_object(rng, B)
        got, want = model._split(a), _oracle_split(model, a)
        assert (got.target.payload, got.monic, got.retract) == \
            (want.target.payload, want.monic, want.retract)
        proper += got.monic.rows != got.monic.cols
    assert proper
