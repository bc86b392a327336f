"""Splice certificates of resolutions, horseshoes and projective replacements.

The constructions certify the splices they build through
``complexes._certified``; ``is_acyclic``, which analyses every differential
afresh, is the oracle here.  The mutation tests tamper with one splice at a
time and require the construction to refuse it.
"""

import random

import pytest

from exactcat import complexes, resolutions
from exactcat.completion import complete
from exactcat.complexes import (
    _certified,
    chain_complex,
    check_cone_acyclic,
    identity_chain_map,
    is_acyclic,
    mapping_cone_data,
    object_as_complex,
)
from exactcat.kernel import GenBounds, InternalCheckError, PreconditionError
from exactcat.models import FgabModel, cyclic, fgab, iso_invariants, vect_model
from exactcat.resolutions import (
    _spliced_resolution,
    horseshoe,
    projective_replacement,
    projective_resolution,
    random_resolution,
)

from test_resolutions import _random_bounded_complex

M = fgab()
REFUSED = (PreconditionError, InternalCheckError)


@pytest.fixture
def certificates(monkeypatch):
    """Every certificate (or None) the constructions make from their splices."""
    made = []

    def spy(x, epics, monics):
        made.append(_certified(x, epics, monics))
        return made[-1]

    monkeypatch.setattr(resolutions, "_certified", spy)
    return made


def tamper(monkeypatch, change):
    """Hand the verifier change(x, epics, monics) in place of the built splice."""
    monkeypatch.setattr(resolutions, "_certified",
                        lambda x, epics, monics: _certified(*change(x, epics, monics)))


def assert_agree_with_oracle(certs):
    assert certs and all(c is not None for c in certs)
    for cert in certs:
        x = cert.complex
        oracle = is_acyclic(x)
        assert oracle is not None
        for n in range(x.lo, x.hi + 2):
            assert iso_invariants(cert.z_object(n)) == iso_invariants(oracle.z_object(n))


# -- differential tests against is_acyclic -----------------------------------


@pytest.mark.parametrize("model,bounds", [
    (M, GenBounds()),
    (vect_model(3), GenBounds()),
    (complete(fgab()), GenBounds(max_gens=3)),
], ids=["fgab", "vect3", "completion_fgab"])
def test_resolution_certificates_agree_with_is_acyclic(model, bounds, certificates):
    rng = random.Random(41)
    for _ in range(100):
        a = model.random_object(rng, bounds)
        for res in (projective_resolution(a), random_resolution(a, rng)):
            assert not res.truncated
    assert len(certificates) == 200
    assert_agree_with_oracle(certificates)


def test_horseshoe_certificates_agree_with_is_acyclic(certificates):
    rng = random.Random(42)
    for _ in range(100):
        s = M.random_ses(rng, GenBounds())
        horseshoe(s, projective_resolution(s.sub), projective_resolution(s.quot))
    # the two outer resolutions and the middle one of each horseshoe
    assert len(certificates) == 300
    assert_agree_with_oracle(certificates)


def test_replacement_certificates_agree_with_is_acyclic(certificates):
    rng = random.Random(43)
    for _ in range(100):
        rep = projective_replacement(_random_bounded_complex(rng))
        assert rep.certificate is certificates[-1]
    assert len(certificates) == 100
    assert_agree_with_oracle(certificates)


# -- mutations: every tampered splice is refused ------------------------------


def test_scaled_kernel_is_refused(monkeypatch):
    # a fresh model, so no shared memo sees the tampered kernels
    model = FgabModel()
    kernel = model.kernel

    def doubled(f):
        k = kernel(f)
        return model.morphism(k.dom, k.cod, k.matrix.scale(2), check=False)

    monkeypatch.setattr(model, "kernel", doubled)
    # Z -8-> Z ->> Z/4 squares to zero, but 8Z is not the kernel 4Z
    with pytest.raises(REFUSED):
        projective_resolution(model.object(1, cyclic(4).payload.relations))


def test_non_epic_cover_is_refused():
    def cover(b):
        e = M.projective_cover_epi(b)
        return M.morphism(e.dom, e.cod, e.matrix.scale(2), check=False)

    with pytest.raises(REFUSED):
        projective_resolution(cyclic(4), cover=cover)


def test_splice_one_pair_short_is_refused():
    eps = M.projective_cover_epi(cyclic(4))
    k0 = M.kernel(eps)
    cover1 = M.projective_cover_epi(k0.dom)
    full = _spliced_resolution([eps, cover1], [k0, M.kernel(cover1)])
    assert full.length == 1
    # without the last pair Z^lo is the kernel 4Z, not zero: every factorisation
    # and joint inside the window still holds, only the end is open
    with pytest.raises(REFUSED):
        _spliced_resolution([eps], [k0])


def test_differential_not_m_after_e_is_refused(monkeypatch):
    def negated(x, epics, monics):
        # still an acyclic complex, but its differentials are -m e
        return (chain_complex(x.model, x.lo, x.components,
                              [-d for d in x.differentials]), epics, monics)

    assert is_acyclic(negated(projective_resolution(cyclic(4)).augmented_complex(),
                              {}, {})[0]) is not None
    tamper(monkeypatch, negated)
    with pytest.raises(REFUSED):
        projective_resolution(cyclic(4))


def test_replacement_cone_sign_flip_is_refused(monkeypatch):
    x = object_as_complex(cyclic(4))
    parts = mapping_cone_data(projective_replacement(x).map).parts

    def flipped(cone, epics, monics):
        # the pull-back row's own monic (i'; i'') in place of the cone's (-i'; i'')
        return cone, epics, {
            n: (parts[n].inj2 @ parts[n].proj2 - parts[n].inj1 @ parts[n].proj1) @ m
            if n in parts else m for n, m in monics.items()}

    tamper(monkeypatch, flipped)
    with pytest.raises(REFUSED):
        projective_replacement(x)


def test_cone_of_acyclics_with_a_negated_splice_is_refused(monkeypatch):
    z = M.object(1)
    x = chain_complex(M, 0, [z, z], [M.identity(z)])
    assert check_cone_acyclic(identity_chain_map(x)).certificate is not None
    monkeypatch.setattr(complexes, "_certified", lambda cone, epics, monics: _certified(
        cone, epics, {n: M.negate(m) for n, m in monics.items()}))
    with pytest.raises(InternalCheckError):
        check_cone_acyclic(identity_chain_map(x))


def test_top_joint_against_the_zero_padding_is_checked():
    # 0 -> Z -2-> Z -> 0 factored as Z =1=> Z >-2-> Z: every factorisation
    # holds, but the last Z^1 >-> A^1 is not an isomorphism
    z = M.object(1)
    one = M.identity(z)
    two = M.morphism(z, z, one.matrix.scale(2))
    x = chain_complex(M, 0, [z, z], [two])
    assert is_acyclic(x) is None
    assert _certified(x, {1: one}, {1: two}) is None
