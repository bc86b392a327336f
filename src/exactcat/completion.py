"""Idempotent completion as a model transformer, plus retraction probes.

Objects of the completed model are pairs (A, p) with p idempotent; hom
sets are the sandwiched groups q Hom(A, B) p.  All computations delegate
to a *target* model through an explicit splitting of each idempotent: for
bases whose idempotents already split the target is the base itself, and
for the even-rank split model the target is the split structure on all
finitely generated free groups (every free group is a summand of an
even-rank one, so this is exactly what the completion adjoins).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .intlinalg import IntMatrix, Pivots, memo
from .kernel import (
    CACHE_SIZE,
    Analysis,
    ExactStructureModel,
    GenBounds,
    InternalCheckError,
    IsoInvariants,
    MorphismHandle,
    ObjectAbsent,
    ObjectHandle,
    PreconditionError,
    ShortExactSequence,
)
from .models import PresentedModel, free_split


@dataclass(frozen=True)
class CompletionObject:
    """A pair (A, p): an object of the base model with an idempotent on it."""

    base: ObjectHandle
    idem: IntMatrix


@dataclass(frozen=True, eq=False)
class SplitData:
    target: ObjectHandle       # object of the target model presenting im(p)
    monic: IntMatrix           # target gens -> host gens, m r = p
    retract: IntMatrix         # host gens -> target gens, r m = 1


class CompletedModel(ExactStructureModel):
    """The idempotent completion of a base model, with the inherited
    exact structure (direct summands of base sequences)."""

    def __init__(self, base: ExactStructureModel):
        if isinstance(base, CompletedModel):
            raise PreconditionError(
                "completions do not nest: the base of a completion must not be a "
                "completion, which is already idempotent complete")
        self.base = base
        self.model_id = f"completion({base.model_id})"
        self.abelian = base.abelian
        self.target: PresentedModel = base if base.idempotent_complete else free_split()
        self._splits: dict[CompletionObject, SplitData] = {}

    # -- object layer ----------------------------------------------------

    def validate_object(self, payload: object) -> None:
        if not isinstance(payload, CompletionObject):
            raise PreconditionError("completion objects are (object, idempotent) pairs")
        self.base.validate_object(payload.base.payload)
        p = payload.idem
        n = self.base._gens(payload.base.payload)
        if p.rows != n or p.cols != n:
            raise PreconditionError("idempotent has the wrong shape")
        base_p = self.base.morphism(payload.base, payload.base, p)
        if not (base_p @ base_p).same_as(base_p):
            raise PreconditionError("the designated endomorphism is not idempotent")

    def _gens(self, payload: CompletionObject) -> int:
        return self.base._gens(payload.base.payload)

    def _rel(self, payload: CompletionObject) -> IntMatrix:
        return self.base._rel(payload.base.payload)

    def _pivots(self, payload: CompletionObject) -> Pivots:
        return self.base._pivots(payload.base.payload)

    def _coerce_matrix(self, dom: ObjectHandle, cod: ObjectHandle,
                       matrix: IntMatrix) -> IntMatrix:
        sandwiched = cod.payload.idem @ matrix @ dom.payload.idem
        return super()._coerce_matrix(dom, cod, sandwiched)

    def _validate_morphism_matrix(self, dom: ObjectHandle, cod: ObjectHandle,
                                  matrix: IntMatrix) -> None:
        self.base._validate_morphism_matrix(dom.payload.base, cod.payload.base, matrix)

    def _obj(self, payload: object) -> ObjectHandle:
        try:   # memoised: checking p p = p costs about ten lookups
            return self._valid_pair(payload)
        except TypeError:   # unhashable: validated and built as without the memo
            return super()._obj(payload)

    @memo
    def _valid_pair(self, payload: object) -> ObjectHandle:
        return super()._obj(payload)

    def pair(self, base_obj: ObjectHandle, idem: IntMatrix) -> ObjectHandle:
        return self._obj(CompletionObject(base_obj, idem))

    def embed(self, a: ObjectHandle) -> ObjectHandle:
        self.base._require_same_model(a)
        return self.pair(a, IntMatrix.identity(self.base._gens(a.payload)))

    def embed_morphism(self, f: MorphismHandle) -> MorphismHandle:
        return self.morphism(self.embed(f.dom), self.embed(f.cod), f.matrix,
                             check=False)

    def zero_object(self) -> ObjectHandle:
        z = self.base.zero_object()
        return self.pair(z, IntMatrix.zeros(0, 0))

    def iso_invariants(self, a: ObjectHandle) -> IsoInvariants:
        return self.target.iso_invariants(self._split(a).target)

    def biproduct_payload(self, a: CompletionObject, b: CompletionObject) -> CompletionObject:
        bp = self.base.biproduct(a.base, b.base)
        idem = IntMatrix.block_diag(a.idem, b.idem)
        return CompletionObject(bp.ob, idem)

    # -- splitting through the target model --------------------------------

    def _split(self, a: ObjectHandle) -> SplitData:
        """(A, 1) splits as A itself, the embedding of the base; any other
        pair splits through the image of p.  The result depends on the pair
        alone, so the oldest entries beyond CACHE_SIZE are dropped."""
        payload = a.payload
        hit = self._splits.get(payload)
        if hit is not None:
            return hit
        target = self.target
        host = target._obj(payload.base.payload)
        one = IntMatrix.identity(payload.idem.rows)
        if payload.idem == one:
            data = SplitData(host, one, one)
        else:
            ret, mono = target._image_factorisation(
                target.morphism(host, host, payload.idem, check=False))
            data = SplitData(mono.dom, mono.matrix, ret.matrix)
        if len(self._splits) >= CACHE_SIZE:
            del self._splits[next(iter(self._splits))]
        self._splits[payload] = data
        return data

    def to_target(self, f: MorphismHandle) -> MorphismHandle:
        sd, sc = self._split(f.dom), self._split(f.cod)
        return self.target.morphism(sd.target, sc.target,
                                    sc.retract @ f.matrix @ sd.monic, check=False)

    def embed_target(self, t: ObjectHandle) -> ObjectHandle:
        """Represent a target-model object as a completion object."""
        if self.base.idempotent_complete:
            return self.embed(t)
        # t is the first summand of t + t, an even-rank base object
        bp = self.target.biproduct(t, t)
        return self.pair(self.base.object(2 * t.payload.ngens), (bp.inj1 @ bp.proj1).matrix)

    def from_target(self, g: MorphismHandle, dom: ObjectHandle,
                    cod: ObjectHandle) -> MorphismHandle:
        sd, sc = self._split(dom), self._split(cod)
        if g.dom != sd.target or g.cod != sc.target:
            raise PreconditionError("target morphism does not match the splittings")
        return self.morphism(dom, cod, sc.monic @ g.matrix @ sd.retract, check=False)

    def _lift(self, g: MorphismHandle, dom: Optional[ObjectHandle] = None,
              cod: Optional[ObjectHandle] = None) -> MorphismHandle:
        """A target arrow as an arrow between the given completion objects;
        an endpoint not given is the embedding of g's own, domain first."""
        if dom is None:
            dom = self.embed_target(g.dom)
        if cod is None:
            cod = self.embed_target(g.cod)
        return self.from_target(g, dom, cod)

    # -- structure ----------------------------------------------------------

    def kernel(self, f: MorphismHandle) -> Optional[MorphismHandle]:
        k = self.target.kernel(self.to_target(f))
        return None if k is None else self._lift(k, cod=f.dom)

    def cokernel(self, f: MorphismHandle) -> Optional[MorphismHandle]:
        c = self.target.cokernel(self.to_target(f))
        return None if c is None else self._lift(c, dom=f.cod)

    def _analyze(self, f: MorphismHandle) -> Optional[Analysis]:
        an = self.target.analyze(self.to_target(f))
        if an is None:
            return None

        def factorisation() -> tuple[MorphismHandle, MorphismHandle]:
            e = self._lift(an.coimage_epic, dom=f.dom)
            return e, self._lift(an.image_monic, dom=e.cod, cod=f.cod)

        # each part is lifted when it is first read
        return Analysis(lambda: self._lift(an.kernel_arrow, cod=f.dom),
                        lambda: self._lift(an.cokernel_arrow, dom=f.cod),
                        factorisation)

    def is_admissible_monic(self, f: MorphismHandle) -> bool:
        return self.target.is_admissible_monic(self.to_target(f))

    def is_admissible_epic(self, f: MorphismHandle) -> bool:
        return self.target.is_admissible_epic(self.to_target(f))

    # splitting is an exact equivalence onto the target, so exactness is
    # decided there
    def _is_short_exact(self, i: MorphismHandle, p: MorphismHandle) -> bool:
        return self.target.is_short_exact(self.to_target(i), self.to_target(p))

    def is_exact_at(self, u: MorphismHandle, v: MorphismHandle) -> bool:
        return self.target.is_exact_at(self.to_target(u), self.to_target(v))

    def is_iso(self, f: MorphismHandle) -> bool:
        return self.target.is_iso(self.to_target(f))

    def is_projective(self, a: ObjectHandle) -> bool:
        return self.target.is_projective(self._split(a).target)

    def projective_cover_epi(self, a: ObjectHandle) -> MorphismHandle:
        cover = self.target.projective_cover_epi(self._split(a).target)
        return self._lift(cover, cod=a)

    # -- generators -----------------------------------------------------------

    def random_object(self, rng: random.Random, bounds: GenBounds) -> ObjectHandle:
        host, p = self.base.random_split_pair(rng, bounds)
        return self.pair(host, p.matrix)

    def random_morphism(self, rng: random.Random, a: ObjectHandle,
                        b: ObjectHandle) -> MorphismHandle:
        raw = self.base.random_morphism(rng, a.payload.base, b.payload.base)
        return self.morphism(a, b, raw.matrix, check=False)

    def random_ses(self, rng: random.Random, bounds: GenBounds) -> ShortExactSequence:
        s = self.target.random_ses(rng, bounds)
        i = self._lift(s.i)
        return ShortExactSequence(i, self._lift(s.p, dom=i.cod))

    def random_admissible(self, rng: random.Random, bounds: GenBounds) -> MorphismHandle:
        return self._lift(self.target.random_admissible(rng, bounds))

    def random_admissible_monic_from(self, rng: random.Random, a: ObjectHandle,
                                     bounds: GenBounds) -> MorphismHandle:
        i = self.target.random_admissible_monic_from(rng, self._split(a).target, bounds)
        return self._lift(i, dom=a)

    def random_admissible_epic_onto(self, rng: random.Random, b: ObjectHandle,
                                    bounds: GenBounds) -> MorphismHandle:
        e = self.target.random_admissible_epic_onto(rng, self._split(b).target, bounds)
        return self._lift(e, cod=b)

    def random_automorphism(self, rng: random.Random, a: ObjectHandle) -> MorphismHandle:
        u = self.target.random_automorphism(rng, self._split(a).target)
        return self.from_target(u, a, a)

    def idempotent_edge(self) -> Optional[tuple[ObjectHandle, MorphismHandle]]:
        return self.random_split_pair(random.Random("nh-edge"), GenBounds(max_gens=2))


@lru_cache(maxsize=None)
def complete(model: ExactStructureModel) -> CompletedModel:
    """The idempotent completion of a model, as a model."""
    return CompletedModel(model)


@dataclass(frozen=True, eq=False)
class SplitIdempotentResult:
    """Decomposition X = K + I splitting an idempotent, with witnesses.

    The four arrows satisfy l k = 1_K, j i = 1_I and k l + i j = 1_X, and
    conjugating the idempotent by the induced isomorphism X = K + I gives
    the block projection (0 0; 0 1).
    """

    kernel_part: ObjectHandle
    image_part: ObjectHandle
    k: MorphismHandle   # K -> X
    l: MorphismHandle   # X -> K
    i: MorphismHandle   # I -> X
    j: MorphismHandle   # X -> I


def split_idempotent(x: ObjectHandle, q: MorphismHandle) -> SplitIdempotentResult:
    """Split an idempotent on a completion object explicitly."""
    model = x.model
    if not isinstance(model, CompletedModel):
        raise PreconditionError("split_idempotent operates on completion objects")
    if q.dom != x or q.cod != x:
        raise PreconditionError("the idempotent must be an endomorphism of x")
    if not (q @ q).same_as(q):
        raise PreconditionError("the given endomorphism is not idempotent")
    one = model.identity(x)
    comp = one - q
    kpart = model.pair(x.payload.base, comp.matrix)
    ipart = model.pair(x.payload.base, q.matrix)
    k = model.morphism(kpart, x, comp.matrix, check=False)
    l = model.morphism(x, kpart, comp.matrix, check=False)
    i = model.morphism(ipart, x, q.matrix, check=False)
    j = model.morphism(x, ipart, q.matrix, check=False)
    if not (l @ k).same_as(model.identity(kpart)):
        raise InternalCheckError("l k != 1 in the idempotent splitting")
    if not (j @ i).same_as(model.identity(ipart)):
        raise InternalCheckError("j i != 1 in the idempotent splitting")
    if not ((k @ l) + (i @ j)).same_as(one):
        raise InternalCheckError("k l + i j != 1 in the idempotent splitting")
    return SplitIdempotentResult(kpart, ipart, k, l, i, j)


@dataclass(frozen=True, eq=False)
class ExtendedFunctor:
    """Extension of an additive functor to the completions: (A, p) -> (F A, F p).

    The inner functor provides ``apply_object``, ``apply_morphism`` and a
    ``contravariant`` flag; a contravariant one reverses the arrows.
    """

    inner: object
    source: CompletedModel
    dest: CompletedModel

    def apply_object(self, a: ObjectHandle) -> ObjectHandle:
        payload = a.payload
        fp = self.inner.apply_morphism(
            self.source.base.morphism(payload.base, payload.base, payload.idem,
                                      check=False))
        if fp.dom != fp.cod:
            raise PreconditionError("functor image of an endomorphism must be an endo")
        if not (fp @ fp).same_as(fp):
            raise PreconditionError(
                "functor image of an idempotent is not idempotent; "
                "the functor is not additive/functorial")
        return self.dest.pair(fp.dom, fp.matrix)

    def apply_morphism(self, f: MorphismHandle) -> MorphismHandle:
        base_f = self.source.base.morphism(f.dom.payload.base, f.cod.payload.base,
                                           f.matrix, check=False)
        ff = self.inner.apply_morphism(base_f)
        dom = self.apply_object(f.dom)
        cod = self.apply_object(f.cod)
        if self.inner.contravariant:
            dom, cod = cod, dom
        return self.dest.morphism(dom, cod, ff.matrix, check=False)


def extend_functor(functor, source: CompletedModel,
                   dest: CompletedModel) -> ExtendedFunctor:
    """Extend an additive functor of the base models to the completions;
    the functor must declare ``contravariant`` (see ``ExtendedFunctor``)."""
    return ExtendedFunctor(functor, source, dest)


class IdentityFunctor:
    """Identity functor of a base model (for extension-law checks)."""

    contravariant = False

    def apply_object(self, a: ObjectHandle) -> ObjectHandle:
        return a

    def apply_morphism(self, f: MorphismHandle) -> MorphismHandle:
        return f


class ComposedFunctor:
    """Composite G o F of two covariant functors."""

    contravariant = False

    def __init__(self, g, f):
        self.g, self.f = g, f

    def apply_object(self, a: ObjectHandle) -> ObjectHandle:
        return self.g.apply_object(self.f.apply_object(a))

    def apply_morphism(self, m: MorphismHandle) -> MorphismHandle:
        return self.g.apply_morphism(self.f.apply_morphism(m))


@dataclass(frozen=True, eq=False)
class RetractionSplitting:
    """Rem-style splitting data of a retraction with a kernel."""

    kernel_arrow: MorphismHandle     # k : A >-> B
    complement: MorphismHandle       # t : B -> A
    retraction: MorphismHandle       # r : B ->> C
    section: MorphismHandle          # s : C -> B
    forward: MorphismHandle          # (k s) : A + C -> B
    backward: MorphismHandle         # (t; r) : B -> A + C


def retraction_kernel_probe(r: MorphismHandle, s: MorphismHandle) -> RetractionSplitting:
    """Split B as A + C from a retraction r with section s, via the kernel.

    Requires r s = 1 and a kernel of r in the model; produces t with the
    four identities t k = 1, t s = 0, r s = 1, k t + s r = 1.  A missing
    kernel raises ObjectAbsent: the model is not weakly idempotent
    complete at this instance.
    """
    model = r.model
    if not (r @ s).same_as(model.identity(r.cod)):
        raise PreconditionError("r s = 1 fails: not a retraction/section pair")
    k = model.kernel(r)
    if k is None:
        raise ObjectAbsent("the retraction has no kernel in this model")
    one_b = model.identity(r.dom)
    t = model.solve_right_factor(k, one_b - (s @ r))
    if t is None:
        raise InternalCheckError("complement of the retraction kernel is missing")
    if not (t @ k).same_as(model.identity(k.dom)):
        raise InternalCheckError("t k != 1 in the retraction splitting")
    if not (t @ s).is_zero():
        raise InternalCheckError("t s != 0 in the retraction splitting")
    if not ((k @ t) + (s @ r)).same_as(one_b):
        raise InternalCheckError("k t + s r != 1 in the retraction splitting")
    bp = model.biproduct(k.dom, r.cod)
    forward = (k @ bp.proj1) + (s @ bp.proj2)
    backward = (bp.inj1 @ t) + (bp.inj2 @ r)
    if not (backward @ forward).same_as(model.identity(bp.ob)):
        raise InternalCheckError("retraction splitting is not an isomorphism")
    if not (forward @ backward).same_as(one_b):
        raise InternalCheckError("retraction splitting is not an isomorphism")
    return RetractionSplitting(k, t, r, s, forward, backward)
