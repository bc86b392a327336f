"""Concrete model categories over finitely presented abelian groups.

Objects are presentations (generator count + integer relation matrix) and
arrows are matrices on generators, well-defined modulo the relation
lattices.  Six exact structures are provided on top of this single
representation, one class per structure:

* ``fgab()``            - all kernel-cokernel pairs (an abelian category),
* ``vect_model(p)``     - finite-dimensional spaces over F_p (abelian),
* ``fgab_split()``      - split exact structure on presented groups,
* ``free_exact()``      - f.g. free groups, sequences exact in the ambient
                          abelian category,
* ``free_split()``      - f.g. free groups with the split structure,
* ``even_rank_split()`` - even-rank free groups with the split structure
                          (weakly idempotent complete, not idempotent
                          complete).

``PresentedModel`` holds the lattice machinery of the ambient abelian
category and, by default, decides admissibility there, treats every
object as projective and generates admissible arrows from split data.
Each model class states its admissible monics and epics and overrides
the projective covers and random generators that its structure changes;
``PresentedModel`` derives the rest on every model: the admissible arrows
(``_analyze``) and short exactness (``_is_short_exact``, one lattice
test).  ``SplitModel`` holds the split structure its three split models
share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Optional

from .intlinalg import (
    IntMatrix,
    Pivots,
    column_hnf,
    memo,
    preimage_basis,
    reduce_by_pivots,
    saturation,
    smith_normal_form,
    solve_columns_mod_lattice,
    unimodular_inverse,
    _check_prime,
    _pivots,
)
from .kernel import (
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


@dataclass(frozen=True)
class PresentedObject:
    """Cokernel presentation: Z^ngens modulo the column lattice of ``relations``;
    ``presented`` shares one object, and so its fields below, per payload."""

    ngens: int
    relations: IntMatrix

    def __post_init__(self) -> None:
        if self.relations.rows != self.ngens:
            raise ValueError("relation matrix must have one row per generator")

    @cached_property
    def basis(self) -> IntMatrix:
        """The canonical Hermite basis of the relation lattice, kept with the
        object: kernel and image lattices of arrows start from it."""
        return column_hnf(self.relations) if self.relations.cols else self.relations

    @cached_property
    def pivots(self) -> Pivots:
        """The pivots of the relation lattice, which arrows into this object
        are reduced by."""
        return _pivots(self.basis)

    @cached_property
    def normal_form(self) -> tuple[PresentedObject, IntMatrix, IntMatrix]:
        """(canonical, to_raw, from_raw): the Smith-reduced presentation and the
        change of generators.  from_raw @ to_raw is the identity on the
        canonical generators and to_raw @ from_raw the identity modulo the raw
        relations.  Canonical presentations list torsion generators first
        (ascending divisibility), free ones last, with diagonal relations."""
        snf = smith_normal_form(self.relations)
        diag = snf.diagonal + (0,) * (self.ngens - len(snf.diagonal))
        kept = [i for i, d in enumerate(diag) if d != 1]
        torsion = [d for d in diag if d > 1]
        new_rel = IntMatrix.diagonal(torsion, rows=len(kept), cols=len(torsion))
        return presented(len(kept), new_rel), snf.U_inv.take_columns(kept), snf.U.take_rows(kept)

    @cached_property
    def invariants(self) -> IsoInvariants:
        """Free rank and torsion chain, read off the normal form."""
        canon = self.normal_form[0]
        torsion = tuple(canon.relations.entries[i][i] for i in range(canon.relations.cols))
        return IsoInvariants(canon.ngens - len(torsion), torsion)


@memo
def presented(ngens: int, relations: IntMatrix) -> PresentedObject:
    """The one shared object of a payload (while the table holds it)."""
    return PresentedObject(ngens, relations)


@dataclass(frozen=True, eq=False)
class Subquotient:
    """A kernel, image, homology or Hom object: ob is presented on the
    classes of the columns of gens modulo col(modulus)."""

    ob: ObjectHandle
    gens: IntMatrix       # column k represents generator k of ob
    modulus: IntMatrix

    def coords(self, v: IntMatrix) -> Optional[IntMatrix]:
        """X with gens X = v mod col(modulus), or None if v leaves the span."""
        return solve_columns_mod_lattice(self.gens, v, self.modulus)


class PresentedModel(ExactStructureModel):
    """Presented groups with the lattice machinery of the ambient abelian
    category.

    Admissibility defaults to exactness in that ambient category, every
    object defaults to projective (its identity is its cover), and the
    admissible-arrow generators default to conjugated split data.
    """

    presented = True

    # -- object layer ---------------------------------------------------

    def validate_object(self, payload: object) -> None:
        if not isinstance(payload, PresentedObject):
            raise PreconditionError(f"{self.model_id} expects presented objects")

    def _gens(self, payload: PresentedObject) -> int:
        return payload.ngens

    def _rel(self, payload: PresentedObject) -> IntMatrix:
        return payload.relations

    def _pivots(self, payload: PresentedObject) -> Pivots:
        return payload.pivots

    def object(self, ngens: int, relations: Optional[IntMatrix] = None) -> ObjectHandle:
        if relations is None:
            relations = IntMatrix.zeros(ngens, 0)
        return self._obj(presented(ngens, relations))

    @memo
    def zero_object(self) -> ObjectHandle:
        return self.object(0)

    def iso_invariants(self, a: ObjectHandle) -> IsoInvariants:
        return a.payload.invariants

    def biproduct_payload(self, a: PresentedObject, b: PresentedObject) -> PresentedObject:
        return presented(a.ngens + b.ngens, IntMatrix.block_diag(a.relations, b.relations))

    def _validate_morphism_matrix(self, dom: ObjectHandle, cod: ObjectHandle,
                                  matrix: IntMatrix) -> None:
        # matrix must carry the domain relation lattice into the codomain one
        moved = matrix @ dom.payload.relations
        if not reduce_by_pivots(moved, cod.payload.pivots).is_zero():
            raise PreconditionError("matrix does not respect the relation lattices")

    # -- ambient lattice helpers -------------------------------------------

    # Both lattices contain the codomain relations and come as canonical
    # Hermite bases, which are equal exactly when the lattices are, so the
    # tests below compare them with ==.

    def _kernel_lattice(self, f: MorphismHandle) -> IntMatrix:
        return preimage_basis(f.matrix, f.cod.payload.basis)

    def _image_lattice(self, f: MorphismHandle) -> IntMatrix:
        return column_hnf(IntMatrix.hstack(f.matrix, f.cod.payload.basis))

    def _is_injective(self, f: MorphismHandle) -> bool:
        return self._kernel_lattice(f) == f.dom.payload.basis

    def _is_surjective(self, f: MorphismHandle) -> bool:
        return self._image_lattice(f) == IntMatrix.identity(f.cod.payload.ngens)

    # -- subobjects and quotients ----------------------------------------

    def subquotient(self, gens: IntMatrix, modulus: IntMatrix) -> Subquotient:
        """The group spanned by the columns of gens modulo col(modulus),
        Smith-canonical: its relations are {x : gens x in col(modulus)}."""
        rel = preimage_basis(gens, modulus)
        canon, to_raw, _ = presented(gens.cols, rel).normal_form
        return Subquotient(self._obj(canon), gens @ to_raw, modulus)

    def subobject(self, a: ObjectHandle, lattice_basis: IntMatrix) -> MorphismHandle:
        """Monic from the subgroup spanned by the basis columns into a."""
        sq = self.subquotient(lattice_basis, a.payload.relations)
        return self.morphism(sq.ob, a, sq.gens, check=False)

    def quotient_by(self, a: ObjectHandle, cols: IntMatrix) -> MorphismHandle:
        """Epic from a onto a / (columns + relations), Smith-canonical."""
        canon, _, from_raw = presented(
            a.payload.ngens, IntMatrix.hstack(cols, a.payload.relations)).normal_form
        return self.morphism(a, self._obj(canon), from_raw, check=False)

    # -- kernels, cokernels, analysis --------------------------------------

    def kernel(self, f: MorphismHandle) -> Optional[MorphismHandle]:
        try:
            return self.subobject(f.dom, self._kernel_lattice(f))
        except ObjectAbsent:
            return None

    def cokernel(self, f: MorphismHandle) -> Optional[MorphismHandle]:
        try:
            return self.quotient_by(f.cod, f.matrix)
        except ObjectAbsent:
            return None

    def _image_factorisation(self, f: MorphismHandle) -> tuple[MorphismHandle, MorphismHandle]:
        """(e, m) with f = m e and m the monic from the image of f: e sends
        each generator to the coordinates of its image in the image
        subquotient.  m is monic, so e is unique; ``morphism`` stores it
        canonically."""
        sq = self.subquotient(self._image_lattice(f), f.cod.payload.relations)
        x = sq.coords(f.matrix)
        if x is None:
            raise InternalCheckError("the image subquotient misses a column of the arrow")
        return (self.morphism(f.dom, sq.ob, x, check=False),
                self.morphism(sq.ob, f.cod, sq.gens, check=False))

    # f is admissible iff f = m' e' for an admissible epic e' and an
    # admissible monic m' (Def. 8.1).  On an abelian model every arrow is.
    # On the four split and free models, f is admissible iff its ambient
    # kernel k is an object and an admissible monic and its image monic m
    # is an admissible monic.  Then f = m e for the coimage epic e, which each model admits
    # as shown below; conversely k is the kernel of e' and m is m' up to
    # isomorphism, so both are admissible when f is.
    #
    # * The split models: if k has a left inverse r, then 1 - k r kills k,
    #   so 1 - k r = t e, and e t e = e gives e t = 1: e splits.
    #   Conversely the kernel of a split epic is split.
    # * free_exact: k is admissible, since a kernel between free groups is
    #   saturated; m is admissible iff im f is saturated; and e maps onto
    #   the free group im f, so it is admissible.
    # * free_split takes free_exact's objects but the split monics: a split
    #   image monic is saturated, so free_exact's test would add nothing.
    # * even_rank_split: rank ker f + rank im f = rank dom is even, so the
    #   kernel and the image are both objects or neither is, and so is the
    #   cokernel, of rank rank cod - rank im f.  The kernel is read first,
    #   and an arrow whose kernel is absent is refused.
    #
    # So every part of an admitted arrow's analysis exists.

    def _analyze(self, f: MorphismHandle) -> Optional[Analysis]:
        an = Analysis(partial(self.kernel, f), partial(self.cokernel, f),
                      partial(self._image_factorisation, f))
        if self.abelian or an.kernel_arrow is not None \
                and self.is_admissible_monic(an.kernel_arrow) \
                and self.is_admissible_monic(an.image_monic):
            return an
        return None

    # -- admissibility -----------------------------------------------------

    def is_iso(self, f: MorphismHandle) -> bool:
        # bijective homomorphisms of finitely presented groups are invertible
        return self._is_injective(f) and self._is_surjective(f)

    def is_admissible_monic(self, f: MorphismHandle) -> bool:
        return self._is_injective(f)

    def is_admissible_epic(self, f: MorphismHandle) -> bool:
        return self._is_surjective(f)

    # One lattice test decides every joint and every pair on the six
    # presented models: (i, p) is short exact iff i is an admissible monic,
    # p an admissible epic and ker p = im i, and a joint of admissible u, v
    # is exact iff ker v = im u.  ker p = im i already gives p i = 0.  A
    # joint is the pair of the image monic m of u and the coimage epic e of
    # v, which are admissible, and im m = im u, ker e = ker v as lattices
    # over the middle relations.  The models' own short exactness agrees:
    #
    # * fgab and vect: admissible means injective or surjective, and then
    #   (i, p) is short exact iff ker p = im i.
    # * The split models: given a left inverse s of i and a right inverse t
    #   of p, (i, p) splits iff p i = 0 and (1 - i s)(1 - t p) = 0: a split
    #   pair satisfies both, and if both hold, (s, (1 - i s) t) is a
    #   witness pair.
    #   If ker p = im i, then p i = 0, and 1 - t p maps into ker p, which
    #   1 - i s kills.  Conversely p i = 0 puts im i in ker p, and x in
    #   ker p is (1 - t p) x, which 1 - i s kills, so x = i s x is in im i.
    # * free_exact: the saturation conjunct of is_admissible_monic cannot
    #   change a verdict, because when ker p = im i and p is onto a free
    #   group, im i = ker p is saturated.
    #
    # So _is_short_exact asks only that p be surjective.  On fgab, vect and
    # free_exact that is is_admissible_epic.  On the split models, if
    # ker p = im i, s is a left inverse of i and p is surjective, then
    # c |-> (1 - i s) b for any b with p b = c is a right inverse of p: it
    # is well defined because 1 - i s kills im i = ker p, and
    # p (1 - i s) b = p b as p i = 0.  The monic side keeps its admissibility
    # test: Z --2--> Z ->> Z/2 has ker p = im i and p surjective, but i has
    # no left inverse.

    def is_exact_at(self, u: MorphismHandle, v: MorphismHandle) -> bool:
        return self._kernel_lattice(v) == self._image_lattice(u)

    def _is_short_exact(self, i: MorphismHandle, p: MorphismHandle) -> bool:
        return self.is_admissible_monic(i) and self._is_surjective(p) and \
            self.is_exact_at(i, p)

    # -- projectivity --------------------------------------------------------

    def is_projective(self, a: ObjectHandle) -> bool:
        return True

    def projective_cover_epi(self, a: ObjectHandle) -> MorphismHandle:
        return self.identity(a)

    # -- random generators ----------------------------------------------------

    def _rand_matrix(self, rng: random.Random, rows: int, cols: int, bound: int) -> IntMatrix:
        return IntMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
            cols=cols)

    def random_object(self, rng: random.Random, bounds: GenBounds) -> ObjectHandle:
        n = rng.randrange(0, bounds.max_gens + 1)
        r = rng.randrange(0, bounds.max_gens + 1)
        return self.object(n, self._rand_matrix(rng, n, r, bounds.max_rel_entry))

    @memo
    def _hom_basis(self, a: PresentedObject, b: PresentedObject) -> IntMatrix:
        """Columns are vectorized generators of Hom(a, b) inside matrix space:
        the canonical basis of {vec X : X R_a in col(R_b)}, X_ij at j * nb + i."""
        # With the cached Smith form U R_a V = D, X = W U respects relations
        # iff d_k w_k is in col(R_b) for each column w_k of W (d padded with
        # zeros).  So Hom is spanned by the X with columns in col(R_b) (na
        # copies of b's basis) and, for each d_k != 1, by vec(w e_k^T U) =
        # row_k(U)^T (x) w, w in {w : d_k w in col(R_b)} (Z^nb if d_k = 0).
        na, nb = a.ngens, b.ngens
        if not a.relations.cols:
            return IntMatrix.identity(na * nb)
        sa = smith_normal_form(a.relations)
        gens = [IntMatrix.kron(IntMatrix.identity(na), b.basis)]
        for k, d in enumerate(sa.diagonal + (0,) * (na - len(sa.diagonal))):
            if d != 1:
                w = IntMatrix.identity(nb) if d == 0 else \
                    preimage_basis(IntMatrix.diagonal([d] * nb), b.basis)
                gens.append(IntMatrix.kron(sa.U.take_rows([k]).transpose(), w))
        return column_hnf(IntMatrix.hstack(*gens))

    def random_morphism(self, rng: random.Random, a: ObjectHandle,
                        b: ObjectHandle) -> MorphismHandle:
        na, nb = a.payload.ngens, b.payload.ngens
        if na == 0 or nb == 0:
            return self.zero_morphism(a, b)
        basis = self._hom_basis(a.payload, b.payload)
        vec = [0] * (na * nb)
        for j in range(basis.cols):
            c = rng.randint(-2, 2)
            if c:
                for i in range(na * nb):
                    vec[i] += c * basis.entries[i][j]
        m = IntMatrix(nb, na, tuple(tuple(vec[j * nb + i] for j in range(na))
                                    for i in range(nb)))
        return self.morphism(a, b, m, check=False)

    def random_automorphism(self, rng: random.Random, a: ObjectHandle) -> MorphismHandle:
        if a.payload.ngens == 0:
            return self.identity(a)
        one = self.identity(a)
        for _ in range(6):
            h = self.random_morphism(rng, a, a)
            cand = one + h
            if self.is_iso(cand):
                return cand
        return one

    def random_admissible(self, rng: random.Random, bounds: GenBounds) -> MorphismHandle:
        w = self.random_object(rng, bounds)
        e = self.random_admissible_epic_onto(rng, w, bounds)
        m = self.random_admissible_monic_from(rng, w, bounds)
        return m @ e

    def _random_summand(self, rng: random.Random, bounds: GenBounds) -> ObjectHandle:
        """Random complement for the split-data generators."""
        rng.randrange(0, bounds.max_gens + 1)   # unused rank draw, kept for seed stability
        return self.random_object(rng, bounds)

    def random_admissible_monic_from(self, rng: random.Random, a: ObjectHandle,
                                     bounds: GenBounds) -> MorphismHandle:
        bp = self.biproduct(a, self._random_summand(rng, bounds))
        t, _ = self._random_shear_pair(rng, bp)
        return t @ bp.inj1

    def random_admissible_epic_onto(self, rng: random.Random, b: ObjectHandle,
                                    bounds: GenBounds) -> MorphismHandle:
        ext = self._random_summand(rng, bounds)
        bp = self.biproduct(b, ext)
        _, tinv = self._random_shear_pair(rng, bp)
        w = self.random_morphism(rng, ext, b)
        p = bp.proj1 + (w @ bp.proj2)
        return p @ tinv


class FgabModel(PresentedModel):
    """Finitely generated abelian groups with all kernel-cokernel pairs."""

    model_id = "fgab"
    abelian = True

    def is_projective(self, a: ObjectHandle) -> bool:
        return not self.iso_invariants(a).torsion_factors

    def projective_cover_epi(self, a: ObjectHandle) -> MorphismHandle:
        n = a.payload.ngens
        return self.morphism(self.object(n), a, IntMatrix.identity(n), check=False)

    def random_ses(self, rng: random.Random, bounds: GenBounds) -> ShortExactSequence:
        b = self.random_object(rng, bounds)
        extra = self._rand_matrix(rng, b.payload.ngens,
                                  rng.randrange(0, bounds.max_gens + 1), 3)
        i = self.subobject(b, column_hnf(IntMatrix.hstack(extra, b.payload.relations)))
        return ShortExactSequence(i, self.cokernel(i))

    def random_admissible(self, rng: random.Random, bounds: GenBounds) -> MorphismHandle:
        a = self.random_object(rng, bounds)
        b = self.random_object(rng, bounds)
        return self.random_morphism(rng, a, b)

    def random_admissible_monic_from(self, rng: random.Random, a: ObjectHandle,
                                     bounds: GenBounds) -> MorphismHandle:
        # a general (not necessarily split) monic
        r = rng.randrange(0, bounds.max_gens + 1)
        n = a.payload.ngens
        u = self._rand_matrix(rng, n, r, 2)
        v = IntMatrix.from_rows(
            [[rng.choice([1, 1, 2, 3]) if i == j else (rng.randint(-2, 2) if i < j else 0)
              for j in range(r)] for i in range(r)], cols=r)
        rel = IntMatrix.vstack(
            IntMatrix.hstack(a.payload.relations, u),
            IntMatrix.hstack(IntMatrix.zeros(r, a.payload.relations.cols), v))
        x = self.object(n + r, rel)
        inj = IntMatrix.vstack(IntMatrix.identity(n), IntMatrix.zeros(r, n))
        return self.morphism(a, x, inj, check=False)

    def random_admissible_epic_onto(self, rng: random.Random, b: ObjectHandle,
                                    bounds: GenBounds) -> MorphismHandle:
        # quotient of free(n) + R by part of the kernel of the candidate
        # epic [I | w].  The kernel of [I | w] modulo rel(b) is generated by
        # the structured columns below, so no Hermite pass (and no entry
        # blowup) is needed.
        r = rng.randrange(0, bounds.max_gens + 1)
        n = b.payload.ngens
        rel = b.payload.relations
        w = self._rand_matrix(rng, n, r, 2)
        phat = IntMatrix.hstack(IntMatrix.identity(n), w)
        gens = IntMatrix.vstack(
            IntMatrix.hstack(-w, rel),
            IntMatrix.block_diag(IntMatrix.identity(r),
                                 IntMatrix.zeros(0, rel.cols)))
        take = [j for j in range(gens.cols) if rng.random() < 0.6]
        x = self.object(n + r, gens.take_columns(take))
        return self.morphism(x, b, phat, check=False)


class VectModel(FgabModel):
    """Finite-dimensional vector spaces over the prime field F_p.

    Objects reuse the presented-group grid with relations p * I, so this is
    the full abelian subcategory of fgab on the elementary abelian p-groups.
    """

    def __init__(self, p: int):
        try:
            _check_prime(p)
        except ValueError as exc:
            raise PreconditionError(str(exc)) from exc
        self.p = p
        self.model_id = f"vect({p})"

    def validate_object(self, payload: object) -> None:
        super().validate_object(payload)
        inv = payload.invariants
        if inv.free_rank or any(t != self.p for t in inv.torsion_factors):
            raise PreconditionError(f"object is not an F_{self.p} vector space")

    def object(self, ngens: int, relations: Optional[IntMatrix] = None) -> ObjectHandle:
        return super().object(ngens, IntMatrix.diagonal([self.p] * ngens)
                              if relations is None else relations)

    def random_object(self, rng: random.Random, bounds: GenBounds) -> ObjectHandle:
        return self.object(rng.randrange(0, bounds.max_gens + 1))

    # over a field every object is projective and every monic splits
    is_projective = PresentedModel.is_projective
    random_admissible_monic_from = PresentedModel.random_admissible_monic_from
    random_admissible_epic_onto = PresentedModel.random_admissible_epic_onto


class SplitModel(PresentedModel):
    """The split exact structure: the admissible monics and epics are the
    arrows with a one-sided inverse, and ``PresentedModel._analyze`` derives
    the admissible arrows from them."""

    def is_admissible_monic(self, f: MorphismHandle) -> bool:
        # a left inverse must exist
        return self.solve_left_factor(f, self.identity(f.dom)) is not None

    def is_admissible_epic(self, f: MorphismHandle) -> bool:
        # a right inverse must exist
        return self.solve_right_factor(f, self.identity(f.cod)) is not None

    def random_ses(self, rng: random.Random, bounds: GenBounds) -> ShortExactSequence:
        a = self.random_object(rng, bounds)
        c = self.random_object(rng, bounds)
        bp = self.biproduct(a, c)
        t, tinv = self._random_shear_pair(rng, bp)
        return ShortExactSequence(t @ bp.inj1, bp.proj2 @ tinv)


class FgabSplitModel(SplitModel):
    """Presented abelian groups with the split exact structure."""

    model_id = "fgab_split"


class FreeExactModel(PresentedModel):
    """F.g. free abelian groups; exact structure = exact in ambient abelian groups."""

    model_id = "free_exact"

    def validate_object(self, payload: object) -> None:
        super().validate_object(payload)
        if payload.relations.cols != 0:
            raise PreconditionError(f"{self.model_id} objects are free (no relations)")

    def quotient_by(self, a: ObjectHandle, cols: IntMatrix) -> MorphismHandle:
        # quotients of free groups stay free: divide by the saturation
        return super().quotient_by(a, saturation(cols))

    def is_admissible_monic(self, f: MorphismHandle) -> bool:
        return self._is_injective(f) and \
            all(d == 1 for d in smith_normal_form(f.matrix).invariant_factors)

    def random_object(self, rng: random.Random, bounds: GenBounds) -> ObjectHandle:
        return self.object(rng.randrange(0, bounds.max_gens + 1))

    def _random_summand(self, rng: random.Random, bounds: GenBounds) -> ObjectHandle:
        return self.random_object(rng, bounds)

    def random_morphism(self, rng: random.Random, a: ObjectHandle,
                        b: ObjectHandle) -> MorphismHandle:
        na, nb = a.payload.ngens, b.payload.ngens
        if na == 0 or nb == 0:
            return self.zero_morphism(a, b)
        return self.morphism(a, b, self._rand_matrix(rng, nb, na, 3), check=False)

    def random_automorphism(self, rng: random.Random, a: ObjectHandle) -> MorphismHandle:
        n = a.payload.ngens
        if n == 0:
            return self.identity(a)
        m = IntMatrix.identity(n)
        for _ in range(rng.randrange(1, 2 * n + 2)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            e = IntMatrix.from_rows(
                [[1 if r == c else (rng.choice([-2, -1, 1, 2]) if (r, c) == (i, j) else 0)
                  for c in range(n)] for r in range(n)])
            m = m @ e
        return self.morphism(a, a, m, check=False)

    def random_ses(self, rng: random.Random, bounds: GenBounds) -> ShortExactSequence:
        b = self.random_object(rng, bounds)
        cols = self._rand_matrix(rng, b.payload.ngens,
                                 rng.randrange(0, bounds.max_gens + 1), 3)
        i = self.subobject(b, saturation(cols))
        return ShortExactSequence(i, self.cokernel(i))

    def random_idempotent(self, rng: random.Random, a: ObjectHandle) -> MorphismHandle:
        n = a.payload.ngens
        k = rng.randrange(0, n + 1)
        proj = IntMatrix.diagonal([1] * k, rows=n, cols=n)
        t = self.random_automorphism(rng, a)
        return self.morphism(a, a, t.matrix @ proj @ unimodular_inverse(t.matrix),
                             check=False)

    def random_split_pair(self, rng: random.Random,
                          bounds: GenBounds) -> tuple[ObjectHandle, MorphismHandle]:
        a = self.random_object(rng, bounds)
        return a, self.random_idempotent(rng, a)

    def idempotent_edge(self) -> Optional[tuple[ObjectHandle, MorphismHandle]]:
        # the canonical rank-one coordinate projection on a rank-two object
        host = self.object(2)
        return host, self.morphism(host, host, IntMatrix.diagonal([1, 0]), check=False)


class FreeSplitModel(SplitModel, FreeExactModel):
    """F.g. free abelian groups with the split exact structure."""

    model_id = "free_split"


class EvenRankSplitModel(FreeSplitModel):
    """Even-rank free groups, split structure: WIC but not idempotent complete."""

    model_id = "even_rank_split"
    idempotent_complete = False

    def validate_object(self, payload: object) -> None:
        super().validate_object(payload)
        if payload.ngens % 2:
            raise ObjectAbsent("even_rank_split objects have even rank")

    def random_object(self, rng: random.Random, bounds: GenBounds) -> ObjectHandle:
        rng.randrange(0, bounds.max_gens + 1)   # unused free-rank draw, kept for seed stability
        return self.object(2 * rng.randrange(0, bounds.max_gens // 2 + 1))


@lru_cache(maxsize=None)
def fgab() -> FgabModel:
    return FgabModel()


@lru_cache(maxsize=None)
def fgab_split() -> FgabSplitModel:
    return FgabSplitModel()


@lru_cache(maxsize=None)
def vect_model(p: int) -> VectModel:
    return VectModel(p)


@lru_cache(maxsize=None)
def free_exact() -> FreeExactModel:
    return FreeExactModel()


@lru_cache(maxsize=None)
def free_split() -> FreeSplitModel:
    return FreeSplitModel()


@lru_cache(maxsize=None)
def even_rank_split() -> EvenRankSplitModel:
    return EvenRankSplitModel()


# -- object builders ----------------------------------------------------


def fgab_object(ngens: int, relations=None, model: Optional[PresentedModel] = None) -> ObjectHandle:
    m = model if model is not None else fgab()
    if relations is None:
        rel = IntMatrix.zeros(ngens, 0)
    elif isinstance(relations, IntMatrix):
        rel = relations
    else:
        rel = IntMatrix.from_rows(relations, cols=len(relations[0]) if relations else 0)
    if rel.rows != ngens:
        raise PreconditionError("relation rows must equal the generator count")
    return m.object(ngens, rel)


def cyclic(n: int, model: Optional[PresentedModel] = None) -> ObjectHandle:
    """Z/n; by convention cyclic(0) is Z (single zero relation)."""
    if n < 0:
        raise PreconditionError("cyclic takes a non-negative modulus")
    return fgab_object(1, [[n]], model=model)


def free(r: int, model: Optional[PresentedModel] = None) -> ObjectHandle:
    if r < 0:
        raise PreconditionError("free rank must be non-negative")
    m = model if model is not None else fgab()
    return m.object(r)


def vect(dim: int, p: int) -> ObjectHandle:
    return vect_model(p).object(dim)


# -- model-level convenience wrappers -------------------------------------


def iso_invariants(a: ObjectHandle) -> IsoInvariants:
    return a.model.iso_invariants(a)


def is_projective(a: ObjectHandle) -> bool:
    return a.model.is_projective(a)


def projective_cover_epi(a: ObjectHandle) -> MorphismHandle:
    return a.model.projective_cover_epi(a)


def random_object(rng: random.Random, bounds: GenBounds,
                  model: ExactStructureModel) -> ObjectHandle:
    return model.random_object(rng, bounds)


def random_morphism(rng: random.Random, a: ObjectHandle, b: ObjectHandle) -> MorphismHandle:
    return a.model.random_morphism(rng, a, b)


def random_ses(rng: random.Random, bounds: GenBounds,
               model: ExactStructureModel) -> ShortExactSequence:
    return model.random_ses(rng, bounds)


def random_admissible(rng: random.Random, bounds: GenBounds,
                      model: ExactStructureModel) -> MorphismHandle:
    return model.random_admissible(rng, bounds)
