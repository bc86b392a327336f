"""Handles, the exact-structure model interface, and generic constructions.

A *model* is a concrete exact category: it owns object payloads, decides
well-definedness of morphism matrices, and implements the admissibility
policy of its distinguished class of short exact sequences.  Everything
here that is not model-specific (biproduct plumbing, pushouts along
admissible monics, pullbacks along admissible epics) is written once
against the model primitives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .intlinalg import (
    CACHE_SIZE,   # re-exported: completion and callers read the bound here
    IntMatrix,
    MatrixEquationSystem,
    Pivots,
    memo,
    reduce_by_pivots,
    solve_columns_mod_lattice,
    solve_rows_mod_lattice,
)


class ExactCatError(Exception):
    """Base class for all package errors."""


class ModelMismatch(ExactCatError):
    """Operands belong to different model categories."""


class ComposabilityError(ExactCatError):
    """Arrows do not compose (codomain/domain disagreement)."""


class PreconditionError(ExactCatError):
    """A mathematical precondition of an operation is violated."""


class NotAdmissible(PreconditionError):
    """An arrow fails the admissibility required by the operation."""


class ObjectAbsent(PreconditionError):
    """A kernel, cokernel or image is not an object of the model (a legal outcome)."""


class InternalCheckError(ExactCatError):
    """A construction guaranteed by the axioms failed; indicates a bug."""


@dataclass(frozen=True, eq=False, slots=True)
class ObjectHandle:
    """An object of a model category: owning model plus model-specific payload."""

    model: "ExactStructureModel"
    payload: object

    @property
    def model_id(self) -> str:
        return self.model.model_id

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ObjectHandle):
            return NotImplemented
        return self.model_id == other.model_id and (
            self.payload is other.payload or self.payload == other.payload)

    def __hash__(self) -> int:
        return hash((self.model_id, self.payload))

    def __repr__(self) -> str:
        return f"Obj[{self.model_id}:{self.payload!r}]"


@dataclass(frozen=True, slots=True)
class MorphismHandle:
    """An arrow dom -> cod given by a matrix on generator coordinates.

    Invariant: ``matrix`` is the canonical representative of the arrow's
    coset modulo the codomain relations (``reduce_by_pivots`` against the
    codomain's pivots).  Three places build handles and keep it:
    ``morphism`` through ``_coerce_matrix``, ``_reduced`` for sums and
    composites, and the closed-form structure maps of ``biproduct``.

    So ``==`` (and ``same_as``) is arrow equality, and handles key the
    ``analyze`` and ``is_short_exact`` memos: the reduction gives one
    matrix per coset, and on a completion reducing a raw matrix gives what
    reducing its sandwich gives (see ``_reduced``).
    """

    dom: ObjectHandle
    cod: ObjectHandle
    matrix: IntMatrix

    @property
    def model(self) -> "ExactStructureModel":
        return self.dom.model

    def same_as(self, other: "MorphismHandle") -> bool:
        return self == other

    def __matmul__(self, other: "MorphismHandle") -> "MorphismHandle":
        return self.model.compose(self, other)

    def __add__(self, other: "MorphismHandle") -> "MorphismHandle":
        return self.model.add(self, other)

    def __sub__(self, other: "MorphismHandle") -> "MorphismHandle":
        return self.model.subtract(self, other)

    def __neg__(self) -> "MorphismHandle":
        return self.model.negate(self)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __repr__(self) -> str:
        return f"Mor[{self.dom!r} -> {self.cod!r}; {self.matrix!r}]"


@dataclass(frozen=True, slots=True)
class IsoInvariants:
    """Invariant factors: free rank plus the ascending torsion chain."""

    free_rank: int
    torsion_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.torsion_factors, self.torsion_factors[1:]):
            if b % a:
                raise ValueError("torsion factors must form a divisibility chain")


@dataclass(frozen=True, eq=False)
class ShortExactSequence:
    """A kernel-cokernel pair (i, p) distinguished by the owning model."""

    i: MorphismHandle
    p: MorphismHandle

    def __post_init__(self) -> None:
        if self.i.cod != self.p.dom:
            raise ComposabilityError("i and p are not composable")

    @property
    def model(self) -> "ExactStructureModel":
        return self.i.model

    @property
    def sub(self) -> ObjectHandle:
        return self.i.dom

    @property
    def mid(self) -> ObjectHandle:
        return self.i.cod

    @property
    def quot(self) -> ObjectHandle:
        return self.p.cod


def ses(i: MorphismHandle, p: MorphismHandle, check: bool = True) -> ShortExactSequence:
    s = ShortExactSequence(i, p)
    if check and not i.model.is_short_exact(i, p):
        raise PreconditionError("the pair (i, p) is not short exact in this model")
    return s


class Analysis:
    """Kernel / coimage-epic / image-monic / cokernel data of an admissible arrow.

    The kernel arrow, the cokernel arrow and the image factorisation
    (coimage epic, image monic) are each built by the callable given for
    it when first read, and kept.  Most readers want the kernel-cokernel
    half or the image half alone, so the other is never built.
    """

    def __init__(self, kernel: Callable[[], MorphismHandle],
                 cokernel: Callable[[], MorphismHandle],
                 factorisation: Callable[[], tuple[MorphismHandle, MorphismHandle]]):
        self._kernel, self._cokernel, self._factorisation = kernel, cokernel, factorisation

    @cached_property
    def kernel_arrow(self) -> MorphismHandle:
        return self._kernel()

    @cached_property
    def cokernel_arrow(self) -> MorphismHandle:
        return self._cokernel()

    @cached_property
    def _image(self) -> tuple[MorphismHandle, MorphismHandle]:
        return self._factorisation()

    @property
    def coimage_epic(self) -> MorphismHandle:
        return self._image[0]

    @property
    def image_monic(self) -> MorphismHandle:
        return self._image[1]

    @property
    def kernel_object(self) -> ObjectHandle:
        return self.kernel_arrow.dom

    @property
    def image_object(self) -> ObjectHandle:
        return self.image_monic.dom

    @property
    def cokernel_object(self) -> ObjectHandle:
        return self.cokernel_arrow.cod


@dataclass(frozen=True, eq=False, slots=True)
class BiproductData:
    ob: ObjectHandle
    inj1: MorphismHandle
    inj2: MorphismHandle
    proj1: MorphismHandle
    proj2: MorphismHandle


@dataclass(frozen=True)
class GenBounds:
    """Size bounds for the random generators of the law harness.

    Every law report records ``max_entry`` in its config, but no generator
    reads it; it stays because the ``check`` golden and ``bench/`` record it.
    """

    max_gens: int = 4
    max_rel_entry: int = 9
    max_entry: int = 9


class MorphismSystem:
    """Linear system whose unknowns are morphisms of a fixed model.

    Wraps :class:`MatrixEquationSystem` and adds, for every unknown
    arrow X -> Y, the constraint that it carries the relation lattice of
    X into the relation lattice of Y; without it a raw matrix solution
    need not be a morphism at all.  Only systems coupling several unknowns
    need this, and of those only what the degreewise pass of
    ``find_null_homotopy`` cannot build; a single unknown factor is found
    by ``solve_right_factor`` or ``solve_left_factor`` without assembling
    a system.
    """

    def __init__(self, model: "ExactStructureModel"):
        self.model = model
        self.sys = MatrixEquationSystem()
        self._unknowns: dict[str, tuple[ObjectHandle, ObjectHandle]] = {}

    def unknown_morphism(self, name: str, dom: ObjectHandle, cod: ObjectHandle) -> None:
        m = self.model
        rows, cols = m._gens(cod.payload), m._gens(dom.payload)
        self.sys.unknown(name, rows, cols)
        self._unknowns[name] = (dom, cod)
        rel_dom = m._rel(dom.payload)
        if rel_dom.cols:
            self.sys.equation([(name, IntMatrix.identity(rows), rel_dom)],
                              IntMatrix.zeros(rows, rel_dom.cols),
                              mod=m._rel(cod.payload))

    def equation(self, terms: Sequence[tuple[str, IntMatrix, IntMatrix]],
                 rhs: IntMatrix, cod: ObjectHandle) -> None:
        self.sys.equation(terms, rhs, mod=self.model._rel(cod.payload))

    def solve(self, rng: Optional[random.Random] = None,
              amplitude: int = 2) -> Optional[dict[str, MorphismHandle]]:
        sol = self.sys.solve(rng=rng, amplitude=amplitude)
        if sol is None:
            return None
        return {name: self.model.morphism(dom, cod, sol[name], check=False)
                for name, (dom, cod) in self._unknowns.items()}


class ExactStructureModel:
    """Base class for model categories; payload-level matrix plumbing lives here.

    Subclasses fill in the object layer, the admissibility tests of their
    exact structure and the random generators.  Code outside the models
    asks what a model can do only through the declared capabilities below.
    """

    model_id: str = "abstract"
    idempotent_complete: bool = True
    weakly_idempotent_complete: bool = True

    abelian: bool = False
    """Every kernel-cokernel pair is admissible: the model is an abelian
    category with its maximal exact structure (fgab, vect and their
    completions)."""

    presented: bool = False
    """Objects are group presentations: the model has ``object(ngens)``,
    ``subobject``, ``quotient_by`` and the lattice kernels behind homology
    objects and Hom objects."""

    # -- object layer hooks -------------------------------------------

    def validate_object(self, payload: object) -> None:
        raise NotImplementedError

    def _gens(self, payload: object) -> int:
        raise NotImplementedError

    def _rel(self, payload: object) -> IntMatrix:
        raise NotImplementedError

    def _pivots(self, payload: object) -> Pivots:
        """The pivots of ``_rel(payload)``, which arrows into it reduce by."""
        raise NotImplementedError

    def _validate_morphism_matrix(self, dom: ObjectHandle, cod: ObjectHandle,
                                  matrix: IntMatrix) -> None:
        raise NotImplementedError

    def _coerce_matrix(self, dom: ObjectHandle, cod: ObjectHandle,
                       matrix: IntMatrix) -> IntMatrix:
        return reduce_by_pivots(matrix, self._pivots(cod.payload))

    def zero_object(self) -> ObjectHandle:
        raise NotImplementedError

    def is_zero_object(self, a: ObjectHandle) -> bool:
        inv = self.iso_invariants(a)
        return inv.free_rank == 0 and not inv.torsion_factors

    def iso_invariants(self, a: ObjectHandle) -> IsoInvariants:
        raise NotImplementedError

    # -- morphism layer ------------------------------------------------

    def _obj(self, payload: object) -> ObjectHandle:
        self.validate_object(payload)
        return ObjectHandle(self, payload)

    def morphism(self, dom: ObjectHandle, cod: ObjectHandle, matrix: IntMatrix,
                 check: bool = True) -> MorphismHandle:
        self._require_same_model(dom, cod)
        if matrix.rows != self._gens(cod.payload) or matrix.cols != self._gens(dom.payload):
            raise ComposabilityError(
                f"matrix shape {matrix.rows}x{matrix.cols} does not map "
                f"{self._gens(dom.payload)} generators to {self._gens(cod.payload)}")
        matrix = self._coerce_matrix(dom, cod, matrix)
        if check:
            self._validate_morphism_matrix(dom, cod, matrix)
        return MorphismHandle(dom, cod, matrix)

    @memo
    def identity(self, a: ObjectHandle) -> MorphismHandle:
        # on a completion the sandwich p 1 p = p p reduces as p does
        return self.morphism(a, a, IntMatrix.identity(self._gens(a.payload)), check=False)

    def zero_morphism(self, dom: ObjectHandle, cod: ObjectHandle) -> MorphismHandle:
        return self.morphism(dom, cod,
                             IntMatrix.zeros(self._gens(cod.payload), self._gens(dom.payload)),
                             check=False)

    # Sums and composites skip ``morphism`` and its ``_coerce_matrix``.  On a
    # completion an arrow (A, p) -> (B, q) stores x = q m p + R a with R the
    # relations of B; q and p carry relations into relations, so q x = x and
    # x p = x modulo R.  Sums and negatives keep both congruences, and so do
    # composites, since every arrow carries the relations of its domain into
    # those of its codomain.  The sandwich of any result is thus congruent
    # to the result itself, and the canonical reduction depends only on the
    # coset: reducing the raw matrix gives exactly what ``morphism`` stores.

    def _reduced(self, dom: ObjectHandle, cod: ObjectHandle,
                 raw: IntMatrix) -> MorphismHandle:
        return MorphismHandle(dom, cod, reduce_by_pivots(raw, self._pivots(cod.payload)))

    def compose(self, f: MorphismHandle, g: MorphismHandle) -> MorphismHandle:
        """The composite f after g."""
        if f.dom != g.cod:
            raise ComposabilityError("compose: inner objects disagree")
        return self._reduced(g.dom, f.cod, f.matrix @ g.matrix)

    def add(self, f: MorphismHandle, g: MorphismHandle) -> MorphismHandle:
        if f.dom != g.dom or f.cod != g.cod:
            raise ComposabilityError("sum of arrows with different endpoints")
        return self._reduced(f.dom, f.cod, f.matrix + g.matrix)

    def subtract(self, f: MorphismHandle, g: MorphismHandle) -> MorphismHandle:
        if f.dom != g.dom or f.cod != g.cod:
            raise ComposabilityError("difference of arrows with different endpoints")
        return self._reduced(f.dom, f.cod, f.matrix - g.matrix)

    def negate(self, f: MorphismHandle) -> MorphismHandle:
        return self._reduced(f.dom, f.cod, -f.matrix)

    # -- solving -------------------------------------------------------

    def solve_right_factor(self, m: MorphismHandle, t: MorphismHandle,
                           rng: Optional[random.Random] = None) -> Optional[MorphismHandle]:
        """u with m o u = t (factor t through m on the right)."""
        if m.cod != t.cod:
            raise ComposabilityError("right factor: codomains disagree")
        u = solve_columns_mod_lattice(m.matrix, t.matrix, self._rel(m.cod.payload),
                                      dom_rel=self._rel(t.dom.payload),
                                      cod_rel=self._rel(m.dom.payload), rng=rng)
        return self.morphism(t.dom, m.dom, u, check=False) if u is not None else None

    def solve_left_factor(self, e: MorphismHandle, t: MorphismHandle,
                          rng: Optional[random.Random] = None) -> Optional[MorphismHandle]:
        """h with h o e = t (factor t through e on the left)."""
        if e.dom != t.dom:
            raise ComposabilityError("left factor: domains disagree")
        h = solve_rows_mod_lattice(e.matrix, t.matrix, self._rel(t.cod.payload),
                                   dom_rel=self._rel(e.cod.payload), rng=rng)
        return self.morphism(e.cod, t.cod, h, check=False) if h is not None else None

    def inverse(self, f: MorphismHandle) -> Optional[MorphismHandle]:
        # a left inverse of an isomorphism is its inverse
        g = self.solve_left_factor(f, self.identity(f.dom))
        if g is None or not (f @ g).same_as(self.identity(f.cod)):
            return None
        return g

    # -- structure hooks ------------------------------------------------

    def biproduct_payload(self, a: object, b: object) -> object:
        raise NotImplementedError

    @memo
    def biproduct(self, a: ObjectHandle, b: ObjectHandle) -> BiproductData:
        # The structure maps are blocks of 1_a, 1_b and zeros, already
        # canonical: the relations of a + b are block diagonal, so is their
        # Hermite basis, so [x; 0] reduces to [reduce(x); 0] and a row block
        # reduces columnwise.  On a completion the sandwich of [1; 0] is
        # [p_a p_a; 0], congruent to [p_a; 0], and 1_a is the reduced p_a.
        self._require_same_model(a, b)
        ab = self._obj(self.biproduct_payload(a.payload, b.payload))
        one_a, one_b = self.identity(a).matrix, self.identity(b).matrix
        z_ab = IntMatrix.zeros(one_a.rows, one_b.cols)
        z_ba = IntMatrix.zeros(one_b.rows, one_a.cols)
        return BiproductData(
            ab,
            MorphismHandle(a, ab, IntMatrix.vstack(one_a, z_ba)),
            MorphismHandle(b, ab, IntMatrix.vstack(z_ab, one_b)),
            MorphismHandle(ab, a, IntMatrix.hstack(one_a, z_ab)),
            MorphismHandle(ab, b, IntMatrix.hstack(z_ba, one_b)),
        )

    def kernel(self, f: MorphismHandle) -> Optional[MorphismHandle]:
        raise NotImplementedError

    def cokernel(self, f: MorphismHandle) -> Optional[MorphismHandle]:
        raise NotImplementedError

    @memo
    def analyze(self, f: MorphismHandle) -> Optional[Analysis]:
        return self._analyze(f)

    def _analyze(self, f: MorphismHandle) -> Optional[Analysis]:
        raise NotImplementedError

    def is_admissible_monic(self, f: MorphismHandle) -> bool:
        raise NotImplementedError

    def is_admissible_epic(self, f: MorphismHandle) -> bool:
        raise NotImplementedError

    @memo
    def is_short_exact(self, i: MorphismHandle, p: MorphismHandle) -> bool:
        return i.cod == p.dom and self._is_short_exact(i, p)

    def _is_short_exact(self, i: MorphismHandle, p: MorphismHandle) -> bool:
        raise NotImplementedError

    def is_exact_at(self, u: MorphismHandle, v: MorphismHandle) -> bool:
        """Exactness at the joint of composable arrows u, v, which must be
        admissible: the image monic of u and the coimage epic of v are short
        exact."""
        raise NotImplementedError

    def is_projective(self, a: ObjectHandle) -> bool:
        raise NotImplementedError

    def projective_cover_epi(self, a: ObjectHandle) -> MorphismHandle:
        raise NotImplementedError

    # -- random generators ----------------------------------------------

    def random_object(self, rng: random.Random, bounds: GenBounds) -> ObjectHandle:
        raise NotImplementedError

    def random_morphism(self, rng: random.Random, a: ObjectHandle,
                        b: ObjectHandle) -> MorphismHandle:
        raise NotImplementedError

    def random_ses(self, rng: random.Random, bounds: GenBounds) -> ShortExactSequence:
        raise NotImplementedError

    def random_admissible(self, rng: random.Random, bounds: GenBounds) -> MorphismHandle:
        raise NotImplementedError

    def random_admissible_monic_from(self, rng: random.Random, a: ObjectHandle,
                                     bounds: GenBounds) -> MorphismHandle:
        raise NotImplementedError

    def random_admissible_epic_onto(self, rng: random.Random, b: ObjectHandle,
                                    bounds: GenBounds) -> MorphismHandle:
        raise NotImplementedError

    def random_automorphism(self, rng: random.Random, a: ObjectHandle) -> MorphismHandle:
        raise NotImplementedError

    def _random_shear_pair(self, rng: random.Random,
                           bp: "BiproductData") -> tuple[MorphismHandle, MorphismHandle]:
        """Automorphism of a biproduct with a closed-form inverse.

        T = (1 f; 0 1)(1 0; g 1) = (1+fg f; g 1) for random f, g, and
        T^-1 = (1 -f; -g 1+gf); each block matrix is reduced once, which
        stores what composing the factors would (see ``_reduced``).
        """
        a, c = bp.inj1.dom, bp.inj2.dom
        f = self.random_morphism(rng, c, a).matrix
        g = self.random_morphism(rng, a, c).matrix
        one_a, one_c = self.identity(a).matrix, self.identity(c).matrix
        t = IntMatrix.vstack(IntMatrix.hstack(one_a + f @ g, f), IntMatrix.hstack(g, one_c))
        tinv = IntMatrix.vstack(IntMatrix.hstack(one_a, -f), IntMatrix.hstack(-g, one_c + g @ f))
        return self._reduced(bp.ob, bp.ob, t), self._reduced(bp.ob, bp.ob, tinv)

    def random_split_pair(self, rng: random.Random,
                          bounds: GenBounds) -> tuple[ObjectHandle, MorphismHandle]:
        """A random object with a random idempotent on it: a coordinate
        projection of a random biproduct, conjugated by a shear."""
        bp = self.biproduct(self.random_object(rng, bounds),
                            self.random_object(rng, bounds))
        t, tinv = self._random_shear_pair(rng, bp)
        return bp.ob, t @ bp.inj1 @ bp.proj1 @ tinv

    def idempotent_edge(self) -> Optional[tuple[ObjectHandle, MorphismHandle]]:
        """A fixed object with a nontrivial idempotent for the edge battery
        of the idempotent laws, or None where those laws do not run."""
        return None

    # -- misc -----------------------------------------------------------

    def _require_same_model(self, *items) -> None:
        for it in items:
            m = it.model if isinstance(it, (ObjectHandle, MorphismHandle)) else it
            if m is not self and m.model_id != self.model_id:
                raise ModelMismatch(
                    f"operands from model {m.model_id!r} used in model {self.model_id!r}")


# -- module-level generic operations -----------------------------------


def is_short_exact(i: MorphismHandle, p: MorphismHandle) -> bool:
    if i.cod != p.dom:
        raise ComposabilityError("is_short_exact: arrows do not compose")
    return i.model.is_short_exact(i, p)


def is_admissible_monic(f: MorphismHandle) -> bool:
    return f.model.is_admissible_monic(f)


def is_admissible_epic(f: MorphismHandle) -> bool:
    return f.model.is_admissible_epic(f)


def kernel(f: MorphismHandle) -> Optional[MorphismHandle]:
    return f.model.kernel(f)


def cokernel(f: MorphismHandle) -> Optional[MorphismHandle]:
    return f.model.cokernel(f)


def analyze(f: MorphismHandle) -> Optional[Analysis]:
    return f.model.analyze(f)


def biproduct(a: ObjectHandle, b: ObjectHandle) -> BiproductData:
    return a.model.biproduct(a, b)


@dataclass(frozen=True, eq=False)
class PushoutResult:
    ob: ObjectHandle            # B'
    monic: MorphismHandle       # i': A' >-> B'
    map: MorphismHandle         # f': B -> B'
    cokernel_arrow: MorphismHandle  # B + A' ->> B'
    column: MorphismHandle      # (i; -f): A -> B + A'
    sum: BiproductData


def pushout_along_monic(i: MorphismHandle, f: MorphismHandle) -> PushoutResult:
    """Push an admissible monic i: A >-> B out along f: A -> A'.

    The pushout is the cokernel of (i, -f): A -> B + A'; the blocks of the
    cokernel arrow are the new map f': B -> B' and the new admissible
    monic i': A' >-> B'.
    """
    model = i.model
    model._require_same_model(i, f)
    if i.dom != f.dom:
        raise ComposabilityError("pushout: the two arrows must share a domain")
    if not model.is_admissible_monic(i):
        raise NotAdmissible("pushout requires an admissible monic")
    bp = model.biproduct(i.cod, f.cod)
    column = (bp.inj1 @ i) - (bp.inj2 @ f)
    q = model.cokernel(column)
    if q is None:
        raise InternalCheckError("pushout cokernel does not exist in this model")
    fprime = q @ bp.inj1
    iprime = q @ bp.inj2
    if not model.is_admissible_monic(iprime):
        raise InternalCheckError("pushed-out arrow failed the admissible-monic check")
    if not (fprime @ i).same_as(iprime @ f):
        raise InternalCheckError("pushout square does not commute")
    return PushoutResult(q.cod, iprime, fprime, q, column, bp)


@dataclass(frozen=True, eq=False)
class PullbackResult:
    ob: ObjectHandle            # A'
    epic: MorphismHandle        # p': A' ->> B'
    map: MorphismHandle         # g': A' -> A
    kernel_arrow: MorphismHandle  # A' >-> A + B'
    row: MorphismHandle         # (p, -g): A + B' -> B
    sum: BiproductData


def pullback_along_epic(p: MorphismHandle, g: MorphismHandle) -> PullbackResult:
    """Pull an admissible epic p: A ->> B back along g: B' -> B."""
    model = p.model
    model._require_same_model(p, g)
    if p.cod != g.cod:
        raise ComposabilityError("pullback: the two arrows must share a codomain")
    if not model.is_admissible_epic(p):
        raise NotAdmissible("pullback requires an admissible epic")
    bp = model.biproduct(p.dom, g.dom)
    row = (p @ bp.proj1) - (g @ bp.proj2)
    k = model.kernel(row)
    if k is None:
        raise InternalCheckError("pullback kernel does not exist in this model")
    gprime = bp.proj1 @ k
    pprime = bp.proj2 @ k
    if not model.is_admissible_epic(pprime):
        raise InternalCheckError("pulled-back arrow failed the admissible-epic check")
    if not (p @ gprime).same_as(g @ pprime):
        raise InternalCheckError("pullback square does not commute")
    return PullbackResult(k.dom, pprime, gprime, k, row, bp)
