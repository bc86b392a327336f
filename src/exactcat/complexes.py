"""Bounded chain complexes: cones, translation, strict triangles, homotopy
solving, acyclicity certificates, homology and quasi-isomorphism tests.

H^n is the model's subquotient of the cycles (the kernel lattice of d^n)
modulo [d^{n-1} | relations]; induced maps are the coordinates of the
moved cycle representatives.

Complexes are cochain-indexed (differentials raise degree) on a finite
window and are zero outside it.  Sign conventions: translation negates the
differential, and the cone of f: A -> B has degree-n component
A^{n+1} + B^n with differential (-d_A, 0; f, d_B).
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from typing import Optional, Sequence

from .diagrams import SesMorphism, _factor_through_pushout
from .intlinalg import IntMatrix
from .kernel import (
    Analysis,
    BiproductData,
    InternalCheckError,
    MorphismHandle,
    MorphismSystem,
    ObjectHandle,
    PreconditionError,
    ShortExactSequence,
)
from .models import Subquotient


@dataclass(frozen=True, eq=False)
class ChainComplex:
    """Objects indexed by a finite window [lo, hi] with d^{n+1} d^n = 0."""

    model: object
    lo: int
    components: tuple[ObjectHandle, ...]
    differentials: tuple[MorphismHandle, ...]

    @property
    def hi(self) -> int:
        return self.lo + len(self.components) - 1

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def component(self, n: int) -> ObjectHandle:
        if self.lo <= n <= self.hi:
            return self.components[n - self.lo]
        return self.model.zero_object()

    def differential(self, n: int) -> MorphismHandle:
        if self.lo <= n <= self.hi - 1:
            return self.differentials[n - self.lo]
        return self.model.zero_morphism(self.component(n), self.component(n + 1))

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)


def chain_complex(model, lo: int, components, differentials,
                  check: bool = True) -> ChainComplex:
    components = tuple(components)
    differentials = tuple(differentials)
    if len(differentials) != max(len(components) - 1, 0):
        raise PreconditionError("a window of k objects carries k-1 differentials, "
                                "and an empty window none")
    x = ChainComplex(model, lo, components, differentials)
    if check:
        for n, d in zip(range(lo, x.hi), differentials):
            if d.dom != x.component(n) or d.cod != x.component(n + 1):
                raise PreconditionError(f"differential at degree {n} has wrong endpoints")
        for n in range(lo, x.hi - 1):
            if not (x.differential(n + 1) @ x.differential(n)).is_zero():
                raise PreconditionError(f"d^2 != 0 at degree {n}")
    return x


def object_as_complex(a: ObjectHandle, degree: int = 0) -> ChainComplex:
    return ChainComplex(a.model, degree, (a,), ())


@dataclass(frozen=True, eq=False)
class ChainMap:
    """Degreewise map of complexes commuting with the differentials."""

    source: ChainComplex
    target: ChainComplex
    comps: dict[int, MorphismHandle]

    @property
    def model(self):
        return self.source.model

    def component(self, n: int) -> MorphismHandle:
        if n in self.comps:
            return self.comps[n]
        return self.model.zero_morphism(self.source.component(n),
                                        self.target.component(n))

    def _degreewise(self, op, other: "ChainMap", source: ChainComplex) -> "ChainMap":
        degs = set(self.comps) | set(other.comps)
        return chain_map(source, self.target,
                         {n: op(self.component(n), other.component(n)) for n in degs},
                         check=False)

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        return self._degreewise(operator.matmul, other, other.source)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        return self._degreewise(operator.add, other, self.source)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self._degreewise(operator.sub, other, self.source)

    def same_as(self, other: "ChainMap") -> bool:
        degs = set(self.comps) | set(other.comps)
        return all(self.component(n).same_as(other.component(n)) for n in degs)

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.comps.values())


def chain_map(source: ChainComplex, target: ChainComplex,
              comps: dict[int, MorphismHandle], check: bool = True) -> ChainMap:
    comps = {n: f for n, f in comps.items() if f.matrix.rows or f.matrix.cols}
    f = ChainMap(source, target, comps)
    if check:
        for n, g in comps.items():
            if g.dom != source.component(n) or g.cod != target.component(n):
                raise PreconditionError(f"chain map component at {n} has wrong endpoints")
        for n in range(min(source.lo, target.lo) - 1, max(source.hi, target.hi) + 1):
            lhs = target.differential(n) @ f.component(n)
            rhs = f.component(n + 1) @ source.differential(n)
            if not lhs.same_as(rhs):
                raise PreconditionError(f"chain map does not commute with d at degree {n}")
    return f


def identity_chain_map(x: ChainComplex) -> ChainMap:
    return ChainMap(x, x, {n: x.model.identity(x.component(n)) for n in x.degrees()})


def zero_chain_map(x: ChainComplex, y: ChainComplex) -> ChainMap:
    return ChainMap(x, y, {})


@dataclass(frozen=True, eq=False)
class ChainHomotopy:
    """Degree -1 data h with f = d h + h d for the associated map f."""

    source: ChainComplex
    target: ChainComplex
    comps: dict[int, MorphismHandle]   # h^n : A^n -> B^{n-1}

    def component(self, n: int) -> MorphismHandle:
        if n in self.comps:
            return self.comps[n]
        return self.source.model.zero_morphism(self.source.component(n),
                                               self.target.component(n - 1))


def verify_homotopy(f: ChainMap, h: ChainHomotopy) -> bool:
    a, b = f.source, f.target
    for n in range(min(a.lo, b.lo) - 1, max(a.hi, b.hi) + 2):
        rhs = (b.differential(n - 1) @ h.component(n)) + \
              (h.component(n + 1) @ a.differential(n))
        if not f.component(n).same_as(rhs):
            return False
    return True


def translate(x: ChainComplex, k: int) -> ChainComplex:
    """k-fold translation: components shift by k, differential picks (-1)^k."""
    if not x.components:
        return x
    sign = -1 if k % 2 else 1
    comps = x.components
    diffs = tuple(d.model.morphism(d.dom, d.cod, d.matrix.scale(sign), check=False)
                  for d in x.differentials)
    return ChainComplex(x.model, x.lo - k, comps, diffs)


@dataclass(frozen=True, eq=False)
class ConeData:
    complex: ChainComplex
    parts: dict[int, BiproductData]   # cone^n = A^{n+1} + B^n


def mapping_cone_data(f: ChainMap) -> ConeData:
    a, b = f.source, f.target
    model = f.model
    lo = min(a.lo - 1, b.lo)
    hi = max(a.hi - 1, b.hi)
    parts: dict[int, BiproductData] = {}
    comps = []
    for n in range(lo, hi + 1):
        bp = model.biproduct(a.component(n + 1), b.component(n))
        parts[n] = bp
        comps.append(bp.ob)
    diffs = []
    for n in range(lo, hi):
        src, dst = parts[n], parts[n + 1]
        d = (dst.inj1 @ a.differential(n + 1).model.negate(a.differential(n + 1)) @ src.proj1) \
            + (dst.inj2 @ f.component(n + 1) @ src.proj1) \
            + (dst.inj2 @ b.differential(n) @ src.proj2)
        diffs.append(d)
    cone = chain_complex(model, lo, comps, diffs, check=True)
    return ConeData(cone, parts)


def mapping_cone(f: ChainMap) -> ChainComplex:
    return mapping_cone_data(f).complex


@dataclass(frozen=True, eq=False)
class StrictTriangle:
    """f, the cone inclusion i_f and the cone projection j_f onto the translate."""

    f: ChainMap
    inclusion: ChainMap        # B -> cone(f), components (0; 1)
    projection: ChainMap       # cone(f) -> Sigma A, components (1, 0)
    cone: ConeData


def strict_triangle(f: ChainMap) -> StrictTriangle:
    data = mapping_cone_data(f)
    cone = data.complex
    b = f.target
    inc = chain_map(b, cone,
                    {n: data.parts[n].inj2 for n in data.parts
                     if b.lo <= n <= b.hi},
                    check=True)
    sa = translate(f.source, 1)
    proj = chain_map(cone, sa,
                     {n: data.parts[n].proj1 for n in data.parts},
                     check=True)
    return StrictTriangle(f, inc, proj, data)


def find_null_homotopy(f: ChainMap) -> Optional[ChainHomotopy]:
    """Witness h with f = d h + h d, or None when no witness exists.

    h is built from the top degree down; greedy steps are not complete over
    the integers, so after a failed one all degrees are solved together.
    """
    model, a, b = f.model, f.source, f.target
    degrees = range(min(a.lo, b.lo), max(a.hi, b.hi) + 1)
    # No step fails in the two cases the library needs.  By the step at n + 1,
    # t = f^n - h^{n+1} d_A^n has d_B^n t = 0.  If d s + s d = 1 on B (tests
    # of contractibility), t = d (s t).  If f = l - l' for two lifts between
    # projective resolutions (the comparison theorem), t at degree 0 also dies
    # under the augmentation; the augmented target is exact, so t lies in Z^n,
    # B^{n-1} covers Z^n by an admissible epic, and the projective A^n lifts t.
    h = ChainHomotopy(a, b, {})
    for n in reversed(degrees):
        hn = model.solve_right_factor(
            b.differential(n - 1), f.component(n) - h.component(n + 1) @ a.differential(n))
        if hn is None:
            h = _coupled_null_homotopy(f, degrees)
            break
        if hn.matrix.rows and hn.matrix.cols:   # an end without generators: zero
            h.comps[n] = hn
    if h is not None and not verify_homotopy(f, h):
        raise InternalCheckError("homotopy solver returned an invalid witness")
    return h


def _coupled_null_homotopy(f: ChainMap, degrees: range) -> Optional[ChainHomotopy]:
    model, a, b = f.model, f.source, f.target
    sys, unknowns = MorphismSystem(model), range(degrees.start, degrees.stop + 1)
    for n in unknowns:
        sys.unknown_morphism(f"h{n}", a.component(n), b.component(n - 1))
    for n in degrees:
        rows, cols = model._gens(b.component(n).payload), model._gens(a.component(n).payload)
        sys.equation([(f"h{n}", b.differential(n - 1).matrix, IntMatrix.identity(cols)),
                      (f"h{n + 1}", IntMatrix.identity(rows), a.differential(n).matrix)],
                     f.component(n).matrix, cod=b.component(n))
    sol = sys.solve()
    return None if sol is None else ChainHomotopy(a, b, {
        n: g for n in unknowns if (g := sol[f"h{n}"]).matrix.rows and g.matrix.cols})


class _ImageParts(Mapping):
    """Degree -> coimage epic or image monic of the analysis at that degree,
    read off the analysis (and so built) when first asked for."""

    def __init__(self, analyses: dict[int, Analysis], part: Callable[[Analysis], MorphismHandle]):
        self._analyses, self._part = analyses, part

    def __getitem__(self, n: int) -> MorphismHandle:
        return self._part(self._analyses[n])

    def __iter__(self) -> Iterator[int]:
        return iter(self._analyses)

    def __len__(self) -> int:
        return len(self._analyses)


@dataclass(frozen=True, eq=False)
class AcyclicityCertificate:
    """Factorization data witnessing acyclicity.

    For each n the differential d^{n-1} factors as the epic
    A^{n-1} ->> Z^n followed by the monic Z^n >-> A^n, and each
    Z^n >-> A^n ->> Z^{n+1} is short exact.  The epics and monics are the
    splice a construction built, or, from ``is_acyclic``, the image
    factorisations of the differentials, each built when first read.
    """

    complex: ChainComplex
    epics: Mapping[int, MorphismHandle]
    monics: Mapping[int, MorphismHandle]

    @property
    def z_objects(self) -> dict[int, ObjectHandle]:
        return {n: m.dom for n, m in self.monics.items()}

    def z_object(self, n: int) -> ObjectHandle:
        m = self.monics.get(n)
        return self.complex.model.zero_object() if m is None else m.dom

    def monic(self, n: int) -> MorphismHandle:
        """Z^n >-> A^n; the zero arrow outside the window."""
        m = self.monics.get(n)
        if m is None:
            m = self.complex.model.zero_morphism(self.z_object(n), self.complex.component(n))
        return m

    def epic(self, n: int) -> MorphismHandle:
        """A^{n-1} ->> Z^n; the zero arrow outside the window."""
        e = self.epics.get(n)
        if e is None:
            e = self.complex.model.zero_morphism(self.complex.component(n - 1), self.z_object(n))
        return e


def _spliced(differentials: Sequence[MorphismHandle]) -> Optional[list[Analysis]]:
    """Analyses of consecutive differentials when they splice exactly, or None.

    Each differential must be admissible (have an analysis), and the model
    must find every joint exact (``is_exact_at``, whose inputs the analyses
    have just shown admissible).
    """
    analyses = []
    for d in differentials:
        an = d.model.analyze(d)
        if an is None:
            return None
        analyses.append(an)
    if not all(u.model.is_exact_at(u, v) for u, v in zip(differentials, differentials[1:])):
        return None
    return analyses


def is_acyclic(x: ChainComplex) -> Optional[AcyclicityCertificate]:
    """Certificate of acyclicity, or None.

    Works in any model: each differential must be admissible, and the
    image-monic of one differential with the coimage-epic of the next must
    form a short exact sequence, including at the window boundary against
    the zero padding.
    """
    analyses = _spliced([x.differential(n) for n in range(x.lo - 1, x.hi + 1)])
    if analyses is None:
        return None
    # Z^n is the image of d^{n-1}
    parts = dict(zip(range(x.lo, x.hi + 2), analyses))
    return AcyclicityCertificate(x, _ImageParts(parts, operator.attrgetter("coimage_epic")),
                                 _ImageParts(parts, operator.attrgetter("image_monic")))


def _certified(x: ChainComplex, epics: dict[int, MorphismHandle],
               monics: dict[int, MorphismHandle]) -> Optional[AcyclicityCertificate]:
    """Certificate of x from the splice its construction built, or None:
    d^{n-1} = m^n e^n for e^n = ``epics[n]``, m^n = ``monics[n]`` (zero where
    absent), short exact joints (m^n, e^{n+1}), and Z zero at both ends,
    where no joint makes e^lo epic or m^{hi+1} monic."""
    model, degrees = x.model, range(x.lo, x.hi + 2)
    cert = AcyclicityCertificate(x, epics, monics)
    ms, es = [cert.monic(n) for n in degrees], [cert.epic(n) for n in degrees]
    ok = (model.is_zero_object(ms[0].dom) and model.is_zero_object(ms[-1].dom)
          and all((m @ e).same_as(x.differential(n - 1))
                  for n, m, e in zip(degrees, ms, es))
          and all(model.is_short_exact(m, e) for m, e in zip(ms, es[1:])))
    return cert if ok else None


def homology(x: ChainComplex, n: int) -> ObjectHandle:
    return _homology(x, n).ob


def _homology(x: ChainComplex, n: int) -> Subquotient:
    """H^n as the cycles (kernel lattice of d^n) modulo d^{n-1} and the relations."""
    model = x.model
    if not (model.abelian and model.presented):
        raise PreconditionError("homology objects need an abelian model of presented groups")
    return model.subquotient(
        model._kernel_lattice(x.differential(n)),
        IntMatrix.hstack(x.differential(n - 1).matrix, x.component(n).payload.relations))


def homology_induced(f: ChainMap, n: int) -> MorphismHandle:
    """The map on degree-n homology induced by a chain map."""
    src, tgt = _homology(f.source, n), _homology(f.target, n)
    coords = tgt.coords(f.component(n).matrix @ src.gens)
    if coords is None:
        raise InternalCheckError("chain map does not preserve cycles")
    return f.model.morphism(src.ob, tgt.ob, coords, check=False)


def is_quasi_iso(f: ChainMap) -> bool:
    """Cone-acyclicity test; only valid verbatim on idempotent complete models."""
    if not f.model.idempotent_complete:
        raise PreconditionError(
            "the cone-acyclicity criterion for quasi-isomorphisms requires an "
            "idempotent complete model; the general definition (cone homotopy "
            "equivalent to an acyclic complex) is not decided by this test")
    return is_acyclic(mapping_cone(f)) is not None


@dataclass(frozen=True, eq=False)
class ConeAcyclicityResult:
    certificate: AcyclicityCertificate
    extensions: dict[int, ShortExactSequence]   # Z^n B >-> Z^n C ->> Z^{n+1} A


def check_cone_acyclic(f: ChainMap) -> ConeAcyclicityResult:
    """Cone-of-acyclics certificate built through the bicartesian Z squares.

    Requires acyclicity certificates on both endpoints; produces the
    certificate of the cone together with the extension sequences
    Z^n B >-> Z^n C ->> Z^{n+1} A relating the three Z-filtrations.
    """
    model = f.model
    cert_a = is_acyclic(f.source)
    cert_b = is_acyclic(f.target)
    if cert_a is None or cert_b is None:
        raise PreconditionError("both endpoints must be acyclic")
    data = mapping_cone_data(f)
    cone = data.complex
    lo, hi = cone.lo, cone.hi

    # induced maps g^n : Z^n A -> Z^n B
    g = {n: model.solve_right_factor(cert_b.monic(n), f.component(n) @ cert_a.monic(n))
         for n in range(lo, hi + 3)}
    if any(gn is None for gn in g.values()):
        raise InternalCheckError("cycle map of the cone construction is missing")

    def splice(cert, n):  # Z^n >-> X^n ->> Z^{n+1}
        return ShortExactSequence(cert.monic(n), cert.epic(n + 1))

    # Z^n C is the push-out of Z^n A >-> A^n along g^n (Prop. 3.1)
    epics, monics, extensions = {}, {}, {}
    for n in range(lo, hi + 2):
        po, h, fsecond = _factor_through_pushout(SesMorphism(
            splice(cert_a, n), splice(cert_b, n), g[n], f.component(n), g[n + 1]))
        extensions[n] = ShortExactSequence(po.monic, h)
        # epic cone^{n-1} ->> Z^n C with blocks (f'^n, k^n j_B^{n-1})
        bp = data.parts.get(n - 1)
        if bp is not None:
            epics[n] = (po.map @ bp.proj1) + (po.monic @ cert_b.epic(n) @ bp.proj2)
        else:
            epics[n] = model.zero_morphism(cone.component(n - 1), po.ob)
        # monic Z^n C >-> cone^n with blocks (-i_A^{n+1} h^n ; f''^n)
        bp = data.parts.get(n)
        if bp is not None:
            monics[n] = (bp.inj1 @ model.negate(cert_a.monic(n + 1) @ h)) + \
                (bp.inj2 @ fsecond)
        else:
            monics[n] = model.zero_morphism(po.ob, cone.component(n))
    cert = _certified(cone, epics, monics)
    if cert is None:
        raise InternalCheckError("the cone's Z^nC do not splice it")
    return ConeAcyclicityResult(cert, extensions)


def strict_triangle_section(f: ChainMap) -> Optional[ChainMap]:
    """A complex-level section of cone(f) ->> Sigma A, or None.

    A section exists exactly when f is null-homotopic, and it is read off
    a null homotopy h of f as s^n = inj1 - inj2 h^{n+1}.
    """
    # A degreewise section of proj1 : A^{n+1} + B^n ->> A^{n+1} is (1; k^n)
    # with k^n : A^{n+1} -> B^n.  The cone differential is (-d_A, 0; f, d_B)
    # and Sigma A has differential -d_A, so (1; k) is a chain map exactly
    # when f^{n+1} + d_B k^n = -k^{n+1} d_A, i.e. when h^{n+1} = -k^n
    # satisfies f^{n+1} = d_B h^{n+1} + h^{n+2} d_A: -k is a null homotopy.
    h = find_null_homotopy(f)
    if h is None:
        return None
    tri = strict_triangle(f)
    return chain_map(tri.projection.target, tri.cone.complex,
                     {n: bp.inj1 - bp.inj2 @ h.component(n + 1)
                      for n, bp in tri.cone.parts.items()},
                     check=True)


def factor_through_cone(f: ChainMap, g: ChainMap, h: ChainHomotopy) -> ChainMap:
    """Factor g through the cone inclusion, given a null-homotopy of g o f.

    With h witnessing g o f = d h + h d, the components (h^{n+1}, g^n)
    define a chain map cone(f) -> C with phi o i_f = g.
    """
    if h.source is not f.source and h.source.window != f.source.window:
        raise PreconditionError("homotopy does not match the composite g o f")
    data = mapping_cone_data(f)
    cone = data.complex
    comps = {}
    for n, bp in data.parts.items():
        comps[n] = (h.component(n + 1) @ bp.proj1) + (g.component(n) @ bp.proj2)
    phi = chain_map(cone, g.target, comps, check=True)
    tri_inc = chain_map(g.source, cone,
                        {n: data.parts[n].inj2 for n in data.parts
                         if g.source.lo <= n <= g.source.hi}, check=False)
    if not (phi @ tri_inc).same_as(g):
        raise InternalCheckError("cone factorization does not recover g")
    return phi


# -- periodic complexes ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class PeriodicComplex:
    """A complex of period k, given by one full period of components.

    The window [0, k-1] represents the doubly infinite periodic complex;
    indices are taken cyclically.  This is the honest home of the
    idempotent counterexamples: their periodic total complexes are
    null-homotopic, while no bounded truncation is.

    Any cyclic d^2 = 0 data is accepted, but `periodic_null_homotopy`
    supports only the complexes of `periodic_idempotent_complex`.
    """

    model: object
    components: tuple[ObjectHandle, ...]
    differentials: tuple[MorphismHandle, ...]   # d^j : comp[j] -> comp[j+1 mod k]

    def __post_init__(self):
        k = len(self.components)
        if len(self.differentials) != k:
            raise PreconditionError("a period of k objects carries k differentials")
        for j, d in enumerate(self.differentials):
            if d.dom != self.components[j] or d.cod != self.components[(j + 1) % k]:
                raise PreconditionError("periodic differential endpoints are wrong")
        for j in range(k):
            comp = self.differentials[(j + 1) % k] @ self.differentials[j]
            if not comp.is_zero():
                raise PreconditionError("periodic d^2 != 0")

    @property
    def period(self) -> int:
        return len(self.components)


def periodic_idempotent_complex(model, a: ObjectHandle, p: MorphismHandle,
                                length: int) -> PeriodicComplex:
    """... -> A --(1-p)--> A --p--> A -> ... with the given even period."""
    if length % 2:
        raise PreconditionError("idempotent periodic complexes have even period")
    if not (p @ p).same_as(p):
        raise PreconditionError("p must be idempotent")
    one = model.identity(a)
    comps = tuple(a for _ in range(length))
    diffs = tuple(p if j % 2 == 0 else one - p for j in range(length))
    return PeriodicComplex(model, comps, diffs)


def periodic_null_homotopy(x: PeriodicComplex) -> dict[int, MorphismHandle]:
    """The contraction h^j = d^{j-1}, checked: 1 = d^{j-1} h^j + h^{j+1} d^j.

    Supported are the complexes of `periodic_idempotent_complex`: one
    object A with differentials alternating an idempotent p and 1 - p.
    There (1 - p)^2 + p^2 = 1, so the closed form is a contraction in any
    additive category.  On any other complex the closed form decides
    nothing, so a failed check raises PreconditionError.
    """
    k, d = x.period, x.differentials
    h = {j: d[(j - 1) % k] for j in range(k)}
    if not (all(c == x.components[0] for c in x.components) and all(
            (d[(j - 1) % k] @ h[j] + h[(j + 1) % k] @ d[j]).same_as(
                x.model.identity(x.components[j])) for j in range(k))):
        raise PreconditionError(
            "periodic_null_homotopy needs one object A with differentials "
            "p and 1 - p for an idempotent p (periodic_idempotent_complex)")
    return h


def periodic_is_acyclic(x: PeriodicComplex) -> Optional[dict[int, Analysis]]:
    """Acyclicity certificate of the periodic complex (one per period slot)."""
    d = x.differentials
    analyses = _spliced(d[-1:] + d)   # the last slot closes the cycle
    return None if analyses is None else dict(enumerate(analyses[1:]))
