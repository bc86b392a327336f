"""Projective resolutions and classical derived functors.

Resolutions are built by the cover/kernel induction; the comparison lift
is solved degree by degree against the exactness of the target resolution;
horseshoes are filled in by lifting the quotient augmentation; and the
derived functors of tensor/hom functors are homologies of the transformed
resolution, with the long exact sequence extracted from the degreewise
split horseshoe columns by an explicit zig-zag.  Hom(A, B) is the model's
subquotient of the vectorised Hom basis modulo 1 (x) R_B, so the Hom
functors act by its coordinates, as induced maps on homology do.

Resolutions are stored cohomologically (P_n sits in degree -n) so that all
chain machinery applies verbatim; the subscript presentation used in the
result objects is the homological one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .complexes import (
    AcyclicityCertificate,
    ChainComplex,
    ChainHomotopy,
    ChainMap,
    _certified,
    chain_complex,
    chain_map,
    find_null_homotopy,
    homology,
    homology_induced,
    is_acyclic,
    mapping_cone,
    _homology,
)
from .diagrams import verify_exact_sequence
from .intlinalg import IntMatrix, memo, solve_columns_mod_lattice
from .kernel import (
    InternalCheckError,
    MorphismHandle,
    ObjectHandle,
    PreconditionError,
    ShortExactSequence,
    pullback_along_epic,
)
from .models import Subquotient, cyclic


@dataclass(frozen=True, eq=False)
class Resolution:
    """Positive complex of projectives P_n with augmentation P_0 ->> A."""

    complex: ChainComplex          # cochain window [-length, 0]
    augmentation: MorphismHandle   # P_0 -> A
    truncated: bool = False

    @property
    def target(self) -> ObjectHandle:
        return self.augmentation.cod

    @property
    def length(self) -> int:
        return -self.complex.lo

    def component(self, n: int) -> ObjectHandle:
        return self.complex.component(-n)

    def differential(self, n: int) -> MorphismHandle:
        """d_n : P_n -> P_{n-1} (homological indexing)."""
        return self.complex.differential(-n)

    def augmented_complex(self) -> ChainComplex:
        comps = list(self.complex.components) + [self.target]
        diffs = list(self.complex.differentials) + [self.augmentation]
        return chain_complex(self.complex.model, self.complex.lo, comps, diffs,
                             check=False)


def resolution(cx: ChainComplex, augmentation: MorphismHandle,
               truncated: bool = False, check: bool = True) -> Resolution:
    """A resolution from a given complex, which carries no splice: `is_acyclic` checks it."""
    return _checked(Resolution(cx, augmentation, truncated), is_acyclic if check else None)


def _checked(res: Resolution, certify) -> Resolution:
    """res, checked when ``certify`` (its acyclicity test) is given."""
    cx = res.complex
    if certify is not None:
        if cx.hi != 0:
            raise PreconditionError("resolutions live in degrees <= 0")
        for n in cx.degrees():
            if not cx.model.is_projective(cx.component(n)):
                raise PreconditionError("resolution components must be projective")
        if not res.truncated and certify(res.augmented_complex()) is None:
            raise PreconditionError("augmented complex is not exact")
    return res


def _spliced_resolution(covers: list[MorphismHandle], kernels: list[MorphismHandle],
                        truncated: bool = False) -> Resolution:
    """Augmentation covers[0], d_{n+1} = kernels[n] covers[n+1], certified by
    this splice: a kernel of an admissible epic makes a short exact pair;
    1_A closes it at A, and the last kernel, which must be zero, at the other end."""
    model = covers[0].model
    cx = chain_complex(model, 1 - len(covers), [c.dom for c in reversed(covers)],
                       [k @ c for k, c in reversed(list(zip(kernels, covers[1:])))])
    return _checked(Resolution(cx, covers[0], truncated), lambda x: _certified(
        x, {1 - n: e for n, e in enumerate(covers)},
        {1: model.identity(covers[0].cod), **{-n: k for n, k in enumerate(kernels)}}))


def projective_resolution(a: ObjectHandle, max_length: int = 8,
                          cover=None) -> Resolution:
    """Inductive cover/kernel resolution; over Z it stops at length <= 2.

    ``cover`` may replace the canonical generator cover (it must return an
    admissible epic from a projective object); this is how randomized
    resolutions are produced.  Its kernel pairs (k_n, cover_n) certify it.
    """
    if max_length < 0:
        raise PreconditionError(f"max_length must be >= 0, got {max_length}")
    model = a.model
    cover = cover or model.projective_cover_epi
    covers, kernels = [cover(a)], []
    while True:
        k = model.kernel(covers[-1])
        if k is None:
            raise InternalCheckError("kernel of a cover is missing")
        kernels.append(k)
        if model.is_zero_object(k.dom) or len(covers) > max_length:
            break
        covers.append(cover(k.dom))
    return _spliced_resolution(covers, kernels,
                               truncated=not model.is_zero_object(kernels[-1].dom))


def random_cover(rng: random.Random):
    """A cover function adding 0-2 redundant generators, entries up to 3, at the first two levels."""
    level = 0

    def cover(a: ObjectHandle) -> MorphismHandle:
        nonlocal level
        model = a.model
        base = model.projective_cover_epi(a)
        if level >= 2:
            return base
        level += 1
        extra = rng.randrange(0, 3)
        if extra == 0 or not model.presented:
            return base
        pad = model.object(extra)
        bp = model.biproduct(base.dom, pad)
        w = model._rand_matrix(rng, base.matrix.rows, extra, 3)
        wmor = model.morphism(pad, a, w, check=False)
        return (base @ bp.proj1) + (wmor @ bp.proj2)

    return cover


def random_resolution(a: ObjectHandle, rng: random.Random,
                      max_length: int = 8) -> Resolution:
    return projective_resolution(a, max_length=max_length,
                                 cover=random_cover(rng))


def compare_lift(f: MorphismHandle, p: Resolution, q: Resolution,
                 rng: Optional[random.Random] = None) -> ChainMap:
    """Lift f: A -> B to a chain map between resolutions of A and B.

    Each degree is one lifting problem against the exactness of the target
    resolution, so a truncated target must be at least as long as the
    source; the optional rng picks a random point of the solution lattice
    so independently computed lifts genuinely differ.
    """
    if p.target != f.dom or q.target != f.cod:
        raise PreconditionError("resolutions do not resolve the endpoints of f")
    model = f.model
    f0 = model.solve_right_factor(q.augmentation, f @ p.augmentation, rng=rng)
    if f0 is None:
        raise InternalCheckError("augmentation lifting problem is unsolvable")
    comps = {0: f0}
    top = max(p.length, q.length)
    for n in range(1, top + 1):
        prev = comps[n - 1]
        rhs = prev @ p.differential(n)
        fn = model.solve_right_factor(q.differential(n), rhs, rng=rng)
        if fn is None:
            if q.truncated and q.length < p.length:
                raise PreconditionError(
                    f"no lift at degree {n}: the target resolution is truncated at "
                    f"length {q.length}, shorter than the source ({p.length})")
            raise InternalCheckError(f"lifting problem at degree {n} is unsolvable")
        comps[n] = fn
    return chain_map(p.complex, q.complex,
                     {-n: g for n, g in comps.items()}, check=True)


def lift_homotopy(f1: ChainMap, f2: ChainMap) -> ChainHomotopy:
    """Homotopy between two lifts of the same morphism into an exact target
    resolution; it exists by the comparison theorem.  find_null_homotopy
    is complete, so when it finds none the theorem's hypotheses fail."""
    h = find_null_homotopy(f1 - f2)
    if h is None:
        raise PreconditionError(
            "the two chain maps are not homotopic: the comparison theorem needs two "
            "lifts of one morphism into a target resolution that is exact one degree "
            "beyond the source")
    return h


@dataclass(frozen=True, eq=False)
class HorseshoeResult:
    middle: Resolution
    columns: tuple[ShortExactSequence, ...]   # P'_n >-> P_n ->> P''_n per degree
    sections: tuple[MorphismHandle, ...]      # P''_n -> P_n splitting the columns
    retractions: tuple[MorphismHandle, ...]   # P_n -> P'_n splitting the monics


def horseshoe(s: ShortExactSequence, p_sub: Resolution,
              p_quot: Resolution) -> HorseshoeResult:
    """Fill in a horseshoe: resolutions of the outer terms assemble to one
    of the middle with degreewise split columns.  The pairs (kernel of
    eps_n, eps_n) certify the middle one, as in `projective_resolution`;
    both outer resolutions must be exact, not truncated."""
    model = s.i.model
    if p_sub.target != s.sub or p_quot.target != s.quot:
        raise PreconditionError("resolutions do not match the outer terms")
    for name, r in (("p_sub", p_sub), ("p_quot", p_quot)):
        if r.truncated:
            raise PreconditionError(f"horseshoe needs exact outer resolutions, "
                                    f"but {name} is truncated at length {r.length}")
    cur_ses = s
    eps_sub, eps_quot = p_sub.augmentation, p_quot.augmentation
    cols: list[ShortExactSequence] = []
    secs: list[MorphismHandle] = []
    rets: list[MorphismHandle] = []
    eps_list: list[MorphismHandle] = []
    kernels: list[MorphismHandle] = []
    top = max(p_sub.length, p_quot.length)
    for n in range(top + 1):
        pn_sub = p_sub.component(n)
        pn_quot = p_quot.component(n)
        bp = model.biproduct(pn_sub, pn_quot)
        lift = model.solve_right_factor(cur_ses.p, eps_quot)
        if lift is None:
            raise InternalCheckError("quotient augmentation does not lift")
        eps = (cur_ses.i @ eps_sub @ bp.proj1) + (lift @ bp.proj2)
        cols.append(ShortExactSequence(bp.inj1, bp.proj2))
        secs.append(bp.inj2)
        rets.append(bp.proj1)
        eps_list.append(eps)
        k_sub = model.kernel(eps_sub)
        k_mid = model.kernel(eps)
        k_quot = model.kernel(eps_quot)
        if k_sub is None or k_mid is None or k_quot is None:
            raise InternalCheckError("horseshoe kernels are missing")
        kernels.append(k_mid)
        if n == top:
            if not model.is_zero_object(k_mid.dom):
                raise InternalCheckError("horseshoe did not terminate exactly")
            break
        u = model.solve_right_factor(k_mid, bp.inj1 @ k_sub)
        w = model.solve_right_factor(k_quot, bp.proj2 @ k_mid)
        if u is None or w is None:
            raise InternalCheckError("kernel column of the horseshoe is missing")
        if not model.is_short_exact(u, w):
            raise InternalCheckError("kernel column of the horseshoe is not exact")
        cur_ses = ShortExactSequence(u, w)
        nxt_sub = model.solve_right_factor(k_sub, p_sub.differential(n + 1))
        nxt_quot = model.solve_right_factor(k_quot, p_quot.differential(n + 1))
        if nxt_sub is None or nxt_quot is None:
            raise InternalCheckError("resolutions do not factor over their kernels")
        eps_sub, eps_quot = nxt_sub, nxt_quot
    mid = _spliced_resolution(eps_list, kernels)
    # verify the columns commute with the three resolutions
    for n in range(top):
        d = mid.differential(n + 1)
        if not (cols[n].p @ d @ secs[n + 1]).same_as(p_quot.differential(n + 1)):
            raise InternalCheckError("horseshoe columns do not commute with d''")
        if not (d @ cols[n + 1].i).same_as(cols[n].i @ p_sub.differential(n + 1)):
            raise InternalCheckError("horseshoe columns do not commute with d'")
    return HorseshoeResult(mid, tuple(cols), tuple(secs), tuple(rets))


@dataclass(frozen=True, eq=False)
class ProjectiveReplacement:
    complex: ChainComplex
    map: ChainMap                      # P -> A with acyclic cone
    certificate: AcyclicityCertificate


# stages a replacement may take past the length of its complex before it fails
REPLACEMENT_MARGIN = 8


def projective_replacement(x: ChainComplex) -> ProjectiveReplacement:
    """Quasi-isomorphism from a complex of projectives onto a bounded complex.

    Built by iterated pull-backs: B_{n+1} is the pull-back of the cover
    P_n ->> B_n along the induced map from the next component, covers are
    taken at every stage, and the cone of the comparison map carries the
    B_n as its acyclicity certificate, checked without analysing the cone.
    """
    model = x.model
    if not model.abelian:
        raise PreconditionError("projective replacement runs over abelian models")
    if not x.components:
        empty = chain_complex(model, 0, [], [], check=False)
        f = chain_map(empty, x, {}, check=False)
        cert = is_acyclic(mapping_cone(f))
        return ProjectiveReplacement(empty, f, cert)
    hi = x.hi
    # homological view: A_n = x.component(hi - n)
    b_cur = x.component(hi)
    p_primes: list[MorphismHandle] = []     # P_n ->> B_n
    i_primes: list[MorphismHandle] = []     # B_{n+1} -> P_n
    i_seconds: list[MorphismHandle] = []    # B_{n+1} ->> A_{n+1}
    p_second = x.differential(hi - 1)       # A_1 -> B_0
    # Cone degree hi - n - 1 is the middle of B_{n+1} >-(i'; i'')-> P_n + A_{n+1}
    # -(p', -p'')->> B_n, short exact by Prop. 2.12.  The cone's d = (-d_P, 0;
    # alpha, d_A) is (-i'; i'') after (p', p''): that row moved by diag(-1, 1), up to sign.
    epics, monics = {}, {hi: model.biproduct(model.zero_object(), b_cur).inj2}
    n = 0
    limit = (x.hi - x.lo + 1) + REPLACEMENT_MARGIN
    while True:
        if n > limit:
            raise InternalCheckError("projective replacement did not terminate")
        p_prime = model.projective_cover_epi(b_cur)
        p_primes.append(p_prime)
        pb = pullback_along_epic(p_prime, p_second)
        i_primes.append(pb.map)        # B_{n+1} -> P_n
        i_seconds.append(pb.epic)      # B_{n+1} ->> A_{n+1}
        epics[hi - n] = p_prime @ pb.sum.proj1 + p_second @ pb.sum.proj2
        monics[hi - n - 1] = pb.sum.inj2 @ pb.epic - pb.sum.inj1 @ pb.map
        b_cur = pb.ob
        if model.is_zero_object(b_cur) and hi - n - 2 < x.lo:
            break
        # induced A_{n+2} -> B_{n+1} through the pull-back
        d_next = x.differential(hi - n - 2)   # A_{n+2} -> A_{n+1}
        cone_map = (pb.sum.inj2 @ d_next)
        p_second = model.solve_right_factor(pb.kernel_arrow, cone_map)
        if p_second is None:
            raise InternalCheckError("pull-back cone of the replacement is missing")
        n += 1
    count = len(p_primes)
    comps = [p.dom for p in p_primes]      # P_0 ... P_{count-1} homological
    diffs = [i_primes[k] @ p_primes[k + 1] for k in range(count - 1)]
    alphas = [p_primes[0]] + [i_seconds[k - 1] @ p_primes[k] for k in range(1, count)]
    lo = hi - (count - 1)
    cx = chain_complex(model, lo,
                       [comps[hi - m] for m in range(lo, hi + 1)],
                       [diffs[hi - m - 1] for m in range(lo, hi)],
                       check=True)
    alpha = chain_map(cx, x, {hi - k: alphas[k] for k in range(count)}, check=True)
    cert = _certified(mapping_cone(alpha), epics, monics)
    if cert is None:
        raise InternalCheckError("cone of the projective replacement is not acyclic")
    return ProjectiveReplacement(cx, alpha, cert)


# -- functors ------------------------------------------------------------


@memo
def hom_structure(src: ObjectHandle, dst: ObjectHandle) -> Subquotient:
    """Hom(src, dst) on the columnwise-vec'd matrices that respect the
    relations, X_ij at j * n_dst + i, modulo those into the relations of dst."""
    return src.model.subquotient(
        src.model._hom_basis(src.payload, dst.payload),
        IntMatrix.kron(IntMatrix.identity(src.payload.ngens), dst.payload.relations))


@dataclass(frozen=True)
class FunctorSpec:
    """Additive functor on the abelian model: - (x) T, Hom(T, -), or Hom(-, T)."""

    variant: str          # "tensor" | "hom_from" | "hom_into"
    target: ObjectHandle  # T

    def __post_init__(self):
        if self.variant not in ("tensor", "hom_from", "hom_into"):
            raise PreconditionError(f"unknown functor variant {self.variant!r}")
        if not (self.target.model.abelian and self.target.model.presented):
            raise PreconditionError("functor targets need an abelian model of presented groups")

    @property
    def contravariant(self) -> bool:
        return self.variant == "hom_into"

    def degree(self, i: int) -> int:
        """Cochain degree of the i-th derived value in a transformed
        resolution: i for Ext^i, -i for L_i."""
        return i if self.contravariant else -i

    def in_order(self, a, b):
        """a, b swapped when the functor is contravariant: the order in
        which their images appear in an image sequence."""
        return (b, a) if self.contravariant else (a, b)

    def exact_pair(self, f: MorphismHandle,
                   g: MorphismHandle) -> tuple[MorphismHandle, MorphismHandle]:
        """Images of a composable pair A -f-> B -g-> C, in the order they
        compose: (F f, F g), or (F g, F f) for a contravariant functor."""
        return self.in_order(self.apply_morphism(f), self.apply_morphism(g))

    @property
    def label(self) -> str:
        return {"tensor": "Tor", "hom_from": "HomFrom", "hom_into": "Ext"}[self.variant]

    def apply_object(self, a: ObjectHandle) -> ObjectHandle:
        t = self.target
        model = t.model
        if self.variant == "tensor":
            na, nt = a.payload.ngens, t.payload.ngens
            rel = IntMatrix.hstack(
                IntMatrix.kron(a.payload.relations, IntMatrix.identity(nt)),
                IntMatrix.kron(IntMatrix.identity(na), t.payload.relations))
            return model.object(na * nt, rel)
        if self.variant == "hom_from":
            return hom_structure(t, a).ob
        return hom_structure(a, t).ob

    def apply_morphism(self, f: MorphismHandle) -> MorphismHandle:
        t = self.target
        model = t.model
        if self.variant == "tensor":
            dom = self.apply_object(f.dom)
            cod = self.apply_object(f.cod)
            return model.morphism(dom, cod,
                                  IntMatrix.kron(f.matrix, IntMatrix.identity(
                                      t.payload.ngens)), check=False)
        # columnwise vec(f g) = (1 (x) f) vec(g) and vec(g f) = (f^T (x) 1) vec(g)
        one = IntMatrix.identity(t.payload.ngens)
        if self.variant == "hom_from":
            hs_dom, hs_cod = hom_structure(t, f.dom), hom_structure(t, f.cod)
            act = IntMatrix.kron(one, f.matrix)
        else:
            hs_dom, hs_cod = hom_structure(f.cod, t), hom_structure(f.dom, t)
            act = IntMatrix.kron(f.matrix.transpose(), one)
        coords = hs_cod.coords(act @ hs_dom.gens)
        if coords is None:
            raise InternalCheckError("hom functor action is not defined")
        return model.morphism(hs_dom.ob, hs_cod.ob, coords, check=False)

    def apply_complex(self, x: ChainComplex) -> ChainComplex:
        model = x.model
        comps = [self.apply_object(c) for c in x.components]
        diffs = [self.apply_morphism(d) for d in x.differentials]
        if not self.contravariant:
            return chain_complex(model, x.lo, comps, diffs, check=False)
        return chain_complex(model, -x.hi, list(reversed(comps)),
                             list(reversed(diffs)), check=False)


@dataclass(frozen=True, eq=False)
class DerivedFunctorResult:
    functor: FunctorSpec
    target: ObjectHandle
    values: dict[int, ObjectHandle]
    resolution: Resolution
    truncated: bool


def derived(functor: FunctorSpec, a: ObjectHandle, max_degree: int = 1,
            res: Optional[Resolution] = None,
            rng: Optional[random.Random] = None) -> DerivedFunctorResult:
    """Derived-functor values L_i F(a) (or Ext^i for the contravariant hom)."""
    if res is None:
        res = random_resolution(a, rng) if rng is not None else \
            projective_resolution(a)
    fp = functor.apply_complex(res.complex)
    values = {i: homology(fp, functor.degree(i)) for i in range(max_degree + 1)}
    return DerivedFunctorResult(functor, a, values, res, res.truncated)


@dataclass(frozen=True, eq=False)
class LongExactSequenceResult:
    functor: FunctorSpec
    sequence: ShortExactSequence
    arrows: tuple[MorphismHandle, ...]
    objects: tuple[ObjectHandle, ...]
    exact: bool


def _connecting_map(inj: ChainMap, proj: ChainMap, sections: dict[int, MorphismHandle],
                    n: int) -> MorphismHandle:
    """Zig-zag connecting morphism H^n(quot) -> H^{n+1}(sub) of a degreewise
    split short exact sequence of complexes."""
    model = inj.model
    mid = inj.target
    quot_h, sub_h = _homology(proj.target, n), _homology(inj.source, n + 1)
    section = sections.get(n) or model.zero_morphism(proj.target.component(n),
                                                     mid.component(n))
    lifted = section.matrix @ quot_h.gens
    moved = mid.differential(n).matrix @ lifted
    # moved lands in the image of inj degreewise; pull it back columnwise
    v = solve_columns_mod_lattice(inj.component(n + 1).matrix, moved,
                                  mid.component(n + 1).payload.relations)
    if v is None:
        raise InternalCheckError("zig-zag lift through the subcomplex is missing")
    coords = sub_h.coords(v)
    if coords is None:
        raise InternalCheckError("zig-zag image is not a cycle")
    return model.morphism(quot_h.ob, sub_h.ob, coords, check=True)


def derived_les(functor: FunctorSpec, s: ShortExactSequence,
                max_degree: int = 1) -> LongExactSequenceResult:
    """Long exact sequence of derived-functor values of a short exact sequence.

    The three resolutions come from the horseshoe, the functor is applied
    degreewise (split columns stay exact), homology is taken, and the
    connecting morphisms come from the zig-zag through the split sections.
    A covariant F gives, from L_max down to L_0,

        L_k F A' -> L_k F A -> L_k F A'' -> L_{k-1} F A' -> ... -> L_0 F A'',

    and the contravariant Hom(-, T) gives, from Ext^0 up to Ext^max,

        Ext^0 A'' -> Ext^0 A -> Ext^0 A' -> Ext^1 A'' -> ... -> Ext^max A'.

    Both run through the transformed resolutions in rising cochain degree
    (``FunctorSpec.degree``); ``FunctorSpec.in_order`` says which outer
    term starts the transformed columns.
    """
    model = s.i.model
    p_sub = projective_resolution(s.sub)
    p_quot = projective_resolution(s.quot)
    hs = horseshoe(s, p_sub, p_quot)
    sub_cx, quot_cx = (functor.apply_complex(r.complex)
                       for r in functor.in_order(p_sub, p_quot))
    f_mid = functor.apply_complex(hs.middle.complex)

    # degreewise maps of the transformed column sequences
    inj_comps, proj_comps, sect_comps = {}, {}, {}
    for k, col in enumerate(hs.columns):
        n = functor.degree(k)
        inj_comps[n], proj_comps[n] = functor.exact_pair(col.i, col.p)
        # the section P'' -> P and the retraction P -> P' compose; the
        # image of the first in order splits the transformed column
        sect_comps[n] = functor.apply_morphism(
            functor.in_order(hs.sections[k], hs.retractions[k])[0])
    inj = chain_map(sub_cx, f_mid, inj_comps, check=True)
    proj = chain_map(f_mid, quot_cx, proj_comps, check=True)
    for n in inj_comps:
        if not model.is_short_exact(inj_comps[n], proj_comps[n]):
            raise InternalCheckError("transformed column is not short exact")

    degrees = sorted(functor.degree(i) for i in range(max_degree + 1))
    arrows: list[MorphismHandle] = []
    objects = [homology(sub_cx, degrees[0])]
    for n in degrees:
        if n > degrees[0]:
            arrows.append(_connecting_map(inj, proj, sect_comps, n - 1))
            objects.append(homology(sub_cx, n))
        arrows += [homology_induced(inj, n), homology_induced(proj, n)]
        objects += [homology(f_mid, n), homology(quot_cx, n)]

    # verify exactness at every joint, closing both ends with zero maps
    zero_head = model.zero_morphism(model.zero_object(), arrows[0].dom)
    zero_tail = model.zero_morphism(arrows[-1].cod, model.zero_object())
    seq = [zero_head] + arrows + [zero_tail]
    return LongExactSequenceResult(functor, s, tuple(arrows), tuple(objects),
                                    verify_exact_sequence(seq))


# -- named derived functors -----------------------------------------------


def tor_values(m: int, n: int, max_degree: int = 1) -> dict[int, ObjectHandle]:
    f = FunctorSpec("tensor", cyclic(n))
    return derived(f, cyclic(m), max_degree=max_degree).values


def ext_values(m: int, n: int, max_degree: int = 1) -> dict[int, ObjectHandle]:
    f = FunctorSpec("hom_into", cyclic(n))
    return derived(f, cyclic(m), max_degree=max_degree).values
