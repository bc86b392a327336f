"""Constructive diagram lemmas: factorization of maps of short exact
sequences through a bicartesian middle, the Noether isomorphism, the 3x3
completion, the Ker-Coker six-term sequence, and the snake lemma with an
explicit connecting morphism.

All constructions verify their own conclusions (short-exactness of every
produced sequence, commutativity of every produced square); a failed
verification raises ``InternalCheckError`` since the lemmas guarantee it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .intlinalg import IntMatrix, column_hnf
from .kernel import (
    Analysis,
    ComposabilityError,
    GenBounds,
    InternalCheckError,
    MorphismHandle,
    NotAdmissible,
    PreconditionError,
    PushoutResult,
    ShortExactSequence,
    analyze,
    pullback_along_epic,
    pushout_along_monic,
    ses,
)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InternalCheckError(msg)


def square_is_bicartesian(u: MorphismHandle, v: MorphismHandle,
                          s: MorphismHandle, t: MorphismHandle) -> bool:
    """Bicartesian test for a commutative square.

        W --u--> X
        |        |
        v        s
        |        |
        Y --t--> Z

    The square is simultaneously a push-out and a pull-back iff
    W >-> X + Y ->> Z via (u; -v) and (s, t) is short exact.
    """
    model = u.model
    if not (s @ u).same_as(t @ v):
        return False
    bp = model.biproduct(u.cod, v.cod)
    col = (bp.inj1 @ u) - (bp.inj2 @ v)
    row = (s @ bp.proj1) + (t @ bp.proj2)
    return model.is_short_exact(col, row)


def is_exact_pair(u: MorphismHandle, v: MorphismHandle) -> bool:
    """Exactness at the joint of two consecutive admissible morphisms; a
    non-admissible one is refused with NotAdmissible."""
    if u.cod != v.dom:
        raise ComposabilityError("exactness requires composable arrows")
    model = u.model
    # an abelian model admits every arrow
    if not model.abelian and None in (model.analyze(u), model.analyze(v)):
        raise NotAdmissible("exactness is defined for admissible morphisms")
    return model.is_exact_at(u, v)


def verify_exact_sequence(arrows: Sequence[MorphismHandle]) -> bool:
    return all(is_exact_pair(u, v) for u, v in zip(arrows, arrows[1:]))


@dataclass(frozen=True, eq=False)
class SesMorphism:
    """A morphism of short exact sequences with components (a, b, c)."""

    source: ShortExactSequence
    target: ShortExactSequence
    a: MorphismHandle
    b: MorphismHandle
    c: MorphismHandle


def ses_morphism(source: ShortExactSequence, target: ShortExactSequence,
                 a: MorphismHandle, b: MorphismHandle, c: MorphismHandle,
                 check: bool = True) -> SesMorphism:
    m = SesMorphism(source, target, a, b, c)
    if check:
        if not (b @ source.i).same_as(target.i @ a):
            raise PreconditionError("left square of the ses morphism does not commute")
        if not (c @ source.p).same_as(target.p @ b):
            raise PreconditionError("right square of the ses morphism does not commute")
        model = source.i.model
        if not model.is_short_exact(source.i, source.p):
            raise PreconditionError("source row is not short exact")
        if not model.is_short_exact(target.i, target.p):
            raise PreconditionError("target row is not short exact")
    return m


def compose_ses_morphisms(n: SesMorphism, m: SesMorphism) -> SesMorphism:
    """The composite n o m of two composable maps of short exact sequences."""
    return ses_morphism(m.source, n.target, n.a @ m.a, n.b @ m.b, n.c @ m.c,
                        check=False)


@dataclass(frozen=True, eq=False)
class FactoredSesMorphism:
    middle: ShortExactSequence      # A >-> D ->> C'
    to_middle: MorphismHandle       # b': B' -> D
    from_middle: MorphismHandle     # b'': D -> B
    pushout: PushoutResult
    pullback_iso: MorphismHandle    # canonical D -> (B x_C C')


def _factor_through_pushout(m: SesMorphism) -> tuple[PushoutResult, MorphismHandle,
                                                       MorphismHandle]:
    """Prop. 3.1: the push-out D of f' along a, e: D ->> C' and b'': D -> B,
    checked: A >-> D ->> C' is short exact, b'' b' = b and g b'' = c e."""
    model = m.source.i.model
    po = pushout_along_monic(m.source.i, m.a)
    q, bp = po.cokernel_arrow, po.sum     # q: B' + A ->> D
    e = model.solve_left_factor(q, m.source.p @ bp.proj1)
    bsecond = model.solve_left_factor(q, (m.b @ bp.proj1) + (m.target.i @ bp.proj2))
    _require(e is not None and bsecond is not None, "push-out row does not assemble")
    _require(model.is_short_exact(po.monic, e), "middle push-out row is not short exact")
    _require((bsecond @ po.map).same_as(m.b), "factorization through D does not recover b")
    _require((m.target.p @ bsecond).same_as(m.c @ e),
             "lower square through D does not commute")
    return po, e, bsecond


def factor_ses_morphism(m: SesMorphism) -> FactoredSesMorphism:
    """Factor a map of short exact sequences over a middle sequence.

    The middle object is the push-out of the source monic along the first
    component; it agrees, canonically, with the pull-back of the target
    epic along the third component, and both marked squares are
    bicartesian.
    """
    model = m.source.i.model
    f, g = m.target.i, m.target.p        # f: A >-> B,  g: B ->> C
    po, e, bsecond = _factor_through_pushout(m)
    mono, bprime = po.monic, po.map      # A >-> D,  B' -> D
    _require((bsecond @ mono).same_as(f), "middle monic does not map to f")
    _require(square_is_bicartesian(m.source.i, m.a, bprime, mono),
             "upper square is not bicartesian")
    _require(square_is_bicartesian(e, bsecond, m.c, g),
             "lower square is not bicartesian")
    # canonical comparison with the pull-back of (g, c)
    pb = pullback_along_epic(g, m.c)
    cone = (pb.sum.inj1 @ bsecond) + (pb.sum.inj2 @ e)
    iso = model.solve_right_factor(pb.kernel_arrow, cone)
    _require(iso is not None and model.is_iso(iso),
             "push-out does not agree with the pull-back")
    return FactoredSesMorphism(ShortExactSequence(mono, e), bprime, bsecond, po, iso)


@dataclass(frozen=True, eq=False)
class NoetherResult:
    sequence: ShortExactSequence    # B/A >-> C/A ->> C/B
    quot_ba: MorphismHandle         # B ->> B/A
    quot_ca: MorphismHandle         # C ->> C/A
    quot_cb: MorphismHandle         # C ->> C/B


def noether_third_column(i1: MorphismHandle, i2: MorphismHandle) -> NoetherResult:
    """Third column of the Noether square for composable admissible monics."""
    model = i1.model
    if i1.cod != i2.dom:
        raise ComposabilityError("the monics do not compose")
    if not (model.is_admissible_monic(i1) and model.is_admissible_monic(i2)):
        raise NotAdmissible("both arrows must be admissible monics")
    x = model.cokernel(i1)
    y = model.cokernel(i2 @ i1)
    z = model.cokernel(i2)
    _require(x is not None and y is not None and z is not None,
             "cokernels of admissible monics must exist")
    mono = model.solve_left_factor(x, y @ i2)
    _require(mono is not None, "induced monic B/A -> C/A does not exist")
    epi = model.solve_left_factor(y, z)
    _require(epi is not None, "induced epic C/A -> C/B does not exist")
    seq = ses(mono, epi)
    _require(square_is_bicartesian(x, i2, mono, y),
             "upper right Noether square is not bicartesian")
    return NoetherResult(seq, x, y, z)


@dataclass(frozen=True, eq=False)
class Grid3x3:
    """Nine-object grid: three short exact columns and up to three rows.

    ``columns[k]`` is the k-th vertical short exact sequence and
    ``rows[k]`` is an optional pair of horizontal arrows (f_k, g_k).
    """

    columns: tuple[ShortExactSequence, ShortExactSequence, ShortExactSequence]
    rows: tuple[Optional[tuple[MorphismHandle, MorphismHandle]], ...]


def _check_row_squares(grid: Grid3x3, upper: int, lower: int) -> None:
    """Commutativity of the squares between two present rows."""
    ca, cb, cc = grid.columns
    ru, rl = grid.rows[upper], grid.rows[lower]
    if ru is None or rl is None:
        return
    steps = {(0, 1): lambda col: col.i, (1, 2): lambda col: col.p}
    sel = steps[(upper, lower)]
    if not (sel(cb) @ ru[0]).same_as(rl[0] @ sel(ca)):
        raise PreconditionError("left square of the 3x3 grid does not commute")
    if not (sel(cc) @ ru[1]).same_as(rl[1] @ sel(cb)):
        raise PreconditionError("right square of the 3x3 grid does not commute")


def three_by_three(grid: Grid3x3, variant: str) -> tuple[MorphismHandle, MorphismHandle]:
    """Complete (or certify) the remaining row of a 3x3 diagram.

    ``variant`` is one of ``missing_top``, ``missing_middle``,
    ``missing_bottom``.  For the outer variants the missing arrows are
    constructed (they are uniquely determined by commutativity); for
    ``missing_middle`` the middle arrows must be present with g o f = 0 and
    only the short-exactness conclusion is certified.  The returned pair is
    the completed row, verified short exact.
    """
    ca, cb, cc = grid.columns
    model = ca.i.model
    for col in grid.columns:
        if not model.is_short_exact(col.i, col.p):
            raise PreconditionError("a column of the 3x3 grid is not short exact")

    def need_ses(k: int) -> tuple[MorphismHandle, MorphismHandle]:
        row = grid.rows[k]
        if row is None:
            raise PreconditionError(f"row {k} is required for this variant")
        if not model.is_short_exact(row[0], row[1]):
            raise PreconditionError(f"row {k} is not short exact")
        return row

    if variant == "missing_bottom":
        r0, r1 = need_ses(0), need_ses(1)
        _check_row_squares(grid, 0, 1)
        f2 = model.solve_left_factor(ca.p, cb.p @ r1[0])
        g2 = model.solve_left_factor(cb.p, cc.p @ r1[1])
        if f2 is None or g2 is None:
            raise PreconditionError("bottom row cannot be induced; grid does not commute")
        _require(model.is_short_exact(f2, g2), "completed bottom row is not short exact")
        return f2, g2
    if variant == "missing_top":
        r1, r2 = need_ses(1), need_ses(2)
        _check_row_squares(grid, 1, 2)
        f0 = model.solve_right_factor(cb.i, r1[0] @ ca.i)
        g0 = model.solve_right_factor(cc.i, r1[1] @ cb.i)
        if f0 is None or g0 is None:
            raise PreconditionError("top row cannot be induced; grid does not commute")
        _require(model.is_short_exact(f0, g0), "completed top row is not short exact")
        return f0, g0
    if variant == "missing_middle":
        r0, r2 = need_ses(0), need_ses(2)
        r1 = grid.rows[1]
        if r1 is None:
            raise PreconditionError("middle arrows must be given for this variant")
        f, g = r1
        _check_row_squares(grid, 0, 1)
        _check_row_squares(grid, 1, 2)
        if not (g @ f).is_zero():
            raise PreconditionError("the middle composite g o f must vanish")
        _require(model.is_short_exact(f, g), "middle row is not short exact")
        return f, g
    raise PreconditionError(f"unknown 3x3 variant {variant!r}")


@dataclass(frozen=True, eq=False)
class KerCokerResult:
    """Six-term sequence Ker f >-> Ker h -> Ker g -> Coker f -> Coker h ->> Coker g."""

    arrows: tuple[MorphismHandle, MorphismHandle, MorphismHandle,
                  MorphismHandle, MorphismHandle]
    analyses: tuple[Analysis, Analysis, Analysis]   # of f, g, h

    @property
    def objects(self) -> tuple:
        first = self.arrows[0].dom
        return (first,) + tuple(a.cod for a in self.arrows)


def _require_wic(model) -> None:
    if not model.weakly_idempotent_complete:
        raise PreconditionError(
            "this construction is gated on weak idempotent completeness "
            "(the snake lemma and the Ker-Coker sequence can fail without it)")


def ker_coker_sequence(f: MorphismHandle, g: MorphismHandle) -> KerCokerResult:
    """Six-term kernel-cokernel sequence of a commutative triangle h = g o f."""
    model = f.model
    _require_wic(model)
    if f.cod != g.dom:
        raise ComposabilityError("f and g do not compose")
    h = g @ f
    af, ag, ah = analyze(f), analyze(g), analyze(h)
    if af is None or ag is None or ah is None:
        raise NotAdmissible("f, g and g o f must all be admissible")
    kf, kg, kh = af.kernel_arrow, ag.kernel_arrow, ah.kernel_arrow
    cf, cg, ch = af.cokernel_arrow, ag.cokernel_arrow, ah.cokernel_arrow
    a1 = model.solve_right_factor(kh, kf)
    a2 = model.solve_right_factor(kg, f @ kh)
    _require(a1 is not None and a2 is not None, "kernel arrows do not factor")
    a3 = cf @ kg
    a4 = model.solve_left_factor(cf, ch @ g)
    a5 = model.solve_left_factor(ch, cg)
    _require(a4 is not None and a5 is not None, "cokernel arrows do not factor")
    arrows = (a1, a2, a3, a4, a5)
    _require(model.is_admissible_monic(a1), "Ker f -> Ker h is not an admissible monic")
    _require(model.is_admissible_epic(a5), "Coker h -> Coker g is not an admissible epic")
    _require(verify_exact_sequence(arrows), "Ker-Coker sequence is not exact")
    return KerCokerResult(arrows, (af, ag, ah))


@dataclass(frozen=True, eq=False)
class SnakeResult:
    """Snake-lemma output: kernel row, cokernel row, connecting morphism."""

    kernel_row: tuple[MorphismHandle, MorphismHandle]
    cokernel_row: tuple[MorphismHandle, MorphismHandle]
    delta: MorphismHandle
    analyses: tuple[Analysis, Analysis, Analysis]   # of a, b, c

    @property
    def six_term(self) -> tuple[MorphismHandle, ...]:
        k, kp = self.kernel_row
        c, cp = self.cokernel_row
        return (k, kp, self.delta, c, cp)


def snake(m: SesMorphism) -> SnakeResult:
    """Snake lemma for a map of short exact sequences with admissible components.

    The connecting morphism is produced by the push-out construction: the
    source monic is pushed out along the first component, the middle map
    factors through the push-out D, and the Ker-Coker sequence of the
    triangle A -> D -> B is conjugated onto the displayed six terms.
    """
    model = m.source.i.model
    _require_wic(model)
    i_s, p_s = m.source.i, m.source.p
    i_t, p_t = m.target.i, m.target.p
    a, b, c = m.a, m.b, m.c
    aa, ab_, ac = analyze(a), analyze(b), analyze(c)
    if aa is None or ab_ is None or ac is None:
        raise NotAdmissible("snake requires admissible components")
    if not (b @ i_s).same_as(i_t @ a) or not (c @ p_s).same_as(p_t @ b):
        raise PreconditionError("the given squares do not commute")

    po, e_d, b2 = _factor_through_pushout(m)
    q, bp = po.cokernel_arrow, po.sum
    f1 = po.map          # A -> D

    kc = ker_coker_sequence(f1, b2)
    af1, ab2, _ = kc.analyses
    ka, kc_arrow = aa.kernel_arrow, ac.kernel_arrow
    ca_arrow, cc_arrow = aa.cokernel_arrow, ac.cokernel_arrow
    kb, cb_arrow = ab_.kernel_arrow, ab_.cokernel_arrow

    # identifications through the bicartesian squares
    u1 = model.solve_right_factor(af1.kernel_arrow, i_s @ ka)
    _require(u1 is not None and model.is_iso(u1), "Ker a does not match Ker(A -> D)")
    rho = model.solve_left_factor(q, ca_arrow @ bp.proj2)
    psi = model.solve_left_factor(af1.cokernel_arrow, rho)
    _require(psi is not None and model.is_iso(psi), "Coker(A -> D) does not match Coker a")
    # Ker c lifts to u: Ker c -> D with e_d u = kc and b2 u = 0 exactly when
    # u = ker(b2) chi with e_d ker(b2) chi = kc, so solve for chi directly
    chi = model.solve_right_factor(e_d @ ab2.kernel_arrow, kc_arrow)
    _require(chi is not None and model.is_iso(chi), "Ker c does not match Ker(D -> B)")

    delta = psi @ kc.arrows[2] @ chi

    k1 = model.solve_right_factor(kb, i_s @ ka)
    k2 = model.solve_right_factor(kc_arrow, p_s @ kb)
    g1 = model.solve_left_factor(ca_arrow, cb_arrow @ i_t)
    g2 = model.solve_left_factor(cb_arrow, cc_arrow @ p_t)
    _require(all(x is not None for x in (k1, k2, g1, g2)),
             "kernel/cokernel rows do not assemble")
    _require(model.is_admissible_monic(k1), "K' -> K is not an admissible monic")
    _require(model.is_admissible_epic(g2), "C -> C'' is not an admissible epic")
    _require(verify_exact_sequence((k1, k2, delta, g1, g2)),
             "six-term snake sequence is not exact")
    return SnakeResult((k1, k2), (g1, g2), delta, (aa, ab_, ac))


def check_snake_naturality(m: SesMorphism, n: SesMorphism) -> bool:
    """delta-naturality along the map of snake inputs (id, n): m => n o m.

    For composable maps of short exact sequences m: S -> T and n: T -> U,
    the pair (identity of S, n) is a morphism from the snake input m to
    the snake input n o m; the two connecting morphisms must commute with
    the induced maps on K'' and C'.
    """
    model = m.source.i.model
    nm = compose_ses_morphisms(n, m)
    s1 = snake(m)
    s2 = snake(nm)
    kc1 = s1.analyses[2].kernel_arrow
    kc2 = s2.analyses[2].kernel_arrow
    w = model.solve_right_factor(kc2, kc1)
    ca1 = s1.analyses[0].cokernel_arrow
    ca2 = s2.analyses[0].cokernel_arrow
    gam = model.solve_left_factor(ca1, ca2 @ n.a)
    if w is None or gam is None:
        raise InternalCheckError("naturality comparison maps do not exist")
    return (s2.delta @ w).same_as(gam @ s1.delta)


@dataclass(frozen=True)
class FiveLemmaVerdict:
    hypothesis: str   # "isomorphisms" | "monics" | "epics" | "none"
    holds: bool


def five_lemma_verify(m: SesMorphism) -> FiveLemmaVerdict:
    """Check the short five lemma conclusion for the applicable hypothesis."""
    model = m.source.i.model
    ses_morphism(m.source, m.target, m.a, m.b, m.c)  # re-validate
    if model.is_iso(m.a) and model.is_iso(m.c):
        return FiveLemmaVerdict("isomorphisms", model.is_iso(m.b))
    if model.is_admissible_monic(m.a) and model.is_admissible_monic(m.c):
        return FiveLemmaVerdict("monics", model.is_admissible_monic(m.b))
    if model.is_admissible_epic(m.a) and model.is_admissible_epic(m.c):
        return FiveLemmaVerdict("epics", model.is_admissible_epic(m.b))
    return FiveLemmaVerdict("none", False)


def long_five_verify(top: Sequence[MorphismHandle],
                     bottom: Sequence[MorphismHandle],
                     columns: Sequence[MorphismHandle]) -> bool:
    """Five lemma for ladders of exact admissible-morphism rows.

    ``top`` and ``bottom`` are the four arrows of each row, ``columns`` the
    five vertical maps; columns 1, 2, 4, 5 must be isomorphisms and the
    verdict is whether the middle column is an isomorphism.
    """
    if len(top) != 4 or len(bottom) != 4 or len(columns) != 5:
        raise PreconditionError("a five-lemma ladder has 4+4 arrows and 5 columns")
    model = columns[0].model
    if not verify_exact_sequence(top) or not verify_exact_sequence(bottom):
        raise PreconditionError("ladder rows are not exact")
    for k in range(4):
        if not (bottom[k] @ columns[k]).same_as(columns[k + 1] @ top[k]):
            raise PreconditionError("ladder square does not commute")
    for k in (0, 1, 3, 4):
        if not model.is_iso(columns[k]):
            raise PreconditionError("outer columns must be isomorphisms")
    return model.is_iso(columns[2])


# -- generators ---------------------------------------------------------


def random_ses_morphism(rng: random.Random, model, bounds: GenBounds) -> SesMorphism:
    """Random map of short exact sequences (abelian-style models).

    The target middle object is chosen freely, the target subobject is
    grown around the image of the source subobject, and the remaining
    components are the induced arrows, so every draw is a genuine
    commuting map of short exact sequences.
    """
    if not (model.abelian and model.presented):
        raise PreconditionError("ses-morphism generation needs an abelian model of presented groups")
    src = model.random_ses(rng, bounds)
    x = model.random_object(rng, bounds)
    b = model.random_morphism(rng, src.mid, x)
    carried = b.matrix @ src.i.matrix
    extra = model._rand_matrix(rng, x.payload.ngens,
                               rng.randrange(0, bounds.max_gens + 1), 2)
    sub = column_hnf(IntMatrix.hstack(carried, extra, x.payload.relations))
    j = model.subobject(x, sub)
    p2 = model.cokernel(j)
    tgt = ShortExactSequence(j, p2)
    a = model.solve_right_factor(j, b @ src.i)
    c = model.solve_left_factor(src.p, p2 @ b)
    _require(a is not None and c is not None, "induced ses-morphism components missing")
    return ses_morphism(src, tgt, a, b, c, check=False)
