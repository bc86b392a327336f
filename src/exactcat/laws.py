"""Randomized law harness with deterministic seeding and witness shrinking.

Each check generates instances that satisfy the law's hypotheses *by
construction* (generate-and-filter would essentially never hit premises
like "the composite is an admissible epic"), evaluates the conclusion,
and reports failures as serialized witnesses.  Fixed edge batteries (zero
objects, identities, empty matrices) run before the seeded iterations.

Reports serialize to canonical JSON: identical seed and configuration
give byte-identical reports.  Wall-clock time is kept on the in-memory
report only, never in the JSON.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .complexes import (
    chain_complex,
    chain_map,
    check_cone_acyclic,
    find_null_homotopy,
    identity_chain_map,
    is_acyclic,
    mapping_cone,
    object_as_complex,
    periodic_idempotent_complex,
    periodic_is_acyclic,
    periodic_null_homotopy,
)
from .diagrams import five_lemma_verify, ses_morphism, square_is_bicartesian
from .documents import jsonable
from .intlinalg import IntMatrix, column_hnf
from .kernel import (
    ComposabilityError,
    ExactCatError,
    ExactStructureModel,
    GenBounds,
    MorphismHandle,
    PreconditionError,
    ShortExactSequence,
    pullback_along_epic,
    pushout_along_monic,
)
from .models import cyclic, fgab


@dataclass(frozen=True)
class LawConfig:
    seed: int = 0
    iterations: int = 100
    bounds: GenBounds = GenBounds()


@dataclass(eq=False)
class LawReport:
    law_id: str
    model_id: str
    instances_run: int
    failures: list
    seed: int
    config: dict
    elapsed: float = 0.0
    sub_reports: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.failures and all(r.passed for r in self.sub_reports)

    def total_instances(self) -> int:
        return self.instances_run + sum(r.total_instances() for r in self.sub_reports)

    def to_jsonable(self) -> dict:
        return {
            "law_id": self.law_id,
            "model": self.model_id,
            "instances_run": self.instances_run,
            "failures": self.failures,
            "seed": self.seed,
            "config": self.config,
            "passed": self.passed,
            "sub_reports": [r.to_jsonable() for r in self.sub_reports],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)


def _cfg_json(cfg: LawConfig) -> dict:
    return {"iterations": cfg.iterations, "max_gens": cfg.bounds.max_gens,
            "max_rel_entry": cfg.bounds.max_rel_entry,
            "max_entry": cfg.bounds.max_entry}


def _iter_rng(cfg: LawConfig, law_id: str, k: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{law_id}:{k}")


# what rebuilding an invalid candidate may raise; anything else is a bug
_INVALID_CANDIDATE = (PreconditionError, ComposabilityError)


def _drop_generator_candidates(instance: dict):
    """Rewrites of the whole instance with one generator of one object
    removed (relation row and every adjacent matrix row/column deleted)."""
    objects = []
    for val in instance.values():
        if isinstance(val, MorphismHandle):
            for ob in (val.dom, val.cod):
                if ob not in objects and ob.model.presented and ob.payload.ngens > 0:
                    objects.append(ob)
    for ob in objects:
        model = ob.model
        n = ob.payload.ngens
        for k in range(n):
            keep = [i for i in range(n) if i != k]
            try:
                small = model.object(n - 1, ob.payload.relations.take_rows(keep))
            except _INVALID_CANDIDATE:
                continue
            cand = {}
            ok = True
            for key, val in instance.items():
                if not isinstance(val, MorphismHandle):
                    cand[key] = val
                    continue
                dom = small if val.dom == ob else val.dom
                cod = small if val.cod == ob else val.cod
                m = val.matrix
                if val.cod == ob:
                    m = m.take_rows(keep)
                if val.dom == ob:
                    m = m.take_columns(keep)
                try:
                    cand[key] = model.morphism(dom, cod, m)
                except _INVALID_CANDIDATE:
                    ok = False
                    break
            if ok:
                yield cand


def _entry_candidates(instance: dict):
    """Rewrites with one matrix entry zeroed or halved."""
    for key, val in instance.items():
        if not isinstance(val, MorphismHandle):
            continue
        m = val.matrix
        for i in range(m.rows):
            for j in range(m.cols):
                x = m.entries[i][j]
                if x == 0:
                    continue
                for new in (0, x // 2):
                    if new == x:
                        continue
                    rows = [list(r) for r in m.entries]
                    rows[i][j] = new
                    try:
                        cand_m = val.model.morphism(
                            val.dom, val.cod,
                            IntMatrix.from_rows(rows, cols=m.cols))
                    except _INVALID_CANDIDATE:
                        continue
                    cand = dict(instance)
                    cand[key] = cand_m
                    yield cand


# steps the shrinker may take on one failing iteration instance
SHRINK_BUDGET = 200


def _shrink(instance: dict, predicate: Callable[[dict], bool],
            budget: int) -> dict:
    """Structural shrinking: drop generators or shrink single entries while
    the instance keeps failing; invalid rebuilds are skipped."""
    current = instance
    steps = 0
    improved = True
    while improved and steps < budget:
        improved = False
        for make in (_drop_generator_candidates, _entry_candidates):
            for cand in make(current):
                steps += 1
                if steps >= budget:
                    return current
                try:
                    failing = predicate(cand) is False
                except (ExactCatError, ValueError, IndexError):
                    # an ill-shaped candidate (DimensionMismatch is a
                    # ValueError) is an invalid shrink; other errors are bugs
                    continue
                if failing:
                    current = cand
                    improved = True
                    break
            if improved:
                break
    return current


def run_law(law_id: str, model: ExactStructureModel, cfg: LawConfig,
            generate: Callable[[random.Random], Optional[dict]],
            predicate: Callable[[dict], bool],
            edges: Sequence[dict] = ()) -> LawReport:
    failures = []
    count = 0
    t0 = time.perf_counter()

    def verdict(inst):
        # a construction blowing up on a law instance is a failure of the
        # law, not of the harness
        try:
            return predicate(inst), None
        except ExactCatError as exc:
            return False, f"{type(exc).__name__}: {exc}"

    def instances():
        # lazily, so each instance is generated after the previous is checked
        for idx, inst in enumerate(edges):
            yield "edge", idx, inst
        for k in range(cfg.iterations):
            inst = generate(_iter_rng(cfg, law_id, k))
            if inst is not None:
                yield "iteration", k, inst

    for kind, idx, inst in instances():
        count += 1
        ok, err = verdict(inst)
        if ok is False:
            if kind == "iteration":   # a fixed edge instance is reported as given
                inst = _shrink(inst, lambda i: verdict(i)[0], SHRINK_BUDGET)
            record = {kind: idx, "witness": jsonable(inst)}
            if err:
                record["error"] = err
            failures.append(record)
    return LawReport(law_id, model.model_id, count, failures, cfg.seed,
                     _cfg_json(cfg), time.perf_counter() - t0)


def _merge(law_id: str, model: ExactStructureModel, cfg: LawConfig,
           subs: Sequence[LawReport]) -> LawReport:
    return LawReport(law_id, model.model_id, 0, [], cfg.seed, _cfg_json(cfg),
                     sum(r.elapsed for r in subs), tuple(subs))


def _edge_objects(model: ExactStructureModel) -> list:
    objs = [model.zero_object()]
    for k in range(3):
        objs.append(model.random_object(random.Random(f"edge-objects:{k}"),
                                        GenBounds(max_gens=2)))
    return objs


def _edge_sequences(model) -> list[ShortExactSequence]:
    out = []
    objs = _edge_objects(model)
    z = model.zero_object()
    for a in objs:
        out.append(ShortExactSequence(model.zero_morphism(z, a), model.identity(a)))
        out.append(ShortExactSequence(model.identity(a), model.zero_morphism(a, z)))
    bp = model.biproduct(objs[1], objs[2])
    out.append(ShortExactSequence(bp.inj1, bp.proj2))
    return out


def _direct_sum(model, f: MorphismHandle, g: MorphismHandle) -> MorphismHandle:
    """f + g : A + C -> B + D for f : A -> B and g : C -> D."""
    src = model.biproduct(f.dom, g.dom)
    dst = model.biproduct(f.cod, g.cod)
    return (dst.inj1 @ f @ src.proj1) + (dst.inj2 @ g @ src.proj2)


def _composable_monics(model: ExactStructureModel, rng: random.Random,
                       bounds: GenBounds) -> dict:
    a = model.random_object(rng, bounds)
    i1 = model.random_admissible_monic_from(rng, a, bounds)
    return {"i1": i1, "i2": model.random_admissible_monic_from(rng, i1.cod, bounds)}


def _composable_epics(model: ExactStructureModel, rng: random.Random,
                      bounds: GenBounds, b) -> dict:
    e1 = model.random_admissible_epic_onto(rng, b, bounds)
    return {"e1": e1, "e2": model.random_admissible_epic_onto(rng, e1.dom, bounds)}


# -- axiom suite --------------------------------------------------------------


def check_axioms(model: ExactStructureModel, cfg: LawConfig) -> LawReport:
    """[E0]-[E2] and their duals, isomorphism closure, and the consistency
    requirement that admissible arrows complete to sequences of E."""
    subs = []

    def gen_obj(rng):
        return {"a": model.random_object(rng, cfg.bounds)}

    subs.append(run_law(
        "E0", model, cfg, gen_obj,
        lambda inst: model.is_admissible_monic(model.identity(inst["a"])),
        edges=[{"a": o} for o in _edge_objects(model)]))
    subs.append(run_law(
        "E0op", model, cfg, gen_obj,
        lambda inst: model.is_admissible_epic(model.identity(inst["a"])),
        edges=[{"a": o} for o in _edge_objects(model)]))

    subs.append(run_law(
        "E1", model, cfg, lambda rng: _composable_monics(model, rng, cfg.bounds),
        lambda inst: model.is_admissible_monic(inst["i2"] @ inst["i1"])))
    subs.append(run_law(
        "E1op", model, cfg,
        lambda rng: _composable_epics(model, rng, cfg.bounds,
                                      model.random_object(rng, cfg.bounds)),
        lambda inst: model.is_admissible_epic(inst["e1"] @ inst["e2"])))

    def gen_pushout(rng):
        s = model.random_ses(rng, cfg.bounds)
        f = model.random_morphism(rng, s.i.dom,
                                  model.random_object(rng, cfg.bounds))
        return {"i": s.i, "f": f}

    def check_pushout(inst):
        po = pushout_along_monic(inst["i"], inst["f"])
        if not model.is_admissible_monic(po.monic):
            return False
        return model.is_short_exact(po.column, po.cokernel_arrow)

    subs.append(run_law("E2", model, cfg, gen_pushout, check_pushout))

    def gen_pullback(rng):
        s = model.random_ses(rng, cfg.bounds)
        g = model.random_morphism(rng, model.random_object(rng, cfg.bounds),
                                  s.p.cod)
        return {"p": s.p, "g": g}

    def check_pullback(inst):
        pb = pullback_along_epic(inst["p"], inst["g"])
        return model.is_admissible_epic(pb.epic)

    subs.append(run_law("E2op", model, cfg, gen_pullback, check_pullback))

    def gen_iso_closure(rng):
        s = model.random_ses(rng, cfg.bounds)
        v = model.random_automorphism(rng, s.mid)
        vinv = model.inverse(v)
        return {"i": v @ s.i, "p": s.p @ vinv}

    subs.append(run_law(
        "iso_closure", model, cfg, gen_iso_closure,
        lambda inst: model.is_short_exact(inst["i"], inst["p"])))

    def gen_completes(rng):
        # mix arrows known to be admissible with arbitrary morphisms so the
        # admissibility predicate itself is probed, not just the generators
        pick = rng.randrange(3)
        if pick == 0:
            return {"f": model.random_ses(rng, cfg.bounds).i}
        if pick == 1:
            return {"f": model.random_ses(rng, cfg.bounds).p}
        a = model.random_object(rng, cfg.bounds)
        b = model.random_object(rng, cfg.bounds)
        return {"f": model.random_morphism(rng, a, b)}

    def check_completes(inst):
        f = inst["f"]
        if model.is_admissible_monic(f):
            c = model.cokernel(f)
            if c is None or not model.is_short_exact(f, c):
                return False
        if model.is_admissible_epic(f):
            k = model.kernel(f)
            if k is None or not model.is_short_exact(k, f):
                return False
        return True

    edges = []
    for s in _edge_sequences(model):
        edges.append({"f": s.i})
        edges.append({"f": s.p})
    for a in _edge_objects(model):
        # doubled identities: monic but with non-trivial cokernel torsion;
        # the canonical probe for policies that over-approximate admissibility
        one = model.identity(a)
        edges.append({"f": one + one})
    subs.append(run_law(
        "admissible_completes", model, cfg, gen_completes, check_completes,
        edges=edges))
    return _merge("axioms", model, cfg, subs)


# -- individual lemma suites ---------------------------------------------------


def _obscure_instance(model: ExactStructureModel, rng: random.Random,
                      bounds: GenBounds) -> dict:
    """i = (m; u) : A -> B + D and j = proj_B, so j i = m is an admissible monic."""
    a = model.random_object(rng, bounds)
    m = model.random_admissible_monic_from(rng, a, bounds)
    d = model.random_object(rng, bounds)
    u = model.random_morphism(rng, a, d)
    bp = model.biproduct(m.cod, d)
    return {"i": (bp.inj1 @ m) + (bp.inj2 @ u), "j": bp.proj1, "m": m}


def _cancellation_instance(model: ExactStructureModel, rng: random.Random,
                           bounds: GenBounds) -> dict:
    """f = t inj1 and g = h proj1 t^-1 for a shear t of A + D, so g f = h
    is an admissible epic."""
    b = model.random_object(rng, bounds)
    h = model.random_admissible_epic_onto(rng, b, bounds)
    bp = model.biproduct(h.dom, model.random_object(rng, bounds))
    t, tinv = model._random_shear_pair(rng, bp)
    return {"f": t @ bp.inj1, "g": (h @ bp.proj1) @ tinv, "h": h}


def check_obscure(model: ExactStructureModel, cfg: LawConfig) -> LawReport:
    """If i has a cokernel and j i is an admissible monic then i is one."""

    def check(inst):
        i, j, m = inst["i"], inst["j"], inst["m"]
        if model.cokernel(i) is None:
            return True   # hypothesis not met; nothing to conclude
        if not model.is_admissible_monic(j @ i):
            return True
        return model.is_admissible_monic(i)

    edges = []
    for a in _edge_objects(model):
        one = model.identity(a)
        edges.append({"i": one, "j": one, "m": one})
    return run_law("obscure", model, cfg,
                   lambda rng: _obscure_instance(model, rng, cfg.bounds), check,
                   edges=edges)


def check_pullback_monic(model: ExactStructureModel, cfg: LawConfig) -> LawReport:
    """The pull-back of an admissible monic along an admissible epic is one."""

    def gen(rng):
        a = model.random_object(rng, cfg.bounds)
        i = model.random_admissible_monic_from(rng, a, cfg.bounds)
        e = model.random_admissible_epic_onto(rng, i.cod, cfg.bounds)
        return {"i": i, "e": e}

    def check(inst):
        i, e = inst["i"], inst["e"]
        bp = model.biproduct(i.dom, e.dom)
        row = (i @ bp.proj1) - (e @ bp.proj2)
        k = model.kernel(row)
        if k is None:
            return False
        pulled = bp.proj2 @ k
        return model.is_admissible_monic(pulled)

    return run_law("pullback_monic", model, cfg, gen, check)


def check_summands(model: ExactStructureModel, cfg: LawConfig) -> LawReport:
    """If the direct sum of two composable pairs is short exact, so are both."""

    def gen(rng):
        s1 = model.random_ses(rng, cfg.bounds)
        if rng.random() < 0.5:
            s2 = model.random_ses(rng, cfg.bounds)
        else:
            # a kernel-cokernel pair assembled from a random admissible monic
            a = model.random_object(rng, cfg.bounds)
            i2 = model.random_admissible_monic_from(rng, a, cfg.bounds)
            p2 = model.cokernel(i2)
            if p2 is None:
                return None
            s2 = ShortExactSequence(i2, p2)
        return {"s1i": s1.i, "s1p": s1.p, "s2i": s2.i, "s2p": s2.p}

    def check(inst):
        s1 = ShortExactSequence(inst["s1i"], inst["s1p"])
        s2 = ShortExactSequence(inst["s2i"], inst["s2p"])
        i, p = _direct_sum(model, s1.i, s2.i), _direct_sum(model, s1.p, s2.p)
        if not model.is_short_exact(i, p):
            return True   # the hypothesis of the law is not met
        return model.is_short_exact(s1.i, s1.p) and \
            model.is_short_exact(s2.i, s2.p)

    edges = [{"s1i": s.i, "s1p": s.p, "s2i": s.i, "s2p": s.p}
             for s in _edge_sequences(model)]
    return run_law("summands", model, cfg, gen, check, edges=edges)


def check_five(model: ExactStructureModel, cfg: LawConfig) -> LawReport:
    """Short five lemma: isomorphism variant plus, on abelian-style models,
    the admissible-monic and admissible-epic variants."""
    subs = []

    def holds_under(*hypotheses):
        def check(inst):
            m = ses_morphism(ShortExactSequence(inst["src_i"], inst["src_p"]),
                             ShortExactSequence(inst["tgt_i"], inst["tgt_p"]),
                             inst["a"], inst["b"], inst["c"])
            v = five_lemma_verify(m)
            return v.holds and v.hypothesis in hypotheses
        return check

    def gen_iso(rng):
        s = model.random_ses(rng, cfg.bounds)
        a = model.random_automorphism(rng, s.sub)
        po = pushout_along_monic(s.i, a)
        coker = model.cokernel(po.monic)
        if coker is None:
            return None
        cbar = model.solve_left_factor(s.p, coker @ po.map)
        if cbar is None:
            return None
        tgt = ShortExactSequence(po.monic, coker)
        return {"src_i": s.i, "src_p": s.p, "tgt_i": tgt.i, "tgt_p": tgt.p,
                "a": a, "b": po.map, "c": cbar}

    subs.append(run_law("five_iso", model, cfg, gen_iso, holds_under("isomorphisms")))

    # the restriction/quotient recipes need subobject machinery and all
    # kernels; they run on the abelian-style presented models
    if model.abelian and model.presented:
        def gen_monic(rng):
            tgt = model.random_ses(rng, cfg.bounds)
            x = tgt.mid
            extra = model._rand_matrix(rng, x.payload.ngens,
                                       rng.randrange(1, 3), 2)
            b0 = model.subobject(x, column_hnf(
                IntMatrix.hstack(extra, x.payload.relations)))
            kappa = model.kernel(tgt.p @ b0)
            if kappa is None:
                return None
            src_p = model.cokernel(kappa)
            a = model.solve_right_factor(tgt.i, b0 @ kappa)
            c = model.solve_left_factor(src_p, tgt.p @ b0)
            if a is None or c is None:
                return None
            return {"src_i": kappa, "src_p": src_p, "tgt_i": tgt.i,
                    "tgt_p": tgt.p, "a": a, "b": b0, "c": c}

        subs.append(run_law("five_monic", model, cfg, gen_monic,
                            holds_under("monics", "isomorphisms")))

        def gen_epic(rng):
            src = model.random_ses(rng, cfg.bounds)
            extra = model.random_morphism(
                rng, model.random_object(rng, cfg.bounds), src.sub)
            sub_in_mid = src.i @ extra
            b = model.quotient_by(src.mid, sub_in_mid.matrix)
            a = model.quotient_by(src.sub, extra.matrix)
            newi = model.solve_left_factor(a, b @ src.i)
            newp = model.solve_left_factor(b, src.p)
            if newi is None or newp is None:
                return None
            return {"src_i": src.i, "src_p": src.p, "tgt_i": newi,
                    "tgt_p": newp, "a": a, "b": b,
                    "c": model.identity(src.quot)}

        subs.append(run_law("five_epic", model, cfg, gen_epic,
                            holds_under("epics", "isomorphisms")))
    return _merge("five", model, cfg, subs)


def check_cancellation(model: ExactStructureModel, cfg: LawConfig) -> LawReport:
    """If g f is an admissible epic then g is one (weakly idempotent complete)."""
    if not model.weakly_idempotent_complete:
        raise PreconditionError("cancellation testing requires a WIC model")

    def check(inst):
        f, g = inst["f"], inst["g"]
        if not model.is_admissible_epic(g @ f):
            return True
        return model.is_admissible_epic(g)

    return run_law("cancellation", model, cfg,
                   lambda rng: _cancellation_instance(model, rng, cfg.bounds), check)


def _spliced_acyclic(model, rng, bounds: GenBounds, length: int = 3):
    """Random acyclic complex from conjugated split extensions."""
    zcur = model.zero_object()
    comps, diffs = [], []
    prev_epi = None
    small = GenBounds(max_gens=max(2, bounds.max_gens // 2),
                      max_rel_entry=bounds.max_rel_entry,
                      max_entry=bounds.max_entry)
    for _ in range(length):
        ext = model.random_object(rng, small)
        bp = model.biproduct(zcur, ext)
        t, tinv = model._random_shear_pair(rng, bp)
        mono = t @ bp.inj1
        epi = bp.proj2 @ tinv
        comps.append(bp.ob)
        if prev_epi is not None:
            diffs.append(mono @ prev_epi)
        prev_epi = epi
        zcur = ext
    comps.append(zcur)
    diffs.append(prev_epi)
    return chain_complex(model, 0, comps, diffs)


def _homotopy_chain_map(model, rng, x, y):
    comps, hs = {}, {}
    for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 2):
        hs[n] = model.random_morphism(rng, x.component(n), y.component(n - 1))
    for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1):
        comps[n] = (y.differential(n - 1) @ hs[n]) + (hs[n + 1] @ x.differential(n))
    return chain_map(x, y, comps, check=False)


def check_cone_acyclicity(model: ExactStructureModel, cfg: LawConfig) -> LawReport:
    """Cones of chain maps between acyclic complexes are acyclic."""

    def gen(rng):
        x = _spliced_acyclic(model, rng, cfg.bounds)
        y = _spliced_acyclic(model, rng, cfg.bounds)
        f = _homotopy_chain_map(model, rng, x, y)
        return {"f": f}

    def check(inst):
        check_cone_acyclic(inst["f"])   # raises if no certificate is built
        return is_acyclic(mapping_cone(inst["f"])) is not None

    return run_law("cone_acyclicity", model, cfg, gen, check)


def check_nh_acyclic(model: ExactStructureModel, cfg: LawConfig) -> LawReport:
    """Null-homotopic implies acyclic; fails exactly on non-idempotent-complete
    models, where the periodic idempotent complexes witness the gap."""
    subs = []

    def gen_bounded(rng):
        pieces = []
        for _ in range(2):
            a = object_as_complex(
                model.random_object(rng, GenBounds(max_gens=2)),
                degree=rng.randrange(0, 2))
            pieces.append(mapping_cone(identity_chain_map(a)))
        lo = min(c.lo for c in pieces)
        hi = max(c.hi for c in pieces)
        c0, c1 = pieces
        comps = [model.biproduct(c0.component(n), c1.component(n)).ob
                 for n in range(lo, hi + 1)]
        diffs = [_direct_sum(model, c0.differential(n), c1.differential(n))
                 for n in range(lo, hi)]
        return {"x": chain_complex(model, lo, comps, diffs)}

    def check_bounded(inst):
        x = inst["x"]
        if find_null_homotopy(identity_chain_map(x)) is None:
            return False
        return is_acyclic(x) is not None

    subs.append(run_law("nh_acyclic_bounded", model, cfg, gen_bounded, check_bounded))

    def gen_periodic(rng):
        a, q = model.random_split_pair(rng, cfg.bounds)
        return {"a": a, "p": q}

    def check_periodic(inst):
        x = periodic_idempotent_complex(model, inst["a"], inst["p"], 6)
        periodic_null_homotopy(x)   # checks the closed-form contraction
        return periodic_is_acyclic(x) is not None

    edge = model.idempotent_edge()
    if edge is not None:
        subs.append(run_law("nh_acyclic_periodic", model, cfg, gen_periodic,
                            check_periodic, edges=[{"a": edge[0], "p": edge[1]}]))
    return _merge("nh_acyclic", model, cfg, subs)


def check_heller(model: ExactStructureModel, cfg: LawConfig) -> LawReport:
    """Heller's four axioms, testable shape: identities, compositions,
    two-sided cancellation, and the 3x3 closure of the exact class."""
    if not model.weakly_idempotent_complete:
        raise PreconditionError("the Heller axioms characterize WIC exact categories")
    subs = []

    def gen_obj(rng):
        return {"a": model.random_object(rng, cfg.bounds)}

    subs.append(run_law(
        "heller_i", model, cfg, gen_obj,
        lambda inst: model.is_admissible_monic(model.identity(inst["a"])) and
        model.is_admissible_epic(model.identity(inst["a"])),
        edges=[{"a": o} for o in _edge_objects(model)]))

    def gen_comp(rng):
        # an [E1] and an [E1op] instance on one object
        monics = _composable_monics(model, rng, cfg.bounds)
        return {**monics, **_composable_epics(model, rng, cfg.bounds, monics["i1"].dom)}

    subs.append(run_law(
        "heller_ii", model, cfg, gen_comp,
        lambda inst: model.is_admissible_monic(inst["i2"] @ inst["i1"]) and
        model.is_admissible_epic(inst["e1"] @ inst["e2"])))

    def gen_cancel(rng):
        # one obscure-axiom instance, then one cancellation instance
        mono = _obscure_instance(model, rng, cfg.bounds)
        epi = _cancellation_instance(model, rng, cfg.bounds)
        return {"f": mono["i"], "j": mono["j"], "fe": epi["f"], "ge": epi["g"]}

    def check_cancel(inst):
        ok_mono = True
        if model.is_admissible_monic(inst["j"] @ inst["f"]):
            ok_mono = model.is_admissible_monic(inst["f"])
        ok_epi = True
        if model.is_admissible_epic(inst["ge"] @ inst["fe"]):
            ok_epi = model.is_admissible_epic(inst["ge"])
        return ok_mono and ok_epi

    subs.append(run_law("heller_iii", model, cfg, gen_cancel, check_cancel))

    def gen_grid3(rng):
        # grid from a map of sequences with monic components, built by
        # enlarging each object with conjugated biproduct padding; pads are
        # kept small since every object is a double biproduct
        small = GenBounds(max_gens=max(2, cfg.bounds.max_gens // 2),
                          max_rel_entry=cfg.bounds.max_rel_entry,
                          max_entry=cfg.bounds.max_entry)
        src = model.random_ses(rng, small)
        pads = [model.random_object(rng, small) for _ in range(2)]
        bp_sub = model.biproduct(src.sub, pads[0])
        pad_mid = model.biproduct(pads[0], pads[1])
        bp_mid = model.biproduct(src.mid, pad_mid.ob)
        bp_quot = model.biproduct(src.quot, pads[1])
        t_sub, tinv_sub = model._random_shear_pair(rng, bp_sub)
        t_mid, tinv_mid = model._random_shear_pair(rng, bp_mid)
        t_quot, _ = model._random_shear_pair(rng, bp_quot)
        a = t_sub @ bp_sub.inj1
        b = t_mid @ bp_mid.inj1
        c = t_quot @ bp_quot.inj1
        # target sequence on the padded objects: (src.i + pad-inj, src.p + pad-proj)
        i2 = _direct_sum(model, src.i, pad_mid.inj1)
        p2 = _direct_sum(model, src.p, pad_mid.proj2)
        i_big = t_mid @ i2 @ tinv_sub
        p_big = t_quot @ p2 @ tinv_mid
        return {"r1i": src.i, "r1p": src.p, "r2i": i_big, "r2p": p_big,
                "a": a, "b": b, "c": c}

    def check_grid(inst):
        row1 = ShortExactSequence(inst["r1i"], inst["r1p"])
        row2 = ShortExactSequence(inst["r2i"], inst["r2p"])
        a, b, c = inst["a"], inst["b"], inst["c"]
        # hypotheses: rows exact, columns 2 and 3 exact, diagram commutes
        if not model.is_short_exact(row1.i, row1.p) or \
                not model.is_short_exact(row2.i, row2.p):
            return True
        if not (row2.i @ a).same_as(b @ row1.i) or \
                not (row2.p @ b).same_as(c @ row1.p):
            return True
        cb = model.cokernel(b)
        cc = model.cokernel(c)
        ca = model.cokernel(a)
        if cb is None or cc is None or ca is None:
            return True
        if not model.is_short_exact(b, cb) or not model.is_short_exact(c, cc):
            return True
        f3 = model.solve_left_factor(ca, cb @ row2.i)
        g3 = model.solve_left_factor(cb, cc @ row2.p)
        if f3 is None or g3 is None:
            return True
        if not model.is_short_exact(f3, g3):
            return True
        # conclusion: the first column is short exact
        return model.is_short_exact(a, ca)

    subs.append(run_law("heller_iv", model, cfg, gen_grid3, check_grid))
    return _merge("heller", model, cfg, subs)


def check_functor_exact(functor, model: ExactStructureModel,
                        cfg: LawConfig) -> LawReport:
    """Does the functor carry generated short exact sequences (and push-out
    squares) to short exact sequences (bicartesian squares)?"""
    tgt_model = functor.target.model

    def gen(rng):
        s = model.random_ses(rng, cfg.bounds)
        f = model.random_morphism(rng, s.i.dom,
                                  model.random_object(rng, cfg.bounds))
        return {"i": s.i, "p": s.p, "f": f}

    def check(inst):
        if not tgt_model.is_short_exact(*functor.exact_pair(inst["i"], inst["p"])):
            return False
        # the image of the square's paths i, map and f, monic; for a
        # contravariant functor it runs backwards (the bicartesian test is
        # self-dual)
        po = pushout_along_monic(inst["i"], inst["f"])
        u, s = functor.exact_pair(inst["i"], po.map)
        v, t = functor.exact_pair(inst["f"], po.monic)
        return square_is_bicartesian(u, v, s, t)

    edges = []
    if model is fgab():
        zobj = cyclic(0)
        z2 = cyclic(2)
        two = model.morphism(zobj, zobj, IntMatrix.from_rows([[2]]))
        quot = model.morphism(zobj, z2, IntMatrix.from_rows([[1]]))
        edges.append({"i": two, "p": quot, "f": model.identity(zobj)})
    return run_law(f"functor_exact[{functor.label}]", model, cfg, gen, check,
                   edges=edges)


LAW_SUITES = {
    "axioms": check_axioms,
    "obscure": check_obscure,
    "pullback_monic": check_pullback_monic,
    "summands": check_summands,
    "five": check_five,
    "cancellation": check_cancellation,
    "cone_acyclicity": check_cone_acyclicity,
    "nh_acyclic": check_nh_acyclic,
    "heller": check_heller,
}


def run_suites(model: ExactStructureModel, cfg: LawConfig,
               names: Sequence[str]) -> list[LawReport]:
    reports = []
    for name in names:
        if name not in LAW_SUITES:
            raise PreconditionError(f"unknown law suite {name!r}")
        reports.append(LAW_SUITES[name](model, cfg))
    return reports
