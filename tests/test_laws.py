import json
import subprocess
import sys

import pytest

from exactcat import laws
from exactcat.completion import complete
from exactcat.documents import jsonable, parse_model_name
from exactcat.intlinalg import IntMatrix
from exactcat.kernel import GenBounds, PreconditionError
from exactcat.laws import (
    LawConfig,
    check_axioms,
    check_cancellation,
    check_cone_acyclicity,
    check_five,
    check_functor_exact,
    check_heller,
    check_nh_acyclic,
    check_obscure,
    check_pullback_monic,
    check_summands,
    run_suites,
)
from exactcat.models import (
    cyclic,
    even_rank_split,
    fgab,
    fgab_split,
    free_exact,
    free_split,
    vect_model,
)
from exactcat.resolutions import FunctorSpec

FAST = LawConfig(seed=11, iterations=12)


def assert_passes(report):
    assert report.passed, report.to_json()[:2000]


@pytest.mark.parametrize("model", [fgab(), fgab_split(), vect_model(3),
                                   free_exact(), free_split(), even_rank_split()])
def test_axioms_pass(model):
    assert_passes(check_axioms(model, FAST))


def test_axioms_pass_on_completion():
    assert_passes(check_axioms(complete(even_rank_split()), FAST))
    assert_passes(check_axioms(complete(fgab()), FAST))


@pytest.mark.parametrize("model", [fgab(), even_rank_split(), free_exact()])
def test_obscure_passes(model):
    assert_passes(check_obscure(model, FAST))


@pytest.mark.parametrize("model", [fgab(), even_rank_split()])
def test_pullback_monic_passes(model):
    assert_passes(check_pullback_monic(model, FAST))


@pytest.mark.parametrize("model", [fgab(), even_rank_split(), free_exact()])
def test_summands_passes(model):
    assert_passes(check_summands(model, FAST))


@pytest.mark.parametrize("model", [fgab(), fgab_split(), even_rank_split()])
def test_five_passes(model):
    assert_passes(check_five(model, FAST))


@pytest.mark.parametrize("model", [fgab(), even_rank_split(), free_split()])
def test_cancellation_passes(model):
    assert_passes(check_cancellation(model, FAST))


def test_cancellation_requires_wic():
    m = fgab()
    flag = m.weakly_idempotent_complete
    try:
        m.weakly_idempotent_complete = False
        with pytest.raises(PreconditionError):
            check_cancellation(m, FAST)
    finally:
        m.weakly_idempotent_complete = flag


@pytest.mark.parametrize("model", [fgab(), even_rank_split()])
def test_cone_acyclicity_passes(model):
    assert_passes(check_cone_acyclicity(model, LawConfig(seed=3, iterations=5)))


def test_nh_acyclic_dichotomy():
    # passes on idempotent complete models
    assert_passes(check_nh_acyclic(fgab(), LawConfig(seed=5, iterations=6)))
    assert_passes(check_nh_acyclic(free_split(), LawConfig(seed=5, iterations=6)))
    # fails on the even-rank split model with a periodic witness
    rep = check_nh_acyclic(even_rank_split(), LawConfig(seed=5, iterations=12))
    assert not rep.passed
    periodic = [r for r in rep.sub_reports if r.law_id == "nh_acyclic_periodic"]
    assert periodic and periodic[0].failures
    # and passes again after completion
    assert_passes(check_nh_acyclic(complete(even_rank_split()),
                                   LawConfig(seed=5, iterations=6)))


def test_heller_passes():
    assert_passes(check_heller(fgab(), LawConfig(seed=7, iterations=8)))
    assert_passes(check_heller(complete(even_rank_split()),
                               LawConfig(seed=7, iterations=8)))
    assert_passes(check_heller(fgab_split(), LawConfig(seed=7, iterations=8)))


def test_functor_exact_verdicts():
    m = fgab()
    cfg = LawConfig(seed=9, iterations=8)
    assert_passes(check_functor_exact(FunctorSpec("tensor", cyclic(0)), m, cfg))
    rep = check_functor_exact(FunctorSpec("tensor", cyclic(2)), m, cfg)
    assert not rep.passed
    assert rep.failures
    assert_passes(check_functor_exact(FunctorSpec("hom_from", cyclic(0)), m, cfg))


def test_corrupted_policy_fails_with_witness():
    class Corrupted(type(free_exact())):
        model_id = "free_exact_corrupted"

        def is_admissible_monic(self, f):
            return self._is_injective(f)

    bad = Corrupted()
    rep = check_axioms(bad, LawConfig(seed=13, iterations=25))
    assert not rep.passed
    completes = [r for r in rep.sub_reports if r.law_id == "admissible_completes"]
    assert completes and completes[0].failures


def test_determinism_byte_identical():
    cfg = LawConfig(seed=21, iterations=6)
    r1 = check_axioms(fgab(), cfg)
    r2 = check_axioms(fgab(), cfg)
    assert r1.to_json() == r2.to_json()
    r3 = check_heller(fgab(), cfg)
    r4 = check_heller(fgab(), cfg)
    assert r3.to_json() == r4.to_json()


def test_failure_witness_reruns_deterministically():
    rep1 = check_nh_acyclic(even_rank_split(), LawConfig(seed=5, iterations=12))
    rep2 = check_nh_acyclic(even_rank_split(), LawConfig(seed=5, iterations=12))
    assert rep1.to_json() == rep2.to_json()


def test_run_suites_registry():
    reports = run_suites(fgab(), LawConfig(seed=1, iterations=4),
                         ["axioms", "obscure"])
    assert [r.law_id for r in reports] == ["axioms", "obscure"]
    with pytest.raises(PreconditionError):
        run_suites(fgab(), FAST, ["unknown_suite"])


def test_shrinking_produces_smaller_witness():
    # drive the shrinker with an artificial law that rejects any morphism
    # with a nonzero (0,0) entry
    from exactcat.laws import run_law
    m = fgab()

    def gen(rng):
        a = cyclic(0)
        return {"f": m.morphism(a, a, IntMatrix.from_rows(
            [[rng.randrange(3, 9)]]), check=False)}

    def pred(inst):
        mat = inst["f"].matrix
        return mat.rows == 0 or mat.entries[0][0] == 0

    rep = run_law("shrink_probe", m, LawConfig(seed=2, iterations=2), gen, pred)
    assert rep.failures
    for fail in rep.failures:
        entry = fail["witness"]["f"]["matrix"]["entries"][0][0]
        # halving/zeroing drives the entry to 1 (0 would pass the law)
        assert entry == 1


def test_raising_construction_recorded_as_failure():
    # a corrupted policy can make guaranteed constructions blow up; the
    # harness must record that as a law failure, not crash
    class CorruptedE2(type(free_exact())):
        model_id = "free_exact_corrupted_e2"

        def is_admissible_monic(self, f):
            return self._is_injective(f)

        def random_ses(self, rng, bounds):
            from exactcat.kernel import ShortExactSequence
            z = self.object(1)
            two = self.morphism(z, z, IntMatrix.from_rows([[2]]), check=False)
            coker = self.cokernel(two)
            return ShortExactSequence(two, coker)

    bad = CorruptedE2()
    rep = check_axioms(bad, LawConfig(seed=1, iterations=5))
    assert not rep.passed
    # reports remain byte-identical across reruns even with error records
    rep2 = check_axioms(bad, LawConfig(seed=1, iterations=5))
    assert rep.to_json() == rep2.to_json()


def test_periodic_instance_on_completion_at_max_gens_4():
    # an 8-generator periodic complex: its contraction takes minutes as an
    # assembled 384x384 system and well under a second in closed form
    rep = check_nh_acyclic(parse_model_name("completion:even_rank_split"),
                           LawConfig(seed=105, iterations=5,
                                     bounds=GenBounds(max_gens=4, max_rel_entry=9,
                                                      max_entry=9)))
    assert_passes(rep)


def test_shrinking_drops_generators():
    # a law that always fails on nonzero objects shrinks the witness down
    # by removing generators
    from exactcat.laws import run_law
    m = fgab()

    def gen(rng):
        a = m.object(3, IntMatrix.from_rows([[2, 0], [0, 4], [0, 0]]))
        return {"f": m.identity(a)}

    def pred(inst):
        return inst["f"].dom.payload.ngens == 0

    rep = run_law("drop_probe", m, LawConfig(seed=4, iterations=1), gen, pred)
    assert rep.failures
    witness = rep.failures[0]["witness"]["f"]
    assert witness["dom"]["ngens"] < 3


def test_shrink_skips_ill_shaped_candidates_but_propagates_bugs():
    from exactcat.intlinalg import DimensionMismatch
    from exactcat.kernel import ExactCatError
    from exactcat.laws import _shrink
    m = fgab()
    a = m.object(2)
    inst = {"f": m.morphism(a, a, IntMatrix.from_rows([[3, 1], [0, 2]]))}
    for exc in (ExactCatError, DimensionMismatch, ValueError, IndexError):
        def ill_shaped(cand, exc=exc):
            raise exc("candidate breaks the law's shape assumptions")
        # every candidate is skipped, so the instance comes back unshrunk
        assert _shrink(inst, ill_shaped, 50) is inst

    def buggy(cand):
        raise TypeError("a bug in the predicate")

    with pytest.raises(TypeError, match="a bug in the predicate"):
        _shrink(inst, buggy, 50)


@pytest.mark.parametrize("method", ["object", "morphism"])
def test_shrink_propagates_internal_errors_from_candidate_rebuilds(method, monkeypatch):
    # rebuilding a candidate may refuse it (PreconditionError,
    # ComposabilityError), but an InternalCheckError there is a bug
    from exactcat.kernel import InternalCheckError
    from exactcat.laws import _shrink
    m = fgab()
    a = m.object(2)
    inst = {"f": m.morphism(a, a, IntMatrix.from_rows([[3, 1], [0, 2]]))}

    def broken(*args, **kwargs):
        raise InternalCheckError("rebuild blew up")

    monkeypatch.setattr(m, method, broken)
    with pytest.raises(InternalCheckError, match="rebuild blew up"):
        _shrink(inst, lambda cand: False, 50)
    if method == "morphism":
        with pytest.raises(InternalCheckError, match="rebuild blew up"):
            next(laws._entry_candidates(inst))


def _inline_heller_iii_instance(model, rng, bounds):
    # the inline generator heller_iii had before it drew one obscure-axiom
    # and one cancellation instance; kept as the oracle for that refactor
    a = model.random_object(rng, bounds)
    m = model.random_admissible_monic_from(rng, a, bounds)
    d = model.random_object(rng, bounds)
    u = model.random_morphism(rng, a, d)
    bp = model.biproduct(m.cod, d)
    f = (bp.inj1 @ m) + (bp.inj2 @ u)
    j = bp.proj1
    b = model.random_object(rng, bounds)
    h = model.random_admissible_epic_onto(rng, b, bounds)
    bp2 = model.biproduct(h.dom, model.random_object(rng, bounds))
    t, tinv = model._random_shear_pair(rng, bp2)
    fe = t @ bp2.inj1
    ge = (h @ bp2.proj1) @ tinv
    return {"f": f, "j": j, "fe": fe, "ge": ge}


@pytest.mark.parametrize("model", [fgab(), fgab_split(), even_rank_split(),
                                   complete(even_rank_split())],
                         ids=lambda m: m.model_id)
def test_heller_iii_instances_match_inline_oracle(model, monkeypatch):
    generators = {}
    run_law = laws.run_law

    def capture(law_id, model, cfg, generate, predicate, edges=()):
        generators[law_id] = generate
        return run_law(law_id, model, cfg, generate, predicate, edges)

    monkeypatch.setattr(laws, "run_law", capture)
    cfg = LawConfig(seed=3, iterations=6, bounds=GenBounds(max_gens=3))
    check_heller(model, cfg)
    for k in range(cfg.iterations):
        got = generators["heller_iii"](laws._iter_rng(cfg, "heller_iii", k))
        want = _inline_heller_iii_instance(
            model, laws._iter_rng(cfg, "heller_iii", k), cfg.bounds)
        assert list(got) == list(want)
        assert jsonable(got) == jsonable(want)


def test_failure_records_by_instance_kind():
    # an edge failure is recorded as given, an iteration failure shrunk, and
    # "error" appears only when the check raised
    m = fgab()
    a = cyclic(0)

    def inst(x):
        return {"f": m.morphism(a, a, IntMatrix.from_rows([[x]]), check=False)}

    def pred(i):
        x = i["f"].matrix.entries[0][0]
        if x == 7:
            raise PreconditionError("seven")
        return x == 0

    rep = laws.run_law("records", m, LawConfig(seed=0, iterations=1),
                       lambda rng: inst(6), pred, edges=[inst(6), inst(7), inst(0)])
    assert rep.instances_run == 4
    assert [sorted(r) for r in rep.failures] == [
        ["edge", "witness"], ["edge", "error", "witness"], ["iteration", "witness"]]
    assert [(r.get("edge"), r.get("iteration")) for r in rep.failures] == [
        (0, None), (1, None), (None, 0)]
    assert [r["witness"]["f"]["matrix"]["entries"] for r in rep.failures] == [
        [[6]], [[7]], [[1]]]
    assert rep.failures[1]["error"] == "PreconditionError: seven"


_ENCODE_COMPLEXES = """
import json
from exactcat.complexes import identity_chain_map, mapping_cone, object_as_complex
from exactcat.documents import jsonable
from exactcat.models import cyclic
f = identity_chain_map(mapping_cone(identity_chain_map(object_as_complex(cyclic(2)))))
print(json.dumps(jsonable({"f": f, "x": f.source}), sort_keys=True))
"""


def test_complex_witnesses_encode_identically_across_processes():
    outs = [subprocess.run([sys.executable, "-c", _ENCODE_COMPLEXES],
                           capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    assert "0x" not in outs[0]
    enc = json.loads(outs[0])
    assert set(enc["f"]) == {"source", "target", "comps"}
    assert enc["f"]["source"] == enc["x"]
    assert set(enc["x"]) == {"lo", "components", "differentials"}
    assert len(enc["x"]["components"]) == len(enc["x"]["differentials"]) + 1
