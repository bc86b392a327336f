"""The three benchmark workloads and their correctness checks.

Each workload is driven only through exactcat's public entry points
(``laws.run_suites``, the construction functions and ``cli.main``), always
looked up on the module at call time so that the traced run's wrappers
see every call.  ``setup`` builds the models and inputs that need no
timing and returns the timed part as a function; what that function
returns is checked here, so a traced and an untraced run are held to the
same checks.

Why these workloads (probes on a 2-core machine, Python 3.11):

* laws_fgab -- all nine law suites on fgab at max_gens=5.  The abelian
  path answers through Smith/Hermite analysis, and Hermite coefficient
  growth is what bounds its time: column_hnf_transform has the largest
  self time, Kronecker assembly a few percent.
* laws_split -- all nine suites on fgab_split, completion:even_rank_split
  and even_rank_split.  Split exact structures decide admissibility by
  solving for splitting witnesses through Kronecker-assembled
  MatrixEquationSystems, and CompletedModel._splits fills up.
  nh_acyclic_periodic fails on even_rank_split by design (weakly
  idempotent complete, not idempotent complete), so the report-and-failure
  path of the harness runs too.
* constructions -- the library calls behind the acceptance criteria on
  seeded fgab instances plus the eight golden CLI commands: work spread
  over diagrams, complexes, resolutions, completion and models, with
  heavy cache reuse, so per-call overhead and cache-size changes show
  here rather than in the law workloads.

The law workloads run one size below the obvious choice (max_gens=6 for
fgab, the acceptance bound 4 for the split models).  At those sizes a few
instances per run cost 10 to 25 times the median, and a few in a
thousand cost minutes: LawConfig(seed=105, iterations=5) at max_gens=4
spends 183 s in one nh_acyclic_periodic instance on
completion:even_rank_split.  Across seeds the run medians then spread by
17 to 24%, which no regression bound of 0.25 can hold, and a single
instance can pass the 180 s limit of a run.  bench/README.md has the
measurements.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import time
from pathlib import Path


def _mod(name):
    # exactcat.kernel is shadowed by the re-exported function kernel().
    __import__(f"exactcat.{name}")
    return sys.modules[f"exactcat.{name}"]


ALL_SUITES = ("axioms", "obscure", "pullback_monic", "summands", "five",
              "cancellation", "cone_acyclicity", "nh_acyclic", "heller")

# workload -> (models, GenBounds fields, iterations per chunk)
LAW_WORKLOADS = {
    "laws_fgab": (("fgab",), (5, 9, 9), 20),
    "laws_split": (("fgab_split", "completion:even_rank_split", "even_rank_split"),
                   (3, 9, 9), 5),
}

# (model name, leaf law id) pairs that must fail.  even_rank_split is weakly
# idempotent complete but not idempotent complete, so the periodic complex
# of a rank-one idempotent is null-homotopic without being acyclic.
EXPECTED_FAILURES = {("even_rank_split", "nh_acyclic_periodic")}

# Construction counts per chunk: the acceptance criteria's stated sizes.
SIZES = {"snake": 200, "naturality": 100, "comparison": 200, "horseshoe": 100,
         "replacement": 100, "dichotomy": 100, "independence": 50}
GCD_GRID = range(2, 13)

GOLDEN_DIR = Path("tests") / "golden"
GOLDEN_CASES = [
    (("--json", "ext", "4", "6", "1"), "ext_4_6_1.out"),
    (("--json", "tor", "4", "6", "1"), "tor_4_6_1.out"),
    (("--json", "snake", "snake_doc.json", "m"), "snake_m.out"),
    (("--json", "homology", "snake_doc.json", "X"), "homology_X.out"),
    (("--json", "homology", "snake_doc.json", "acyclic"), "homology_acyclic.out"),
    (("--json", "resolve", "snake_doc.json", "Z4"), "resolve_Z4.out"),
    (("--json", "complete", "complete_doc.json", "E", "q"), "complete_E_q.out"),
    (("--json", "check", "--model", "fgab", "--suite", "obscure",
      "--iters", "5", "--seed", "7"), "check_obscure.out"),
]

WORKLOADS = tuple(LAW_WORKLOADS) + ("constructions",)


class Outcome:
    """What one timed chunk did: operations attempted, unexpected outcomes
    (each with a one-line reason), per-call latencies and an output digest."""

    def __init__(self):
        self.ops = 0
        self.unexpected: list[str] = []
        self.calls_ms: list[float] = []
        self._hash = hashlib.sha256()

    def record(self, text):
        self._hash.update(text.encode())
        self._hash.update(b"\n")

    @property
    def digest(self):
        return self._hash.hexdigest()


def setup(workload, subseed, root="."):
    """Build models and fixed inputs; return the timed part as a function
    that yields an Outcome."""
    if workload in LAW_WORKLOADS:
        return _setup_laws(workload, subseed)
    if workload == "constructions":
        return _setup_constructions(subseed, Path(root))
    raise ValueError(f"unknown workload {workload!r}")


# -- law workloads ------------------------------------------------------------


def _leaves(rep):
    if not rep.sub_reports:
        return [rep]
    return [leaf for sub in rep.sub_reports for leaf in _leaves(sub)]


def _setup_laws(workload, subseed):
    laws, documents, kernel = _mod("laws"), _mod("documents"), _mod("kernel")
    names, (gens, rel, ent), iters = LAW_WORKLOADS[workload]
    models = [(name, documents.parse_model_name(name)) for name in names]
    cfg = laws.LawConfig(seed=subseed, iterations=iters,
                         bounds=kernel.GenBounds(max_gens=gens, max_rel_entry=rel,
                                                 max_entry=ent))

    def run():
        # A call is one law instance.  Instances are not timed one by one
        # without wrapping the harness, so the chunk gives one sample: its
        # mean time per instance.
        out = Outcome()
        t0 = time.perf_counter()
        for name, model in models:
            for rep in laws.run_suites(model, cfg, ALL_SUITES):
                out.record(rep.to_json())
                _check_law_report(name, rep, out)
        out.calls_ms.append(1000.0 * (time.perf_counter() - t0) / out.ops)
        return out

    return run


def _check_law_report(model_name, rep, out):
    out.ops += rep.total_instances()
    for leaf in _leaves(rep):
        expect_fail = (model_name, leaf.law_id) in EXPECTED_FAILURES
        if leaf.failures and not expect_fail:
            out.unexpected.extend(
                f"{model_name}/{leaf.law_id}: {json.dumps(f, sort_keys=True)[:200]}"
                for f in leaf.failures)
        elif expect_fail and not leaf.failures:
            out.unexpected.append(f"{model_name}/{leaf.law_id}: expected a failure")


# -- constructions --------------------------------------------------------------


def _setup_constructions(subseed, root):
    m = {name: _mod(name) for name in ("intlinalg", "kernel", "models", "diagrams",
                                       "complexes", "resolutions", "completion",
                                       "cli")}
    fgab = m["models"].fgab()
    base = m["models"].even_rank_split()
    completed = m["completion"].complete(base)
    bounds = m["kernel"].GenBounds(max_gens=4, max_rel_entry=9, max_entry=9)
    golden = []
    for argv, out_name in GOLDEN_CASES:
        argv = [str(root / GOLDEN_DIR / a) if a.endswith(".json") else a for a in argv]
        golden.append((argv, out_name, (root / GOLDEN_DIR / out_name).read_text(encoding="utf-8")))
    ctx = _Ctx(m, fgab, bounds, subseed)

    def run():
        out = Outcome()
        for section in (_snake, _naturality, _comparison, _horseshoe,
                        _replacement, _dichotomy, _independence):
            section(ctx, out)
        _gcd_grid(ctx, out)
        _periodic_flip(ctx, out, base, completed)
        _cli(ctx, out, golden)
        return out

    return run


class _Ctx:
    def __init__(self, m, model, bounds, subseed):
        self.m = m
        self.model = model
        self.bounds = bounds
        self.subseed = subseed

    def rng(self, section):
        return random.Random(f"{self.subseed}:{section}")


def _timed(out, label, fn):
    """One operation: run ``fn`` (which returns its digest text, or raises
    on a wrong result), time it and count it."""
    out.ops += 1
    t0 = time.perf_counter()
    try:
        text, error = fn(), None
    except Exception as exc:  # one failed operation must not stop the run
        text, error = None, exc
    out.calls_ms.append(1000.0 * (time.perf_counter() - t0))
    if error is None:
        out.record(f"{label} {text}")
    else:
        out.unexpected.append(f"{label}: {type(error).__name__}: {error}"[:300])


class WrongResult(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise WrongResult(what)


def _entries(f):
    return repr(f.matrix.entries)


def _snake(ctx, out):
    m = ctx.m
    rng = ctx.rng("snake")
    for k in range(SIZES["snake"]):
        sm = m["diagrams"].random_ses_morphism(rng, ctx.model, ctx.bounds)

        def call():
            res = m["diagrams"].snake(sm)
            _require(res is not None, "no snake result")
            return _entries(res.delta)

        _timed(out, f"snake {k}", call)


def _random_int_matrix(ctx, rng, rows, cols, bound):
    return ctx.m["intlinalg"].IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols)


def _extend(ctx, rng, first):
    """A second ses-morphism whose source is the target of ``first``."""
    m, model = ctx.m, ctx.model
    src = first.target
    x = model.random_object(rng, ctx.bounds)
    b = model.random_morphism(rng, src.mid, x)
    extra = _random_int_matrix(ctx, rng, x.payload.ngens, 2, 2)
    lin = m["intlinalg"]
    sub = lin.column_hnf(lin.IntMatrix.hstack(b.matrix @ src.i.matrix, extra,
                                              x.payload.relations))
    j = model.subobject(x, sub)
    tgt = m["kernel"].ShortExactSequence(j, model.cokernel(j))
    a = model.solve_right_factor(j, b @ src.i)
    c = model.solve_left_factor(src.p, tgt.p @ b)
    return m["diagrams"].ses_morphism(src, tgt, a, b, c, check=False)


def _naturality(ctx, out):
    m = ctx.m
    rng = ctx.rng("naturality")
    for k in range(SIZES["naturality"]):
        first = m["diagrams"].random_ses_morphism(rng, ctx.model, ctx.bounds)
        second = _extend(ctx, rng, first)

        def call():
            _require(m["diagrams"].check_snake_naturality(first, second),
                     "delta is not natural")
            return "natural"

        _timed(out, f"naturality {k}", call)


def _comparison(ctx, out):
    res, model = ctx.m["resolutions"], ctx.model
    rng = ctx.rng("comparison")
    for k in range(SIZES["comparison"]):
        a = model.random_object(rng, ctx.bounds)
        b = model.random_object(rng, ctx.bounds)
        f = model.random_morphism(rng, a, b)
        p = res.random_resolution(a, rng)
        q = res.random_resolution(b, rng)
        lift_rng = random.Random(rng.randrange(10 ** 9))

        def call():
            l1 = res.compare_lift(f, p, q, rng=lift_rng)
            l2 = res.compare_lift(f, p, q, rng=lift_rng)
            _require(res.lift_homotopy(l1, l2) is not None, "no homotopy")
            return repr(sorted((n, g.matrix.entries) for n, g in l1.comps.items()))

        _timed(out, f"comparison {k}", call)


def _horseshoe(ctx, out):
    res, cx, model = ctx.m["resolutions"], ctx.m["complexes"], ctx.model
    rng = ctx.rng("horseshoe")
    for k in range(SIZES["horseshoe"]):
        s = model.random_ses(rng, ctx.bounds)

        def call():
            hs = res.horseshoe(s, res.projective_resolution(s.sub),
                               res.projective_resolution(s.quot))
            _require(cx.is_acyclic(hs.middle.augmented_complex()) is not None,
                     "middle resolution is not acyclic")
            for n, col in enumerate(hs.columns):
                _require(model.is_short_exact(col.i, col.p), f"column {n} not exact")
                _require((col.p @ hs.sections[n]).same_as(model.identity(col.p.cod)),
                         f"column {n} not split")
            return _entries(hs.middle.augmentation)

        _timed(out, f"horseshoe {k}", call)


def _random_bounded_complex(ctx, rng, max_len=4):
    model, m = ctx.model, ctx.m
    length = rng.randrange(1, max_len + 1)
    comps = [model.random_object(rng, m["kernel"].GenBounds(max_gens=3))
             for _ in range(length)]
    diffs = []
    for k in range(length - 1):
        target = comps[k + 1]
        if not diffs:
            diffs.append(model.random_morphism(rng, comps[k], target))
            continue
        prev = diffs[-1]
        system = m["kernel"].MorphismSystem(model)
        system.unknown_morphism("g", prev.cod, target)
        system.equation([("g", m["intlinalg"].IntMatrix.identity(target.payload.ngens),
                          prev.matrix)],
                        model.zero_morphism(prev.dom, target).matrix, cod=target)
        sol = system.solve(rng=rng, amplitude=2)
        diffs.append(sol["g"] if sol else model.zero_morphism(comps[k], target))
    return m["complexes"].chain_complex(model, 0, comps, diffs)


def _replacement(ctx, out):
    res, cx = ctx.m["resolutions"], ctx.m["complexes"]
    rng = ctx.rng("replacement")
    for k in range(SIZES["replacement"]):
        x = _random_bounded_complex(ctx, rng)

        def call():
            rep = res.projective_replacement(x)
            _require(rep.certificate is not None, "no certificate")
            _require(cx.is_acyclic(cx.mapping_cone(rep.map)) is not None,
                     "cone is not acyclic")
            return repr(sorted((n, g.matrix.entries) for n, g in rep.map.comps.items()))

        _timed(out, f"replacement {k}", call)


def _null_homotopic_complex(ctx, rng):
    model, cx = ctx.model, ctx.m["complexes"]
    small = ctx.m["kernel"].GenBounds(max_gens=2)
    pieces = []
    for _ in range(2):
        a = cx.object_as_complex(model.random_object(rng, small),
                                 degree=rng.randrange(0, 2))
        pieces.append(cx.mapping_cone(cx.identity_chain_map(a)))
    lo = min(c.lo for c in pieces)
    hi = max(c.hi for c in pieces)
    bps = [model.biproduct(pieces[0].component(n), pieces[1].component(n))
           for n in range(lo, hi + 1)]
    diffs = []
    for n in range(lo, hi):
        b0, b1 = bps[n - lo], bps[n + 1 - lo]
        diffs.append((b1.inj1 @ pieces[0].differential(n) @ b0.proj1) +
                     (b1.inj2 @ pieces[1].differential(n) @ b0.proj2))
    return cx.chain_complex(model, lo, [bp.ob for bp in bps], diffs)


def _dichotomy(ctx, out):
    cx = ctx.m["complexes"]
    rng = ctx.rng("dichotomy")
    for k in range(SIZES["dichotomy"]):
        x = _null_homotopic_complex(ctx, rng)

        def call():
            h = cx.find_null_homotopy(cx.identity_chain_map(x))
            _require(h is not None, "no null homotopy")
            _require(cx.is_acyclic(x) is not None, "not acyclic")
            return repr(sorted((n, g.matrix.entries) for n, g in h.comps.items()))

        _timed(out, f"dichotomy {k}", call)


def _periodic_flip(ctx, out, base, completed):
    """The period-6 complex of a rank-one idempotent is null-homotopic but
    not acyclic over even_rank_split, and acyclic after completion."""
    cx, lin = ctx.m["complexes"], ctx.m["intlinalg"]

    def call():
        host = base.object(2)
        p = base.morphism(host, host, lin.IntMatrix.diagonal([1, 0]))
        periodic = cx.periodic_idempotent_complex(base, host, p, 6)
        _require(cx.periodic_null_homotopy(periodic) is not None,
                 "base complex is not null-homotopic")
        _require(cx.periodic_is_acyclic(periodic) is None,
                 "base complex is acyclic")
        chost = completed.embed(host)
        cp = completed.morphism(chost, chost, p.matrix)
        cperiodic = cx.periodic_idempotent_complex(completed, chost, cp, 6)
        _require(cx.periodic_null_homotopy(cperiodic) is not None,
                 "completed complex is not null-homotopic")
        _require(cx.periodic_is_acyclic(cperiodic) is not None,
                 "completed complex is not acyclic")
        return "flip"

    _timed(out, "periodic flip", call)


def _invariants(ctx, obj):
    inv = ctx.m["models"].iso_invariants(obj)
    return (inv.free_rank, tuple(inv.torsion_factors))


def _independence(ctx, out):
    res, models = ctx.m["resolutions"], ctx.m["models"]
    functor = res.FunctorSpec("tensor", models.cyclic(6))
    rng = ctx.rng("independence")
    for k in range(SIZES["independence"]):
        a = ctx.model.random_object(rng, ctx.bounds)
        r1 = res.random_resolution(a, random.Random(rng.randrange(10 ** 9)))
        r2 = res.random_resolution(a, random.Random(rng.randrange(10 ** 9)))

        def call():
            d1 = res.derived(functor, a, max_degree=1, res=r1)
            d2 = res.derived(functor, a, max_degree=1, res=r2)
            values = [(_invariants(ctx, d1.values[n]), _invariants(ctx, d2.values[n]))
                      for n in (0, 1)]
            _require(all(u == v for u, v in values), "derived values differ")
            return repr(values)

        _timed(out, f"independence {k}", call)


def _cyclic_oracle(m, n):
    """Invariant factors of Ext^i(Z/m, Z/n) and Tor_i(Z/m, Z/n), i = 0, 1,
    from the explicit group {0..n-1}: the kernel and cokernel of
    multiplication by m, both cyclic of order gcd(m, n)."""
    ker = sum(1 for x in range(n) if (m * x) % n == 0)
    coker = n // len({(m * x) % n for x in range(n)})
    _require(ker == coker == math.gcd(m, n), "oracle disagrees with gcd")
    return (0, (ker,) if ker > 1 else ())


def _gcd_grid(ctx, out):
    res, models = ctx.m["resolutions"], ctx.m["models"]
    for mm in GCD_GRID:
        for n in GCD_GRID:
            expect = _cyclic_oracle(mm, n)
            for variant in ("hom_into", "tensor"):
                def call():
                    d = res.derived(res.FunctorSpec(variant, models.cyclic(n)),
                                    models.cyclic(mm), max_degree=1)
                    got = [_invariants(ctx, d.values[i]) for i in (0, 1)]
                    _require(got == [expect, expect], f"{got} != {expect}")
                    return repr(got)

                _timed(out, f"{variant} {mm} {n}", call)


def _cli(ctx, out, golden):
    cli = ctx.m["cli"]
    for argv, out_name, expected in golden:
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            _require(code == 0, f"exit code {code}")
            _require(buf.getvalue() == expected, f"output differs from {out_name}")
            return out_name

        _timed(out, f"cli {out_name}", call)
