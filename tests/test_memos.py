"""Every data-keyed memo is bounded by CACHE_SIZE, and eviction never
changes an answer."""

import sys

import exactcat.cli  # noqa: F401  (imports every exactcat module)
from exactcat.intlinalg import CACHE_SIZE, column_hnf
from exactcat.kernel import GenBounds
from exactcat.laws import LAW_SUITES, LawConfig, run_suites
from exactcat.models import fgab

from test_cli import GOLDEN, GOLDEN_CASES, run_cli

# Keyed on no data or on a model: they hold one entry per model, and
# evicting one would build a second instance of a model that is compared
# by identity.  The command-line parser is keyed on no data either.
MODEL_FACTORIES = {
    "exactcat.models.fgab", "exactcat.models.fgab_split",
    "exactcat.models.vect_model", "exactcat.models.free_exact",
    "exactcat.models.free_split", "exactcat.models.even_rank_split",
    "exactcat.completion.complete", "exactcat.cli.build_parser",
}

def run_fgab(seed, max_gens):
    """All nine law suites on fgab at 5 iterations."""
    cfg = LawConfig(seed=seed, iterations=5, bounds=GenBounds(max_gens=max_gens))
    return run_suites(fgab(), cfg, list(LAW_SUITES))


def lru_caches():
    """Every lru_cache defined at module or class level in exactcat.*."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if not (name == "exactcat" or name.startswith("exactcat.")):
            continue
        values = list(vars(mod).values())
        for v in list(values):
            if isinstance(v, type) and v.__module__ == name:
                values.extend(vars(v).values())
        for v in values:
            if hasattr(v, "cache_info"):
                found[f"{v.__module__}.{v.__qualname__}"] = v
    return found


def memos():
    return [f for name, f in lru_caches().items() if name not in MODEL_FACTORIES]


def test_every_data_keyed_memo_is_bounded():
    caches = lru_caches()
    assert MODEL_FACTORIES <= caches.keys()
    for name, f in caches.items():
        if name not in MODEL_FACTORIES:
            assert f.cache_info().maxsize == CACHE_SIZE, name
    # the walk reaches module-level memos and those defined in classes
    assert {"exactcat.intlinalg.column_hnf", "exactcat.resolutions.hom_structure",
            "exactcat.models.PresentedModel._hom_basis",
            "exactcat.kernel.ExactStructureModel.is_short_exact"} <= caches.keys()
    assert 0 < CACHE_SIZE < 10_000


def test_long_run_evicts_and_stays_bounded():
    for f in memos():
        f.cache_clear()
    seed = 0
    while column_hnf.cache_info().currsize < CACHE_SIZE and seed < 20:
        seed += 1
        run_fgab(seed, 5)
    assert column_hnf.cache_info().currsize == CACHE_SIZE
    misses = column_hnf.cache_info().misses
    run_fgab(seed + 1, 5)
    assert column_hnf.cache_info().misses > misses   # new keys arrived, old ones left
    for f in memos():
        info = f.cache_info()
        assert info.currsize <= info.maxsize, f.__qualname__


def test_eviction_does_not_change_answers():
    def answers():
        reports = [rep.to_json() for rep in run_fgab(3, 4)]
        return reports, [run_cli(*argv) for argv, _ in GOLDEN_CASES]

    run_fgab(41, 4)   # memos warmed by an unrelated seed
    warm = answers()
    for f in memos():
        f.cache_clear()
    cold = answers()
    assert warm == cold
    for (code, out), (_, golden) in zip(cold[1], GOLDEN_CASES):
        assert code == 0 and out == (GOLDEN / golden).read_text(encoding="utf-8"), golden
