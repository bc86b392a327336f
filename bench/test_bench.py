"""Tests of the benchmark's own machinery: python3 -m pytest bench -q"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; e [12, 13] is a root
    names = ["a", "b", "c", "d", "e"]
    starts = [0.0, 1.0, 5.0, 6.0, 12.0]
    ends = [10.0, 4.0, 9.0, 8.0, 13.0]
    parents = [-1, 0, 0, 2, -1]
    st = tracer.self_times(names, starts, ends, parents)
    assert st == {"a": (1, 3.0), "b": (1, 3.0), "c": (1, 2.0), "d": (1, 2.0),
                  "e": (1, 1.0)}
    assert sum(s for _, s in st.values()) == 11.0   # covered time, counted once


def test_self_time_of_recursive_spans():
    names = ["f", "f", "f"]
    starts, ends, parents = [0.0, 1.0, 2.0], [6.0, 5.0, 3.0], [-1, 0, 1]
    assert tracer.self_times(names, starts, ends, parents) == {"f": (3, 6.0)}
    assert tracer.inclusive_time(names, starts, ends, parents, "f") == 6.0


def test_inclusive_time_outside_an_ancestor():
    # check [0, 2] runs alone; shrink [3, 9] runs check [4, 5] and [6, 8]
    names = ["check", "shrink", "check", "check"]
    starts, ends, parents = [0.0, 3.0, 4.0, 6.0], [2.0, 9.0, 5.0, 8.0], [-1, -1, 1, 1]
    spans = (names, starts, ends, parents)
    assert tracer.inclusive_time(*spans, "check") == 5.0
    assert tracer.inclusive_time(*spans, "check", outside="shrink") == 2.0
    assert tracer.inclusive_time(*spans, "shrink") == 6.0


def test_wrap_records_parent_links_and_results():
    t = tracer.Tracer()
    seen = []
    inner = t.wrap("inner", lambda x: x + 1, after=seen.append)
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert seen == [2]
    assert t.names == ["outer", "inner"]
    assert t.parents == [-1, 0]
    assert t.starts[0] <= t.starts[1] <= t.ends[1] <= t.ends[0]
    with pytest.raises(ZeroDivisionError):
        t.wrap("boom", lambda: 1 / 0)()
    assert t.ends[-1] >= t.starts[-1] and t._stack == [-1]


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(n, u, b) for n, u, b, *_ in tracer.LAYERS]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_untraced_worker_installs_no_wrappers(capsys):
    import worker
    worker.main(["--workload", "laws_fgab", "--subseed", "1", "--setup-only"])
    assert "t_first" in json.loads(capsys.readouterr().out.splitlines()[-1])
    wrapped = [f"{mod.__name__}.{name}"
               for mod in tracer._exactcat_modules()
               for name, val in vars(mod).items()
               for v in ([val] + (list(vars(val).values()) if isinstance(val, type) else []))
               if hasattr(v, "bench_span")]
    assert wrapped == []


def test_traced_and_untraced_chunks_agree():
    r = run.Run(seed=3, seconds=0)
    plain, _ = r.spawn("laws_fgab", 0)
    traced, _ = r.spawn("laws_fgab", 0, trace=1)
    assert plain["unexpected"] == [] and traced["unexpected"] == []
    assert plain["digest"] == traced["digest"]
    assert plain["ops"] == traced["ops"] > 0
    layers = traced["layers"]
    assert set(layers) == {n for n, *_ in tracer.LAYERS} - {"trace.overhead_s"}
    # the rebinding reached callers that imported these functions by name
    assert layers["intlinalg.column_hnf_transform.calls"] > 0
    assert 0 < layers["intlinalg.column_hnf_transform.hit_ratio"] < 1
    assert layers["laws.instances"] == plain["ops"]
    assert layers["laws.generate_s"] > 0 and layers["laws.check_s"] > 0
