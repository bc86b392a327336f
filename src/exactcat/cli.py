"""Batch command-line front end.

Subcommands parse JSON documents, run computations or law suites, and
emit a machine-readable JSON report; the human-readable rendering is
derived from that report and never computed separately.

Exit codes: 0 success, 1 law failures, 2 parse errors, 3 violated
mathematical preconditions (the offending requirement is named).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .completion import complete, split_idempotent
from .complexes import homology
from .diagrams import SesMorphism, snake
from .documents import (
    DOCUMENT_VERSION,
    Document,
    ParseError,
    load_document,
    matrix_to_json,
    model_to_descriptor,
    parse_model_name,
)
from .kernel import ExactCatError, GenBounds, PreconditionError
from .laws import LAW_SUITES, LawConfig, run_suites
from .models import iso_invariants
from .resolutions import ext_values, projective_resolution, tor_values

SEED_ENV = "EXACTCAT_SEED"


def _invariants_json(inv) -> dict:
    return {"free_rank": inv.free_rank, "torsion": list(inv.torsion_factors)}


def _require_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise PreconditionError(f"{name} must be >= 0, got {value}")


# -- commands -----------------------------------------------------------------


def cmd_check(model_name: str, seed: int, iters: int, max_gens: int,
              suite: str) -> tuple[dict, int]:
    _require_nonnegative("--iters", iters)
    _require_nonnegative("--max-gens", max_gens)
    model = parse_model_name(model_name)
    cfg = LawConfig(seed=seed, iterations=iters,
                    bounds=GenBounds(max_gens=max_gens))
    names = list(LAW_SUITES) if suite == "all" else [suite]
    reports = run_suites(model, cfg, names)
    passed = all(r.passed for r in reports)
    report = {
        "command": "check",
        "model": model_to_descriptor(model),
        "seed": seed,
        "iterations": iters,
        "suites": [r.to_jsonable() for r in reports],
        "passed": passed,
    }
    return report, 0 if passed else 1


def cmd_resolve(doc: Document, name: str, max_length: int) -> tuple[dict, int]:
    if name not in doc.objects:
        raise ParseError(f"unknown object {name!r}")
    res = projective_resolution(doc.objects[name], max_length=max_length)
    report = {
        "command": "resolve",
        "object": name,
        "length": res.length,
        "truncated": res.truncated,
        "components": [
            {"degree": n, "invariants": _invariants_json(
                iso_invariants(res.component(n)))}
            for n in range(res.length + 1)],
        "differentials": [
            {"degree": n, "matrix": matrix_to_json(res.differential(n).matrix)}
            for n in range(1, res.length + 1)],
        "augmentation": matrix_to_json(res.augmentation.matrix),
    }
    return report, 0


def _derived_degree(i: int) -> int:
    """The degree that answers for Ext^i(Z/m, Z/n) and Tor_i(Z/m, Z/n).

    Every finitely generated abelian group has projective dimension <= 1,
    because subgroups of free groups are free, so both vanish for i >= 2
    and degree 2 answers for any larger i in constant time."""
    _require_nonnegative("the degree i", i)
    return min(i, 2)


def cmd_ext(m: int, n: int, i: int) -> tuple[dict, int]:
    d = _derived_degree(i)
    inv = iso_invariants(ext_values(m, n, max_degree=d)[d])
    return {"command": "ext", "m": m, "n": n, "degree": i,
            "invariant_factors": _invariants_json(inv)}, 0


def cmd_tor(m: int, n: int, i: int) -> tuple[dict, int]:
    d = _derived_degree(i)
    inv = iso_invariants(tor_values(m, n, max_degree=d)[d])
    return {"command": "tor", "m": m, "n": n, "degree": i,
            "invariant_factors": _invariants_json(inv)}, 0


def cmd_homology(doc: Document, name: str) -> tuple[dict, int]:
    if name not in doc.complexes:
        raise ParseError(f"unknown complex {name!r}")
    x = doc.complexes[name]
    values = []
    for n in x.degrees():
        inv = iso_invariants(homology(x, n))
        values.append({"degree": n, "invariants": _invariants_json(inv)})
    return {"command": "homology", "complex": name, "values": values}, 0


def cmd_snake(doc: Document, name: str) -> tuple[dict, int]:
    diag = doc.diagrams.get(name)
    if not isinstance(diag, SesMorphism):
        raise ParseError(f"{name!r} is not a ses-morphism diagram")
    res = snake(diag)
    arrows = []
    labels = ["K' -> K", "K -> K''", "delta", "C' -> C", "C -> C''"]
    for label, arrow in zip(labels, res.six_term):
        arrows.append({
            "label": label,
            "dom": _invariants_json(iso_invariants(arrow.dom)),
            "cod": _invariants_json(iso_invariants(arrow.cod)),
            "matrix": matrix_to_json(arrow.matrix),
        })
    return {"command": "snake", "diagram": name, "six_term": arrows,
            "delta": matrix_to_json(res.delta.matrix), "exact": True}, 0


def cmd_complete(doc: Document, obj_name: str, idem_name: str) -> tuple[dict, int]:
    if obj_name not in doc.objects:
        raise ParseError(f"unknown object {obj_name!r}")
    if idem_name not in doc.morphisms:
        raise ParseError(f"unknown morphism {idem_name!r}")
    comp = complete(doc.model)
    x = comp.embed(doc.objects[obj_name])
    q_raw = doc.morphisms[idem_name]
    if q_raw.dom != doc.objects[obj_name] or q_raw.cod != doc.objects[obj_name]:
        raise PreconditionError("the idempotent must be an endomorphism of the object")
    q = comp.morphism(x, x, q_raw.matrix)
    res = split_idempotent(x, q)
    return {
        "command": "complete",
        "object": obj_name,
        "idempotent": idem_name,
        "model": model_to_descriptor(comp),
        "kernel_part": _invariants_json(comp.iso_invariants(res.kernel_part)),
        "image_part": _invariants_json(comp.iso_invariants(res.image_part)),
        "identities_verified": True,
    }, 0


# -- rendering ----------------------------------------------------------------


def _render_invariants(v: dict) -> str:
    parts = []
    r = v.get("free_rank", 0)
    if r == 1:
        parts.append("Z")
    elif r > 1:
        parts.append(f"Z^{r}")
    parts.extend(f"Z/{d}" for d in v.get("torsion", []))
    return " + ".join(parts) if parts else "0"


def render_human(report: dict) -> str:
    cmd = report.get("command")
    lines = []
    if cmd == "check":
        lines.append(f"model: {json.dumps(report['model'], sort_keys=True)}"
                     f"  seed={report['seed']} iterations={report['iterations']}")
        for suite in report["suites"]:
            _render_suite(suite, lines, indent=0)
        lines.append("RESULT: " + ("pass" if report["passed"] else "FAIL"))
    elif cmd in ("ext", "tor"):
        name = "Ext" if cmd == "ext" else "Tor"
        sup = f"^{report['degree']}" if cmd == "ext" else f"_{report['degree']}"
        lines.append(f"{name}{sup}(Z/{report['m']}, Z/{report['n']}) = "
                     f"{_render_invariants(report['invariant_factors'])}")
    elif cmd == "resolve":
        lines.append(f"resolution of {report['object']}: length {report['length']}"
                     + (" (truncated)" if report["truncated"] else ""))
        for comp in report["components"]:
            lines.append(f"  P_{comp['degree']} = "
                         f"{_render_invariants(comp['invariants'])}")
        for diff in report["differentials"]:
            lines.append(f"  d_{diff['degree']} = "
                         f"{_render_matrix_json(diff['matrix'])}")
    elif cmd == "homology":
        lines.append(f"homology of {report['complex']}:")
        for v in report["values"]:
            lines.append(f"  H^{v['degree']} = {_render_invariants(v['invariants'])}")
    elif cmd == "snake":
        lines.append(f"snake of {report['diagram']}: six-term sequence exact")
        for arrow in report["six_term"]:
            lines.append(
                f"  {arrow['label']}: {_render_invariants(arrow['dom'])} -> "
                f"{_render_invariants(arrow['cod'])}  "
                f"{_render_matrix_json(arrow['matrix'])}")
    else:  # complete
        lines.append(f"splitting the idempotent {report['idempotent']} on "
                     f"{report['object']}:")
        lines.append(f"  kernel part  = {_render_invariants(report['kernel_part'])}")
        lines.append(f"  image part   = {_render_invariants(report['image_part'])}")
        lines.append("  identities: l k = 1, j i = 1, k l + i j = 1  [verified]")
    return "\n".join(lines)


def _render_suite(suite: dict, lines: list, indent: int) -> None:
    pad = "  " * indent
    status = "pass" if suite["passed"] else "FAIL"
    lines.append(f"{pad}{suite['law_id']}: {status} "
                 f"({suite['instances_run']} instances, "
                 f"{len(suite['failures'])} failures)")
    for sub in suite.get("sub_reports", []):
        _render_suite(sub, lines, indent + 1)


def _render_matrix_json(mj: dict) -> str:
    rows = mj.get("entries", [])
    if not rows or not rows[0]:
        return f"({mj.get('rows', 0)}x{mj.get('cols', 0)})"
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in rows) + "]"


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactcat",
        description="computational workbench for exact categories")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run law suites on a model")
    p.add_argument("--model", default="fgab",
                   help="fgab, fgab_split, vect:p, free_exact, free_split, "
                        "even_rank_split, completion:<model name>")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--max-gens", type=int, default=4)
    p.add_argument("--suite", default="all",
                   choices=["all"] + sorted(LAW_SUITES))

    p = sub.add_parser("resolve", help="projective resolution of a document object")
    p.add_argument("document")
    p.add_argument("object")
    p.add_argument("--max-length", type=int, default=8)

    p = sub.add_parser("ext", help="Ext^i(Z/m, Z/n)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("i", type=int)

    p = sub.add_parser("tor", help="Tor_i(Z/m, Z/n)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("i", type=int)

    p = sub.add_parser("homology", help="per-degree homology of a document complex")
    p.add_argument("document")
    p.add_argument("complex")

    p = sub.add_parser("snake", help="six-term snake sequence of a ses-morphism")
    p.add_argument("document")
    p.add_argument("diagram")

    p = sub.add_parser("complete", help="split an idempotent in the completion")
    p.add_argument("document")
    p.add_argument("object")
    p.add_argument("idempotent")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            seed = args.seed
            if seed is None:
                raw = os.environ.get(SEED_ENV, "0")
                try:
                    seed = int(raw)
                except ValueError:
                    raise ParseError(f"{SEED_ENV} must be an integer, got {raw!r}") from None
            report, code = cmd_check(args.model, seed, args.iters,
                                     args.max_gens, args.suite)
        elif args.command == "resolve":
            doc = load_document(args.document)
            report, code = cmd_resolve(doc, args.object, args.max_length)
        elif args.command == "ext":
            report, code = cmd_ext(args.m, args.n, args.i)
        elif args.command == "tor":
            report, code = cmd_tor(args.m, args.n, args.i)
        elif args.command == "homology":
            doc = load_document(args.document)
            report, code = cmd_homology(doc, args.complex)
        elif args.command == "snake":
            doc = load_document(args.document)
            report, code = cmd_snake(doc, args.diagram)
        else:  # complete; the subparsers are required
            doc = load_document(args.document)
            report, code = cmd_complete(doc, args.object, args.idempotent)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except ExactCatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report["version"] = DOCUMENT_VERSION
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(render_human(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
