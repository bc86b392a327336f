"""JSON document format: models, objects, morphisms, complexes, diagrams.

The on-disk format is UTF-8 JSON.  Integer entries whose magnitude exceeds
2^53 are encoded as decimal strings so that double-precision JSON tooling
cannot corrupt them; the parser accepts either form everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .completion import CompletedModel, CompletionObject, complete
from .complexes import ChainComplex, ChainMap, chain_complex
from .diagrams import SesMorphism, ses_morphism
from .intlinalg import IntMatrix
from .kernel import (
    ComposabilityError,
    ExactStructureModel,
    MorphismHandle,
    ObjectHandle,
    PreconditionError,
    ShortExactSequence,
)
from .models import (
    even_rank_split,
    fgab,
    fgab_split,
    free_exact,
    free_split,
    vect_model,
)

DOCUMENT_VERSION = "exactcat/1"
_SAFE = 2 ** 53

# Input budget of a document matrix.  A well-formed matrix beyond one of
# these bounds is refused as a violated precondition (exit code 3): its
# shape before any entry is decoded, its entries before any computation.
MAX_MATRIX_ROWS = 32
MAX_MATRIX_COLS = 32
MAX_MATRIX_CELLS = 256
MAX_ENTRY_BITS = 64


class ParseError(ValueError):
    """Malformed document or dangling reference."""


def encode_int(n: int):
    return n if -_SAFE < n < _SAFE else str(n)


def decode_int(v) -> int:
    if isinstance(v, bool):
        raise ParseError("booleans are not integers")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError as exc:
            raise ParseError(f"bad integer literal {v!r}") from exc
    raise ParseError(f"expected an integer, got {type(v).__name__}")


def matrix_to_json(m: IntMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[encode_int(x) for x in row] for row in m.entries]}


def _over_budget(what: str, value: int, name: str, bound: int) -> None:
    if value > bound:
        raise PreconditionError(
            f"{what} {value} exceeds the input budget {name} = {bound}")


def matrix_from_json(v) -> IntMatrix:
    if not isinstance(v, dict) or "entries" not in v:
        raise ParseError("matrix must be an object with rows/cols/entries")
    entries = v["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ParseError("matrix entries must be a list of rows")
    rows = decode_int(v.get("rows", len(entries)))
    cols = decode_int(v["cols"]) if "cols" in v else len(entries[0]) if entries else 0
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ParseError("matrix entry grid does not match rows/cols")
    _over_budget("matrix row count", rows, "MAX_MATRIX_ROWS", MAX_MATRIX_ROWS)
    _over_budget("matrix column count", cols, "MAX_MATRIX_COLS", MAX_MATRIX_COLS)
    _over_budget("matrix cell count", rows * cols, "MAX_MATRIX_CELLS", MAX_MATRIX_CELLS)
    grid = [[decode_int(x) for x in row] for row in entries]
    _over_budget("matrix entry bit-length",
                 max((x.bit_length() for r in grid for x in r), default=0),
                 "MAX_ENTRY_BITS", MAX_ENTRY_BITS)
    return IntMatrix(rows, cols, tuple(tuple(r) for r in grid))


# -- models ----------------------------------------------------------------


def model_to_descriptor(model: ExactStructureModel) -> dict:
    if isinstance(model, CompletedModel):
        return {"kind": "completion", "base": model_to_descriptor(model.base)}
    mid = model.model_id
    if mid.startswith("vect("):
        return {"kind": "vect", "p": model.p}
    return {"kind": mid}


_BASE_MODELS = {
    "fgab": fgab,
    "fgab_split": fgab_split,
    "free_exact": free_exact,
    "free_split": free_split,
    "even_rank_split": even_rank_split,
}


def model_from_descriptor(desc) -> ExactStructureModel:
    if isinstance(desc, str):
        desc = {"kind": desc}
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ParseError("model descriptor must name a kind")
    kind = desc["kind"]
    if kind == "vect":
        return vect_model(decode_int(desc.get("p", 2)))
    if kind == "completion":
        return complete(model_from_descriptor(desc.get("base", "fgab")))
    ctor = _BASE_MODELS.get(kind) if isinstance(kind, str) else None
    if ctor is None:
        raise ParseError(f"unknown model kind {kind!r}")
    return ctor()


def parse_model_name(name: str) -> ExactStructureModel:
    """Command-line model names: fgab, vect:5 and completion:<model name>,
    which nests like the document descriptor (and is refused the same way)."""
    depth = 0
    while name.startswith("completion:"):   # a loop, so no prefix count recurses
        name, depth = name[len("completion:"):], depth + 1
    desc = {"kind": "vect", "p": decode_int(name[len("vect:"):])} \
        if name.startswith("vect:") else name
    model = model_from_descriptor(desc)
    for _ in range(depth):
        model = complete(model)
    return model


# -- handles ---------------------------------------------------------------


def object_to_json(a: ObjectHandle) -> dict:
    payload = a.payload
    if isinstance(payload, CompletionObject):
        return {"model": model_to_descriptor(a.model),
                "base": object_to_json(payload.base),
                "idempotent": matrix_to_json(payload.idem)}
    return {"model": model_to_descriptor(a.model),
            "ngens": payload.ngens,
            "relations": matrix_to_json(payload.relations)}


def object_from_json(v, model: ExactStructureModel) -> ObjectHandle:
    if not isinstance(v, dict):
        raise ParseError("object literal must be a JSON object")
    if isinstance(model, CompletedModel):
        base = object_from_json(v.get("base", {}), model.base)
        idem = matrix_from_json(v["idempotent"])
        return model.pair(base, idem)
    ngens = decode_int(v.get("ngens", 0))
    # the generators are the rows of the relation matrix, given or not
    _over_budget("object generator count", ngens, "MAX_MATRIX_ROWS", MAX_MATRIX_ROWS)
    if "relations" in v:
        rel = matrix_from_json(v["relations"])
    else:
        rel = IntMatrix.zeros(ngens, 0)
    return model.object(ngens, rel)


def morphism_to_json(f: MorphismHandle) -> dict:
    return {"matrix": matrix_to_json(f.matrix),
            "dom": object_to_json(f.dom), "cod": object_to_json(f.cod)}


def jsonable(value):
    """Best-effort canonical JSON encoding of harness values (witnesses)."""
    if isinstance(value, IntMatrix):
        return matrix_to_json(value)
    if isinstance(value, ObjectHandle):
        return object_to_json(value)
    if isinstance(value, MorphismHandle):
        return morphism_to_json(value)
    if isinstance(value, ShortExactSequence):
        return {"i": jsonable(value.i), "p": jsonable(value.p)}
    if isinstance(value, SesMorphism):
        return {"source": jsonable(value.source),
                "target": jsonable(value.target),
                "a": jsonable(value.a), "b": jsonable(value.b),
                "c": jsonable(value.c)}
    if isinstance(value, ChainComplex):
        return {"lo": value.lo, "components": jsonable(value.components),
                "differentials": jsonable(value.differentials)}
    if isinstance(value, ChainMap):
        return {"source": jsonable(value.source),
                "target": jsonable(value.target),
                "comps": jsonable(value.comps)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(),
                                                       key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        return encode_int(value)
    return repr(value)


# -- documents ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HorseshoeDiagram:
    """A short exact sequence with resolutions of its outer terms."""

    sequence: ShortExactSequence
    sub: "Resolution"
    quot: "Resolution"


@dataclass(eq=False)
class Document:
    """A named workspace of objects, morphisms, complexes and diagrams."""

    model: ExactStructureModel
    objects: dict[str, ObjectHandle] = field(default_factory=dict)
    morphisms: dict[str, MorphismHandle] = field(default_factory=dict)
    complexes: dict[str, ChainComplex] = field(default_factory=dict)
    diagrams: dict[str, object] = field(default_factory=dict)


def document_to_jsonable(doc: Document) -> dict:
    names = {v: k for k, v in doc.objects.items()}
    out = {
        "version": DOCUMENT_VERSION,
        "model": model_to_descriptor(doc.model),
        "objects": {k: _object_literal(v) for k, v in doc.objects.items()},
        "morphisms": {},
        "complexes": {},
        "diagrams": {},
    }
    mor_names = {}
    for k, f in doc.morphisms.items():
        out["morphisms"][k] = {
            "dom": names[f.dom], "cod": names[f.cod],
            "matrix": matrix_to_json(f.matrix),
        }
        mor_names[f] = k
    for k, x in doc.complexes.items():
        out["complexes"][k] = {
            "lo": x.lo,
            "components": [names[c] for c in x.components],
            "differentials": [matrix_to_json(d.matrix) for d in x.differentials],
        }
    cx_names = {v: k for k, v in doc.complexes.items()}
    for k, d in doc.diagrams.items():
        if isinstance(d, ShortExactSequence):
            out["diagrams"][k] = {"kind": "ses", "i": mor_names[d.i],
                                  "p": mor_names[d.p]}
        elif isinstance(d, SesMorphism):
            out["diagrams"][k] = {
                "kind": "ses_morphism",
                "source_i": mor_names[d.source.i], "source_p": mor_names[d.source.p],
                "target_i": mor_names[d.target.i], "target_p": mor_names[d.target.p],
                "a": mor_names[d.a], "b": mor_names[d.b], "c": mor_names[d.c],
            }
        elif isinstance(d, HorseshoeDiagram):
            out["diagrams"][k] = {
                "kind": "horseshoe",
                "i": mor_names[d.sequence.i], "p": mor_names[d.sequence.p],
                "sub_complex": cx_names[d.sub.complex],
                "sub_augmentation": mor_names[d.sub.augmentation],
                "quot_complex": cx_names[d.quot.complex],
                "quot_augmentation": mor_names[d.quot.augmentation],
            }
        else:
            raise ParseError(f"cannot serialize diagram {k!r}")
    return out


def _object_literal(a: ObjectHandle) -> dict:
    payload = a.payload
    if isinstance(payload, CompletionObject):
        return {"base": _object_literal(payload.base),
                "idempotent": matrix_to_json(payload.idem)}
    return {"ngens": payload.ngens, "relations": matrix_to_json(payload.relations)}


def document_from_jsonable(data) -> Document:
    if not isinstance(data, dict):
        raise ParseError("document must be a JSON object")
    version = data.get("version", DOCUMENT_VERSION)
    if version != DOCUMENT_VERSION:
        raise ParseError(f"unsupported document version {version!r}")
    model = model_from_descriptor(data.get("model", "fgab"))
    doc = Document(model)
    try:
        for name, lit in _literals(data, "objects"):
            doc.objects[name] = object_from_json(lit, model)
        for name, lit in _literals(data, "morphisms"):
            dom = _resolve(doc.objects, lit.get("dom"), "object")
            cod = _resolve(doc.objects, lit.get("cod"), "object")
            matrix = matrix_from_json(lit["matrix"])
            doc.morphisms[name] = model.morphism(dom, cod, matrix, check=True)
        for name, lit in _literals(data, "complexes"):
            comps, dms = lit.get("components", []), lit.get("differentials", [])
            if not (isinstance(comps, list) and isinstance(dms, list)):
                raise ParseError(f"complex {name!r} needs component and differential lists")
            if len(dms) != max(len(comps) - 1, 0):
                raise ParseError(f"complex {name!r} has {len(comps)} components, so it needs "
                                 f"{max(len(comps) - 1, 0)} differentials, not {len(dms)}")
            comps = [_resolve(doc.objects, c, "object") for c in comps]
            lo = decode_int(lit.get("lo", 0))
            diffs = []
            for k, dm in enumerate(dms):
                if isinstance(dm, str):
                    diffs.append(_resolve(doc.morphisms, dm, "morphism"))
                else:
                    diffs.append(model.morphism(comps[k], comps[k + 1],
                                                matrix_from_json(dm), check=True))
            doc.complexes[name] = chain_complex(model, lo, comps, diffs, check=True)
        for name, lit in _literals(data, "diagrams"):
            kind = lit.get("kind")
            if kind == "ses":
                i = _resolve(doc.morphisms, lit.get("i"), "morphism")
                p = _resolve(doc.morphisms, lit.get("p"), "morphism")
                if not model.is_short_exact(i, p):
                    raise ParseError(f"diagram {name!r} is not short exact")
                doc.diagrams[name] = ShortExactSequence(i, p)
            elif kind == "ses_morphism":
                src = ShortExactSequence(
                    _resolve(doc.morphisms, lit.get("source_i"), "morphism"),
                    _resolve(doc.morphisms, lit.get("source_p"), "morphism"))
                tgt = ShortExactSequence(
                    _resolve(doc.morphisms, lit.get("target_i"), "morphism"),
                    _resolve(doc.morphisms, lit.get("target_p"), "morphism"))
                doc.diagrams[name] = ses_morphism(
                    src, tgt,
                    _resolve(doc.morphisms, lit.get("a"), "morphism"),
                    _resolve(doc.morphisms, lit.get("b"), "morphism"),
                    _resolve(doc.morphisms, lit.get("c"), "morphism"))
            elif kind == "horseshoe":
                from .resolutions import resolution
                seq = ShortExactSequence(
                    _resolve(doc.morphisms, lit.get("i"), "morphism"),
                    _resolve(doc.morphisms, lit.get("p"), "morphism"))
                if not model.is_short_exact(seq.i, seq.p):
                    raise ParseError(f"diagram {name!r} is not short exact")
                sub = resolution(
                    _resolve(doc.complexes, lit.get("sub_complex"), "complex"),
                    _resolve(doc.morphisms, lit.get("sub_augmentation"), "morphism"))
                quot = resolution(
                    _resolve(doc.complexes, lit.get("quot_complex"), "complex"),
                    _resolve(doc.morphisms, lit.get("quot_augmentation"), "morphism"))
                if sub.target != seq.sub or quot.target != seq.quot:
                    raise ParseError(
                        f"horseshoe {name!r} resolutions do not match the sequence")
                doc.diagrams[name] = HorseshoeDiagram(seq, sub, quot)
            else:
                raise ParseError(f"unknown diagram kind {kind!r}")
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from exc
    except (ComposabilityError, IndexError, ValueError) as exc:
        # shapes are checked where read, so a TypeError from model code propagates
        raise ParseError(f"document failed validation: {exc}") from exc
    return doc


def _literals(data: dict, key: str):
    table = data.get(key) or {}
    if not isinstance(table, dict) or not all(isinstance(v, dict) for v in table.values()):
        raise ParseError(f"{key!r} must map names to JSON objects")
    return table.items()


def _resolve(table: dict, key, what: str):
    if not isinstance(key, str) or key not in table:
        raise ParseError(f"unresolved {what} reference {key!r}")
    return table[key]


def load_document(path: str) -> Document:
    try:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read document {path!r}: {exc}") from exc
        return document_from_jsonable(data)
    except RecursionError as exc:
        # from json.load, or, where the C decoder nests deeper than Python
        # recurses (3.12 on), from reading the nested model descriptors
        raise ParseError(f"document {path!r} nests too deeply to parse") from exc
