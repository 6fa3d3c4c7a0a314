"""Canonical JSON forms of every exchangeable object.

All numbers are exact ints; rationals travel as "num/den" strings. Encoders
emit plain dict/list trees; canonical_dumps fixes key order so equal values
serialize to identical bytes. Decoders validate shape and raise SchemaError
with the offending path. Diagrams, AF sequences and certificates are three
encodings of one Tower.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bratteli import EquivalenceWitness, WitnessStep
from .dimgroup import LimitHom, unit_violation
from .elliott import ZigzagWitness
from .findim import AlgebraHom, FinDimAlgebra
from .ordgrp import PosMatrix, Tower


class SchemaError(ValueError):
    """Input JSON does not match the expected shape."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _expect_list(obj, path: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(path, f"expected a list, got {type(obj).__name__}")
    return obj


def _expect_dict(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _expect_int(obj, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(path, f"expected an integer, got {obj!r}")
    return obj


def bool_field(o: dict, key: str) -> bool:
    """The optional boolean o[key], False when absent; anything but a JSON boolean is rejected."""
    flag = o.get(key, False)
    if not isinstance(flag, bool):
        raise SchemaError(key, f"expected true or false, got {flag!r}")
    return flag


def _int_list(obj, path: str) -> list:
    return [_expect_int(x, f"{path}[{i}]") for i, x in enumerate(_expect_list(obj, path))]


def int_vector_from_obj(obj, path: str = "vector") -> tuple:
    return tuple(_int_list(obj, path))


def matrix_to_obj(m: PosMatrix) -> list:
    return [list(row) for row in m.entries]


def matrix_from_obj(obj, path: str = "matrix") -> PosMatrix:
    rows = [_int_list(row, f"{path}[{i}]") for i, row in enumerate(_expect_list(obj, path))]
    try:
        return PosMatrix(tuple(tuple(r) for r in rows))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def rational_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def rational_from_str(text: str, path: str = "eps") -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"not a rational: {text!r}") from exc


# -- towers: diagrams, AF sequences and certificates -------------------------


def _tower(levels, bonds, unital: bool, path: str, ranks=None) -> Tower:
    try:
        return Tower(tuple(levels), tuple(bonds), unital=unital, ranks=ranks)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _matrices(o: dict, key: str) -> list:
    return [matrix_from_obj(m, f"{key}[{i}]") for i, m in enumerate(_expect_list(o.get(key, []), key))]


def diagram_to_obj(d: Tower) -> dict:
    return {
        "levels": [list(level) for level in d.levels],
        "edges": [matrix_to_obj(e) for e in d.bonds],
        "unital": d.unital,
    }


def diagram_from_obj(obj) -> Tower:
    o = _expect_dict(obj, "diagram")
    levels = [_int_list(level, f"levels[{i}]") for i, level in enumerate(_expect_list(o.get("levels"), "levels"))]
    return _tower(levels, _matrices(o, "edges"), bool_field(o, "unital"), "diagram")


def algebra_from_obj(obj, path: str = "algebra") -> FinDimAlgebra:
    o = _expect_dict(obj, path)
    try:
        return FinDimAlgebra(tuple(_int_list(o.get("summands"), f"{path}.summands")))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def hom_from_obj(obj, path: str = "hom") -> AlgebraHom:
    o = _expect_dict(obj, path)
    source = algebra_from_obj(o.get("source"), f"{path}.source")
    target = algebra_from_obj(o.get("target"), f"{path}.target")
    mult = matrix_from_obj(o.get("mult"), f"{path}.mult")
    try:
        return AlgebraHom(source, target, mult)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def sequence_to_obj(seq: Tower) -> dict:
    """The AF encoding of a tower, its levels written as given."""
    algebras = [{"summands": list(level)} for level in seq.levels]
    homs = [
        {"mult": matrix_to_obj(m), "source": algebras[s], "target": algebras[s + 1]}
        for s, m in enumerate(seq.bonds)
    ]
    return {"algebras": algebras, "homs": homs}


def sequence_from_obj(obj) -> Tower:
    """An AF sequence as a unital tower; each hom must fit and chain its adjacent algebras."""
    o = _expect_dict(obj, "sequence")
    algebras = [
        algebra_from_obj(a, f"algebras[{i}]")
        for i, a in enumerate(_expect_list(o.get("algebras"), "algebras"))
    ]
    homs = [
        hom_from_obj(h, f"homs[{i}]") for i, h in enumerate(_expect_list(o.get("homs", []), "homs"))
    ]
    for s, h in enumerate(homs):
        if algebras[s : s + 2] != [h.source, h.target]:
            raise SchemaError("sequence", f"hom at stage {s} does not chain the adjacent algebras")
    return _tower([a.summands for a in algebras], [h.mult for h in homs], True, "sequence")


def certificate_to_obj(cert: Tower) -> dict:
    stages = []
    for rank, unit in zip(cert.ranks, cert.levels):
        stage = {"rank": rank}
        if unit is not None:
            stage["unit"] = list(unit)
        stages.append(stage)
    return {
        "stages": stages,
        "bonds": [matrix_to_obj(b) for b in cert.bonds],
        "unital": cert.unital,
    }


def certificate_from_obj(obj) -> Tower:
    """A certificate; one marked unital must carry a strict unit at every stage through every bond."""
    o = _expect_dict(obj, "certificate")
    ranks, units = [], []
    for i, st in enumerate(_expect_list(o.get("stages"), "stages")):
        s = _expect_dict(st, f"stages[{i}]")
        ranks.append(_expect_int(s.get("rank"), f"stages[{i}].rank"))
        units.append(None if s.get("unit") is None else _int_list(s["unit"], f"stages[{i}].unit"))
    cert = _tower(units, _matrices(o, "bonds"), bool_field(o, "unital"), "certificate", ranks)
    bad = unit_violation(cert) if cert.unital else None
    if bad is not None:
        raise SchemaError("certificate", bad)
    return cert


def limit_hom_from_obj(obj, path: str = "theta") -> LimitHom:
    o = _expect_dict(obj, path)
    stage = _expect_int(o.get("stage"), f"{path}.stage")
    rows = [_int_list(r, f"{path}.matrix[{i}]") for i, r in enumerate(_expect_list(o.get("matrix"), f"{path}.matrix"))]
    try:
        return LimitHom(stage, tuple(tuple(r) for r in rows), positive=bool_field(o, "positive"))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def limit_hom_to_obj(h: LimitHom) -> dict:
    return {
        "stage": h.stage,
        "matrix": [list(r) for r in h.matrix],
        "positive": h.positive,
    }


# -- witnesses ---------------------------------------------------------------


def zigzag_to_obj(w: ZigzagWitness) -> dict:
    return {
        "nStages": list(w.n_stages),
        "mStages": list(w.m_stages),
        "alpha": [matrix_to_obj(a) for a in w.alphas],
        "beta": [matrix_to_obj(b) for b in w.betas],
    }


def zigzag_from_obj(obj) -> ZigzagWitness:
    o = _expect_dict(obj, "zigzag")
    try:
        return ZigzagWitness(
            n_stages=tuple(_int_list(o.get("nStages"), "nStages")),
            m_stages=tuple(_int_list(o.get("mStages"), "mStages")),
            alphas=tuple(
                matrix_from_obj(a, f"alpha[{i}]")
                for i, a in enumerate(_expect_list(o.get("alpha", []), "alpha"))
            ),
            betas=tuple(
                matrix_from_obj(b, f"beta[{i}]")
                for i, b in enumerate(_expect_list(o.get("beta", []), "beta"))
            ),
        )
    except ValueError as exc:
        raise SchemaError("zigzag", str(exc)) from exc


def equivalence_to_obj(w: EquivalenceWitness) -> dict:
    steps = []
    for step in w.steps:
        item = {"side": step.side, "op": step.op}
        if step.op == "telescope":
            item["stages"] = list(step.stages)
        else:
            item["maps"] = [list(m) for m in step.maps]
        steps.append(item)
    return {"steps": steps}


def equivalence_from_obj(obj) -> EquivalenceWitness:
    o = _expect_dict(obj, "equivalence")
    steps = []
    for i, st in enumerate(_expect_list(o.get("steps", []), "steps")):
        s = _expect_dict(st, f"steps[{i}]")
        op = s.get("op")
        side = s.get("side")
        try:
            if op == "telescope":
                steps.append(
                    WitnessStep(side, "telescope", stages=tuple(_int_list(s.get("stages"), f"steps[{i}].stages")))
                )
            elif op == "iso":
                maps = [
                    tuple(_int_list(m, f"steps[{i}].maps[{j}]"))
                    for j, m in enumerate(_expect_list(s.get("maps"), f"steps[{i}].maps"))
                ]
                steps.append(WitnessStep(side, "iso", maps=tuple(maps)))
            else:
                raise SchemaError(f"steps[{i}].op", f"unknown op {op!r}")
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(f"steps[{i}]", str(exc)) from exc
    return EquivalenceWitness(tuple(steps))


KIND_KEYS = (
    ("levels", "diagram"),
    ("algebras", "sequence"),
    ("stages", "certificate"),
    ("summands", "algebra"),
    ("nStages", "zigzag"),
    ("steps", "equivalence"),
)


def detect_kind(obj) -> str:
    """Classify a decoded JSON payload by its distinguishing key."""
    o = _expect_dict(obj, "input")
    for key, kind in KIND_KEYS:
        if key in o:
            return kind
    raise SchemaError("input", f"unrecognized payload with keys {sorted(o.keys())}")
