"""Layer tracing from outside the package.

A Tracer wraps public functions of the afkit modules, records one span per
call (name, start, end, parent span, operation id) in compact arrays, and keeps
per-layer call counts and self times (span duration minus the time covered
by its child spans). Nothing under src/ knows about it: the wrappers are
installed by rebinding names, and removed again by restoring the originals.

Consumer modules import with ``from .ordgrp import compose``, so a wrapper is
bound into every afkit module that holds the original object, not only into
the defining module.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, attribute, layer name). Several attributes may share a layer name:
# nested spans of one layer still add up, since self time excludes children.
FUNCTIONS = (
    ("afkit.ordgrp", "compose", "ordgrp.compose"),
    ("afkit.ordgrp", "mat_mul", "ordgrp.mat_mul"),
    ("afkit.ordgrp", "mat_vec", "ordgrp.mat_vec"),
    ("afkit.ordgrp", "apply", "ordgrp.apply"),
    ("afkit.findim", "af_sequence_violation", "findim.af_sequence_violation"),
    ("afkit.bratteli", "path_matrix", "bratteli.path_matrix"),
    ("afkit.bratteli", "equivalence_search", "bratteli.equivalence_search"),
    ("afkit.bratteli", "telescope", "bratteli.telescope"),
    ("afkit.bratteli", "simplicity_window", "bratteli.simplicity_window"),
    ("afkit.bratteli", "replay_equivalence", "bratteli.replay_equivalence"),
    ("afkit.dimgroup", "push", "dimgroup.push"),
    ("afkit.dimgroup", "eq_at_depth", "dimgroup.eq_at_depth"),
    ("afkit.dimgroup", "positive_at_depth", "dimgroup.positive_at_depth"),
    ("afkit.dimgroup", "shen_factor", "dimgroup.shen_factor"),
    ("afkit.elliott", "build_zigzag", "elliott.build_zigzag"),
    ("afkit.elliott", "intertwine_stage", "elliott.intertwine_stage"),
    # verify_zigzag is a one-line wrapper over zigzag_violation, which the
    # CLI calls directly; both count as re-verification.
    ("afkit.elliott", "verify_zigzag", "elliott.verify_zigzag"),
    ("afkit.elliott", "zigzag_violation", "elliott.verify_zigzag"),
    ("afkit.perturb", "defect", "perturb.defect"),
    ("afkit.perturb", "operator_norm", "perturb.operator_norm"),
    ("afkit.perturb", "delta0", "perturb.delta0"),
    ("afkit.perturb", "delta1", "perturb.delta1"),
    ("afkit.perturb", "DeltaGlimm", "perturb.DeltaGlimm"),
    ("afkit.perturb", "exchange_unitary", "perturb.exchange_unitary"),
    ("afkit.perturb", "glimm_unitary", "perturb.glimm_unitary"),
    ("afkit.jsonio", "canonical_dumps", "jsonio.encode"),
)

# CLI subcommands that need the numeric layer; every other one is exact-only,
# and cli.numpy_loaded reports whether those import numpy anyway.
NUMERIC_COMMANDS = ("moduli", "perturb-demo")

# Patched on the class, so every instance and every caller sees the wrapper.
METHODS = (
    ("afkit.dimgroup", "DimCertificate", "bond_product", "dimgroup.bond_product"),
    ("afkit.findim", "AlgebraHom", "__post_init__", "findim.AlgebraHom"),
)

# The public decoders of jsonio form one layer, its encoders another.
JSONIO_SUFFIXES = (
    ("_from_obj", "jsonio.decode"),
    ("_from_str", "jsonio.decode"),
    ("_to_obj", "jsonio.encode"),
    ("_to_str", "jsonio.encode"),
)

# Per-layer metrics, in report order. Layer names map to ".calls"/".self_s".
LAYER_METRICS = (
    ("ordgrp.compose.calls", "count"),
    ("ordgrp.compose.mul_adds", "count"),
    ("ordgrp.compose.self_s", "s"),
    ("ordgrp.mat_mul.calls", "count"),
    ("ordgrp.mat_vec.calls", "count"),
    ("ordgrp.apply.calls", "count"),
    ("bratteli.path_matrix.calls", "count"),
    ("bratteli.path_matrix.distinct", "count"),
    ("bratteli.path_matrix.self_s", "s"),
    ("bratteli.equivalence_search.self_s", "s"),
    ("bratteli.telescope.self_s", "s"),
    ("bratteli.simplicity_window.self_s", "s"),
    ("bratteli.replay_equivalence.self_s", "s"),
    ("dimgroup.push.calls", "count"),
    ("dimgroup.push.self_s", "s"),
    ("dimgroup.bond_product.calls", "count"),
    ("dimgroup.bond_product.self_s", "s"),
    ("dimgroup.eq_at_depth.self_s", "s"),
    ("dimgroup.positive_at_depth.self_s", "s"),
    ("dimgroup.shen_factor.self_s", "s"),
    ("elliott.build_zigzag.self_s", "s"),
    ("elliott.intertwine_stage.self_s", "s"),
    ("elliott.verify_zigzag.self_s", "s"),
    ("findim.af_sequence_violation.self_s", "s"),
    ("findim.AlgebraHom.calls", "count"),
    ("perturb.defect.self_s", "s"),
    ("perturb.operator_norm.calls", "count"),
    ("perturb.operator_norm.self_s", "s"),
    ("perturb.delta0.calls", "count"),
    ("perturb.delta1.calls", "count"),
    ("perturb.DeltaGlimm.self_s", "s"),
    ("perturb.exchange_unitary.self_s", "s"),
    ("perturb.glimm_unitary.self_s", "s"),
    ("jsonio.decode.self_s", "s"),
    ("jsonio.encode.self_s", "s"),
    ("jsonio.bytes_out", "count"),
)


class Tracer:
    """Spans and per-layer aggregates of one traced pass.

    Spans live in parallel arrays; ``reset`` starts a new pass. ``op`` is the
    identifier of the operation the next spans belong to.
    """

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self._installed: list = []
        self.op = -1
        self.reset()

    def reset(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.opid = array("q")
        self.stack: list = []  # [span index, child time] per open span
        self.calls: dict = {}
        self.self_s: dict = {}
        self.counters = {"ordgrp.compose.mul_adds": 0, "jsonio.bytes_out": 0}
        self._pm_keys: set = set()
        self._pm_keep: list = []  # keeps diagrams alive so their ids stay unique

    def _name_id(self, layer: str) -> int:
        nid = self._name_ids.get(layer)
        if nid is None:
            nid = self._name_ids[layer] = len(self.names)
            self.names.append(layer)
        return nid

    def wrap(self, fn, layer: str, observe=None):
        """A function that runs fn inside a span named layer.

        observe(args, result) runs after the call, outside the timed span.
        """
        nid = self._name_id(layer)
        tr = self

        def traced(*args, **kwargs):
            stack = tr.stack
            idx = len(tr.start)
            tr.parent.append(stack[-1][0] if stack else -1)
            tr.name.append(nid)
            tr.opid.append(tr.op)
            tr.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            tr.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tr.end[idx] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tr.calls[layer] = tr.calls.get(layer, 0) + 1
                tr.self_s[layer] = tr.self_s.get(layer, 0.0) + dur - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def _observe_compose(self, args, result) -> None:
        a, b = args[0], args[1]
        self.counters["ordgrp.compose.mul_adds"] += a.rows * a.cols * b.cols

    def _observe_path_matrix(self, args, result) -> None:
        diagram, k, k2 = args[0], args[1], args[2]
        key = (id(diagram), k, k2)
        if key not in self._pm_keys:
            self._pm_keys.add(key)
            self._pm_keep.append(diagram)

    def _observe_dumps(self, args, result) -> None:
        self.counters["jsonio.bytes_out"] += len(result.encode("utf-8"))

    def install(self) -> None:
        """Wrap every traced function of the afkit modules imported so far."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        observers = {
            "compose": self._observe_compose,
            "path_matrix": self._observe_path_matrix,
            "canonical_dumps": self._observe_dumps,
        }
        targets = [(m, a, layer) for m, a, layer in FUNCTIONS if m in sys.modules]
        jsonio = sys.modules.get("afkit.jsonio")
        if jsonio is not None:
            for attr, value in vars(jsonio).items():
                for suffix, layer in JSONIO_SUFFIXES:
                    if callable(value) and attr.endswith(suffix) and not attr.startswith("_"):
                        targets.append(("afkit.jsonio", attr, layer))
        modules = [mod for name, mod in sys.modules.items() if name.startswith("afkit") and mod is not None]
        for modname, attr, layer in targets:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(original, layer, observers.get(attr))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._installed.append((mod, name, original))
        for modname, cls_name, attr, layer in METHODS:
            if modname not in sys.modules:
                continue
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(original, layer))
            self._installed.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed = []

    def layer_values(self) -> dict:
        """Per-layer metric values of the current pass."""
        pm_distinct = len(self._pm_keys)
        out = {}
        for metric, _unit in LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if metric in self.counters:
                out[metric] = self.counters[metric]
            elif metric == "bratteli.path_matrix.distinct":
                out[metric] = pm_distinct
            elif field == "calls":
                out[metric] = self.calls.get(layer, 0)
            elif field == "self_s":
                out[metric] = self.self_s.get(layer, 0.0)
        return out

    def add_summary(self, summary: dict) -> None:
        """Fold a child process's layer aggregates (see ``summary``) into this pass."""
        for layer, n in summary["calls"].items():
            self.calls[layer] = self.calls.get(layer, 0) + n
        for layer, s in summary["self_s"].items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + s
        for key, n in summary["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + n
        for key in summary["path_matrix_keys"]:
            self._pm_keys.add(tuple(key))

    def summary(self, tag: str) -> dict:
        """JSON-ready layer aggregates of this process, for a parent tracer.

        The child's spans stay in the child, which writes them out itself.
        """
        diagram_index: dict = {}
        for d in self._pm_keep:
            diagram_index.setdefault(id(d), len(diagram_index))
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "counters": self.counters,
            # Distinct path_matrix arguments of separate processes never coincide.
            "path_matrix_keys": [[tag, diagram_index[i], k, k2] for i, k, k2 in self._pm_keys],
        }

    def write_spans(self, path: str, op_names: list) -> None:
        """Write the pass's spans: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "ops": op_names,
            "count": len(self.start),
            "arrays": [["start", "d"], ["end", "d"], ["parent", "q"], ["name", "H"], ["op", "q"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.start, self.end, self.parent, self.name, self.opid):
                arr.tofile(fh)
