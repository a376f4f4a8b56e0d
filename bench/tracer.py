"""Span tracing of braidops from outside the library.

The tracer wraps the public functions and methods of each braidops module and
records one span per call: name, start, end, parent span and record id.
Spans live in typed arrays and are only turned into metrics, or written out,
after the run.  Module-level functions are patched under every name that
refers to them in any braidops module, because modules bind imported names
(``from .braid import family_braid_check``) and look them up there.

Field operations are the exception.  ``FieldElement`` arithmetic runs millions
of times per run, so it is counted per operation and its time is charged to
the enclosing span as leaf time instead of being stored as a span.  A span's
self time is its duration minus the durations of its child spans and minus
its leaf field time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

# (module, attribute, span name).  "Class.method" attributes patch the class.
SPANS = [
    ("multipoly", "MultiPoly.__mul__", "multipoly.mul"),
    ("multipoly", "MultiPoly.__rmul__", "multipoly.mul"),
    ("multipoly", "MultiPoly.__add__", "multipoly.add"),
    ("multipoly", "MultiPoly.__radd__", "multipoly.add"),
    ("multipoly", "MultiPoly.__sub__", "multipoly.add"),
    ("multipoly", "MultiPoly.__rsub__", "multipoly.add"),
    ("multipoly", "MultiPoly.__neg__", "multipoly.add"),
    ("multipoly", "MultiPoly.scale", "multipoly.add"),
    ("multipoly", "exact_div", "multipoly.exact_div"),
    ("multipoly", "swap_vars", "multipoly.swap"),
    ("multipoly", "instantiate", "multipoly.instantiate"),
    ("multipoly", "SlotPoly.__mul__", "multipoly.slot_mul"),
    ("multipoly", "SlotPoly.__rmul__", "multipoly.slot_mul"),
    ("multipoly", "SlotPoly.__add__", "multipoly.slot_other"),
    ("multipoly", "SlotPoly.__radd__", "multipoly.slot_other"),
    ("multipoly", "SlotPoly.__sub__", "multipoly.slot_other"),
    ("multipoly", "SlotPoly.__rsub__", "multipoly.slot_other"),
    ("multipoly", "SlotPoly.__neg__", "multipoly.slot_other"),
    ("multipoly", "SlotPoly.scale", "multipoly.slot_other"),
    ("multipoly", "SlotPoly.swap", "multipoly.slot_other"),
    ("multipoly", "SlotPoly.ddiff", "multipoly.slot_other"),
    ("multipoly", "SlotPoly.exact_div", "multipoly.slot_other"),
    ("divdiff", "ddiff", "divdiff.ddiff"),
    ("divdiff", "dpositive_split", "divdiff.split"),
    ("divdiff", "dpositive_lift", "divdiff.lift"),
    ("pddo", "PDDO.__init__", "pddo.construct"),
    ("pddo", "PDDO.from_pqrs", "pddo.construct"),
    ("pddo", "PDDO.from_q0_r0", "pddo.construct"),
    ("pddo", "identity_op", "pddo.construct"),
    ("pddo", "PDDO.apply", "pddo.apply"),
    ("pddo", "PDDO.compose", "pddo.compose"),
    ("pddo", "PDDO.canonical_forms", "pddo.canonical_forms"),
    ("pddo", "PDDO.hecke_params", "pddo.hecke_params"),
    ("braid", "cubic_braid_check", "braid.cubic"),
    ("braid", "quad_commute_check", "braid.distant"),
    ("braid", "almost_equal", "braid.almost_equal"),
    ("braid", "family_braid_check", "braid.family"),
    ("families", "main_case1", "families.construct"),
    ("families", "main_case2", "families.construct"),
    ("families", "degenerate_t_family", "families.construct"),
    ("families", "with_vanishing_q0", "families.construct"),
    ("families", "zeta_pair", "families.construct"),
    ("families", "preset", "families.construct"),
    ("families", "case1_operator", "families.construct"),
    ("families", "case2_operator", "families.construct"),
    ("commute", "commutes_same_index", "commute.same_index"),
    ("commute", "cross_family_commute", "commute.cross"),
    ("commute", "_consecutive_commute", "commute.probe"),
    ("words", "reduced_words", "words.reduced_words"),
    ("words", "apply_word", "words.apply_word"),
    ("words", "polynomial_table", "words.table"),
    ("words", "staircase", "words.staircase"),
    ("sampling", "random_fraction", "sampling.draw"),
    ("sampling", "random_field_element", "sampling.draw"),
    ("sampling", "random_slotpoly", "sampling.draw"),
    ("sampling", "random_multipoly", "sampling.draw"),
    ("sampling", "draw_case1_params", "sampling.draw"),
    ("sampling", "draw_case2_params", "sampling.draw"),
    ("sampling", "random_lines", "sampling.draw"),
    ("sampling", "draw_degent_data", "sampling.draw"),
    ("sampling", "draw_isolated_pair", "sampling.draw"),
    ("sampling", "draw_zeta_params", "sampling.draw"),
    ("cli", "main", "cli.main"),
    ("cli", "build_family", "cli.build_family"),
    ("cli", "poly_to_json", "cli.json"),
    ("cli", "poly_from_json", "cli.json"),
]

# The distant check is one function that two layers call for two purposes;
# the name it is looked up under decides the span.
SITE_NAMES = {("braidops.commute", "quad_commute_check"): "commute.probe"}

# Spans whose times are summed together as one inclusive figure.
GROUPS = {
    "multipoly.slot_mul": "multipoly.slot",
    "multipoly.slot_other": "multipoly.slot",
    "pddo.compose": "pddo.algebra",
    "pddo.canonical_forms": "pddo.algebra",
    "pddo.hecke_params": "pddo.algebra",
}

FIELD_OPS = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub", "__neg__": "neg",
    "__truediv__": "div", "__rtruediv__": "div",
    "inverse": "inverse", "__pow__": "pow",
}


class Tracer:
    """Records spans while ``active``; ``install`` patches, ``uninstall``
    restores the originals."""

    def __init__(self):
        self.active = False
        self.record = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.group_of: list[int] = []
        self._depth: list[int] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rec = array("i")
        self.outer = array("b")  # 1 when no enclosing span shares the group
        self.leaf = array("d")  # field time charged directly to the span
        self.root_leaf = 0.0
        self._stack: list[int] = []
        self._in_field = False
        self.field_calls = dict.fromkeys(set(FIELD_OPS.values()), 0)
        self.exact_div_terms = array("i")
        self.reduced_words_enumerated = 0
        self.table_entries = 0
        self.cubic_pairs: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            group = GROUPS.get(name, name)
            if group not in self._ids:
                self._ids[group] = len(self.names)
                self.names.append(group)
                self.group_of.append(self._ids[group])
                self._depth.append(0)
            if name != group:
                self._ids[name] = len(self.names)
                self.names.append(name)
                self.group_of.append(self._ids[group])
                self._depth.append(0)
        return self._ids[name]

    def _span(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        gid = self.group_of[nid]
        depth = self._depth
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.name)
            level = depth[gid]
            depth[gid] = level + 1
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.rec.append(tracer.record)
            tracer.outer.append(level == 0)
            tracer.leaf.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
                depth[gid] = level
            if hook is not None:
                hook(args, result, level)
            return result

        return wrapper

    def _field(self, op: str, fn):
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if not tracer.active:
                return fn(*args)
            tracer.field_calls[op] += 1
            if tracer._in_field:
                return fn(*args)
            tracer._in_field = True
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                tracer._in_field = False
                if stack:
                    tracer.leaf[stack[-1]] += dt
                else:
                    tracer.root_leaf += dt

        return wrapper

    # -- hooks for the ratio and size metrics ----------------------------------

    def _on_exact_div(self, args, result, level):
        self.exact_div_terms.append(len(args[0].terms))

    def _on_reduced_words(self, args, result, level):
        if level == 0:
            self.reduced_words_enumerated += len(result)

    def _on_table(self, args, result, level):
        self.table_entries += len(result)

    def _on_cubic(self, args, result, level):
        self.cubic_pairs.add((args[0], args[1]))

    _HOOKS = {
        "multipoly.exact_div": _on_exact_div,
        "words.reduced_words": _on_reduced_words,
        "words.table": _on_table,
        "braid.cubic": _on_cubic,
    }

    # -- patching ---------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch the loaded braidops modules (import them first)."""
        modules = {k: m for k, m in sys.modules.items()
                   if k == "braidops" or k.startswith("braidops.")}
        field_cls = modules["braidops.field"].FieldElement
        for attr, op in FIELD_OPS.items():
            self._set(field_cls, attr, self._field(op, field_cls.__dict__[attr]))
        for module, attr, name in SPANS:
            owner = modules[f"braidops.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                hook = self._bound_hook(name)
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._span(name, raw.__func__, hook)))
                else:
                    self._set(owner, attr, self._span(name, raw, hook))
                continue
            original = getattr(owner, attr)
            for mod_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        site = SITE_NAMES.get((mod_name, key), name)
                        self._set(mod, key, self._span(site, original, self._bound_hook(site)))

    def _bound_hook(self, name):
        hook = self._HOOKS.get(name)
        return None if hook is None else functools.partial(hook, self)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\trecord\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.rec[i]}\n")

    def summary(self) -> dict:
        """Per-name call counts, inclusive and self times, from the spans."""
        count = len(self.name)
        child = array("d", bytes(8 * count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        names = len(self.names)
        calls = [0] * names
        inclusive = [0.0] * names  # outermost spans of the group only
        self_s = [0.0] * names
        distant_apply = 0
        apply_id = self._ids.get("pddo.apply")
        distant_id = self._ids.get("braid.distant")
        in_distant = array("b", bytes(count))
        for i in range(count):
            nid = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i] - self.leaf[i]
            if self.outer[i]:
                inclusive[self.group_of[nid]] += dur
            p = self.parent[i]
            inside = nid == distant_id or (p >= 0 and in_distant[p])
            in_distant[i] = inside
            if inside and nid == apply_id:
                distant_apply += 1
        by_name = {
            name: {"calls": calls[k], "inclusive_s": inclusive[k], "self_s": self_s[k]}
            for k, name in enumerate(self.names)
        }
        return {"spans": by_name, "distant_apply_calls": distant_apply}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in the benchmark, from one traced pass."""
    summary = tracer.summary()
    spans = summary["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def incl(name):
        return spans.get(name, {}).get("inclusive_s", 0.0)

    def layer_self(layer):
        return sum(v["self_s"] for k, v in spans.items()
                   if k.split(".")[0] == layer and k not in GROUPS.values())

    cubic_calls = calls("braid.cubic")
    apply_words = calls("words.apply_word")
    field = tracer.field_calls
    terms = tracer.exact_div_terms
    return {
        "field.mul_calls": field["mul"],
        "field.add_calls": field["add"],
        "field.inverse_calls": field["inverse"],
        "field.self_s": sum(tracer.leaf) + tracer.root_leaf,
        "multipoly.exact_div_calls": calls("multipoly.exact_div"),
        "multipoly.exact_div_s": incl("multipoly.exact_div"),
        "multipoly.exact_div_terms_p50": statistics.median(terms) if terms else 0,
        "multipoly.mul_calls": calls("multipoly.mul"),
        "multipoly.mul_s": incl("multipoly.mul"),
        "multipoly.swap_calls": calls("multipoly.swap"),
        "multipoly.instantiate_calls": calls("multipoly.instantiate"),
        "multipoly.slot_s": incl("multipoly.slot"),
        "multipoly.slot_mul_calls": calls("multipoly.slot_mul"),
        "divdiff.self_s": layer_self("divdiff"),
        "divdiff.lift_calls": calls("divdiff.lift"),
        "pddo.apply_calls": calls("pddo.apply"),
        "pddo.apply_s": incl("pddo.apply"),
        "pddo.algebra_s": incl("pddo.algebra"),
        "pddo.construct_s": incl("pddo.construct"),
        "braid.cubic_calls": cubic_calls,
        "braid.cubic_s": incl("braid.cubic"),
        "braid.cubic_unique_ratio": len(tracer.cubic_pairs) / cubic_calls if cubic_calls else 0.0,
        "braid.distant_calls": calls("braid.distant"),
        "braid.distant_s": incl("braid.distant"),
        "braid.distant_apply_calls": summary["distant_apply_calls"],
        "commute.same_index_s": incl("commute.same_index"),
        "commute.probe_s": incl("commute.probe"),
        "words.reduced_words_enumerated": tracer.reduced_words_enumerated,
        "words.apply_word_calls": apply_words,
        "words.self_s": layer_self("words"),
        "words.entry_yield": tracer.table_entries / apply_words if apply_words else 0.0,
        "cli.self_s": layer_self("cli"),
        "families.construct_s": incl("families.construct"),
        "sampling.self_s": layer_self("sampling"),
    }
