"""Span tracing of boxmagic from outside the package.

`Tracer.install` replaces each traced function under every name its
callers look up (for example `quadrature.domain_side` as well as
`hc.domain_side`) with a wrapper that records a span: name, start, end,
parent span and, for a few functions, a note taken from the call.
Spans are kept in memory; `write` saves them when the run ends and
`layer_metrics` derives the per-layer counts and times from them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Span name -> (module, attribute path).  A dotted path names a method.
TRACED = {
    "magic.a_table": ("boxmagic.magic", "a_table"),
    "magic.mu_table_payload": ("boxmagic.magic", "mu_table_payload"),
    "magic.payload_to_json": ("boxmagic.magic", "payload_to_json"),
    "magic.ladder_image": ("boxmagic.magic", "ladder_image"),
    "magic.diagram_image": ("boxmagic.magic", "diagram_image"),
    "magic.verify_magic": ("boxmagic.magic", "verify_magic"),
    "diagrams.enumerate_diagrams": ("boxmagic.diagrams", "enumerate_diagrams"),
    "diagrams.canonical_key": ("boxmagic.diagrams", "canonical_key"),
    "diagrams.attach_slingshot": ("boxmagic.diagrams", "attach_slingshot"),
    "diagrams.from_history": ("boxmagic.diagrams", "from_history"),
    "quadrature.integrate": ("boxmagic.quadrature", "integrate"),
    "quadrature.check.normalization": ("boxmagic.quadrature", "normalization_check"),
    "quadrature.check.poisson": ("boxmagic.quadrature", "poisson_check"),
    "quadrature.check.lemma_zp": ("boxmagic.quadrature", "lemma_zp_check"),
    "quadrature.check.collapse": ("boxmagic.quadrature", "collapse_check"),
    "quadrature.check.orthogonality": ("boxmagic.quadrature", "orthogonality_check"),
    "quadrature.check.conformal": ("boxmagic.quadrature", "conformal_check"),
    "tbasis.eval_entries": ("boxmagic.tbasis", "BasisExpansion.eval_entries"),
    "hc.domain_side": ("boxmagic.hc", "domain_side"),
    "hc.conformal_act": ("boxmagic.hc", "conformal_act"),
    "polylog.li": ("boxmagic.polylog", "li"),
    "polylog.li_series": ("boxmagic.polylog", "li_series"),
    "polylog.li_integral": ("boxmagic.polylog", "li_integral"),
    "polylog.phi1": ("boxmagic.polylog", "phi1"),
    "polylog.phi2": ("boxmagic.polylog", "phi2"),
}


def _spec_note(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return [spec.chart, spec.radius, spec.nodes_per_dim]


def _result_note(args, kwargs, result):
    return result


NOTES = {"quadrature.integrate": _spec_note, "diagrams.canonical_key": _result_note}


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, start, end, parent index or -1, note]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function under each name that refers to it."""
        modules = [m for n, m in sys.modules.items() if n.startswith("boxmagic") and m is not None]
        for name, (module, path) in TRACED.items():
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            holders = [owner] if outer else [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Save the spans as JSON: name, start, end, parent index and run id."""
        rows = [[s[0], s[1], s[2], s[3]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "fields": ["name", "start", "end", "parent"],
                       "spans": rows}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, inclusive times (.s) and self times (.self_s)."""
        spans = self.spans
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        children: dict[int, list[int]] = defaultdict(list)
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start
            if parent >= 0:
                own[spans[parent][0]] -= end - start
                children[parent].append(i)

        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]

        # Quadrature grids: a call on a spec not seen before in this run
        # builds the grid (through the _grid cache) and evaluates; later
        # calls on the same spec only evaluate.
        seen: set[tuple] = set()
        cold_s = warm_s = 0.0
        warm = nodes = grid_bytes = 0
        for name, start, end, _, note in spans:
            if name != "quadrature.integrate" or note is None:
                continue
            chart, radius, n = note
            count = n ** (4 if chart == "u2" else 3)
            nodes += count
            if (chart, radius, n) in seen:
                warm += 1
                warm_s += end - start
            else:
                seen.add((chart, radius, n))
                cold_s += end - start
                grid_bytes += 5 * count * 16  # z11, z12, z21, z22, w as complex128
        integrate_calls = calls["quadrature.integrate"]
        out["quadrature.integrate.nodes"] = nodes
        out["quadrature.integrate.cold_s"] = cold_s
        out["quadrature.integrate.warm_s"] = warm_s
        out["quadrature.grid_reuse_ratio"] = warm / integrate_calls if integrate_calls else 0.0
        out["quadrature.grid_bytes"] = grid_bytes

        # Enumeration: children attempted are the slingshot attachments made
        # by enumerate_diagrams; kept are the distinct canonical keys among
        # them (the first key of each enumeration is the one-loop seed).
        kept = attempted = 0
        for i, span in enumerate(spans):
            if span[0] != "diagrams.enumerate_diagrams":
                continue
            kids = [spans[j] for j in children[i]]
            attempted += sum(1 for k in kids if k[0] == "diagrams.attach_slingshot")
            keys = [repr(k[4]) for k in kids if k[0] == "diagrams.canonical_key"]
            kept += len(set(keys[1:]))
        out["diagrams.dedup_ratio"] = kept / attempted if attempted else 0.0
        return out
