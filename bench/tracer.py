"""Per-layer tracing from outside the program.

The tracer replaces each listed public function of ``src/talex`` with a
wrapper wherever the function is bound: the defining module, every
``talex`` module that imported it by name, and the package namespace.
Two targets are methods and are replaced on their class.  Each call
records a span (name, start, end, parent, item) in memory; self time is a
span's duration minus that of its wrapped children.  Counters are read
from arguments and return values at the same boundaries.

``rings`` is deliberately not wrapped: its operations run 10^5-10^6 times
per pass, so wrapping them would swamp the timings.  Their cost shows up
as self time of ``words.rep_evaluate`` and ``RingMatrix.det``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# module -> public names; "Class.method" names are patched on the class
TARGETS = {
    "knots": ("presentation", "alexander", "hp_expansion"),
    "words": ("fox_derivative", "rep_evaluate"),
    "representations": ("search_assignment",),
    "matrices": ("RingMatrix.det", "gamma_substitute", "cyclic_product"),
    "laurent": ("LaurentPoly.exact_div",),
    "twisted": ("wada", "dihedral_total", "nqp_total", "modp_congruence"),
    "factorization": (
        "torus_gh",
        "extract_GH",
        "f_polynomial",
        "factor_pairing",
        "conjecture_report",
    ),
    "intfactor": ("int_poly_factor",),
}


def target_names():
    return [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]


class Stat:
    __slots__ = ("calls", "total", "self_time", "failed")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.failed = 0


def _coeff_bits(c):
    if isinstance(c, int):
        return abs(c).bit_length()
    return max((abs(x).bit_length() for x in c), default=0)


class Tracer:
    """Install with ``with Tracer() as tr:``; the original bindings are
    restored on exit."""

    def __init__(self):
        self.names = target_names()
        self.stats = {name: Stat() for name in self.names}
        self.absent = []
        self.spans = []
        self.item = -1
        self.counts = {
            "words.fox_derivative.terms": 0,
            "knots.relator_len": 0,
            "matrices.det.max_dim": 0,
            "matrices.det.max_out_degree": 0,
            "matrices.det.max_out_coeff_bits": 0,
        }
        self._stack = [[-1, 0.0]]  # [span id, time covered by wrapped children]
        self._patches = []
        self._hooks = {
            "words.fox_derivative": self._fox_hook,
            "knots.presentation": self._presentation_hook,
            "matrices.RingMatrix.det": self._det_hook,
        }

    # -- counters read at the boundaries --------------------------------

    def _fox_hook(self, args, out):
        self.counts["words.fox_derivative.terms"] += len(out.terms)

    def _presentation_hook(self, args, out):
        self.counts["knots.relator_len"] += sum(len(r) for r in out.relators)

    def _det_hook(self, args, out):
        c = self.counts
        c["matrices.det.max_dim"] = max(c["matrices.det.max_dim"], args[0].rows)
        coeffs = getattr(out, "coeffs", None)
        if coeffs is None:  # an entry of the base ring, not a polynomial
            coeffs = (out,)
        else:
            c["matrices.det.max_out_degree"] = max(
                c["matrices.det.max_out_degree"], out.degree
            )
        bits = max((_coeff_bits(x) for x in coeffs), default=0)
        c["matrices.det.max_out_coeff_bits"] = max(
            c["matrices.det.max_out_coeff_bits"], bits
        )

    # -- installation ----------------------------------------------------

    def _wrap(self, index, fn, hook):
        stat = self.stats[self.names[index]]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[1] += dur
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[1]
                spans[sid] = (index, start, end, parent[0], tracer.item)
                if not ok:
                    stat.failed += 1
            if hook is not None:
                hook(args, out)
            return out

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if (name == "talex" or name.startswith("talex.")) and m is not None
        ]
        for index, full in enumerate(self.names):
            mod_name, _, attr = full.partition(".")
            try:
                module = importlib.import_module(f"talex.{mod_name}")
            except ImportError:
                self.absent.append(full)
                continue
            hook = self._hooks.get(full)
            if "." in attr:
                cls_name, _, meth = attr.partition(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.absent.append(full)
                    continue
                self._patch(cls, meth, self._wrap(index, vars(cls)[meth], hook))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(full)
                continue
            wrapper = self._wrap(index, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- results -----------------------------------------------------------

    def metrics(self, passes, items_per_pass):
        """Per-pass layer metrics: calls, total and self seconds per wrapped
        function, plus the boundary counters."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = (stat.calls / passes, "count")
            out[f"{name}.total_s"] = (stat.total / passes, "s")
            out[f"{name}.self_s"] = (stat.self_time / passes, "s")
        c = self.counts
        out["words.fox_derivative.terms"] = (c["words.fox_derivative.terms"] / passes, "count")
        out["knots.relator_len"] = (c["knots.relator_len"] / passes, "count")
        for key in ("max_dim", "max_out_degree", "max_out_coeff_bits"):
            name = f"matrices.det.{key}"
            out[name] = (c[name], "bits" if key.endswith("bits") else "count")
        items = passes * items_per_pass
        for name in ("twisted.dihedral_total", "representations.search_assignment"):
            out[f"{name}.calls_per_item"] = (self.stats[name].calls / items, "count")
        fp = self.stats["factorization.f_polynomial"]
        out["factorization.split_ratio"] = (
            (fp.calls - fp.failed) / fp.calls if fp.calls else 0.0,
            "ratio",
        )
        return out

    def span_records(self):
        return {
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent", "item"],
            "spans": [s for s in self.spans if s is not None],
        }
