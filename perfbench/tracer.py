"""Spans around the library's layer functions, installed from outside the
package.

Several modules bind layer functions with ``from .x import name`` (pipeline,
cuspidal, threelines, certifier, cohomology), so a wrapper placed only in the
defining module would miss those calls.  ``install`` replaces the function at
every binding site in every loaded ``siegelcert`` module.  Calls made through
a function-local ``from .x import name`` resolve at call time and so see the
wrapper.  A traced run fails when a layer its workload must call records no
calls.

Only the functions listed in LAYERS are wrapped.  Hot helpers such as
tl_map_eval run inside them and count toward their self time; wrapping them
would make the trace cost more than the work it measures.

Spans are kept in memory as [layer, start, end, parent] lists and written
when the run ends.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import collections
import functools
import sys
import time


def _falsy(result) -> bool:
    return not result


def _not_passed(result) -> bool:
    return not result.passed


def _irreducible(result) -> bool:
    return result.irreducible


# layer -> (functions as "module.name", {counter: predicate on the result})
LAYERS = {
    "roots.poly_roots": (("roots.poly_roots",), {}),
    "intpoly.strip_cyclotomic": (("intpoly.strip_cyclotomic",), {}),
    "intpoly.resultant": (("intpoly.resultant",), {}),
    "intpoly.irreducible_mod_p": (("intpoly.irreducible_mod_p",), {}),
    "salem.is_salem": (("salem.is_salem",), {"rejected": _falsy}),
    "threelines.salem_from_orbit": (("threelines.salem_from_orbit",), {}),
    "threelines.orbit_verify": (("threelines.orbit_verify",),
                                {"rejected": _not_passed}),
    "threelines.fixed_points_tl": (("threelines.fixed_points_tl",), {}),
    "threelines.construct_targets": (("threelines.construct_c0",
                                      "threelines.construct_cstar"), {}),
    "search": (("threelines.approx_parameters",), {}),
    "geometry.chart_jacobian": (("geometry.chart_jacobian",), {}),
    "certifier.certify_fixed_point": (("certifier.certify_fixed_point",), {}),
    "cohomology.action_matrix": (("cohomology.quad_action_matrix",
                                  "cohomology.tl_action_matrix"), {}),
    "cohomology.spectral_data": (("cohomology.spectral_data",), {}),
    "cohomology.delta_eigen_check": (("cohomology.delta_eigen_check",), {}),
    "strictmode.evidence": (("strictmode.three_lines_strict_evidence",
                             "cuspidal.strict_mode_evidence"),
                            {"irreducible": _irreducible}),
    "report.report_to_dict": (("report.report_to_dict",), {}),
    "report.render": (("report.render",), {}),
}

ITEM = "item"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError("span %d closed while %d is open" % (idx, top))

    def count(self, layer: str, counter: str):
        self.counts[(layer, counter)] += 1

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like self.spans."""
        out = [s[2] - s[1] for s in self.spans]
        for layer, start, end, parent in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def totals(self) -> dict[tuple[str, str], float]:
        """Per layer: calls and self_s, plus the outcome counters."""
        out: dict[tuple[str, str], float] = collections.defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            out[(span[0], "calls")] += 1
            out[(span[0], "self_s")] += self_s
        for key, n in self.counts.items():
            out[key] += n
        return out


def _wrap(tracer: Tracer, layer: str, fn, counters: dict):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if layer == "search" and kwargs.get("accept") is not None:
            kwargs["accept"] = _counted_gate(tracer, kwargs["accept"])
        idx = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.count(layer, "errors")
            raise
        finally:
            tracer.close(idx)
        for name, pred in counters.items():
            if pred(result):
                tracer.count(layer, name)
        return result
    return wrapper


def _counted_gate(tracer: Tracer, accept):
    """The search's certification gate, counting candidates and acceptances."""
    def gate(candidate):
        tracer.count("search", "candidates")
        ok = accept(candidate)
        if ok:
            tracer.count("search", "accepted")
        return ok
    return gate


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "siegelcert" or name.startswith("siegelcert."))]


def install(tracer: Tracer):
    """Wrap every LAYERS function at every binding site; returns an undo
    callable."""
    import siegelcert.strictmode  # noqa: F401  (imported lazily by the library)
    modules = _package_modules()
    patched = []
    for layer, (names, counters) in LAYERS.items():
        for qualified in names:
            mod_name, attr = qualified.split(".")
            original = getattr(sys.modules["siegelcert." + mod_name], attr)
            wrapper = _wrap(tracer, layer, original, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))

    def undo():
        for mod, key, original in patched:
            setattr(mod, key, original)

    return undo
