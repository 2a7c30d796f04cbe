"""In-memory spans around the library's layers, installed from outside the
package.

Modules import functions by name (`from .parsing import parse_branch`), so
a wrapper must replace every name a caller looks up: `install` replaces
each target wherever it is bound in a loaded `seshadri` module, and methods
on their class. `uninstall` puts every original back.

A span records its layer, start, end, parent span and the index of the
`main()` call it belongs to. Self time is a span's duration minus the time
its child spans cover, and minus the time the tracer spent measuring sizes.
"""

from __future__ import annotations

import functools
import importlib
import sys
from fractions import Fraction
from time import perf_counter

# (module, attribute or Class.method); metric names drop the package prefix.
TARGETS = (
    ("seshadri.cli", "main"),
    ("seshadri.cli", "Report.render"),
    ("seshadri.parsing", "parse_curve"),
    ("seshadri.parsing", "parse_branch"),
    ("seshadri.parsing", "parse_surd"),
    ("seshadri.cluster", "branch_from_implicit"),
    ("seshadri.cluster", "normalize_branch"),
    ("seshadri.cluster", "cluster_multiplicities"),
    ("seshadri.cluster", "pullback_mult"),
    ("seshadri.series", "BiSeries.substitute_y"),
    ("seshadri.series", "BiSeries.translate_y"),
    ("seshadri.exact", "RatMatrix.rref"),
    ("seshadri.exact", "RatMatrix.kernel"),
    ("seshadri.witness", "solve_witness"),
    ("seshadri.intersection", "local_intersection"),
    ("seshadri.conditions", "candidate_search"),
    ("seshadri.covering", "steffens_bounds"),
    ("seshadri.covering", "nagata_upper"),
)

MAIN = "cli.main"
BRANCH = "cluster.branch_from_implicit"
SUBSTITUTE = "series.BiSeries.substitute_y"
RREF = "exact.RatMatrix.rref"
TRANSLATE = "series.BiSeries.translate_y"


def _bits(value: Fraction) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


# Sizes read off a layer's arguments and result. Keys ending in _max are
# maxima; the others are summed.
def _branch_sizes(args, result) -> dict:
    coeffs = result.g.coeffs.values()
    return {"terms_out": len(coeffs), "coeff_bits_max": max(map(_bits, coeffs), default=0)}


def _rref_sizes(args, result) -> dict:
    matrix = args[0]
    return {"rows": matrix.rows, "cols": matrix.cols, "rank": len(result[1]),
            "entry_bits_max": max((_bits(v) for row in matrix.entries for v in row), default=0)}


def _translate_sizes(args, result) -> dict:
    return {"terms_out": len(result.coeffs)}


SIZES = {
    BRANCH: (_branch_sizes, ("terms_out", "coeff_bits_max")),
    RREF: (_rref_sizes, ("rows", "cols", "rank", "entry_bits_max")),
    TRANSLATE: (_translate_sizes, ("terms_out",)),
}


def layer_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Spans and sizes for one process. install() and uninstall() may
    alternate; the wrappers and their layer names are made once."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # each span: [name index, start, end, parent span or -1, call index, sizing time]
        self.spans: list[list] = []
        self.sizes: dict[str, dict[str, float]] = {}
        self.call = -1
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] = []
        self.installed = False

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        sizer = SIZES.get(name, (None,))[0]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, perf_counter(), 0.0, stack[-1] if stack else -1, self.call, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if sizer is not None:
                acc = self.sizes.setdefault(name, {})
                for key, value in sizer(args, result).items():
                    acc[key] = max(acc.get(key, 0), value) if key.endswith("_max") \
                        else acc.get(key, 0) + value
                span[5] = perf_counter() - span[2]
                span[2] += span[5]
            return result

        return wrapper

    def _make_plan(self) -> list[tuple[object, str, object, object]]:
        plan = []
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            name = layer_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                plan.append((owner, method, original, self._wrap(name, original)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "seshadri" or mod_name.startswith("seshadri."):
                    plan.extend((mod, key, original, wrapper)
                                for key, value in list(vars(mod).items()) if value is original)
        return plan

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        if not self._plan:
            self._plan = self._make_plan()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)
        self.installed = False

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """Every (owner, attribute, original) the tracer replaces."""
        return [(owner, attr, original) for owner, attr, original, _ in self._plan]

    def count(self, name: str) -> int:
        """Spans recorded for one layer."""
        name_id = self.names.index(name)
        return sum(1 for s in self.spans if s[0] == name_id)

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        out = [s[2] - s[1] - s[5] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def layers(self, per: int) -> dict[str, float]:
        """Per-layer metrics, divided by `per` (the blocks traced)."""
        selfs = self.self_times()
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        total = {name: 0.0 for name in self.names}
        substitutes_in_branch = 0
        for span, own in zip(self.spans, selfs):
            name = self.names[span[0]]
            calls[name] += 1
            self_s[name] += own
            total[name] += span[2] - span[1] - span[5]
            if name == SUBSTITUTE and span[3] >= 0 and self.names[self.spans[span[3]][0]] == BRANCH:
                substitutes_in_branch += 1
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name] / per
            out[f"{name}.self_s"] = self_s[name] / per
            acc = self.sizes.get(name, {})
            for key in SIZES.get(name, (None, ()))[1]:
                value = acc.get(key, 0)
                out[f"{name}.{key}"] = value if key.endswith("_max") else value / per
        branch_terms = self.sizes.get(BRANCH, {}).get("terms_out", 0)
        out[f"{BRANCH}.terms_per_substitute"] = (
            branch_terms / substitutes_in_branch if substitutes_in_branch else 0.0)
        rref = self.sizes.get(RREF, {})
        out[f"{RREF}.rank_per_row"] = rref["rank"] / rref["rows"] if rref.get("rows") else 0.0
        main_s = total[MAIN]
        out[f"{BRANCH}.time_share"] = total[BRANCH] / main_s if main_s else 0.0
        out[f"{RREF}.self_share"] = self_s[RREF] / main_s if main_s else 0.0
        return out

    def dump(self) -> dict:
        """Spans in a compact form: names once, then [name, start, end, parent, call]."""
        return {"names": self.names, "spans": [s[:5] for s in self.spans]}
