"""Spans and counters around the calls into each toricode layer.

The tracer swaps module attributes for timing wrappers; the program's
source is untouched. A name that a module imported from another one
(`mindist.row_reduce`, `codes.gf_matvec`, ...) is wrapped where it is
looked up, so every call site that matters is seen. Spans are kept in
memory, one list per traced round, and written out when the run ends.

A span's self time is its duration minus the durations of its direct
child spans. A layer's inclusive time counts only spans whose parent is in
another layer, so nested calls within one layer are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import Counter, defaultdict

import oracle

FAMILIES = ("prime", "char2", "odd_ext")


def field_family(q: int) -> str:
    p, m = oracle.prime_power(q)
    return "char2" if p == 2 else "prime" if m == 1 else "odd_ext"


# -- counters read from call arguments and results --------------------------

def _count_kernel(counts, args, seconds, messages, scaled, q):
    family = field_family(q)
    ops = messages * scaled.shape[2]  # codeword symbols the kernel computes
    counts["kernels.messages"] += messages
    counts["kernels.symbol_ops"] += ops
    counts[f"kernel_ops.{family}"] += ops
    counts[f"kernel_s.{family}"] += seconds


def _count_exhaustive(counts, args, result, seconds, outermost):
    _count_kernel(counts, args, seconds, int(args["max_messages"]), args["scaled"], int(args["q"]))


def _count_isd(counts, args, result, seconds, outermost):
    scaled, supports = args["scaled"], args["supports"]
    q = scaled.shape[1]
    n_sup, w = supports.shape
    counts["kernels.isd_level_scan_calls"] += 1
    _count_kernel(counts, args, seconds, n_sup * (q - 1) ** (w - 1), scaled, q)


def _count_row_reduce(counts, args, result, seconds, outermost):
    counts["gf.row_reduce_calls"] += 1


def _count_lattice_points(counts, args, result, seconds, outermost):
    vertices = args["self"].vertices
    tested = 1
    for axis in zip(*vertices):
        tested *= max(axis) - min(axis) + 1
    counts["polytopes.points_tested"] += tested
    counts["polytopes.points_found"] += len(result)


def _count_build(counts, args, result, seconds, outermost):
    counts["codes.generator_mb"] += result.generator.nbytes / 1e6


def _count_search(counts, args, result, seconds, outermost):
    if outermost:
        counts["mindist.exact_results"] += int(result.exact)


# (module, attribute, span name, counter); the module is looked up by name
# in the `modules` mapping given to install()
WRAPS = (
    ("gf", "make_field", "gf.make_field", None),
    ("gf", "row_reduce", "gf.row_reduce", _count_row_reduce),
    ("mindist", "row_reduce", "gf.row_reduce", _count_row_reduce),
    ("gf", "gf_matvec", "gf.matvec", None),
    ("codes", "gf_matvec", "gf.matvec", None),
    ("mindist", "gf_matvec", "gf.matvec", None),
    ("codes", "build_code", "codes.build_code", _count_build),
    ("codes", "evaluate", "codes.evaluate", None),
    ("mindist", "evaluate", "codes.evaluate", None),
    ("kernels", "scaled_rows", "kernels.scaled_rows", None),
    ("kernels", "exhaustive_scan", "kernels.exhaustive_scan", _count_exhaustive),
    ("kernels", "isd_level_scan", "kernels.isd_level_scan", _count_isd),
    ("mindist", "min_distance", "mindist.min_distance", _count_search),
    ("mindist", "min_distance_exhaustive", "mindist.min_distance_exhaustive", _count_search),
    ("mindist", "min_distance_isd", "mindist.min_distance_isd", _count_search),
    ("formulas", "params_report", "formulas.params_report", None),
    ("formulas", "dim_recipe", "formulas.dim_recipe", None),
)


class Tracer:
    """Records spans [name, start, end, parent] and counters per round."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed = False
        cls = modules["polytopes"].LatticePolytope
        prop = cls.__dict__["lattice_points"]
        # (owner, attribute, original, wrapper)
        self._swaps = [
            (modules[mod], attr, getattr(modules[mod], attr),
             self._wrap(getattr(modules[mod], attr), name, count))
            for mod, attr, name, count in WRAPS
        ] + [(cls, "lattice_points", prop, self._cached(prop, "polytopes.lattice_points"))]

    def _wrap(self, func, name, count):
        sig = inspect.signature(func) if count else None
        layer = name.split(".")[0]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, 0.0, 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count:
                outermost = parent < 0 or not self.spans[parent][0].startswith(layer + ".")
                bound = sig.bind(*args, **kwargs).arguments
                count(self.counts, bound, result, record[2] - record[1], outermost)
            return result

        return wrapper

    def _cached(self, prop, name):
        wrapped = functools.cached_property(
            self._wrap(prop.func, name, _count_lattice_points)
        )
        wrapped.__set_name__(self.modules["polytopes"].LatticePolytope, prop.attrname)
        return wrapped

    def install(self) -> None:
        if self._installed:
            return
        for owner, attr, orig, wrapper in self._swaps:
            if getattr(owner, attr) is not orig:
                raise RuntimeError(f"{owner.__name__}.{attr} is already replaced")
        for owner, attr, orig, wrapper in self._swaps:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, attr, orig, wrapper in self._swaps:
                setattr(owner, attr, orig)
            self._installed = False

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counters recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def aggregate(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced round (times in s, counts as counts)."""
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    layer_total: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    for idx, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        layer = name.split(".")[0]
        total[name] += dur
        self_time[layer] += dur - children[idx]
        if parent < 0 or spans[parent][0].split(".")[0] != layer:
            layer_total[layer] += dur
    out = {
        "kernels.exhaustive_scan_s": total["kernels.exhaustive_scan"],
        "kernels.isd_level_scan_s": total["kernels.isd_level_scan"],
        "kernels.isd_level_scan_calls": counts["kernels.isd_level_scan_calls"],
        "kernels.scaled_rows_s": total["kernels.scaled_rows"],
        "kernels.messages": counts["kernels.messages"],
        "kernels.symbol_ops": counts["kernels.symbol_ops"],
        "mindist.min_distance_s": layer_total["mindist"],
        "mindist.self_s": self_time["mindist"],
        "mindist.exact_results": counts["mindist.exact_results"],
        "gf.row_reduce_s": total["gf.row_reduce"],
        "gf.row_reduce_calls": counts["gf.row_reduce_calls"],
        "gf.matvec_s": total["gf.matvec"],
        "polytopes.lattice_points_s": total["polytopes.lattice_points"],
        "polytopes.points_tested": counts["polytopes.points_tested"],
        "polytopes.points_found": counts["polytopes.points_found"],
        "codes.build_code_s": total["codes.build_code"],
        "codes.generator_mb": counts["codes.generator_mb"],
        "codes.evaluate_s": total["codes.evaluate"],
        "formulas.params_report_s": total["formulas.params_report"],
        "formulas.dim_recipe_s": total["formulas.dim_recipe"],
    }
    for family in FAMILIES:
        secs = counts[f"kernel_s.{family}"]
        out[f"kernels.symbol_ops_per_s.{family}"] = (
            counts[f"kernel_ops.{family}"] / secs if secs else 0.0
        )
    return out


COUNT_METRICS = (
    "kernels.isd_level_scan_calls",
    "kernels.messages",
    "kernels.symbol_ops",
    "mindist.exact_results",
    "gf.row_reduce_calls",
    "polytopes.points_tested",
    "polytopes.points_found",
    "codes.generator_mb",
)


def combine(rounds: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time over the traced rounds; counts must repeat exactly."""
    out, problems = {}, []
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        if key in COUNT_METRICS:
            if len(set(values)) != 1:
                problems.append(f"{key} differs between rounds: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out, problems


def unit(metric: str) -> str:
    if "_per_s" in metric:
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_pct"):
        return "%"
    return "count"


def write_spans(path, rounds) -> None:
    """One JSON object per span: round, id, name, start, end, parent id."""
    with open(path, "w", encoding="utf-8") as fh:
        for rnd, spans in enumerate(rounds):
            for idx, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps({
                    "round": rnd, "id": idx, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
