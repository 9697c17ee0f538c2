"""Spans and counters recorded around calls into the library.

The library has no tracing of its own, so the benchmark wraps the public
functions of each layer at every library module that binds them and calls
them (BINDINGS).  A span is named "<layer>.<function>" after the module
that defines the function, except for normal_form, which is counted per
calling module: nash.normal_form for nash's calls, ideal.normal_form for
the ideal layer's own.  algebra.determinant is wrapped where nash calls it;
its recursive cofactor calls stay inside that span.

Spans live in flat arrays (name, start, end, parent span, analysis id) and
are written out at the end of a run.  A span's self time is its duration
minus the durations of its child spans.
"""
from __future__ import annotations

import contextlib
import functools
from array import array
from collections import Counter
from time import perf_counter

from toricnash import cli, ideal, nash, semigroup
from toricnash.errors import ToricNashError

MODULES = {"cli": cli, "semigroup": semigroup, "ideal": ideal, "nash": nash}

# (binding module, function, span name)
BINDINGS = [
    ("cli", "build_report", "cli.build_report"),
    ("cli", "report_json", "cli.report_json"),
    ("cli", "validate", "semigroup.validate"),
    ("semigroup", "validate", "semigroup.validate"),
    ("cli", "toric_ideal", "ideal.toric_ideal"),
    ("ideal", "toric_ideal", "ideal.toric_ideal"),
    ("ideal", "lattice_kernel", "ideal.lattice_kernel"),
    ("ideal", "buchberger", "ideal.buchberger"),
    ("ideal", "minimal_generators", "ideal.minimal_generators"),
    ("ideal", "normal_form", "ideal.normal_form"),
    ("cli", "singular_locus", "nash.singular_locus"),
    ("nash", "singular_locus", "nash.singular_locus"),
    ("cli", "search_all_subsets", "nash.search_all_subsets"),
    ("nash", "search_all_subsets", "nash.search_all_subsets"),
    ("cli", "verify_dichotomy", "nash.verify_dichotomy"),
    ("nash", "verify_dichotomy", "nash.verify_dichotomy"),
    ("cli", "dim1_selector", "nash.dim1_selector"),
    ("nash", "dim1_selector", "nash.dim1_selector"),
    ("nash", "rank", "nash.rank"),
    ("nash", "minor_monomial_formula", "nash.minor_monomial_formula"),
    ("nash", "minor_symbolic", "nash.minor_symbolic"),
    ("nash", "normal_form", "nash.normal_form"),
    ("nash", "determinant", "algebra.determinant"),
]


def _count_ideal(counters, result):
    counters["ideal.gb_elements"] += len(result.gb.elements)
    counters["ideal.s_min"] += result.s_min


def _count_subsets(counters, result):
    counters["nash.subsets"] += len(result)
    counters["nash.rank_ok"] += sum(r.rank_ok for r in result)


ON_RESULT = {"ideal.toric_ideal": _count_ideal,
             "nash.search_all_subsets": _count_subsets}


class Trace:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.analysis = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.current_analysis = -1
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        on_result = ON_RESULT.get(name)
        raised = f"{name}.raised"
        stack = self._stack
        # locals keep the wrapper cheap: it runs for every library call
        start, end = self.start, self.end
        add_name, add_parent = self.name.append, self.parent.append
        add_analysis = self.analysis.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            add_name(nid)
            add_parent(stack[-1])
            add_analysis(self.current_analysis)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except ToricNashError:
                self.counters[raised] += 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, name in BINDINGS:
                mod = MODULES[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, name))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def summary(self, lo: int, hi: int, by_analysis: bool = False) -> dict:
        """Span name -> {"calls", "s", "self_s"} over spans lo..hi-1.

        With by_analysis, one such dict per analysis id.  "nash.top_level"
        sums the nash spans that cli.build_report opened itself.
        """
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            if self.parent[i] >= lo:
                child[self.parent[i] - lo] += self.end[i] - self.start[i]
        build_report = self._ids.get("cli.build_report", -1)
        out: dict = {}
        for i in range(lo, hi):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            rows = out.setdefault(self.analysis[i], {}) if by_analysis else out
            keys = [name]
            p = self.parent[i]
            if (p >= lo and self.name[p] == build_report
                    and name.startswith("nash.")):
                keys.append("nash.top_level")
            for key in keys:
                cell = rows.setdefault(key, {"calls": 0, "s": 0.0,
                                             "self_s": 0.0})
                cell["calls"] += 1
                cell["s"] += dur
                cell["self_s"] += dur - child[i - lo]
        return out

    def write_csv(self, path, lo: int, hi: int, t0: float) -> None:
        """Spans lo..hi-1, times in seconds from t0."""
        with open(path, "w") as f:
            f.write("span,name,start_s,end_s,parent,analysis\n")
            for i in range(lo, hi):
                f.write(f"{i - lo},{self.names[self.name[i]]},"
                        f"{self.start[i] - t0:.7f},{self.end[i] - t0:.7f},"
                        f"{self.parent[i] - lo if self.parent[i] >= lo else -1},"
                        f"{self.analysis[i]}\n")
