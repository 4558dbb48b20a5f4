"""Spans around calls into pstlab's modules, recorded from outside the program.

``Tracer.install`` replaces each traced function by a wrapper in every
pstlab module that binds it, which is where its callers look it up (for
example ``pstlab.pst.factor_support`` and ``pstlab.harness.canonical_form``
both point at the wrapper of ``exactalg.factor_support`` and
``generate.canonical_form``).  A span is (id, parent id, name, start, end);
spans stay in flat arrays in memory and are written out after the timed
part.  Self time is a span's duration minus the durations of its direct
children, which nest inside it because the program is single-threaded.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array

# defining module -> public functions whose calls become spans
TARGETS = {
    "cli": ["main"],
    "generate": ["gen_connected_graphs", "canonical_form"],
    "graphs": ["write_graph6"],
    "harness": ["run_survey", "survey_record", "spanning_tree_count", "lmax_is_integer",
                "screen_power_of_two", "replay_certificate", "verify_positive_report"],
    "exactalg": ["charpoly", "sturm_count", "det_bareiss", "factor_support",
                 "vector_minpoly", "poly_gcd"],
    "spectral": ["classify_by_minpolys", "support_profile", "cospectrality_profile"],
    "pst": ["laplacian_pst", "adjacency_pst", "numeric_fidelity"],
}
MODULES = ["pstlab", "pstlab.graphs", "pstlab.generate", "pstlab.exactalg",
           "pstlab.spectral", "pstlab.pst", "pstlab.harness", "pstlab.cli"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, span_name: str, fn):
        idx = len(self.names)
        self.names.append(span_name)
        parent, name, start, end, stack = self.parent, self.name, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(idx)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for module, functions in TARGETS.items():
            home = importlib.import_module(f"pstlab.{module}")
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{module}.{fname}", original)
                for m in modules:
                    if getattr(m, fname, None) is original:
                        setattr(m, fname, wrapper)

    def __len__(self) -> int:
        return len(self.start)

    def layers(self) -> dict:
        """{span name: {"calls", "s", "self_s"}}.  "s" is inclusive time,
        counted once for calls nested in a call of the same name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {s: {"calls": 0, "s": 0.0, "self_s": 0.0} for s in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            if not self.has_ancestor(i, self.name[i]):
                row["s"] += dur[i]
        return out

    def has_ancestor(self, sid: int, name_idx: int) -> bool:
        p = self.parent[sid]
        while p >= 0:
            if self.name[p] == name_idx:
                return True
            p = self.parent[p]
        return False

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` with an ancestor span called `ancestor`."""
        if name not in self.names or ancestor not in self.names:
            return 0
        a, b = self.names.index(name), self.names.index(ancestor)
        return sum(1 for i in range(len(self.start))
                   if self.name[i] == a and self.has_ancestor(i, b))

    def write(self, path) -> None:
        """Spans as gzipped CSV, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.start[i] - t0:.7f},{self.end[i] - t0:.7f}\n")
