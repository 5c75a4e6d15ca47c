"""Spans around the package's layer functions, kept in memory.

`Tracer.installed()` swaps each layer function named in `_hooks` for a
wrapper that records a span (id, parent, name, start, end) and, for some
layers, a work count; the originals are restored on exit.  Functions are
replaced on the module object their callers look them up in, so a call
made inside the package (say `coloring.fractional_chromatic_number`
calling `solve_covering_lp`) is traced exactly like one made by the CLI.
"""

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _hooks(pkg):
    """(owner, attribute, span name or name function, count function) per layer."""
    coloring, graphs, harddist, mmphf, windowtree = (
        pkg.coloring, pkg.graphs, pkg.harddist, pkg.mmphf, pkg.windowtree)

    def count_build(c, args, index):
        c.update({"mmphf.builds": 1, "mmphf.payload_bits": index.size_bits, "mmphf.keys": index.n})

    return [
        (graphs, "build_graph", "graphs.build_graph", None),
        (mmphf, "build_graph", "graphs.build_graph", None),
        (coloring, "maximal_sets_bits", "coloring.maximal_sets_bits",
         lambda c, args, sets: c.update({"coloring.maximal_sets": len(sets)})),
        (coloring, "solve_covering_lp", "lp.solve_covering_lp",
         lambda c, args, sol: c.update({"lp.rows": args[0], "lp.columns": len(args[1])})),
        (coloring, "chromatic_number", "coloring.chromatic_number", None),
        (coloring, "verify_primal", "coloring.verify_primal", None),
        (coloring, "verify_dual", "coloring.verify_dual", None),
        (mmphf, "build", lambda scheme, *rest, **kw: f"mmphf.build.{scheme}", count_build),
        (mmphf, "query", lambda index, *rest: f"mmphf.query.{index.scheme}",
         lambda c, args, r: c.update({"mmphf.queries": 1})),
        (mmphf, "extract_coloring", "mmphf.extract_coloring", None),
        (mmphf, "parameterize", "mmphf.parameterize", None),
        (harddist, "sample", "harddist.sample", None),
        (harddist, "verify_trace", "harddist.verify_trace", None),
        (harddist, "enumerate_distribution", "harddist.enumerate_distribution", None),
        (harddist, "adversary_bound_exact", "harddist.adversary_bound_exact", None),
        (harddist.SampleTrace, "to_json_dict", "serialize.trace_json", None),
        (windowtree, "prune", "windowtree.prune", None),
        (windowtree, "case1_inequality_check", "windowtree.case1_inequality_check", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id or None, name, start, end]
        self.counts = Counter()
        self._stack = []

    def _open(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name, perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec):
        rec[4] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            rec = self._open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    @contextmanager
    def installed(self, pkg):
        saved = []
        try:
            for owner, attr, name, count in _hooks(pkg):
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, count))
            adjacent = pkg.graphs.adjacent
            saved.append((pkg.graphs, "adjacent", adjacent))

            def counted_adjacent(*args):
                self.counts["graphs.adjacency_tests"] += 1
                return adjacent(*args)
            pkg.graphs.adjacent = counted_adjacent
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self) -> dict:
        """Span duration minus the time its direct children cover, summed by name."""
        covered = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += end - start - covered[sid]
        return out
