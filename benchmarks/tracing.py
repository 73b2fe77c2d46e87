"""Spans recorded from outside the program, around calls into its layers.

`Tracer.installed()` replaces the public functions of trimclust's layers, in
the module namespaces the package looks them up from, with wrappers that
record a span per call; leaving the block puts the originals back.  A span
has a name, a start, an end, the index of the span that was open when it
began (its parent) and the id of the solve it belongs to.  Spans are kept in
memory; `layer_metrics` turns them into the per-layer figures.

Enumerators return generators; their wrappers drain the generator inside the
span and hand back an iterator over the result.  `_run_rounds` makes a list
of the stream at once, so this changes nothing but where the time is seen.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from trimclust import extensions, reduction

# (module, attribute, span name).  The span name is the layer figure the call
# feeds; calls nested inside another recorded span are kept but only a solve's
# direct children make up its time split.
WRAPPED = [
    (reduction, "build_augmented_instance", "baseline"),
    (reduction, "baseline_solve", "baseline"),
    (reduction, "ring_partition", "rings"),
    (reduction, "build_coreset", "build"),
    (reduction, "enumerate_outlier_subsets", "enumerate"),
    (reduction, "per_subset_best_exact", "blackbox"),
    (reduction, "solve_outlier_free", "blackbox"),
    (reduction, "evaluate_candidate", "rescore"),
    (extensions, "build_augmented_instance", "baseline"),
    (extensions, "baseline_solve", "baseline"),
    (extensions, "matroid_baseline", "baseline"),
    (extensions, "ring_partition", "rings"),
    (extensions, "build_coreset", "build"),
    (extensions, "build_colored_coreset", "build"),
    (extensions, "enumerate_colorful_subsets", "enumerate"),
    (extensions, "matroid_bases", "bases"),
    (extensions, "matroid_local_search", "blackbox"),
    (extensions, "per_subset_best_exact", "blackbox"),
    (extensions, "colorful_cost", "rescore"),
    (extensions, "colorful_outliers", "rescore"),
    (extensions, "trimmed_cost", "rescore"),
    (extensions, "farthest_points", "rescore"),
]

ENUMERATORS = {"enumerate_outlier_subsets", "enumerate_colorful_subsets"}
# one call per rescored candidate set (its outliers come from a second call)
CANDIDATE_SCORERS = {"evaluate_candidate", "colorful_cost", "trimmed_cost"}
CHILD_NAMES = ("baseline", "rings", "build", "enumerate", "blackbox", "rescore", "bases")


@dataclass
class Span:
    name: str
    func: str
    start: float
    end: float
    parent: int | None
    solve_id: int | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._solve_id: int | None = None
        self.independence_checks = 0

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "func": s.func, "start": s.start,
                    "end": s.end, "parent": s.parent, "solve_id": s.solve_id, **s.info,
                }) + "\n")

    def _open(self, name, func) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, func, time.perf_counter(), 0.0, parent, self._solve_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, solve_id: int | None = None):
        """A root span (a solve or an oracle call); nested calls become its children."""
        self._solve_id = solve_id
        idx = self._open(name, name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)
            self._solve_id = None

    def _wrapper(self, orig, name, func):
        def traced(*args, **kwargs):
            idx = self._open(name, func)
            try:
                result = orig(*args, **kwargs)
                if func in ENUMERATORS:
                    result = list(result)
                self._note(idx, func, args, result)
            finally:
                self._close(idx)
            return iter(result) if func in ENUMERATORS else result

        return traced

    def _note(self, idx, func, args, result) -> None:
        info = self.spans[idx].info
        if func in ENUMERATORS:
            info["subsets"] = len(result)
        elif func in ("build_coreset", "build_colored_coreset"):
            union = result.union
            info["entries"] = len(union)
            info["distinct"] = len(set(zip(union.points, union.weights)))
        elif func == "per_subset_best_exact":
            space, subsets = args[3], args[5]
            info["answers"] = len(result)
            info["candidate_evals"] = len(subsets) * space.count
        elif func in ("solve_outlier_free", "matroid_local_search"):
            info["answers"] = 1
            handle = args[-1]
            info["local_search"] = getattr(handle, "kind", "") == "local_search"
        elif func in CANDIDATE_SCORERS:
            info["candidate"] = True

    @contextmanager
    def installed(self, matroid=None):
        """Wrap every function of WRAPPED (and count ``matroid.is_independent``)."""
        saved = []
        for module, attr, name in WRAPPED:
            orig = getattr(module, attr)
            saved.append((module, attr, orig))
            setattr(module, attr, self._wrapper(orig, name, attr))
        if matroid is not None:
            check = matroid.is_independent

            def counted(S):
                if self._solve_id is not None:
                    self.independence_checks += 1
                return check(S)

            matroid.is_independent = counted
        try:
            yield self
        finally:
            for module, attr, orig in saved:
                setattr(module, attr, orig)
            if matroid is not None:
                del matroid.is_independent


def _covered(children: list[Span]) -> float:
    """Length of the union of the children's intervals."""
    total, end = 0.0, float("-inf")
    for s in sorted(children, key=lambda s: s.start):
        if s.end > end:
            total += s.end - max(s.start, end)
            end = s.end
    return total


def layer_metrics(tracer: Tracer, n_clients: dict[int, int]) -> tuple[dict, list[str]]:
    """Per-solve means of the layer figures, and any problems with the spans.

    ``n_clients`` maps each traced solve id to |X| of its instance.  A solve's
    time splits into its direct children plus its self time (the part no
    child covers); the children of a solve must not overlap, so that the
    split adds up to the solve time exactly.
    """
    spans = tracer.spans
    solves = [i for i, s in enumerate(spans) if s.name == "solve"]
    oracles = [s for s in spans if s.name == "oracle"]
    problems = []
    totals = {name: 0.0 for name in CHILD_NAMES}
    counts = dict(entries=0, distinct=0, subsets=0, answers=0, calls=0,
                  candidate_evals=0, candidates=0, client_rounds=0)
    self_s = 0.0
    bases_all = 0.0
    ls_calls = []
    children_of: dict[int, list[Span]] = {i: [] for i in solves}
    for s in spans:
        if s.parent in children_of:
            children_of[s.parent].append(s)
        if s.func == "matroid_bases" and s.solve_id is not None:
            bases_all += s.duration
        if s.end < s.start or (s.parent is not None and not (
            spans[s.parent].start <= s.start and s.end <= spans[s.parent].end
        )):
            problems.append(f"span {s.func} lies outside its parent")
    for i in solves:
        kids = children_of[i]
        covered = _covered(kids)
        summed = sum(k.duration for k in kids)
        if abs(covered - summed) > 1e-9:  # then children + self time != solve time
            problems.append(f"children of solve {spans[i].solve_id} overlap")
        self_s += spans[i].duration - covered
        for k in kids:
            totals[k.name] += k.duration
            info = k.info
            for key in ("entries", "distinct", "subsets", "answers", "candidate_evals"):
                counts[key] += info.get(key, 0)
            counts["candidates"] += 1 if info.get("candidate") else 0
            counts["calls"] += 1 if k.name == "blackbox" else 0
            if info.get("local_search") and k.func == "solve_outlier_free":
                ls_calls.append(k.duration)
            if "entries" in info:
                counts["client_rounds"] += n_clients[spans[i].solve_id]
    n = max(1, len(solves))
    metrics = {
        "coreset.baseline_s": totals["baseline"] / n,
        "coreset.rings_s": totals["rings"] / n,
        "coreset.build_s": totals["build"] / n,
        "coreset.entries": counts["entries"] / n,
        "coreset.distinct_entries": counts["distinct"] / n,
        "coreset.compression": counts["entries"] / max(1, counts["client_rounds"]),
        "reduction.subsets": counts["subsets"] / n,
        "reduction.enumerate_s": totals["enumerate"] / n,
        "reduction.blackbox_s": totals["blackbox"] / n,
        "reduction.blackbox_calls": counts["calls"] / n,
        "reduction.candidate_evals": counts["candidate_evals"] / n,
        "reduction.distinct_candidates": counts["candidates"] / n,
        "reduction.distinct_per_answer": counts["candidates"] / max(1, counts["answers"]),
        "reduction.rescore_s": totals["rescore"] / n,
        "reduction.self_s": self_s / n,
        "solvers.local_search_call_s_p50": statistics.median(ls_calls) if ls_calls else 0.0,
        "solvers.oracle_s": (sum(s.duration for s in oracles) / len(oracles)) if oracles else 0.0,
        "matroids.bases_s": bases_all / n,
        "matroids.independence_checks": tracer.independence_checks / n,
    }
    return metrics, problems
