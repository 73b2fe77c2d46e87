"""One workload in one fresh process: warm up, time warm solves, check answers.

Started by run.py, which pins the BLAS and OpenMP pools to one thread and puts
the checkout's ``src`` first on the module path.  The process prints
``ready`` once the workload's instances are built (run.py times that for
``setup_s``; ``--setup-only`` stops there), then one JSON line:
``{"correct", "attempted", "failed", "metrics", "problems", "errors"}``.
Untraced, ``metrics`` holds the end-to-end figures but ``setup_s``;
traced, it holds the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

import trimclust
import workloads
from trimclust.bench import report_to_dict, solution_to_dict
from trimclust.fileio import dump_json

ROOT = Path(__file__).resolve().parent.parent


def _report_bytes(out) -> str:
    if isinstance(out, trimclust.ReductionReport):
        return dump_json(report_to_dict(out))
    return dump_json(solution_to_dict(out))


def _answer(out):
    """(solution, whether every round's coreset was lossless); None when the
    solver returns a bare solution, which does not say."""
    if isinstance(out, trimclust.ReductionReport):
        return out.best, all(r.coreset_lossless for r in out.per_round)
    return out, None


class Run:
    """Answers checked so far, with the first report bytes of every case."""

    def __init__(self, wl):
        from reference import Reference  # not imported by --setup-only runs

        self.wl = wl
        self.refs = [Reference.for_case(c) for c in wl.cases]
        self.optima = [r.optimum() for r in self.refs]
        self.first: dict[int, str] = {}
        self.ratios: dict[int, float] = {}
        self.problems: list[str] = []  # wrong answers: the run is not correct
        self.errors: list[str] = []  # operations that raised: counted as failed
        self.attempted = 0
        self.failed = 0

    def _fail(self, case, what, exc) -> None:
        self.failed += 1
        self.errors.append(f"{case.name}: {what} raised {type(exc).__name__}: {exc}")

    def solve(self, i: int, timed: list[float] | None = None, span=nullcontext) -> None:
        """One solve of case i, inside ``span()`` and timed into ``timed``; checks its answer."""
        case = self.wl.cases[i]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with span():
                out = case.solve()
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(case, "solve", exc)
            return
        dt = time.perf_counter() - t0
        if timed is not None:
            timed.append(dt)
        self.check(i, out)

    def check(self, i: int, out) -> None:
        case, ref, opt = self.wl.cases[i], self.refs[i], self.optima[i]
        blob = _report_bytes(out)
        if self.first.setdefault(i, blob) != blob:
            self.problems.append(f"{case.name}: a repeat gave different report bytes")
            return
        if i in self.ratios:
            return  # same bytes as an answer already checked
        sol, lossless = _answer(out)
        if lossless is None:
            lossless = case.lossless
        exact = lossless and case.solver.kind == "exact"
        factor = (1 + workloads.EPSILON) / (1 - workloads.EPSILON)
        found = ref.check(sol.centers, sol.outliers, sol.cost)
        found += ref.check_quality(sol.cost, opt, factor, exact)
        self.problems += [f"{case.name}: {p}" for p in found]
        self.ratios[i] = sol.cost / opt if opt > 0 else 1.0

    def oracle(
        self, i: int, batch: int, timed: list[float] | None = None, span=nullcontext
    ) -> None:
        """``batch`` oracle calls on case i; the per-call time goes to ``timed``."""
        case = self.wl.cases[i]
        self.attempted += batch
        t0 = time.perf_counter()
        try:
            for _ in range(batch):
                with span():
                    sol = case.oracle()
        except Exception as exc:
            self._fail(case, "oracle", exc)
            return
        if timed is not None:
            timed.append((time.perf_counter() - t0) / batch)
        if not abs(sol.cost - self.optima[i]) <= 1e-9 * abs(self.optima[i]):
            self.problems.append(
                f"{case.name}: program oracle {sol.cost!r} != brute force {self.optima[i]!r}"
            )
        self.problems += [f"{case.name} oracle: {p}" for p in
                          self.refs[i].check(sol.centers, sol.outliers, sol.cost)]

    def warm_up(self) -> None:
        """Discarded solve and oracle call on the first case of every shape."""
        seen = set()
        for i, case in enumerate(self.wl.cases):
            if case.kind not in seen:
                seen.add(case.kind)
                self.solve(i)
                self.oracle(i, 1)
        self.attempted = self.failed = 0  # only timed operations count


def _time_left(start: float, seconds: float) -> bool:
    return time.perf_counter() - start < seconds


def timed_run(run: Run, seconds: float) -> dict:
    """Whole rounds (every case solved, then its oracle batch) while time is left."""
    solve_times: list[float] = []
    oracle_times: list[float] = []
    start = time.perf_counter()
    while _time_left(start, seconds):
        for i in range(len(run.wl.cases)):
            run.solve(i, solve_times)
        for i in range(len(run.wl.cases)):
            run.oracle(i, run.wl.oracle_batch, oracle_times)
    ratios = [run.ratios[i] for i in range(len(run.wl.cases)) if i in run.ratios]
    if len(ratios) < len(run.wl.cases) or not oracle_times:
        run.problems.append("a case was never solved, or its oracle never answered")
    nan = float("nan")
    return {
        "solves_per_s": len(solve_times) / sum(solve_times) if solve_times else nan,
        "oracle_s_mean": statistics.fmean(oracle_times) if oracle_times else nan,
        "cost_ratio_max": max(ratios, default=nan),
        "cost_ratio_mean": statistics.fmean(ratios) if ratios else nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(run: Run, seconds: float, spans_path: Path) -> dict:
    """Pairs of untraced and traced solves of every case, then traced oracles.

    The spans are written to ``spans_path`` (JSON lines) at the end.
    """
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    overheads: list[float] = []  # traced minus untraced time, per adjacent pair
    n_clients: dict[int, int] = {}
    start = time.perf_counter()
    passes = 0
    while _time_left(start, seconds):
        for i, case in enumerate(run.wl.cases):
            sid = len(n_clients)
            n_clients[sid] = len(case.inst.clients)
            plain: list[float] = []
            traced: list[float] = []
            order = (False, True) if (passes + i) % 2 == 0 else (True, False)
            for with_trace in order:
                if not with_trace:
                    run.solve(i, plain)
                    continue
                with tracer.installed(case.matroid):
                    run.solve(i, traced, lambda: tracer.span("solve", sid))
            if plain and traced:
                overheads.append(traced[0] - plain[0])
        passes += 1
    for i, case in enumerate(run.wl.cases):
        with tracer.installed(case.matroid):
            run.oracle(i, 1, span=lambda: tracer.span("oracle"))
    tracer.write(spans_path)
    metrics, problems = layer_metrics(tracer, n_clients)
    run.problems += problems
    metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny instances, for the self-test")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(trimclust.__file__).resolve().parents:
        print(f"trimclust was imported from {trimclust.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, args.toy)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    warnings.simplefilter("ignore", RuntimeWarning)  # local-search iteration caps
    run = Run(wl)
    run.warm_up()
    if args.trace:
        spans = ROOT / "bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics = traced_run(run, args.seconds, spans)
    else:
        metrics = timed_run(run, args.seconds)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "problems": run.problems[:20],
        "errors": run.errors[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
