"""Fault-campaign benchmark: milliseconds per defect, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload chain_sparse --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``chain_sparse``, ``network_dense`` and
``store_rerun`` (see ``campaign_workloads.py``); ``--seed`` generates
its inputs; ``--seconds`` is the measuring time.  Every campaign uses
the batched engine, and every record it returns is checked against the
reference inject-and-solve verdicts (warm, non-batched) of the same
defects, computed first in the same process.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s`` -- the median, over fresh interpreters started one at a
  time between the timed repeats, of the time to import the program
  and build the workload (circuit or network, monitor, catalog sample,
  oracles);
* ``ms_per_defect`` -- campaign wall time per defect, summed over the
  run's repeats.  On ``store_rerun`` this is the cold half: a parallel
  campaign with two workers into an empty result store;
* ``cached_ms_per_defect`` -- the same for re-runs served from a
  result store reopened from disk (on ``store_rerun`` the store its
  cold half wrote, elsewhere the store the reference pass wrote);
* ``peak_rss_mb`` -- peak resident memory of this process plus that of
  its largest child, over the reference pass and the first repeat.

The first repeat is a warm-up: it is checked but not timed.  Every
campaign starts after a full garbage collection, and the objects alive
once the reference pass is done (imported modules, workload, reference
records) are frozen out of the collector: a full collection of them
takes about 0.2 s, so the few that the collector would otherwise start
at random points inside the timed campaigns would swing the means far
more than the program does.

With ``--trace 1`` untraced and traced repeats alternate and the run
reports the per-layer metrics of ``layer_clock.py``, averaged per traced
repeat, plus ``trace.overhead_frac`` (traced against untraced wall).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed`` counts records
that were quarantined or whose verdicts differ from the reference.  The
run writes only below ``.perfbench_tmp/`` in the repository and removes
it, and it stops and joins every worker process before printing.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("chain_sparse", "network_dense", "store_rerun")
#: Set before numpy is first imported, here and in every child.  The
#: matrices are at most a few hundred rows, and a second BLAS thread
#: competing for the machine's two cores made campaign times swing more
#: between runs without making them shorter.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}

#: Fresh interpreters that import the program and build the workload,
#: one after each of the first timed repeats; ``setup_s`` takes the
#: median of their times.  Spread over the run, they do not all fall
#: into the same few seconds of a slow (or fast) machine.
SETUP_REPEATS = 3
#: What each of them runs: arguments are the import path and the
#: workload's name and seed.
SETUP_PROBE = '''
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import campaign_workloads
campaign_workloads.BUILDERS[sys.argv[3]](int(sys.argv[4]))
print(time.perf_counter() - start)
'''
#: Fewest timed repeats of each kind, however short ``--seconds`` is.
MIN_REPEATS = 3
#: Cached re-runs follow each solving campaign, so that both metrics
#: sample the same stretch of machine time.  In the timed run they go on
#: until their wall time reaches this share of the campaign's.  A single
#: re-run takes 15-20 ms and the machine's speed drifts during a run, so
#: a handful of re-runs per repeat sampled too little of the run to
#: average the same drift as the campaigns.
CACHED_SHARE = 0.3
#: Fewest cached re-runs after each solving campaign; the traced run
#: makes exactly this many, so its per-repeat counts do not depend on
#: the machine's speed.
CACHED_RERUNS = 5
#: Worker processes of the parallel cold half of ``store_rerun``.
WORKERS = 2

#: Timed layers besides the campaign frames, and the metric their self
#: time is reported under.
LAYERS = {
    "faults.injector": "faults.injector.self_s",
    "sim.mna.compile": "sim.mna.compile.self_s",
    "sim.mna.assemble": "sim.mna.assemble.self_s",
    "sim.mna.eval": "sim.mna.eval.self_s",
    "sim.linalg": "sim.linalg.self_s",
    "sim.dc": "sim.dc.self_s",
    "sim.batch": "sim.batch.self_s",
    "faults.oracle": "faults.oracle.self_s",
    "store.open": "store.open_s",
    "store.get": "store.get.self_s",
    "store.put": "store.put.self_s",
    "parallel.map": "parallel.map.self_s",
}
#: Counters read straight from the clock, per traced repeat.
COUNTERS = (
    "sim.mna.eval.batch_calls",
    "sim.linalg.splu_calls",
    "sim.linalg.superlu_solve_calls",
    "sim.linalg.dense_solve_calls",
    "sim.linalg.lu_calls",
    "sim.dc.operating_point.calls",
    "sim.dc.delta_solve.calls",
    "sim.batch.members",
    "parallel.chunks",
)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Verdicts:
    """Checks campaign records against the reference verdicts."""

    def __init__(self, reference, defect_key: Callable) -> None:
        self._key = defect_key
        self._expected = {defect_key(r.defect): r.verdicts
                          for r in reference.records if not r.quarantined}
        self.attempted = 0
        self.failed = 0

    def check(self, result, n_defects: int) -> None:
        self.attempted += max(n_defects, len(result.records))
        self.failed += max(n_defects - len(result.records), 0)
        for record in result.records:
            if (record.quarantined or record.verdicts
                    != self._expected.get(self._key(record.defect))):
                self.failed += 1


class Bench:
    """One benchmark run over one generated workload."""

    def __init__(self, workload, scratch: Path) -> None:
        from repro.faults import defect_key, run_campaign
        from repro.store import ResultStore

        self.workload = workload
        self.n = len(workload.defects)
        self.scratch = scratch
        self._run_campaign = run_campaign
        self._store_type = ResultStore
        self._stores = 0
        self.problems: List[str] = []
        self.walls: Dict[str, List[float]] = defaultdict(list)
        self.peak_rss_mb = 0.0
        self.traced_results: List = []
        self.setup_times: List[float] = []

        self.reference_path = scratch / "reference"
        self.reference = self._stored(self.reference_path, batched=False)()
        self.verdicts = Verdicts(self.reference, defect_key)

    # -- campaign steps --------------------------------------------------

    def _solve(self) -> Callable:
        w = self.workload
        return lambda: self._run_campaign(w.circuit, w.defects, w.oracles,
                                          batched=True)

    def _stored(self, path: Path, batched: bool = True, **kwargs) -> Callable:
        w = self.workload

        def step():
            store = self._store_type(path)
            try:
                return self._run_campaign(w.circuit, w.defects, w.oracles,
                                          batched=batched, store=store,
                                          **kwargs)
            finally:
                store.close()

        return step

    def _fresh_path(self) -> Path:
        self._stores += 1
        return self.scratch / f"store-{self._stores}"

    def repeat_steps(self, serial_cold: bool
                     ) -> Tuple[List[Tuple[str, Callable, str]], Callable]:
        """One repeat: its ``(label, step, expectation)`` list in order,
        and the cached re-run that follows it.

        ``serial_cold`` puts a serial cold campaign before the parallel
        one of ``store_rerun``, the base of ``parallel.efficiency``.
        """
        if self.workload.name != "store_rerun":
            return ([("solve", self._solve(), "")],
                    self._stored(self.reference_path))
        path = self._fresh_path()
        steps = []
        if serial_cold:
            steps.append(("serial_cold", self._solve(), ""))
        steps.append(("solve", self._stored(path, parallel=True,
                                            workers=WORKERS), "puts"))
        return steps, self._stored(path)

    def run_steps(self, repeat, clock=None,
                  cached_share: Optional[float] = None) -> float:
        """Run one repeat, check it, and return its summed wall time.

        The cached re-runs go on until they have taken ``cached_share``
        of the solving campaign's wall time, or, without a share, for
        ``CACHED_RERUNS`` re-runs.
        """
        steps, cached = repeat
        walls: Dict[str, List[float]] = defaultdict(list)
        for label, step, expectation in steps:
            walls[label].append(self._step(label, step, expectation, clock))
        budget = (cached_share or 0.0) * walls["solve"][0]
        while (len(walls["cached"]) < CACHED_RERUNS
               or sum(walls["cached"]) < budget):
            walls["cached"].append(self._step("cached", cached, "hits",
                                              clock))
        for child in self.scratch.glob("store-*"):
            shutil.rmtree(child)
        for label, values in walls.items():
            self.walls[label].extend(values)
        return sum(sum(values) for values in walls.values())

    def _step(self, label: str, step: Callable, expectation: str,
              clock) -> float:
        """Run and check one campaign; return its wall time.

        A full garbage collection first keeps the garbage of earlier
        campaigns from being collected inside this one's timing.
        """
        if clock is not None:
            step = clock.campaign(step)
        gc.collect()
        start = time.perf_counter()
        result = step()
        elapsed = time.perf_counter() - start
        self.verdicts.check(result, self.n)
        self._expect(label, result, expectation)
        if clock is not None:
            self.traced_results.append(result)
        return elapsed

    def _expect(self, label: str, result, expectation: str) -> None:
        if expectation == "hits" and result.n_store_hits != self.n:
            self.problems.append(f"{label}: {result.n_store_hits} of "
                                 f"{self.n} records served from the store")
        if expectation == "puts" and result.n_store_puts != self.n:
            self.problems.append(f"{label}: {result.n_store_puts} of "
                                 f"{self.n} records written to the store")

    # -- the two modes ---------------------------------------------------

    def measure(self, seconds: float, setup_probe: Callable[[], float]
                ) -> None:
        """End-to-end timing: repeats until ``seconds`` have passed.

        The first repeat warms up and is not timed.  Peak memory is read
        after it, so that it covers the same work however many repeats
        the machine fits into ``seconds`` (resident memory keeps growing
        from repeat to repeat, by an amount that differs from run to
        run), and before any ``setup_probe`` child has run.
        """
        def body() -> None:
            self.run_steps(self.repeat_steps(serial_cold=False),
                           cached_share=CACHED_SHARE)
            if not self.peak_rss_mb:
                self.peak_rss_mb = _peak_rss_mb()
                self.walls.clear()
            elif len(self.setup_times) < SETUP_REPEATS:
                self.setup_times.append(setup_probe())

        self._loop(seconds, body, MIN_REPEATS + 1)

    def trace(self, seconds: float, clock) -> Tuple[int, List[float],
                                                    List[float]]:
        """Alternate untraced and traced repeats; return the traced
        repeat count and both lists of repeat walls."""
        oracle_types = {type(oracle) for oracle in self.workload.oracles}
        untraced: List[float] = []
        traced: List[float] = []

        def pair() -> None:
            untraced.append(self.run_steps(
                self.repeat_steps(serial_cold=True)))
            clock.install(oracle_types)
            try:
                traced.append(self.run_steps(
                    self.repeat_steps(serial_cold=True), clock))
            finally:
                clock.uninstall()

        self._loop(seconds, pair)
        return len(traced), untraced, traced

    @staticmethod
    def _loop(seconds: float, body: Callable[[], object],
              min_repeats: int = MIN_REPEATS) -> None:
        deadline = time.perf_counter() + seconds
        repeats = 0
        while repeats < min_repeats or time.perf_counter() < deadline:
            body()
            repeats += 1

    # -- reporting -------------------------------------------------------

    def coverage(self) -> Dict[str, float]:
        """Share of defects each oracle catches (workload fingerprint)."""
        records = self.reference.records
        return {name: round(sum(r.verdicts.get(name) == "fail"
                                for r in records) / len(records), 4)
                for name in self.reference.oracle_names}

    def per_defect_ms(self, label: str) -> float:
        """Mean wall time per defect of the ``label`` steps; prints
        their median, quartiles and sample count besides.

        The mean, not the median, is reported: the machine's speed
        shifts between a few levels for seconds at a time, so a run's
        median jumps to whichever level held for more than half of its
        samples, while the mean moves only as far as the mix of levels
        does.
        """
        values = self.walls[label]
        scale = 1e3 / self.n
        mean = statistics.fmean(values)
        q1, median, q3 = _quartiles(values)
        line = (f"{label}_ms_per_defect: mean {mean * scale:.4f} "
                f"median {median * scale:.4f} q1 {q1 * scale:.4f} "
                f"q3 {q3 * scale:.4f}")
        # The highest percentile with at least ten samples above it.
        percentile = 100 * (len(values) - 10) // len(values)
        if len(values) >= 20:
            tail = statistics.quantiles(values, n=100)[percentile - 1]
            line += f" p{percentile} {tail * scale:.4f}"
        print(f"{line} samples {len(values)} defects {self.n}")
        return mean * scale


def layer_metrics(clock, repeats: int, results: List,
                  untraced: List[float], traced: List[float],
                  problems: List[str]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, per traced repeat, from the clock and records."""
    from layer_clock import CAMPAIGN, FALLBACK_BUCKETS, FALLBACK_OTHER

    def per(value: float) -> float:
        return value / repeats

    wall = clock.wall_s[CAMPAIGN]
    attributed = sum(clock.self_s[layer] for layer in LAYERS)
    if abs(attributed + clock.self_s[CAMPAIGN] - wall) > 1e-9 * max(wall, 1):
        problems.append("layer self times do not add up to campaign wall")
    metrics: Dict[str, Tuple[float, str]] = {
        "faults.campaign.calls": (per(clock.calls[CAMPAIGN]), "count"),
        "faults.campaign.wall_s": (per(wall), "s"),
        "faults.campaign.unattributed_s": (per(wall - attributed), "s"),
    }
    for layer, metric in LAYERS.items():
        if layer != "store.open":
            metrics[f"{layer}.calls"] = (per(clock.calls[layer]), "count")
        metrics[metric] = (per(clock.self_s[layer]), "s")
    for name in COUNTERS:
        metrics[name] = (per(clock.counts[name]), "count")

    cache = defaultdict(int)
    for result in results:
        for key, value in result.mna_cache_stats.items():
            cache[key] += value
    metrics["sim.mna.compile.structure_misses"] = (
        per(cache["structure_misses"]), "count")
    metrics["sim.mna.compile.compiled_builds"] = (
        per(cache["compiled_builds"]), "count")
    solved = [r for result in results if result.n_store_hits == 0
              for r in result.records]
    metrics["sim.dc.newton_iterations"] = (
        per(sum(r.newton_iterations for r in solved)), "count")
    metrics["sim.dc.factorizations"] = (
        per(sum(r.n_factorizations for r in solved)), "count")

    members = clock.counts["sim.batch.members"]
    metrics["sim.batch.useful_frac"] = (
        clock.counts["sim.batch.useful"] / members if members else 0.0,
        "frac")
    for bucket in [b for _, b in FALLBACK_BUCKETS] + [FALLBACK_OTHER]:
        name = f"sim.batch.fallback.{bucket}"
        metrics[name] = (per(clock.counts[name]), "count")
    gets = clock.calls["store.get"]
    metrics["store.hit_frac"] = (
        clock.counts["store.hits"] / gets if gets else 0.0, "frac")
    metrics["parallel.map.wall_s"] = (per(clock.wall_s["parallel.map"]), "s")
    pooled = clock.map_wall_s["pooled"]
    metrics["parallel.efficiency"] = (
        clock.map_wall_s["serial"] / (WORKERS * pooled) if pooled else 0.0,
        "ratio")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1, "frac")
    return metrics


def _stop_children() -> List[str]:
    """Stop and join any child process still alive; describe each."""
    leftovers = []
    for child in multiprocessing.active_children():
        leftovers.append(f"child process {child.pid} still alive")
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    return leftovers


def _stray_threads() -> List[str]:
    return [f"thread {thread.name} still alive"
            for thread in threading.enumerate()
            if thread is not threading.main_thread()]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def _setup_probe(args: argparse.Namespace) -> float:
    """Import-and-build time of one fresh interpreter, waited for."""
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), str(HERE),
         args.workload, str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout.split()[-1])


def run(args: argparse.Namespace, scratch: Path) -> Dict:
    import campaign_workloads
    from layer_clock import LayerClock

    workload = campaign_workloads.BUILDERS[args.workload](args.seed)
    print("workload:", json.dumps(workload.describe(), sort_keys=True))

    bench = Bench(workload, scratch)
    print("coverage:", json.dumps(bench.coverage(), sort_keys=True))
    gc.collect()
    gc.freeze()
    if args.trace:
        clock = LayerClock()
        repeats, untraced, traced = bench.trace(args.seconds, clock)
        metrics = layer_metrics(clock, repeats, bench.traced_results,
                                untraced, traced, bench.problems)
        print(f"traced repeats: {repeats}; unattributed "
              f"{metrics['faults.campaign.unattributed_s'][0]:.4f} s of "
              f"{metrics['faults.campaign.wall_s'][0]:.4f} s campaign wall")
    else:
        bench.measure(args.seconds, lambda: _setup_probe(args))
        print("setup_s samples:",
              " ".join(f"{t:.4f}" for t in bench.setup_times))
        metrics = {
            "setup_s": (statistics.median(bench.setup_times), "s"),
            "ms_per_defect": (bench.per_defect_ms("solve"), "ms"),
            "cached_ms_per_defect": (bench.per_defect_ms("cached"), "ms"),
            "peak_rss_mb": (bench.peak_rss_mb, "MB"),
        }
    return dict(metrics=metrics, problems=bench.problems,
                attempted=bench.verdicts.attempted,
                failed=bench.verdicts.failed)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREADED)
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: repro was imported from {repro.__file__}",
              file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    outcome = None
    try:
        outcome = run(args, scratch)
    except Exception:
        traceback.print_exc()
    finally:
        leftovers = _stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    if outcome is None:
        return 1

    problems = outcome["problems"] + leftovers + _stray_threads()
    metrics = outcome["metrics"]
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"failed_frac: {failed / attempted:.6f} "
          f"({failed} of {attempted} records)")
    for problem in problems:
        print("problem:", problem)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
