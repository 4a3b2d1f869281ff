"""Per-layer wall-time attribution, measured from outside the program.

:class:`LayerClock` wraps public functions and methods of ``repro`` at
the names their callers bind (``repro.faults.campaign.inject``, not only
``repro.faults.injector.inject``) and keeps a stack of open layer
frames.  A layer's *self time* is the duration of its wrapped calls
minus the time spent in nested wrapped calls of other layers; a call
nested inside a call of the same layer (for example ``np.linalg.solve``
inside ``NumpyBackend.solve_stacked``) is passed through untimed, so it
is neither counted twice nor subtracted.  The campaign itself is the
outermost frame: its self time is what no layer claims, reported as
``faults.campaign.unattributed_s``, so the layer self times plus that
remainder add up to the campaign wall time exactly.

The wrappers are installed only in a traced run and removed again after
each traced repeat; the end-to-end run never sees them.  Work done in
worker processes of a pooled campaign is not visible here: it shows as
``parallel.map`` self time in the parent.

Which end-to-end metric each layer should move, and on which workload:

===========================  =========================  ======================
layer metrics                moves                      workload
===========================  =========================  ======================
faults.injector.*            ms_per_defect, peak_rss_mb chain_sparse,
                                                        network_dense (not the
                                                        store_rerun warm half)
sim.mna.compile.*            ms_per_defect              as faults.injector.*
sim.mna.assemble.*,          ms_per_defect              mainly network_dense
sim.mna.eval.*
sim.linalg.*                 ms_per_defect              chain_sparse (factor),
                                                        network_dense (stacked
                                                        dense solve)
sim.dc.*                     ms_per_defect              chain_sparse
sim.batch.*                  ms_per_defect              chain_sparse; flat on
                                                        network_dense
faults.oracle.*              ms_per_defect              all three
store.get.*, store.put.*,    cached_ms_per_defect       store_rerun
store.open_s, store.hit_frac (reads), ms_per_defect
                             (writes)
parallel.*                   ms_per_defect              store_rerun cold half
faults.campaign.wall_s,      reconciliation             all three
faults.campaign.
unattributed_s,
trace.overhead_frac
===========================  =========================  ======================
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Campaign frames: their self time is the unattributed remainder.
CAMPAIGN = "faults.campaign"

#: Marks a patched attribute that the owner only inherited.
_INHERITED = object()

#: Buckets for ``BatchMember.failure`` (first matching substring wins).
FALLBACK_BUCKETS: Tuple[Tuple[str, str], ...] = (
    ("unsupported", "unsupported"),
    ("did not converge", "not_converged"),
    ("stalling", "stall"),
    ("blow-up", "blowup"),
    ("non-finite", "nonfinite"),
    ("wall-clock budget", "deadline"),
)
FALLBACK_OTHER = "other"


def fallback_bucket(failure: Optional[str]) -> str:
    """The bucket name of one batch member's failure reason."""
    text = failure or ""
    for needle, bucket in FALLBACK_BUCKETS:
        if needle in text:
            return bucket
    return FALLBACK_OTHER


class _TimedFactorization:
    """A ``SuperLU`` stand-in whose ``solve`` is timed.

    ``SuperLU`` is a C type whose methods cannot be patched, so the
    wrapped ``splu`` returns this proxy; every other attribute is read
    from the real factorization.
    """

    def __init__(self, lu, solve: Callable):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name: str):
        return getattr(self._lu, name)


class LayerClock:
    """Accumulates calls, self time and counters per layer."""

    def __init__(self) -> None:
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.wall_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: ``parallel_map`` wall time by whether the map used a pool.
        self.map_wall_s = {"pooled": 0.0, "serial": 0.0}
        self._chunks_seen = 0.0

    # -- frames ----------------------------------------------------------

    def timed(self, layer: str, func: Callable, name: Optional[str] = None,
              observe: Optional[Callable[..., None]] = None) -> Callable:
        """``func`` wrapped as a frame of ``layer``.

        ``name`` additionally counts outermost calls under
        ``counts[name]``; ``observe(args, kwargs, result, elapsed)`` runs
        after a timed call returns (outside the frame).
        """
        clock = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = clock._stack
            if stack and stack[-1][0] == layer:
                return func(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                clock.calls[layer] += 1
                clock.self_s[layer] += elapsed - frame[1]
                clock.wall_s[layer] += elapsed
                if name is not None:
                    clock.counts[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(args, kwargs, result, elapsed)
            return result

        return wrapper

    def patch(self, owner: Any, attribute: str, wrapper: Callable) -> None:
        """Replace ``owner.attribute`` until :meth:`uninstall`."""
        self._patches.append((owner, attribute,
                              vars(owner).get(attribute, _INHERITED)))
        setattr(owner, attribute, wrapper)

    def wrap(self, owner: Any, attribute: str, layer: str,
             name: Optional[str] = None,
             observe: Optional[Callable[..., None]] = None) -> None:
        self.patch(owner, attribute,
                   self.timed(layer, getattr(owner, attribute), name,
                              observe))

    def count(self, owner: Any, attribute: str, name: str) -> None:
        """Count calls of ``owner.attribute`` without timing them."""
        original = getattr(owner, attribute)
        counts = self.counts

        @functools.wraps(original)
        def counter(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self.patch(owner, attribute, counter)

    # -- installation ----------------------------------------------------

    def install(self, oracle_types) -> None:
        """Wrap every layer boundary of a fault campaign."""
        import concurrent.futures

        import numpy

        import repro.faults.campaign as campaign
        import repro.sim.mna as mna
        from repro.sim.backend import get_backend
        from repro.store import ResultStore

        self.wrap(campaign, "inject", "faults.injector")

        for cls in (mna.MnaStructure, mna.CompiledStamps):
            self.wrap(cls, "__init__", "sim.mna.compile")

        self.wrap(mna.CompiledStamps, "build_system", "sim.mna.assemble")
        self.wrap(mna.CompiledSystem, "assemble", "sim.mna.assemble")
        self.wrap(mna.FaultedSystem, "__init__", "sim.mna.assemble")
        self.wrap(mna.FaultedSystem, "assemble", "sim.mna.assemble")

        self.wrap(mna.CompiledStamps, "eval_nonlinear", "sim.mna.eval")
        self.wrap(mna.CompiledStamps, "eval_nonlinear_batch", "sim.mna.eval",
                  name="sim.mna.eval.batch_calls")

        linalg = "sim.linalg"
        timed_splu = self.timed(linalg, mna.splu, "sim.linalg.splu_calls")

        def splu(*args, **kwargs):
            lu = timed_splu(*args, **kwargs)
            return _TimedFactorization(lu, self.timed(
                linalg, lu.solve, "sim.linalg.superlu_solve_calls"))

        self.patch(mna, "splu", splu)
        self.wrap(numpy.linalg, "solve", linalg,
                  "sim.linalg.dense_solve_calls")
        backend = type(get_backend())
        for method in ("solve_stacked", "solve_one"):
            self.wrap(backend, method, linalg, "sim.linalg.dense_solve_calls")
        for method in ("lu_factor", "lu_solve"):
            self.wrap(backend, method, linalg, "sim.linalg.lu_calls")

        self.wrap(campaign, "operating_point", "sim.dc",
                  "sim.dc.operating_point.calls")
        self.wrap(campaign, "delta_solve", "sim.dc",
                  "sim.dc.delta_solve.calls")

        self.wrap(campaign, "solve_batch", "sim.batch",
                  observe=self._observe_batch)

        for cls in oracle_types:
            self.wrap(cls, "judge", "faults.oracle")

        self.wrap(ResultStore, "__init__", "store.open")
        self.wrap(ResultStore, "get", "store.get",
                  observe=self._observe_store_get)
        self.wrap(ResultStore, "put", "store.put")

        self.count(concurrent.futures.ProcessPoolExecutor, "submit",
                   "parallel.chunks")
        self.wrap(campaign, "parallel_map", "parallel.map",
                  observe=self._observe_map)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def campaign(self, step: Callable[[], Any]) -> Callable[[], Any]:
        """``step`` as an outermost campaign frame."""
        return self.timed(CAMPAIGN, step)

    # -- observers -------------------------------------------------------

    def _observe_batch(self, args, kwargs, result, elapsed) -> None:
        members, _counters = result
        self.counts["sim.batch.members"] += len(members)
        for member in members:
            if member.x is not None:
                self.counts["sim.batch.useful"] += 1
            else:
                bucket = fallback_bucket(member.failure)
                self.counts[f"sim.batch.fallback.{bucket}"] += 1

    def _observe_store_get(self, args, kwargs, result, elapsed) -> None:
        if result is not None:
            self.counts["store.hits"] += 1

    def _observe_map(self, args, kwargs, result, elapsed) -> None:
        # A map that submitted no chunk ran in-process.
        submitted = self.counts["parallel.chunks"]
        pooled = submitted > self._chunks_seen
        self._chunks_seen = submitted
        self.map_wall_s["pooled" if pooled else "serial"] += elapsed
