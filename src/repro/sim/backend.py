"""Array-namespace seam for the batched fault-campaign engine.

The batched Newton driver (:mod:`repro.sim.batch`) works on stacked
``(n_defects, ...)`` arrays.  Everything it needs from an array library
is collected behind :class:`ArrayBackend` so an accelerator backend
(CuPy, JAX) can drop in later without touching solver logic:

* array creation / stacking / transfer (``asarray``, ``stack``,
  ``to_numpy``),
* unbuffered scatter-accumulation with ``np.ufunc.at`` ordering
  semantics (``scatter_add``) — the compiled stamps rely on duplicate
  indices accumulating in slot order, which is what makes batched
  verdicts bit-identical to the serial engine,
* stacked dense linear solves (``solve_stacked``) and multi-RHS LU
  reuse of one shared factorization (``lu_factor`` / ``lu_solve``).

Device-physics helpers (``pnjlim_vec`` and friends) are *not* part of
the contract: they are written against the NumPy API and reach an
alternate backend through the ``__array_function__`` /
``__array_ufunc__`` dispatch protocol, which both NumPy and CuPy
implement.  A JAX backend would wrap those entry points explicitly.

The default backend is NumPy and is what every bit-identity guarantee
in :mod:`repro.verify` is stated against; alternate backends are
validated against the same conformance suite (``tests/test_backend.py``)
but carry no bitwise promise across libraries.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np
from scipy.linalg import lu_factor as _scipy_lu_factor
from scipy.linalg import lu_solve as _scipy_lu_solve


class ArrayBackend:
    """Contract for the array operations the batched engine uses.

    Subclasses provide a namespace (:attr:`xp`) that is NumPy-API
    compatible plus the handful of operations below that have no single
    portable spelling across array libraries.
    """

    #: Registry name (``"numpy"``, ``"cupy"``, ...).
    name: str = "abstract"

    @property
    def xp(self):
        """The backend's NumPy-compatible module namespace."""
        raise NotImplementedError

    # -- array creation / movement ------------------------------------
    def asarray(self, data, dtype=None):
        raise NotImplementedError

    def stack(self, arrays: Sequence, axis: int = 0):
        raise NotImplementedError

    def to_numpy(self, array) -> np.ndarray:
        """Return ``array`` as a host :class:`numpy.ndarray`."""
        raise NotImplementedError

    # -- scatter-accumulate -------------------------------------------
    def scatter_add(self, target, indices, values) -> None:
        """In-place ``target[indices] += values`` with *unbuffered*
        accumulation: duplicate index positions must accumulate once
        per occurrence, in element order (``np.add.at`` semantics).
        ``indices`` is a tuple of integer index arrays, one per target
        axis being indexed."""
        raise NotImplementedError

    # -- linear algebra -----------------------------------------------
    def solve_stacked(self, matrices, rhs):
        """Solve ``matrices[i] @ x[i] = rhs[i]`` for a ``(B, n, n)``
        stack against a ``(B, n)`` right-hand side, returning ``(B,
        n)``.  Raises :class:`numpy.linalg.LinAlgError` (or the
        backend's equivalent) when any member is singular."""
        raise NotImplementedError

    def solve_one(self, matrix, rhs):
        """Solve a single ``(n, n)`` system — used to isolate singular
        members after a stacked solve fails."""
        raise NotImplementedError

    def lu_factor(self, matrix):
        """Factor a dense ``(n, n)`` matrix; returns an opaque token
        for :meth:`lu_solve`."""
        raise NotImplementedError

    def lu_solve(self, factorization, rhs):
        """Solve against a factorization from :meth:`lu_factor`; the
        right-hand side may be ``(n,)`` or multi-RHS ``(n, k)``."""
        raise NotImplementedError


class NumpyBackend(ArrayBackend):
    """Reference implementation; defines the bit-exact semantics."""

    name = "numpy"

    @property
    def xp(self):
        return np

    def asarray(self, data, dtype=None):
        return np.asarray(data, dtype=dtype)

    def stack(self, arrays, axis: int = 0):
        return np.stack(arrays, axis=axis)

    def to_numpy(self, array) -> np.ndarray:
        return np.asarray(array)

    def scatter_add(self, target, indices, values) -> None:
        if isinstance(indices, tuple) and target.flags.c_contiguous:
            # ``np.add.at`` applies repeated indices in C order of the
            # broadcast index; the flattened index keeps that order, so
            # the sums are bitwise the tuple form's, on numpy's much
            # faster 1-D path.
            flat = np.ravel_multi_index(np.broadcast_arrays(*indices),
                                        target.shape)
            np.add.at(target.reshape(-1), flat.reshape(-1),
                      np.broadcast_to(values, flat.shape).reshape(-1))
        else:
            np.add.at(target, indices, values)

    def solve_stacked(self, matrices, rhs):
        # NumPy 2 dropped the stacked-vector RHS interpretation, so the
        # trailing axis is explicit.  Per-slice results are bitwise
        # identical to a serial ``np.linalg.solve(A[i], b[i])``.
        return np.linalg.solve(matrices, rhs[..., None])[..., 0]

    def solve_one(self, matrix, rhs):
        return np.linalg.solve(matrix, rhs)

    def lu_factor(self, matrix):
        return _scipy_lu_factor(matrix, check_finite=False)

    def lu_solve(self, factorization, rhs):
        return _scipy_lu_solve(factorization, rhs, check_finite=False)


_REGISTRY: Dict[str, Callable[[], ArrayBackend]] = {
    "numpy": NumpyBackend,
}
_ACTIVE: ArrayBackend = NumpyBackend()


def register_backend(name: str,
                     factory: Callable[[], ArrayBackend]) -> None:
    """Register an alternate backend factory under ``name``."""
    _REGISTRY[name] = factory


def available_backends() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_backend() -> ArrayBackend:
    """The process-wide active backend (NumPy unless swapped)."""
    return _ACTIVE


def set_backend(name: str) -> ArrayBackend:
    """Activate a registered backend and return it."""
    global _ACTIVE
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown array backend {name!r} "
            f"(available: {', '.join(available_backends())})") from None
    _ACTIVE = factory()
    return _ACTIVE
