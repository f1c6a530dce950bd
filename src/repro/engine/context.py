"""The :class:`EvalContext`: one handle over backend choice and caches.

An ``EvalContext`` bundles the two pieces of evaluation policy that used
to be threaded ad hoc through the library:

* which numeric **backend** tables are computed on (``"exact"`` int64
  tables promoting to python numbers, or ``"float"`` numpy float64),
  previously an ``exact`` bool duplicated across call sites --
  ``backend=None`` (the default) infers the backend from each operand's
  own storage, preserving the historic behavior;
* which :class:`~repro.engine.decider.ImplicationCache` memoizes lattice
  and blocked tables between queries -- the process-wide shared cache
  unless a private one is requested.

The planner's :func:`~repro.engine.plan.build_context` constructs one
of these from a resolved plan; library callers mostly rely on
:func:`default_context`.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.engine.backends import (
    Backend,
    EXACT,
    FLOAT,
    backend_by_name,
)
from repro.engine.decider import ImplicationCache, shared_cache

__all__ = ["EvalContext", "default_context"]


class EvalContext:
    """Evaluation policy: numeric backend + memoization cache.

    Parameters
    ----------
    backend:
        ``"exact"``, ``"float"``, a :class:`Backend` instance, or
        ``None`` to infer per-operand (exact operands stay exact).
    cache:
        An :class:`ImplicationCache`; defaults to the process-wide
        shared cache.  Pass ``private_cache=True`` for an isolated one.
    """

    __slots__ = ("_backend", "_cache")

    def __init__(
        self,
        backend: Union[str, Backend, None] = None,
        cache: Optional[ImplicationCache] = None,
        private_cache: bool = False,
    ):
        if isinstance(backend, str):
            backend = backend_by_name(backend)
        self._backend = backend
        if cache is None:
            cache = ImplicationCache() if private_cache else shared_cache()
        self._cache = cache

    @property
    def backend(self) -> Optional[Backend]:
        """The forced backend, or ``None`` when inferring per-operand."""
        return self._backend

    @property
    def cache(self) -> ImplicationCache:
        """The fingerprint-keyed table cache this context memoizes into."""
        return self._cache

    @property
    def exact(self) -> bool:
        """Whether a forced backend is exact (inferring contexts say False)."""
        return bool(self._backend is not None and self._backend.exact)

    def backend_for(self, f) -> Backend:
        """The backend to evaluate ``f`` on: forced, else ``f``'s own."""
        if self._backend is not None:
            return self._backend
        return EXACT if getattr(f, "exact", True) else FLOAT

    def __repr__(self) -> str:
        name = self._backend.name if self._backend is not None else "inherit"
        return f"EvalContext(backend={name!r})"


#: Module default: infer backend per operand, share the process cache.
_DEFAULT = EvalContext()


def default_context() -> EvalContext:
    """The process-wide shared context (shared implication cache)."""
    return _DEFAULT
