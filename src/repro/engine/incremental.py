"""Delta-maintained evaluation state: the incremental engine.

The batched engine (:mod:`repro.engine.batch`) evaluates density,
support and differential tables from scratch in ``O(n * 2^n)`` butterfly
passes.  That is the right cost model for one-shot questions, but a
streaming instance -- a basket database receiving rows, a relation under
tuple inserts -- changes by *one density entry at a time*: inserting a
row with itemset ``U`` adds ``+1`` to ``d_f(U)`` and leaves every other
density untouched.  All maintained tables are linear in the density
(equation (5) and Proposition 2.9)::

    f(X)      = sum_{U superseteq X} d_f(U)
    D_f^Y(X)  = sum_{U in L(X, Y)}   d_f(U)

so a delta of ``delta`` at mask ``U`` updates them by adding ``delta``
to *every subset position of ``U``* -- skipped entirely for a
differential table whose family blocks ``U``.  That is one numpy
``2^|U|`` gather/scatter (a masked ``2^n`` add for wide deltas) per
materialized table instead of an ``O(n * 2^n)`` rebuild per table.

The live density itself is sparse: a ``{mask: value}`` dict holding
the exactly-nonzero entries, so a delta costs one dict update whatever
the backend, and the state grows with the number of distinct masks,
not with ``2^n``.  Dense tables are views built on request
(:meth:`IncrementalEvalContext.density_table` scatters a fresh one;
the support and differential tables are maintained once materialized).

Constraint monitoring is cheaper still.  Under the paper's density
semantics (Definition 3.1) ``f |= X -> Y`` iff ``d_f`` vanishes on
``L(X, Y)``, and a delta at ``U`` changes exactly one density entry --
so a constraint's status can only flip when ``d_f(U)`` crosses zero,
and only for constraints with ``U in L(X, Y)`` (an ``O(|Y|)``
membership test).  :class:`IncrementalEvalContext` keeps, per tracked
constraint, the *count of nonzero density entries inside its lattice*;
each delta adjusts the affected counts and a constraint flips exactly
when its count moves to or from zero.  Detection is therefore
``O(#constraints * |Y|)`` per delta with no table scan at all.

Downstream caches key on *versions*: :attr:`theory_version` bumps only
when some tracked constraint's status actually flips, so fingerprint
-keyed artifacts (the satisfied-set snapshot handed to the implication
decider, discovery covers, ...) are invalidated exactly on status
flips, never on benign deltas.  :attr:`zero_version` bumps when the
zero set ``Z(f)`` changes (some entry crossed zero).

Like the rest of the engine this module is duck-typed over core
objects (a ground set is anything with ``.size``; a constraint anything
with ``.lattice_contains``/``.family.members``) and imports nothing
from :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine import batch
from repro.engine.backends import (
    Backend,
    Table,
    backend_by_name,
    backend_for_table,
    dense_delta,
    iter_subset_masks,
    subset_index_array,
    subset_indicator,
)
from repro.engine.context import EvalContext
from repro.engine.decider import ImplicationCache
from repro.errors import PlanError

__all__ = [
    "DEFAULT_TOLERANCE",
    "IncrementalEvalContext",
    "add_on_subsets",
    "iter_subset_masks",
    "recompute_tables",
]

#: Absolute zero-tolerance for density entries; mirrors
#: ``repro.core.setfunction.DEFAULT_TOLERANCE`` (engine layering keeps
#: this module from importing core, so the constant is restated).
DEFAULT_TOLERANCE = 1e-9

#: The largest ground set a live context serves; mirrors
#: ``repro.core.ground.MAX_DENSE_SIZE`` (the test suite asserts
#: agreement).
DENSE_LIMIT = 22

Number = Union[int, float]


def _affects(constraint, mask: int) -> bool:
    """Whether a density delta at ``mask`` can flip ``constraint``.

    Prefers the object's ``delta_affects`` streaming hook (the core
    constraint types provide it; custom monitors may widen or narrow
    it), falling back to plain lattice membership.
    """
    hook = getattr(constraint, "delta_affects", None)
    if hook is not None:
        return hook(mask)
    return constraint.lattice_contains(mask)


def add_on_subsets(
    table: Table,
    mask: int,
    delta: Number,
    backend: Optional[Backend] = None,
    where: Optional[np.ndarray] = None,
) -> None:
    """In place: ``table[X] += delta`` for every ``X subseteq mask``.

    The single-delta maintenance primitive: both the support table and
    (unblocked) differential tables are sums of the density over masks
    *above* each position, so one density delta touches exactly the
    subset positions of its mask.  ``where`` may pass a precomputed
    subset indicator or index array to share it across several tables.
    Delegates to
    :meth:`~repro.engine.backends.Backend.add_on_subsets_inplace`.
    """
    if backend is None:
        backend = backend_for_table(table)
    backend.add_on_subsets_inplace(table, mask, delta, where=where)


def recompute_tables(
    n: int,
    density_items: Iterable[Tuple[int, Number]],
    families: Sequence[Sequence[int]],
    backend: Backend,
) -> Tuple[Table, Table, List[Table]]:
    """Full-recompute oracle: ``(density, support, differential per family)``.

    Rebuilds everything from scratch through the batched engine -- the
    baseline the incremental tables must exactly equal (property-tested)
    and the cost the per-delta benchmark compares against.
    """
    density = backend.scatter(1 << n, density_items)
    support = backend.copy(density)
    backend.superset_zeta_inplace(support)
    diffs = []
    for members in families:
        table = backend.copy(density)
        batch.differential_table(table, tuple(members), backend)
        diffs.append(table)
    return density, support, diffs


class IncrementalEvalContext(EvalContext):
    """An :class:`EvalContext` that also owns live, delta-maintained state.

    Parameters
    ----------
    ground:
        The ground set (anything with ``.size``); past
        :data:`DENSE_LIMIT` elements the constructor raises
        :class:`~repro.errors.PlanError`, since dense ``2^n`` views are
        built on request.
    density:
        Optional initial density as a ``{mask: value}`` mapping (for a
        basket database: its multiset counts ``d^B``).
    constraints:
        Differential constraints to monitor; more can be added with
        :meth:`track`.
    backend:
        ``"exact"`` (default -- streaming counts are integers; views
        are int64 ndarrays with object-dtype promotion) or ``"float"``.
    tol:
        Absolute tolerance deciding ``d_f(U) == 0``.

    The context implements the library's set-function protocol
    (``ground`` / ``value`` / ``density_value`` / ``density_items`` /
    ``exact``), so discovery and satisfaction machinery consume it
    directly -- mining over a growing instance reuses this state instead
    of rebuilding a function per snapshot.
    """

    __slots__ = (
        "_ground",
        "_n",
        "_tol",
        "_density",
        "_support",
        "_diffs",
        "_nonzero",
        "_constraints",
        "_viol_counts",
        "_violated",
        "_theory_version",
        "_zero_version",
        "_zero_cache",
        "_satisfied_cache",
    )

    def __init__(
        self,
        ground,
        density: Optional[Mapping[int, Number]] = None,
        constraints: Iterable = (),
        backend: Union[str, Backend] = "exact",
        tol: float = DEFAULT_TOLERANCE,
        cache: Optional[ImplicationCache] = None,
    ):
        if isinstance(backend, str):
            backend = backend_by_name(backend)
        super().__init__(backend=backend, cache=cache)
        if ground.size > DENSE_LIMIT:
            raise PlanError(
                f"live contexts keep dense 2^|S| views; |S| = {ground.size} "
                f"exceeds the dense limit {DENSE_LIMIT} (one-shot "
                "implication takes method='sat')"
            )
        self._ground = ground
        self._n = ground.size
        self._tol = tol
        #: the exactly-nonzero density entries -- drives the set-function
        #: protocol (``value`` / ``density_items``), which must agree
        #: with the live tables even for sub-tolerance residues.
        self._density: Dict[int, Number] = {}
        self._support: Optional[Table] = None
        self._diffs: Dict[Tuple[int, ...], Table] = {}
        #: masks with ``abs(d_f) > tol`` -- drives constraint statuses
        #: and the zero set (Definition 3.1's tolerance semantics).
        self._nonzero: set = set()
        self._constraints: List = []
        self._viol_counts: List[int] = []
        self._violated: set = set()
        self._theory_version = 0
        self._zero_version = 0
        self._zero_cache: Optional[Tuple[int, frozenset]] = None
        self._satisfied_cache: Optional[Tuple[int, Tuple]] = None
        for c in constraints:
            self.track(c)
        if density:
            self.apply_batch(density.items())
            # seeding is not a stream event: downstream caches start fresh
            self._theory_version = 0
            self._zero_version = 0

    # ------------------------------------------------------------------
    # set-function protocol
    # ------------------------------------------------------------------
    @property
    def ground(self):
        """The ground set the tables are indexed by."""
        return self._ground

    @property
    def exact(self) -> bool:
        """Whether the backend keeps exact numbers (no float rounding)."""
        return self.backend.exact

    @property
    def tol(self) -> float:
        """The zero tolerance deciding ``d_f(U) == 0`` (the configured
        ``tol`` on either backend)."""
        return self._tol

    def _check_mask(self, mask: int) -> None:
        if mask < 0 or mask >> self._n:
            raise ValueError(
                f"mask {mask:#x} uses bits outside the ground set of size {self._n}"
            )

    def value(self, mask: int) -> Number:
        """``f(X)``: from the live support table when materialized, else
        summed over the nonzero density entries (``O(nnz)``)."""
        self._check_mask(mask)
        if self._support is not None:
            v = self._support[mask]
            return v if self.exact else float(v)
        total = 0
        for u, v in self._density.items():
            if u & mask == mask:
                total = total + v
        return total if self.exact else float(total)

    def __call__(self, subset) -> Number:
        return self.value(self._ground.parse(subset))

    def density_value(self, mask: int) -> Number:
        """The maintained density at one subset ``mask``."""
        self._check_mask(mask)
        return self._density.get(mask, 0 if self.exact else 0.0)

    def density_items(self) -> Iterator[Tuple[int, Number]]:
        """Iterate the exactly-nonzero ``(mask, density)`` entries.

        Matches :meth:`repro.core.setfunction.SetFunction.density_items`
        (and :meth:`density_table`): entries below the tolerance but
        not exactly zero are still yielded, so rebuilding from these
        items reproduces the maintained tables bit for bit.
        """
        density = self._density
        # sorting the int keys alone is much cheaper than sorting
        # (mask, value) tuples
        for mask in sorted(density):
            yield mask, density[mask]

    def support_size(self) -> int:
        """Number of nonzero density entries (sparse-function protocol)."""
        return len(self._density)

    def is_nonnegative_density(self, tol: Optional[float] = None) -> bool:
        """Whether the maintained density is everywhere ``>= -tol``."""
        tol = self._tol if tol is None else tol
        return all(v >= -tol for v in self._density.values())

    # ------------------------------------------------------------------
    # live tables
    # ------------------------------------------------------------------
    def density_table(self) -> Table:
        """A fresh dense ``2^n`` view of the density (the live state is
        the sparse dict; mutate it only through :meth:`apply_delta` /
        :meth:`apply_batch`)."""
        return self.backend.scatter(1 << self._n, self._density.items())

    def support_table(self) -> Table:
        """The live support table ``f`` (materialized on first call, then
        maintained under deltas)."""
        if self._support is None:
            self._support = self.density_table()
            self.backend.superset_zeta_inplace(self._support)
        return self._support

    def differential_table(self, family) -> Table:
        """The live differential table ``D_f^Y`` for ``family``.

        Materialized on first call (one batched pass), then maintained:
        a delta at ``U`` is added below ``U`` unless ``Y`` blocks ``U``.
        """
        members = tuple(family.members)
        table = self._diffs.get(members)
        if table is None:
            table = self.density_table()
            batch.differential_table(table, members, self.backend)
            self._diffs[members] = table
        return table

    def _blocked(self, members: Tuple[int, ...]) -> np.ndarray:
        return self.cache.blocked_table(self._ground, members)

    # ------------------------------------------------------------------
    # constraint tracking
    # ------------------------------------------------------------------
    def track(self, constraint) -> None:
        """Monitor ``constraint``; its status is maintained per delta."""
        count = sum(1 for u in self._nonzero if _affects(constraint, u))
        self._constraints.append(constraint)
        self._viol_counts.append(count)
        if count:
            self._violated.add(len(self._constraints) - 1)
        self._theory_version += 1
        self._satisfied_cache = None

    @property
    def constraints(self) -> Tuple:
        """The watched constraints, in registration order."""
        return tuple(self._constraints)

    def is_violated(self, constraint) -> bool:
        """Current status of a tracked constraint."""
        i = self._constraints.index(constraint)
        return i in self._violated

    def violated_constraints(self) -> Tuple:
        """The tracked constraints currently violated, in tracking order."""
        return tuple(
            self._constraints[i] for i in sorted(self._violated)
        )

    def satisfied_constraints(self) -> Tuple:
        """The tracked constraints currently satisfied (cached snapshot).

        The snapshot is rebuilt only when :attr:`theory_version` moved --
        i.e. when some status actually flipped.  Callers that fingerprint
        it (the memoizing implication decider) therefore keep hitting the
        same cache entry across deltas that do not flip anything.
        """
        if (
            self._satisfied_cache is None
            or self._satisfied_cache[0] != self._theory_version
        ):
            snapshot = tuple(
                c
                for i, c in enumerate(self._constraints)
                if i not in self._violated
            )
            self._satisfied_cache = (self._theory_version, snapshot)
        return self._satisfied_cache[1]

    @property
    def theory_version(self) -> int:
        """Bumped exactly when a tracked constraint's status flips."""
        return self._theory_version

    @property
    def zero_version(self) -> int:
        """Bumped exactly when the zero set ``Z(f)`` changes."""
        return self._zero_version

    def zero_set(self, tol: Optional[float] = None) -> frozenset:
        """``Z(f)`` -- cached, invalidated only on zero crossings."""
        if tol is not None and tol != self._tol:
            # a foreign tolerance can resolve residues below self._tol
            # (absent from _nonzero), so test every mask's density
            density = self._density
            return frozenset(
                m
                for m in range(1 << self._n)
                if not abs(density.get(m, 0)) > tol
            )
        if self._zero_cache is None or self._zero_cache[0] != self._zero_version:
            zeros = frozenset(
                m for m in range(1 << self._n) if m not in self._nonzero
            )
            self._zero_cache = (self._zero_version, zeros)
        return self._zero_cache[1]

    # ------------------------------------------------------------------
    # deltas
    # ------------------------------------------------------------------
    def apply_delta(self, mask: int, delta: Number) -> List[Tuple[object, bool]]:
        """Apply one density delta; returns the status flips it caused.

        Each flip is ``(constraint, now_violated)``.  Cost: one dict
        update, one numpy subset add per materialized table, plus
        ``O(|Y|)`` per tracked constraint when the entry crosses zero --
        no table is ever rebuilt.
        """
        self._check_mask(mask)
        if delta == 0:
            return []
        old = self._density.get(mask, 0)
        new = old + delta if self.exact else float(old) + float(delta)
        if new == 0:
            self._density.pop(mask, None)
        else:
            self._density[mask] = new
        self._update_tables(mask, delta)

        was_nonzero = mask in self._nonzero
        now_nonzero = abs(new) > self._tol
        if was_nonzero == now_nonzero:
            return []
        # the entry crossed zero: Z(f) changed, statuses may flip
        self._zero_version += 1
        if now_nonzero:
            self._nonzero.add(mask)
        else:
            self._nonzero.discard(mask)
        step = 1 if now_nonzero else -1
        flips: List[Tuple[object, bool]] = []
        for i, constraint in enumerate(self._constraints):
            if not _affects(constraint, mask):
                continue
            count = self._viol_counts[i] + step
            self._viol_counts[i] = count
            if step > 0 and count == 1:
                self._violated.add(i)
                flips.append((constraint, True))
            elif step < 0 and count == 0:
                self._violated.discard(i)
                flips.append((constraint, False))
        if flips:
            self._theory_version += 1
        return flips

    def apply_batch(
        self, deltas: Iterable[Tuple[int, Number]]
    ) -> Tuple[Tuple, Tuple]:
        """Apply a batch of ``(mask, delta)`` pairs atomically.

        Returns ``(newly_violated, restored)`` as the *net* status
        changes over the whole batch: a constraint that flips twice
        within the batch is reported in neither tuple.
        """
        before = set(self._violated)
        version_before = self._theory_version
        for mask, delta in deltas:
            self.apply_delta(mask, delta)
        newly = tuple(
            self._constraints[i] for i in sorted(self._violated - before)
        )
        restored = tuple(
            self._constraints[i] for i in sorted(before - self._violated)
        )
        if self._theory_version != version_before:
            # collapse intra-batch churn into one net version step
            self._theory_version = version_before + (
                1 if (newly or restored) else 0
            )
        return newly, restored

    def set_density(self, mask: int, value: Number) -> List[Tuple[object, bool]]:
        """Point update: make ``d_f(mask)`` equal ``value`` (an *update*
        row op, vs the insert/delete deltas)."""
        self._check_mask(mask)
        current = self._density.get(mask, 0)
        return self.apply_delta(mask, value - current)

    def _update_tables(self, mask: int, delta: Number) -> None:
        """Propagate one density delta into every materialized table."""
        targets: List[Table] = []
        if self._support is not None:
            targets.append(self._support)
        for members, table in self._diffs.items():
            if not self._blocked(members)[mask]:
                targets.append(table)
        if not targets:
            return
        # dense deltas become one masked slice add and sparse deltas --
        # the streaming common case -- a 2^|mask| gather/scatter; either
        # way the indicator/index array is computed once here and
        # shared across all the tables
        where = (
            subset_indicator(self._n, mask)
            if dense_delta(self._n, mask)
            else subset_index_array(mask)
        )
        for table in targets:
            self.backend.add_on_subsets_inplace(
                table, mask, delta, where=where
            )

    def __repr__(self) -> str:
        return (
            f"IncrementalEvalContext(|S|={self._n}, "
            f"backend={self.backend.name!r}, nnz={len(self._nonzero)}, "
            f"tracked={len(self._constraints)}, "
            f"violated={len(self._violated)})"
        )
