"""Sets of differential constraints and their joint lattice ``L(C)``.

For a set ``C`` of constraints the paper writes ``L(C)`` for the union of
the individual lattice decompositions; Theorem 3.5 reduces implication to
the containment ``L(C) superseteq L(X, Y)``.  :class:`ConstraintSet`
provides an ``O(|C| * |Y_i|)`` membership test into ``L(C)`` (no table
needed), an optional dense cached bitset for repeated queries on small
ground sets, satisfaction checking of set functions, and cover
minimization (removal of constraints already implied by the rest).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.constraint import DENSITY, DifferentialConstraint
from repro.core.ground import GroundSet
from repro.core.setfunction import (
    DEFAULT_TOLERANCE,
    SetFunction,
    SparseDensityFunction,
)

__all__ = ["ConstraintSet"]

AnySetFunction = Union[SetFunction, SparseDensityFunction]


class ConstraintSet:
    """An immutable collection of differential constraints over one ground set."""

    __slots__ = ("_ground", "_constraints", "_bitset_cache", "_all_singleton")

    def __init__(
        self, ground: GroundSet, constraints: Iterable[DifferentialConstraint] = ()
    ):
        seen = []
        dedupe = set()
        for c in constraints:
            ground.check_same(c.ground)
            if c not in dedupe:
                dedupe.add(c)
                seen.append(c)
        self._ground = ground
        self._constraints: Tuple[DifferentialConstraint, ...] = tuple(seen)
        self._bitset_cache: Optional[np.ndarray] = None
        self._all_singleton: Optional[bool] = None

    def all_singleton_families(self) -> bool:
        """Whether every member constraint has a one-member family (the
        P-time FD fragment) -- cached: the set is immutable, and the
        auto implication decider asks per query."""
        if self._all_singleton is None:
            self._all_singleton = all(
                c.has_singleton_family() for c in self._constraints
            )
        return self._all_singleton

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, ground: GroundSet, *specs) -> "ConstraintSet":
        """Build from ``"A -> B, CD"`` strings and/or constraint objects.

        >>> S = GroundSet("ABC")
        >>> ConstraintSet.of(S, "A -> B", "B -> C")
        ConstraintSet[A -> {B}, B -> {C}]
        """
        constraints = []
        for spec in specs:
            if isinstance(spec, DifferentialConstraint):
                constraints.append(spec)
            else:
                constraints.append(DifferentialConstraint.parse(ground, spec))
        return cls(ground, constraints)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def ground(self) -> GroundSet:
        return self._ground

    @property
    def constraints(self) -> Tuple[DifferentialConstraint, ...]:
        return self._constraints

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[DifferentialConstraint]:
        return iter(self._constraints)

    def __contains__(self, c: DifferentialConstraint) -> bool:
        return c in set(self._constraints)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstraintSet)
            and self._ground == other._ground
            and set(self._constraints) == set(other._constraints)
        )

    def __hash__(self) -> int:
        return hash((self._ground, frozenset(self._constraints)))

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self._constraints)
        return f"ConstraintSet[{inner}]"

    def parse(self, text) -> DifferentialConstraint:
        """Parse a constraint in arrow syntax against this set's ground
        set (already-constructed constraints pass through).  The text
        codec behind ``C.implies("A -> B")`` and the wire protocol's
        request bodies."""
        if isinstance(text, DifferentialConstraint):
            return text
        return DifferentialConstraint.parse(self._ground, text)

    def add(self, c: DifferentialConstraint) -> "ConstraintSet":
        """A new set with ``c`` included."""
        return ConstraintSet(self._ground, self._constraints + (c,))

    def remove(self, c: DifferentialConstraint) -> "ConstraintSet":
        """A new set with ``c`` excluded."""
        return ConstraintSet(
            self._ground, (x for x in self._constraints if x != c)
        )

    # ------------------------------------------------------------------
    # the joint lattice L(C)
    # ------------------------------------------------------------------
    def lattice_contains(self, u_mask: int) -> bool:
        """Membership ``U in L(C)`` without materializing ``L(C)``."""
        return any(c.lattice_contains(u_mask) for c in self._constraints)

    def delta_affects(self, u_mask: int) -> bool:
        """Whether a density delta at ``u_mask`` can change the
        satisfaction of *some* member constraint (streaming hook)."""
        return self.lattice_contains(u_mask)

    def stream_session(self, density=None, config=None, **kwargs):
        """A :class:`repro.engine.StreamSession` monitoring this set.

        ``density`` optionally seeds the instance (``{mask: value}``);
        ``config`` is the :class:`repro.engine.EngineConfig` the session
        runs on.  Remaining keyword arguments pass
        through to the session.
        """
        from repro.engine.stream import StreamSession

        return StreamSession(
            self._ground,
            constraints=self._constraints,
            density=density,
            config=config,
            **kwargs,
        )

    def server(self, instance=None, **kwargs):
        """A :class:`repro.engine.ConstraintServer` fronting this set.

        It answers implication queries against ``C`` (and ``check``
        queries against an optional live ``instance``) synchronously and
        memoizes them in a fingerprint-keyed LRU; see ``repro serve``
        for the CLI surface.
        """
        from repro.engine.server import ConstraintServer

        return ConstraintServer(self, instance=instance, **kwargs)

    def iter_lattice(self) -> Iterator[int]:
        """Iterate ``L(C)`` (each mask once, ascending).

        Reads off the engine's cached boolean table rather than running
        ``2^|S|`` interpreted membership tests.
        """
        for u in np.flatnonzero(self.lattice_bitset()):
            yield int(u)

    def lattice_bitset(self) -> np.ndarray:
        """``L(C)`` as a cached boolean table over all masks.

        Backs :meth:`iter_lattice`; repeated implication queries
        against one ``C`` take ``method="engine"``, which decides
        against the same cached table.  Built by the memoizing engine
        decider, so equal
        constraint sets constructed independently (e.g. per CLI
        invocation) share one table via the fingerprint cache.  The
        returned array is **read-only** (it is the shared cache entry);
        copy it before mutating.
        """
        if self._bitset_cache is None:
            from repro.engine import shared_cache

            self._bitset_cache = shared_cache().joint_lattice_table(self)
        return self._bitset_cache

    # ------------------------------------------------------------------
    # satisfaction and implication
    # ------------------------------------------------------------------
    def satisfied_by(
        self,
        f: AnySetFunction,
        semantics: str = DENSITY,
        tol: float = DEFAULT_TOLERANCE,
    ) -> bool:
        """Whether ``f`` satisfies every constraint in the set."""
        return all(c.satisfied_by(f, semantics=semantics, tol=tol) for c in self)

    def implies(self, target, method: str = "auto", context=None) -> bool:
        """Whether ``C |= target`` (Theorem 3.5 and friends).

        Delegates to :func:`repro.core.implication.decide`; ``target`` may
        be a constraint object or a parseable string.  ``context`` is an
        optional :class:`repro.engine.EvalContext` for the engine decider.
        """
        from repro.core.implication import decide

        if not isinstance(target, DifferentialConstraint):
            target = DifferentialConstraint.parse(self._ground, target)
        return decide(self, target, method=method, context=context)

    # ------------------------------------------------------------------
    # covers
    # ------------------------------------------------------------------
    def is_redundant(self, c: DifferentialConstraint) -> bool:
        """Whether ``c`` is already implied by the other constraints."""
        from repro.core.implication import decide

        return decide(self.remove(c), c, method="auto")

    def minimal_cover(self) -> "ConstraintSet":
        """A subset of ``C`` with the same ``L`` (greedy redundancy removal).

        The result depends on removal order (minimal covers are not
        unique); constraints are considered in reverse insertion order so
        earlier, presumably more fundamental, constraints are preferred.
        """
        kept = list(self._constraints)
        for c in list(reversed(kept)):
            trial = ConstraintSet(self._ground, (x for x in kept if x != c))
            if trial.implies(c, method="auto"):
                kept = list(trial.constraints)
        return ConstraintSet(self._ground, kept)

    def equivalent_to(self, other: "ConstraintSet") -> bool:
        """Whether ``L(C) == L(C')`` -- i.e. the sets imply each other."""
        self._ground.check_same(other._ground)
        return all(self.implies(c, method="auto") for c in other) and all(
            other.implies(c, method="auto") for c in self
        )
