"""Discovering the differential theory of a function or basket database.

The satisfaction of every differential constraint by a fixed ``f`` is
determined by the *zero set* ``Z(f) = {U : d_f(U) = 0}`` (Definition 3.1:
``f |= X -> Y`` iff ``L(X, Y) subseteq Z(f)``).  The set
``{atom(U) | U in Z(f)}`` therefore axiomatizes the complete theory of
``f`` (Remark 4.5), and redundancy elimination yields compact covers --
the differential-constraint analogue of functional-dependency discovery.

For basket databases the module also surfaces the *minimal disjunctive
rules* (Section 6.1.1's mining view): inclusion-minimal satisfied rules
``X' =>disj {singletons of T}``, which are the irredundant certificates
of the disjunctive itemsets.

Everything here is exponential in ``|S|`` (the theory itself is); the
intended regime is schema-sized ground sets, like FD discovery.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, Union

from repro.core import subsets as sb
from repro.core.constraint import DifferentialConstraint
from repro.core.constraint_set import ConstraintSet
from repro.core.decomposition import atom
from repro.core.family import SetFamily
from repro.core.ground import GroundSet
from repro.core.lattice import iter_lattice
from repro.core.setfunction import (
    DEFAULT_TOLERANCE,
    SetFunction,
    SparseDensityFunction,
)
from repro.fis.baskets import BasketDatabase
from repro.fis.disjunctive import DisjunctiveConstraint
from repro.fis.disjunctive_free import holds_singleton_rule

__all__ = [
    "zero_set",
    "theory_of",
    "discover_cover",
    "minimal_disjunctive_rules",
]

AnySetFunction = Union[SetFunction, SparseDensityFunction]


def _as_function(source):
    """Unwrap mining sources: stream sessions expose their live context
    (which itself implements the set-function protocol); incremental
    contexts pass through directly; basket databases become their
    sparse support function.  A live source over a basket database is
    its :meth:`~repro.fis.BasketDatabase.stream_session`.
    """
    from repro.engine.stream import StreamSession

    if isinstance(source, StreamSession):
        return source.context
    if isinstance(source, BasketDatabase):
        return source.support_function()
    return source


def zero_set(f, tol: float = DEFAULT_TOLERANCE) -> Set[int]:
    """``Z(f)``: the subsets where the density vanishes.

    Accepts set functions, basket databases, stream sessions, and
    incremental contexts.  Incremental state answers from its cached
    zero set -- invalidated only when a density entry actually crosses
    zero, so discovery over a growing instance reuses work across
    deltas instead of rescanning per query.
    """
    f = _as_function(f)
    cached = getattr(f, "zero_set", None)
    if cached is not None:
        return set(cached(tol))
    ground = f.ground
    nonzero = {
        mask for mask, value in f.density_items() if abs(value) > tol
    }
    return {mask for mask in ground.all_masks() if mask not in nonzero}


def theory_of(f, tol: float = DEFAULT_TOLERANCE) -> ConstraintSet:
    """The atomic axiomatization of all constraints ``f`` satisfies.

    Returns ``{atom(U) | U in Z(f)}``; a constraint is satisfied by ``f``
    iff this set implies it (tested property).  Accepts the same sources
    as :func:`zero_set`.
    """
    f = _as_function(f)
    ground = f.ground
    return ConstraintSet(
        ground, (atom(ground, u) for u in sorted(zero_set(f, tol)))
    )


def discover_cover(
    source: Union[AnySetFunction, BasketDatabase],
    tol: float = DEFAULT_TOLERANCE,
) -> ConstraintSet:
    """A compact cover of the source's differential theory.

    Accepts a set function, a basket database (whose support function is
    used), or a stream session / incremental context (whose live density
    state is read in place). Atoms are pairwise irredundant (each covers
    exactly one zero), so compression requires *growing* constraints
    instead of pruning them: starting from the atom of an uncovered
    zero, the left-hand side is shrunk and family members dropped as
    long as the lattice decomposition stays inside the zero set ``Z(f)``
    -- every enlargement keeps the constraint satisfied while covering
    more zeros. Greedy set cover over the grown constraints, followed by
    redundancy pruning, yields a set equivalent to the full theory
    (tested) that is typically far smaller than the atomic
    axiomatization.
    """
    f = _as_function(source)
    ground = f.ground
    zeros = zero_set(f, tol)
    remaining = set(zeros)
    grown: List[DifferentialConstraint] = []
    while remaining:
        seed = min(remaining)
        constraint = _grow_constraint(ground, seed, zeros)
        grown.append(constraint)
        remaining -= constraint.lattice_set()
    return ConstraintSet(ground, grown).minimal_cover()


def _grow_constraint(
    ground: GroundSet, seed: int, zeros: Set[int]
) -> DifferentialConstraint:
    """Maximally weaken ``atom(seed)`` while ``L`` stays inside ``zeros``.

    Dropping a family member or shrinking the left-hand side both enlarge
    the lattice decomposition; each candidate enlargement is accepted
    when the new ``L`` is still all-zero.  The loop alternates the two
    moves until neither applies.
    """

    def lattice_ok(lhs: int, family: SetFamily) -> bool:
        return all(u in zeros for u in iter_lattice(lhs, family, ground))

    lhs = seed
    members = list(sb.iter_singletons(ground.complement(seed)))
    changed = True
    while changed:
        changed = False
        for member in list(members):
            trial = [m for m in members if m != member]
            if lattice_ok(lhs, SetFamily(ground, trial)):
                members = trial
                changed = True
        for bit in list(sb.iter_singletons(lhs)):
            trial_lhs = lhs & ~bit
            if lattice_ok(trial_lhs, SetFamily(ground, members)):
                lhs = trial_lhs
                changed = True
    return DifferentialConstraint(ground, lhs, SetFamily(ground, members))


def minimal_disjunctive_rules(
    db: BasketDatabase, max_rhs: Optional[int] = None
) -> List[DisjunctiveConstraint]:
    """Inclusion-minimal satisfied singleton rules of ``db``.

    A rule ``X' =>disj {singletons of T}`` is *minimal* when no satisfied
    rule has a smaller left-hand side with the same right side, nor a
    proper subset of its right side with the same left side (smaller
    rules are strictly stronger: shrinking ``T`` shrinks the allowed
    union, and shrinking ``X'``... is handled by the augmentation order).
    Minimal rules generate all satisfied singleton rules under
    augmentation/addition, so they are the natural stored certificates.
    """
    ground = db.ground
    universe = ground.universe_mask
    found: List[DisjunctiveConstraint] = []
    satisfied: Set[tuple] = set()

    def dominated(lhs: int, rhs: int) -> bool:
        return any(
            sb.is_subset(prev_lhs, lhs) and sb.is_subset(prev_rhs, rhs)
            for prev_lhs, prev_rhs in satisfied
        )

    # enumerate right sides by size, left sides by size: minimal first
    rhs_candidates = sorted(
        (m for m in range(1, universe + 1)),
        key=lambda m: (sb.popcount(m), m),
    )
    for rhs in rhs_candidates:
        if max_rhs is not None and sb.popcount(rhs) > max_rhs:
            continue
        lhs_candidates = sorted(
            sb.iter_subsets(universe & ~rhs),
            key=lambda m: (sb.popcount(m), m),
        )
        for lhs in lhs_candidates:
            if dominated(lhs, rhs):
                continue
            if holds_singleton_rule(db, lhs, rhs):
                satisfied.add((lhs, rhs))
                found.append(
                    DisjunctiveConstraint(
                        ground, lhs, SetFamily.singletons_of(ground, rhs)
                    )
                )
    return found
