"""Deciding the implication problem ``C |= X -> Y``.

Theorem 3.5 reduces implication over ``F(S)`` to the lattice containment
``L(C) superseteq L(X, Y)``; Proposition 5.4 reduces it to propositional
implication (hence coNP, Prop 5.5); the paper's conclusion notes that the
singleton-right-hand-side fragment coincides with functional-dependency
implication and is decidable in polynomial time.  All three routes are
implemented here:

``method="engine"``
    Both sides of the containment become boolean numpy tables built by
    :mod:`repro.engine`; the tables are memoized across queries keyed by
    constraint fingerprints (the atomic closure ``L(C)`` is computed at
    most once per distinct ``C``, even across equal sets constructed
    independently).  The default for dense-capable ground sets.

``method="lattice"``
    Enumerate ``L(X, Y)`` (supersets of ``X`` containing no member of
    ``Y``) and test each against ``L(C)`` membership.  Exact; cost
    ``O(2^{|S|-|X|} * |C| * |Y|)``.  Kept as the scalar oracle.

``method="sat"``
    Refutation search: ``C |= c`` iff ``prop(C) and not prop(c)`` is
    unsatisfiable (Prop 5.4 + the well-known negminset containment).  Uses
    the in-tree DPLL solver; scales past dense-table ground sets.

``method="fd"``
    The P-time fragment: every constraint has exactly one family member.
    Decided by the classical attribute-closure algorithm.

``method="auto"``
    Delegates to the engine :class:`~repro.engine.plan.Planner` (one
    brain for the whole stack): ``fd`` when the instance is in the
    fragment, otherwise ``engine`` for dense-capable ground sets,
    otherwise ``sat``.  The planner's dense cutoff is the same constant
    a live context refuses past, so the auto heuristic and the engine's
    own applicability check can never disagree.

:func:`find_uncovered` exposes the certificate: a set
``U in L(X,Y) - L(C)``, from which Theorem 3.5's counterexample function
``f^U`` is built (see :mod:`repro.core.counterexample`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

from repro.core import subsets as sb
from repro.core.constraint import DifferentialConstraint
from repro.core.constraint_set import ConstraintSet
from repro.engine.plan import default_planner
from repro.errors import NotApplicableError

__all__ = [
    "decide",
    "implies_engine",
    "implies_lattice",
    "implies_sat",
    "implies_fd",
    "find_uncovered",
    "find_uncovered_engine",
    "find_uncovered_sat",
    "fd_closure",
    "in_fd_fragment",
]

Constraints = Union[ConstraintSet, Iterable[DifferentialConstraint]]


def _as_constraint_set(
    constraints: Constraints, like: DifferentialConstraint
) -> ConstraintSet:
    if isinstance(constraints, ConstraintSet):
        return constraints
    return ConstraintSet(like.ground, constraints)


def decide(
    constraints: Constraints,
    target: DifferentialConstraint,
    method: str = "auto",
    context=None,
) -> bool:
    """Decide ``C |= target`` with the selected ``method``.

    ``context`` is an optional :class:`repro.engine.EvalContext` whose
    memoization cache the engine decider uses (the process-wide shared
    cache otherwise).
    """
    cset = _as_constraint_set(constraints, target)
    cset.ground.check_same(target.ground)
    if method == "auto":
        method, _why = default_planner().decide_method(
            cset.ground.size, fd_fragment=in_fd_fragment(cset, target)
        )
    if method == "engine":
        return implies_engine(cset, target, context=context)
    if method == "lattice":
        return implies_lattice(cset, target)
    if method == "sat":
        return implies_sat(cset, target)
    if method == "fd":
        return implies_fd(cset, target)
    raise ValueError(f"unknown implication method {method!r}")


# ----------------------------------------------------------------------
# Theorem 3.5 at table speed: the memoizing engine decider
# ----------------------------------------------------------------------
def implies_engine(
    constraints: Constraints,
    target: DifferentialConstraint,
    context=None,
) -> bool:
    """``C |= target`` via cached boolean-table containment."""
    return find_uncovered_engine(constraints, target, context=context) is None


def find_uncovered_engine(
    constraints: Constraints,
    target: DifferentialConstraint,
    context=None,
) -> Optional[int]:
    """Like :func:`find_uncovered`, decided by the batched engine.

    The per-constraint lattice tables and the atomic closure ``L(C)``
    are memoized by structural fingerprint, so repeated queries against
    the same (or an equal) ``C`` skip the lattice sweep entirely.
    """
    from repro.engine import decider

    cset = _as_constraint_set(constraints, target)
    if not cset.ground.is_dense_capable():
        # the dense-limit error and the auto heuristic share one brain:
        # the refusal names the plan the planner would have picked
        suggested, why = default_planner().decide_method(
            cset.ground.size,
            fd_fragment=in_fd_fragment(cset, target),
        )
        raise NotApplicableError(
            f"the engine decider builds dense 2^|S| tables; |S| = "
            f"{cset.ground.size} exceeds the dense limit -- the planner "
            f"suggests method={suggested!r} ({why})"
        )
    cache = context.cache if context is not None else None
    return decider.find_uncovered_batched(cset, target, cache)


# ----------------------------------------------------------------------
# Theorem 3.5: lattice containment
# ----------------------------------------------------------------------
def implies_lattice(constraints: Constraints, target: DifferentialConstraint) -> bool:
    """``C |= target`` iff ``L(target) subseteq L(C)`` (Theorem 3.5)."""
    cset = _as_constraint_set(constraints, target)
    return find_uncovered(cset, target) is None


def find_uncovered(
    constraints: Constraints, target: DifferentialConstraint
) -> Optional[int]:
    """Return some ``U in L(target) - L(C)``, or ``None`` if none exists.

    ``None`` certifies implication; a mask certifies non-implication via
    the Theorem 3.5 counterexample ``f^U``.
    """
    cset = _as_constraint_set(constraints, target)
    for u in target.iter_lattice():
        if not cset.lattice_contains(u):
            return u
    return None


# ----------------------------------------------------------------------
# Proposition 5.4: propositional refutation (DPLL)
# ----------------------------------------------------------------------
def _encode_refutation(
    cset: ConstraintSet, target: DifferentialConstraint
) -> Tuple[List[List[int]], int]:
    """CNF clauses satisfiable iff ``C`` does **not** imply ``target``.

    Ground element ``i`` becomes propositional variable ``i + 1``; each
    family member of each constraint in ``C`` gets a fresh auxiliary
    selector variable (one-sided Tseitin: ``z_j -> AND Y_j`` suffices for
    satisfiability).  A model restricted to the ground variables is a set
    ``U in L(target) - L(C)``.
    """
    n = cset.ground.size
    clauses: List[List[int]] = []
    next_var = n + 1

    # not prop(target): AND X  and  for each member Y: OR_{y in Y} not y
    for bit in sb.iter_bits(target.lhs):
        clauses.append([bit + 1])
    for member in target.family:
        clauses.append([-(bit + 1) for bit in sb.iter_bits(member)])

    # prop(c') for each constraint in C
    for c in cset:
        main = [-(bit + 1) for bit in sb.iter_bits(c.lhs)]
        for member in c.family:
            z = next_var
            next_var += 1
            main.append(z)
            for bit in sb.iter_bits(member):
                clauses.append([-z, bit + 1])
        clauses.append(main)
    return clauses, next_var - 1


def implies_sat(constraints: Constraints, target: DifferentialConstraint) -> bool:
    """``C |= target`` decided by DPLL refutation (Prop 5.4)."""
    return find_uncovered_sat(constraints, target) is None


def find_uncovered_sat(
    constraints: Constraints, target: DifferentialConstraint
) -> Optional[int]:
    """Like :func:`find_uncovered` but the search is done by the SAT solver."""
    from repro.logic.sat import solve

    cset = _as_constraint_set(constraints, target)
    clauses, n_vars = _encode_refutation(cset, target)
    model = solve(clauses, n_vars)
    if model is None:
        return None
    mask = 0
    for bit in range(cset.ground.size):
        if model.get(bit + 1, False):
            mask |= 1 << bit
    return mask


# ----------------------------------------------------------------------
# The P-time functional-dependency fragment (paper's conclusion)
# ----------------------------------------------------------------------
def in_fd_fragment(
    constraints: Constraints, target: DifferentialConstraint
) -> bool:
    """Whether premises and conclusion all have exactly one family member.

    The set side is cached on the (immutable) :class:`ConstraintSet`,
    so the per-query auto dispatch costs two attribute checks once a
    set has been asked before.
    """
    cset = _as_constraint_set(constraints, target)
    return target.has_singleton_family() and cset.all_singleton_families()


def fd_closure(ground_size_mask: int, start: int, fds: List[Tuple[int, int]]) -> int:
    """Attribute-set closure of ``start`` under FDs ``(lhs, rhs)``.

    The textbook fixpoint; each pass applies every FD whose left side is
    contained in the running closure.
    """
    closure = start
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds:
            if sb.is_subset(lhs, closure) and rhs & ~closure:
                closure |= rhs
                changed = True
    return closure


def implies_fd(constraints: Constraints, target: DifferentialConstraint) -> bool:
    """Decide the singleton-family fragment via attribute closure.

    ``{X_i -> {Y_i}} |= X -> {Y}`` iff ``Y`` is contained in the closure
    of ``X`` under the corresponding functional dependencies; the paper's
    conclusion (and Demetrovics-Libkin-Muchnik) justify the equivalence,
    which the test suite re-verifies against the lattice decider.
    """
    cset = _as_constraint_set(constraints, target)
    if not in_fd_fragment(cset, target):
        raise NotApplicableError(
            "the FD decider requires every family to have exactly one member"
        )
    fds = [(c.lhs, c.family.members[0]) for c in cset]
    closure = fd_closure(cset.ground.universe_mask, target.lhs, fds)
    return sb.is_subset(target.family.members[0], closure)
