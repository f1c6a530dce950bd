"""Lattice decompositions ``L(X, Y)`` (Definition 2.6, Propositions 2.8-2.9).

Definition 2.6 builds ``L(X, Y)`` as the union of intervals
``[X, S - W]`` over the witness sets ``W in W(Y)`` (the printed paper
drops the complement bar on ``W``; Example 2.7 -- where
``L(A, {B, CD}) = {A, AC, AD}`` over ``S = ABCD`` -- fixes the intended
reading).  The proof of Proposition 2.9 supplies the closed form used as
the primary implementation here::

    U in L(X, Y)   iff   X subseteq U subseteq S  and  no member of Y is
                         a subset of U

Both forms are implemented; the test suite checks them equal on random
instances.  The closed form gives an ``O(|Y|)`` membership test, which is
what makes the Theorem 3.5 implication decider practical: containment
``L(X,Y) subseteq L(C)`` is checked by enumerating ``L(X,Y)`` and testing
each element against every constraint of ``C`` in constant-ish time.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.core import subsets as sb
from repro.core.family import SetFamily
from repro.core.ground import GroundSet
from repro.core.witness import iter_witnesses

__all__ = [
    "in_lattice",
    "iter_lattice",
    "lattice",
    "lattice_size",
    "iter_lattice_by_witnesses",
    "lattice_bitset",
    "proposition_2_8_split",
]


def in_lattice(lhs_mask: int, family: SetFamily, u_mask: int) -> bool:
    """Closed-form membership test for ``U in L(X, Y)``."""
    return sb.is_subset(lhs_mask, u_mask) and not family.contains_subset_of(u_mask)


def iter_lattice(lhs_mask: int, family: SetFamily, ground: GroundSet) -> Iterator[int]:
    """Yield ``L(X, Y)`` via the closed form (supersets of ``X`` containing
    no member of ``Y``)."""
    for u in ground.iter_supersets(lhs_mask):
        if not family.contains_subset_of(u):
            yield u


def lattice(lhs_mask: int, family: SetFamily, ground: GroundSet) -> List[int]:
    """``L(X, Y)`` as a sorted list of masks."""
    return sorted(iter_lattice(lhs_mask, family, ground))


def lattice_size(lhs_mask: int, family: SetFamily, ground: GroundSet) -> int:
    """``|L(X, Y)|``."""
    return sum(1 for _ in iter_lattice(lhs_mask, family, ground))


def iter_lattice_by_witnesses(
    lhs_mask: int, family: SetFamily, ground: GroundSet
) -> Iterator[int]:
    """Yield ``L(X, Y)`` literally as Definition 2.6's union of intervals.

    ``L(X, Y) = union over W in W(Y) of [X, S - W]``; intervals overlap
    (Example 2.7 highlights this), so results are deduplicated.  Kept as
    an independent code path for the tests; the closed form above is the
    efficient route.
    """
    seen: Set[int] = set()
    for w in iter_witnesses(family):
        hi = ground.complement(w)
        for u in sb.iter_interval(lhs_mask, hi):
            if u not in seen:
                seen.add(u)
                yield u


def lattice_bitset(
    lhs_mask: int, family: SetFamily, ground: GroundSet
) -> np.ndarray:
    """``L(X, Y)`` as a boolean numpy table over all ``2^|S|`` masks.

    Computed by the batched engine: the subcube of supersets of ``X``
    minus each member's sub-subcube, written as strided slices
    (``O(2^(n-|X|))`` per member) instead of ``2^n`` interpreted
    membership tests.
    """
    from repro.engine import batch

    return batch.lattice_table(ground.size, lhs_mask, family.members)


def proposition_2_8_split(
    lhs_mask: int, family: SetFamily, z_mask: int, ground: GroundSet
) -> Tuple[List[int], List[int], List[int]]:
    """Return the three lattices of Proposition 2.8.

    ``L(X, Y) = L(X, Y union {Z}) union L(X union Z, Y)`` -- the identity
    behind the soundness of the Addition, Augmentation and Elimination
    rules.  Returns ``(L(X,Y), L(X, Y+{Z}), L(X+Z, Y))`` for the caller
    (typically a test or a bench) to verify or exploit.
    """
    left = lattice(lhs_mask, family, ground)
    with_z = lattice(lhs_mask, family.add(z_mask), ground)
    lifted = lattice(lhs_mask | z_mask, family, ground)
    return left, with_z, lifted
