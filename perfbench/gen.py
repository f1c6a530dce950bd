"""Seeded inputs for the three workloads, and the benchmark's own model.

Everything here is plain Python over bit masks: element ``i`` of a
ground set of size ``n`` is letter ``LETTERS[i]`` and bit ``1 << i``.
Nothing is imported from ``repro``; the program under test receives
only the texts these functions render, and the reference answers the
benchmark checks it against come from :func:`holds` / :func:`support`
(Definition 3.1 density semantics), or from a second decider.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

#: A constraint ``X -> {Y1, ..., Yk}`` as ``(lhs_mask, member_masks)``.
Constraint = Tuple[int, Tuple[int, ...]]


def ground_text(n: int) -> str:
    return LETTERS[:n]


def subset_text(mask: int) -> str:
    return "".join(ch for i, ch in enumerate(LETTERS) if mask >> i & 1)


def constraint_text(c: Constraint) -> str:
    lhs, members = c
    return f"{subset_text(lhs)} -> " + ", ".join(subset_text(m) for m in members)


def random_subset(rng: random.Random, n: int, lo: int, hi: int) -> int:
    mask = 0
    for bit in rng.sample(range(n), rng.randint(lo, hi)):
        mask |= 1 << bit
    return mask


def random_constraint(rng: random.Random, n: int, fd: bool = False) -> Constraint:
    """A constraint with a 1-3 element left side and 1-3 small members
    (one single-element member in the FD fragment)."""
    lhs = random_subset(rng, n, 1, 3)
    if fd:
        return lhs, (random_subset(rng, n, 1, 1),)
    k = rng.randint(1, 3)
    return lhs, tuple(sorted({random_subset(rng, n, 1, 2) for _ in range(k)}))


def weaken(rng: random.Random, n: int, c: Constraint, fd: bool) -> Constraint:
    """A consequence of ``c``: a larger left side and, outside the FD
    fragment, possibly one more member (both shrink ``L(X, Y)``)."""
    lhs, members = c
    lhs |= random_subset(rng, n, 0, 2)
    if not fd and rng.random() < 0.5:
        members = tuple(sorted(set(members) | {random_subset(rng, n, 1, 2)}))
    return lhs, members


# ----------------------------------------------------------------------
# decide
# ----------------------------------------------------------------------
#: One round of the decide workload: (|S|, constraint sets) pairs.  A
#: round costs ~0.7 s on a 2-CPU host, most of it the |S|=20 set.
DECIDE_ROUND = ((20, 1), (16, 4), (12, 16))
DECIDE_CONSTRAINTS = 10
DECIDE_TARGETS = 8
#: Every FD_EVERY-th constraint set is in the FD fragment (a minority).
FD_EVERY = 4


def decide_round(rng: random.Random) -> List[Tuple[int, bool, List[str], List[str]]]:
    """One round of ``(n, fd, constraint texts, target texts)`` items.

    Half the targets weaken a member of the set (so they are implied),
    half are random (mostly not implied).  The benchmark never trusts
    this split: every answer is checked by a second decider.
    """
    items = []
    index = 0
    for n, count in DECIDE_ROUND:
        for _ in range(count):
            fd = index % FD_EVERY == FD_EVERY - 1
            index += 1
            cset = [random_constraint(rng, n, fd) for _ in range(DECIDE_CONSTRAINTS)]
            targets: List[str] = []
            while len(targets) < DECIDE_TARGETS:
                if len(targets) % 2 == 0:
                    t = weaken(rng, n, rng.choice(cset), fd)
                else:
                    t = random_constraint(rng, n, fd)
                text = constraint_text(t)
                if text not in targets:
                    targets.append(text)
            items.append((n, fd, [constraint_text(c) for c in cset], targets))
    rng.shuffle(items)
    return items


# ----------------------------------------------------------------------
# ingest / query: a basket instance and its reference model
# ----------------------------------------------------------------------
def constraint_file(n: int, constraints: Sequence[Constraint]) -> str:
    return "\n".join([ground_text(n)] + [constraint_text(c) for c in constraints]) + "\n"


def mask_of(text: str) -> int:
    mask = 0
    for ch in text:
        mask |= 1 << LETTERS.index(ch)
    return mask


def holds(density: Dict[int, int], c: Constraint) -> bool:
    """Definition 3.1: the density vanishes on ``L(X, Y)``, i.e. no
    basket contains ``X`` while containing no member of ``Y``."""
    lhs, members = c
    for mask, value in density.items():
        if value and mask & lhs == lhs and not any(m & mask == m for m in members):
            return False
    return True


def support(density: Dict[int, int], subset: int) -> int:
    return sum(v for mask, v in density.items() if mask & subset == subset)


def apply_delta(density: Dict[int, int], ops: Sequence[str]) -> None:
    """Apply one ``/delta`` body (``"+ AB"`` / ``"- AB"`` lines)."""
    for line in ops:
        sign, subset = line.split()
        mask = mask_of(subset)
        density[mask] = density.get(mask, 0) + (1 if sign == "+" else -1)


class Basket:
    """One client's seeded stream of basket inserts and deletes.

    A client deletes only baskets it inserted and saw acknowledged, so
    no delete can drive a density negative however the two clients'
    transactions interleave -- deltas commute, and the final instance
    is the sum of every acknowledged transaction.
    """

    def __init__(self, rng: random.Random, n: int, lo: int, hi: int, delete_share: float):
        self._rng = rng
        self._n = n
        self._lo, self._hi = lo, hi
        self._delete_share = delete_share
        self._live: List[int] = []

    def transaction(self, size: int) -> Tuple[List[str], List[int]]:
        """``(ops, inserted masks)`` for one transaction."""
        ops, inserted = [], []
        for _ in range(size):
            if self._live and self._rng.random() < self._delete_share:
                mask = self._live.pop(self._rng.randrange(len(self._live)))
                ops.append(f"- {subset_text(mask)}")
            else:
                mask = random_subset(self._rng, self._n, self._lo, self._hi)
                inserted.append(mask)
                ops.append(f"+ {subset_text(mask)}")
        return ops, inserted

    def acknowledged(self, inserted: Sequence[int]) -> None:
        self._live.extend(inserted)
