"""E4 -- Theorem 3.5: the lattice characterization of implication.

Regenerates the theorem on randomized sweeps: the syntactic containment
``L(C) >= L(X, Y)`` agrees with semantic implication decided by
counterexample scans over the ``f^U`` family, and every refutation's
witness function genuinely separates ``C`` from the target.  Benchmarks
the per-query lattice decider against the memoized engine decider,
which decides against one cached ``L(C)`` table (the
repeated-queries-on-one-C regime).
"""

import random

import pytest

from repro.core import GroundSet, refute
from repro.core.implication import (
    find_uncovered,
    implies_engine,
    implies_lattice,
)
from repro.core.counterexample import semantic_implies_over_ideals
from repro.instances import random_constraint, random_constraint_set

from _harness import format_table, report

GROUND = GroundSet("ABCDE")


def _make_queries(seed, n):
    rng = random.Random(seed)
    queries = []
    for _ in range(n):
        cset = random_constraint_set(rng, GROUND, rng.randint(1, 4), max_members=3)
        target = random_constraint(rng, GROUND, max_members=3)
        queries.append((cset, target))
    return queries


class TestTheorem35:
    def test_syntactic_equals_semantic(self, benchmark):
        queries = _make_queries(404, 150)
        implied = 0
        for cset, target in queries:
            syntactic = implies_lattice(cset, target)
            semantic = semantic_implies_over_ideals(cset, target)
            assert syntactic == semantic
            implied += syntactic
            if not syntactic:
                f = refute(cset, target)
                assert cset.satisfied_by(f) and not target.satisfied_by(f)
                u = find_uncovered(cset, target)
                assert target.lattice_contains(u)
                assert not cset.lattice_contains(u)
        report(
            "E4_theorem35_lattice",
            "L(C) containment == semantic implication (150 sweeps, |S|=5)",
            format_table(
                ["instances", "implied", "refuted (with f^U certificate)"],
                [(len(queries), implied, len(queries) - implied)],
            ),
        )

        def decide_all():
            return sum(implies_lattice(c, t) for c, t in queries)

        assert benchmark(decide_all) == implied

    def test_engine_for_repeated_queries(self, benchmark):
        """Many targets against one cached C."""
        rng = random.Random(405)
        cset = random_constraint_set(rng, GROUND, 4, max_members=3)
        targets = [
            random_constraint(rng, GROUND, max_members=3) for _ in range(120)
        ]
        # agreement first (this also warms L(C) outside the timer)
        for t in targets:
            assert implies_engine(cset, t) == implies_lattice(cset, t)

        def decide_all_engine():
            return sum(implies_engine(cset, t) for t in targets)

        count = benchmark(decide_all_engine)
        assert 0 <= count <= len(targets)
