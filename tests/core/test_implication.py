"""Unit tests for the implication deciders (Theorem 3.5 and friends)."""

import pytest

from repro.core import (
    ConstraintSet,
    DifferentialConstraint,
    GroundSet,
    SetFamily,
    decide,
    fd_closure,
    find_uncovered,
    find_uncovered_sat,
    implies_engine,
    implies_fd,
    implies_lattice,
    implies_sat,
    in_fd_fragment,
    semantic_implies_over_ideals,
)
from repro.errors import NotApplicableError
from repro.instances import random_constraint, random_constraint_set


class TestExample34:
    def test_transitive_implication(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "A -> B", "B -> C")
        t = DifferentialConstraint.parse(ground_abc, "A -> C")
        for method in ("lattice", "engine", "sat", "fd", "auto"):
            assert decide(cs, t, method), method

    def test_converse_fails(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "A -> B", "B -> C")
        t = DifferentialConstraint.parse(ground_abc, "C -> A")
        for method in ("lattice", "engine", "sat", "fd", "auto"):
            assert not decide(cs, t, method), method


class TestTheorem35:
    def test_all_methods_agree_randomly(self, ground_abcd, rng):
        for _ in range(120):
            cs = random_constraint_set(
                rng, ground_abcd, rng.randint(1, 4), max_members=3,
                allow_empty_member=True,
            )
            t = random_constraint(
                rng, ground_abcd, max_members=3, allow_empty_member=True
            )
            lat = implies_lattice(cs, t)
            eng = implies_engine(cs, t)
            sat = implies_sat(cs, t)
            sem = semantic_implies_over_ideals(cs, t)
            assert lat == eng == sat == sem

    def test_trivial_target_always_implied(self, ground_abcd, rng):
        t = DifferentialConstraint.parse(ground_abcd, "AB -> B")
        cs = ConstraintSet(ground_abcd)
        assert implies_lattice(cs, t)
        assert implies_sat(cs, t)

    def test_empty_premises_imply_only_trivial(self, ground_abcd, rng):
        cs = ConstraintSet(ground_abcd)
        for _ in range(40):
            t = random_constraint(rng, ground_abcd, max_members=2)
            assert implies_lattice(cs, t) == t.is_trivial

    def test_constraint_implies_itself(self, ground_abcd, rng):
        for _ in range(30):
            c = random_constraint(rng, ground_abcd, max_members=3)
            assert implies_lattice(ConstraintSet(ground_abcd, [c]), c)

    def test_monotonicity_in_premises(self, ground_abcd, rng):
        for _ in range(30):
            cs = random_constraint_set(rng, ground_abcd, 2, max_members=2)
            t = random_constraint(rng, ground_abcd, max_members=2)
            if implies_lattice(cs, t):
                bigger = cs.add(random_constraint(rng, ground_abcd))
                assert implies_lattice(bigger, t)


class TestCertificates:
    def test_uncovered_is_genuine(self, ground_abcd, rng):
        for _ in range(60):
            cs = random_constraint_set(rng, ground_abcd, 2, max_members=2)
            t = random_constraint(rng, ground_abcd, max_members=2)
            u = find_uncovered(cs, t)
            if u is None:
                assert implies_lattice(cs, t)
            else:
                assert t.lattice_contains(u)
                assert not cs.lattice_contains(u)

    def test_sat_certificate_matches(self, ground_abcd, rng):
        for _ in range(60):
            cs = random_constraint_set(rng, ground_abcd, 2, max_members=2)
            t = random_constraint(rng, ground_abcd, max_members=2)
            u = find_uncovered_sat(cs, t)
            if u is None:
                assert implies_lattice(cs, t)
            else:
                assert t.lattice_contains(u)
                assert not cs.lattice_contains(u)


class TestFdFragment:
    def test_fragment_detection(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "A -> B", "B -> C")
        t = DifferentialConstraint.parse(ground_abc, "A -> C")
        assert in_fd_fragment(cs, t)
        t2 = DifferentialConstraint.parse(ground_abc, "A -> B, C")
        assert not in_fd_fragment(cs, t2)

    def test_fd_requires_fragment(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "A -> B, C")
        t = DifferentialConstraint.parse(ground_abc, "A -> B")
        with pytest.raises(NotApplicableError):
            implies_fd(cs, t)

    def test_fd_agrees_with_lattice(self, ground_abcd, rng):
        """The paper's conclusion: the singleton-RHS fragment is FD
        implication."""
        for _ in range(150):
            constraints = []
            for _ in range(rng.randint(1, 4)):
                lhs = rng.randrange(16)
                member = rng.randrange(16)
                constraints.append(
                    DifferentialConstraint(
                        ground_abcd, lhs, SetFamily(ground_abcd, [member])
                    )
                )
            cs = ConstraintSet(ground_abcd, constraints)
            t = DifferentialConstraint(
                ground_abcd,
                rng.randrange(16),
                SetFamily(ground_abcd, [rng.randrange(16)]),
            )
            assert implies_fd(cs, t) == implies_lattice(cs, t)

    def test_closure_fixpoint(self):
        # {A->B, B->C}: closure(A) = ABC; closure(D) = D
        fds = [(0b0001, 0b0010), (0b0010, 0b0100)]
        assert fd_closure(0b1111, 0b0001, fds) == 0b0111
        assert fd_closure(0b1111, 0b1000, fds) == 0b1000

    def test_auto_routes_to_fd(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "A -> B")
        t = DifferentialConstraint.parse(ground_abc, "A -> B")
        assert decide(cs, t, "auto")


class TestEdgeConstraints:
    def test_everything_constraint_implies_all(self, ground_abc, rng):
        everything = DifferentialConstraint(ground_abc, 0, SetFamily(ground_abc))
        cs = ConstraintSet(ground_abc, [everything])
        for _ in range(30):
            t = random_constraint(
                rng, ground_abc, max_members=2, allow_empty_member=True
            )
            assert implies_lattice(cs, t)
            assert implies_sat(cs, t)

    def test_empty_family_target(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "A -> B")
        t = DifferentialConstraint.parse(ground_abc, "A -> ")
        assert not implies_lattice(cs, t)
        assert not implies_sat(cs, t)

    def test_unknown_method_rejected(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "A -> B")
        t = DifferentialConstraint.parse(ground_abc, "A -> B")
        with pytest.raises(ValueError):
            decide(cs, t, "nope")
