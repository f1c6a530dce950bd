"""Unit tests for constraint sets and the joint lattice L(C)."""

import pytest

from repro.core import (
    ConstraintSet,
    DifferentialConstraint,
    GroundSet,
    SetFamily,
)
from repro.instances import (
    random_constraint,
    random_constraint_set,
    random_nonneg_density_function,
    random_set_function,
)


class TestConstruction:
    def test_of_parses(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "A -> B", "B -> C")
        assert len(cs) == 2
        assert DifferentialConstraint.parse(ground_abc, "A -> B") in cs

    def test_deduplication(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "A -> B", "A -> B")
        assert len(cs) == 1

    def test_mixed_specs(self, ground_abc):
        c = DifferentialConstraint.parse(ground_abc, "B -> C")
        cs = ConstraintSet.of(ground_abc, "A -> B", c)
        assert len(cs) == 2

    def test_add_remove(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "A -> B")
        c = DifferentialConstraint.parse(ground_abc, "B -> C")
        grown = cs.add(c)
        assert len(grown) == 2
        assert grown.remove(c) == cs

    def test_equality_order_independent(self, ground_abc):
        a = ConstraintSet.of(ground_abc, "A -> B", "B -> C")
        b = ConstraintSet.of(ground_abc, "B -> C", "A -> B")
        assert a == b
        assert hash(a) == hash(b)


class TestJointLattice:
    def test_lattice_contains_is_union(self, ground_abcd, rng):
        for _ in range(30):
            cs = random_constraint_set(rng, ground_abcd, 3, max_members=2)
            for u in ground_abcd.all_masks():
                want = any(c.lattice_contains(u) for c in cs)
                assert cs.lattice_contains(u) == want

    def test_iter_lattice_sorted_unique(self, ground_abcd, rng):
        cs = random_constraint_set(rng, ground_abcd, 3, max_members=2)
        masks = list(cs.iter_lattice())
        assert masks == sorted(set(masks))

    def test_bitset_matches(self, ground_abcd, rng):
        cs = random_constraint_set(rng, ground_abcd, 3, max_members=2)
        table = cs.lattice_bitset()
        for u in ground_abcd.all_masks():
            assert bool(table[u]) == cs.lattice_contains(u)

    def test_bitset_cached(self, ground_abcd, rng):
        cs = random_constraint_set(rng, ground_abcd, 2)
        assert cs.lattice_bitset() is cs.lattice_bitset()


class TestSatisfaction:
    def test_satisfied_by_all(self, ground_abc, example_32_function):
        cs = ConstraintSet.of(ground_abc, "A -> B", "B -> C")
        assert cs.satisfied_by(example_32_function)
        cs_bad = cs.add(DifferentialConstraint.parse(ground_abc, "C -> A"))
        assert not cs_bad.satisfied_by(example_32_function)

    def test_satisfaction_characterizes_lattice(self, ground_abc, rng):
        """f satisfies C iff density vanishes exactly on L(C)."""
        for _ in range(30):
            cs = random_constraint_set(rng, ground_abc, 2, max_members=2)
            f = random_nonneg_density_function(rng, ground_abc, zero_probability=0.7)
            sat = cs.satisfied_by(f)
            violates = any(
                abs(f.density_value(u)) > 1e-9 for u in cs.iter_lattice()
            )
            assert sat == (not violates)


class TestImplicationFacade:
    def test_implies_string_target(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "A -> B", "B -> C")
        assert cs.implies("A -> C")
        assert not cs.implies("C -> A")

    def test_methods_agree(self, ground_abcd, rng):
        for _ in range(30):
            cs = random_constraint_set(rng, ground_abcd, 2, max_members=2)
            t = random_constraint(rng, ground_abcd, max_members=2)
            assert cs.implies(t, "lattice") == cs.implies(t, "sat") == cs.implies(t, "engine")


class TestCovers:
    def test_redundant_constraint_removed(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "A -> B", "B -> C", "A -> C")
        cover = cs.minimal_cover()
        assert len(cover) == 2
        assert cover.equivalent_to(cs)

    def test_minimal_cover_no_redundancy(self, ground_abcd, rng):
        for _ in range(15):
            cs = random_constraint_set(rng, ground_abcd, 4, max_members=2)
            cover = cs.minimal_cover()
            assert cover.equivalent_to(cs)
            for c in cover:
                assert not cover.is_redundant(c)

    def test_trivial_constraints_always_redundant(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "AB -> B", "A -> C")
        cover = cs.minimal_cover()
        assert DifferentialConstraint.parse(ground_abc, "AB -> B") not in cover

    def test_equivalent_to_reflexive(self, ground_abc):
        cs = ConstraintSet.of(ground_abc, "A -> B")
        assert cs.equivalent_to(cs)

    def test_equivalent_atomic_representation(self, ground_abc, rng):
        from repro.core import atomic_representation

        for _ in range(10):
            cs = random_constraint_set(rng, ground_abc, 2, max_members=2)
            rep = atomic_representation(cs)
            assert rep.equivalent_to(cs)
