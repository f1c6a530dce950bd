"""Unit tests for the ground-set codec."""

import pytest

from repro.core import GroundSet
from repro.errors import GroundSetMismatchError, UnknownElementError


class TestConstruction:
    def test_basic(self):
        s = GroundSet("ABCD")
        assert len(s) == 4
        assert s.size == 4
        assert s.elements == ("A", "B", "C", "D")
        assert s.universe_mask == 0b1111

    def test_arbitrary_labels(self):
        s = GroundSet(["beer", "diapers", "chips"])
        assert s.mask(["beer", "chips"]) == 0b101
        assert s.subset(0b101) == frozenset({"beer", "chips"})

    def test_duplicate_elements_rejected(self):
        with pytest.raises(ValueError):
            GroundSet("ABA")

    def test_empty_ground_set(self):
        s = GroundSet([])
        assert s.size == 0
        assert s.universe_mask == 0
        assert list(s.all_masks()) == [0]

    def test_equality_and_hash(self):
        assert GroundSet("AB") == GroundSet("AB")
        assert GroundSet("AB") != GroundSet("BA")  # order matters
        assert hash(GroundSet("AB")) == hash(GroundSet("AB"))


class TestCodec:
    def test_mask_and_subset_roundtrip(self):
        s = GroundSet("ABCD")
        for mask in s.all_masks():
            assert s.mask(s.subset(mask)) == mask

    def test_parse_shorthand(self):
        s = GroundSet("ABCD")
        assert s.parse("ACD") == 0b1101
        assert s.parse("") == 0
        assert s.parse("(/)".replace("(/)", "")) == 0
        assert s.parse(["A", "C"]) == 0b101

    def test_parse_comma_separated_labels(self):
        s = GroundSet(["x0", "x1", "x2"])
        assert s.parse("x0,x2") == 0b101
        assert s.parse(" x1 , x2 ") == 0b110
        assert s.parse("x1") == 0b010
        with pytest.raises(UnknownElementError):
            s.parse("x0,x9")

    def test_parse_rejects_unknown(self):
        s = GroundSet("ABCD")
        with pytest.raises(UnknownElementError):
            s.parse("AXB")

    def test_parse_rejects_raw_int(self):
        with pytest.raises(TypeError):
            GroundSet("AB").parse(3)

    def test_singleton_mask_and_bit(self):
        s = GroundSet("ABCD")
        assert s.singleton_mask("C") == 0b100
        assert s.bit_of("D") == 3
        with pytest.raises(UnknownElementError):
            s.bit_of("Z")

    def test_complement(self):
        s = GroundSet("ABCD")
        assert s.complement(0b0101) == 0b1010
        assert s.complement(0) == 0b1111

    def test_format_mask(self):
        s = GroundSet("ABCD")
        assert s.format_mask(0b0101) == "AC"
        assert s.format_mask(0) == "(/)"

    def test_format_family(self):
        s = GroundSet("ABCD")
        assert s.format_family([0b10, 0b1100]) == "{B, CD}"

    def test_mask_bounds_checked(self):
        s = GroundSet("AB")
        with pytest.raises(UnknownElementError):
            s.subset(0b100)
        with pytest.raises(UnknownElementError):
            s.format_mask(-1)


class TestEnumeration:
    def test_all_masks(self):
        s = GroundSet("ABC")
        assert list(s.all_masks()) == list(range(8))

    def test_iter_supersets(self):
        s = GroundSet("ABC")
        assert set(s.iter_supersets(0b001)) == {0b001, 0b011, 0b101, 0b111}

    def test_singletons(self):
        s = GroundSet("ABC")
        assert list(s.singletons()) == [0b001, 0b010, 0b100]


class TestGuards:
    def test_check_same(self):
        a, b = GroundSet("AB"), GroundSet("ABC")
        a.check_same(GroundSet("AB"))
        with pytest.raises(GroundSetMismatchError):
            a.check_same(b)

    def test_dense_capability(self):
        assert GroundSet("ABCD").is_dense_capable()
        assert not GroundSet(range(30)).is_dense_capable()

    def test_contains_and_iter(self):
        s = GroundSet("ABC")
        assert "B" in s
        assert "Z" not in s
        assert list(s) == ["A", "B", "C"]
