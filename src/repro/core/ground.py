"""The finite ground set ``S`` and its label <-> bitmask codec.

Throughout the paper every object -- set functions ``f : 2^S -> R``,
differential constraints ``X -> Y``, basket databases, relation schemas --
lives over one finite ground set ``S``.  :class:`GroundSet` fixes an order
on the elements of ``S`` and translates between user-facing labels
(arbitrary hashable values, typically one-character strings such as
``"A"``) and the internal integer bitmasks manipulated by
:mod:`repro.core.subsets`.

The paper writes subsets in the compressed form ``A1A2...An`` for
``{A1, ..., An}`` (Section 2); :meth:`GroundSet.parse` accepts the same
shorthand whenever every label is a one-character string, which keeps
tests and examples visually close to the paper's worked examples.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, Iterator, Sequence, Tuple

from repro.errors import GroundSetMismatchError, UnknownElementError
from repro.core import subsets as sb

__all__ = ["GroundSet"]

#: Largest ground-set size for which dense ``2^n`` tables are constructed.
MAX_DENSE_SIZE = 22


class GroundSet:
    """An ordered finite ground set ``S``.

    Parameters
    ----------
    elements:
        The elements of ``S`` in the order that fixes their bit positions.
        Elements must be hashable and pairwise distinct.

    Examples
    --------
    >>> S = GroundSet("ABCD")
    >>> S.mask({"A", "C"})
    5
    >>> sorted(S.subset(5))
    ['A', 'C']
    >>> S.format_mask(5)
    'AC'
    """

    __slots__ = ("_elements", "_index", "_universe")

    def __init__(self, elements: Iterable[Hashable]):
        elems: Tuple[Hashable, ...] = tuple(elements)
        index = {label: bit for bit, label in enumerate(elems)}
        if len(index) != len(elems):
            raise ValueError("ground set elements must be pairwise distinct")
        self._elements = elems
        self._index = index
        self._universe = (1 << len(elems)) - 1

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def elements(self) -> Tuple[Hashable, ...]:
        """The elements of ``S`` in bit order."""
        return self._elements

    @property
    def universe_mask(self) -> int:
        """The mask of ``S`` itself (all bits set)."""
        return self._universe

    @property
    def size(self) -> int:
        """``|S|``."""
        return len(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._elements)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundSet) and self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return f"GroundSet({list(self._elements)!r})"

    # ------------------------------------------------------------------
    # label <-> mask codec
    # ------------------------------------------------------------------
    def bit_of(self, label: Hashable) -> int:
        """Return the bit position of ``label``."""
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElementError(label) from None

    def singleton_mask(self, label: Hashable) -> int:
        """Return the one-bit mask ``{label}``."""
        return 1 << self.bit_of(label)

    def mask(self, labels: Iterable[Hashable]) -> int:
        """Return the mask of the subset containing exactly ``labels``."""
        mask = 0
        for label in labels:
            mask |= 1 << self.bit_of(label)
        return mask

    def parse(self, text) -> int:
        """Parse a subset written in the paper's shorthand.

        Accepts an iterable of labels, or -- when every element of the
        ground set is a one-character string -- a plain string such as
        ``"ACD"`` denoting ``{A, C, D}``.  Longer labels are written
        comma-separated (``"x0,x1"``).  The empty set may be written
        ``""``, ``"0"`` or the unicode empty-set sign.
        """
        if isinstance(text, int):
            raise TypeError("parse() expects labels, not a raw mask")
        if isinstance(text, str):
            stripped = text.strip()
            if stripped in ("", "0", "∅"):
                return 0
            if all(ch in self._index for ch in stripped):
                return self.mask(stripped)
            if stripped in self._index:
                return self.singleton_mask(stripped)
            if "," in stripped:
                return self.mask(part.strip() for part in stripped.split(","))
            raise UnknownElementError(text)
        return self.mask(text)

    def subset(self, mask: int) -> FrozenSet[Hashable]:
        """Return the subset of labels encoded by ``mask``."""
        self._check_mask(mask)
        return frozenset(self._elements[bit] for bit in sb.iter_bits(mask))

    def complement(self, mask: int) -> int:
        """Return ``S - mask``."""
        self._check_mask(mask)
        return self._universe & ~mask

    def format_mask(self, mask: int) -> str:
        """Render ``mask`` in the paper's shorthand (``'AC'``, ``'(/)'``)."""
        self._check_mask(mask)
        if mask == 0:
            return "(/)"
        return "".join(str(self._elements[bit]) for bit in sb.iter_bits(mask))

    def format_family(self, masks: Sequence[int]) -> str:
        """Render a set of subsets, e.g. ``'{B, CD}'``."""
        inner = ", ".join(self.format_mask(m) for m in masks)
        return "{" + inner + "}"

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def all_masks(self) -> range:
        """Iterate over all ``2^|S|`` subset masks in numeric order."""
        return range(self._universe + 1)

    def iter_supersets(self, mask: int) -> Iterator[int]:
        """Iterate over all supersets of ``mask`` within ``S``."""
        self._check_mask(mask)
        return sb.iter_supersets(mask, self._universe)

    def singletons(self) -> Iterator[int]:
        """Iterate over the one-bit masks of ``S`` in bit order."""
        return sb.iter_singletons(self._universe)

    # ------------------------------------------------------------------
    # guards
    # ------------------------------------------------------------------
    def _check_mask(self, mask: int) -> None:
        if mask < 0 or mask & ~self._universe:
            raise UnknownElementError(
                f"mask {mask:#x} uses bits outside the ground set of size {self.size}"
            )

    def check_same(self, other: "GroundSet") -> None:
        """Raise :class:`GroundSetMismatchError` unless ``other`` equals ``self``."""
        if self != other:
            raise GroundSetMismatchError(
                f"objects over different ground sets: {self!r} vs {other!r}"
            )

    def is_dense_capable(self) -> bool:
        """Whether dense ``2^|S|`` tables are permitted for this ground set."""
        return self.size <= MAX_DENSE_SIZE
