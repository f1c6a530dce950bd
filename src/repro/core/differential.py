"""The ``Y``-differential operator ``D_f^Y`` (Definition 2.1).

For a set ``Y`` of subsets of ``S`` and ``f in F(S)``::

    D_f^Y(X) = sum_{Z subseteq Y} (-1)^{|Z|} f(X union (union of Z))

where ``Z`` ranges over sub-*families* of ``Y`` (so the sign counts chosen
members, not chosen elements).  The module provides the direct
inclusion-exclusion evaluation and the density-sum form of
Proposition 2.9::

    D_f^Y(X) = sum_{U in L(X, Y)} d_f(U)

whose agreement is a key correctness property verified by the test suite.

It also exposes the *density-as-differential* identity of Definition 2.1:
``d_f(X) = D_f^{Ybar}(X)`` where ``Ybar`` is the family of singletons of
the complement ``S - X`` (the paper's Example 2.2 fixes the intended
reading: ``d_f(A) = D_f^{{B},{C},{D}}(A)`` over ``S = {A,B,C,D}``).
"""

from __future__ import annotations

from typing import Union

from repro.core import subsets as sb
from repro.core.family import SetFamily
from repro.core.ground import GroundSet
from repro.core.setfunction import SetFunction, SparseDensityFunction

__all__ = [
    "differential_value",
    "differential_function",
    "differential_function_by_definition",
    "differential_apply_delta",
    "differential_via_density",
    "density_family_for",
    "density_value_by_definition",
]

AnySetFunction = Union[SetFunction, SparseDensityFunction]


def differential_value(f: AnySetFunction, family: SetFamily, x_mask: int):
    """Evaluate ``D_f^Y(X)`` directly from Definition 2.1.

    Runs in ``O(2^|Y|)`` evaluations of ``f`` where ``|Y|`` is the number
    of *members* of the family.
    """
    f.ground.check_same(family.ground)
    members = family.members
    k = len(members)
    total = 0
    for choice in range(1 << k):
        union = x_mask
        for i in range(k):
            if choice >> i & 1:
                union |= members[i]
        term = f.value(union)
        if choice.bit_count() & 1:
            total = total - term
        else:
            total = total + term
    return total


def differential_function(
    f: AnySetFunction, family: SetFamily, context=None
) -> SetFunction:
    """The differential ``D_f^Y`` as a (dense) element of ``F(S)``.

    Evaluated by the batched engine: one masked superset-zeta pass over
    the density table gives ``D_f^Y(X)`` for every ``X`` in
    ``O(n * 2^n)`` (Proposition 2.9), instead of the scalar
    ``O(2^|Y|)``-per-``X`` inclusion-exclusion of Definition 2.1.  For
    :class:`SparseDensityFunction` inputs the density table is scattered
    straight from the nonzero entries -- the density-sum path.
    """
    from repro.engine import batch, default_context

    ground = f.ground
    context = context or default_context()
    backend = context.backend_for(f)
    table = batch.batched_differential(f, family, backend)
    return SetFunction(ground, table, exact=backend.exact)


def differential_function_by_definition(
    f: AnySetFunction, family: SetFamily
) -> SetFunction:
    """``D_f^Y`` through the scalar Definition 2.1 loop.

    ``O(4^n * 2^|Y|)`` in the dense case -- kept as the oracle the test
    suite compares the batched engine against.
    """
    ground = f.ground
    exact = getattr(f, "exact", True)
    values = [differential_value(f, family, x) for x in ground.all_masks()]
    return SetFunction(ground, values, exact=bool(exact))


def differential_apply_delta(table, family: SetFamily, mask: int, delta):
    """Maintain a differential table ``D_f^Y`` under one density delta.

    Proposition 2.9 makes the differential linear in the density, so a
    delta at ``mask`` adds ``delta`` at every subset position -- unless
    some member of ``Y`` is contained in ``mask``, in which case ``mask``
    is outside every ``L(X, Y)`` and the table is untouched.  One numpy
    subset add per delta instead of the ``O(n * 2^n)`` rebuild of
    :func:`differential_function`; the incremental engine applies the
    same rule to its live tables.
    """
    from repro.engine.incremental import add_on_subsets

    if not family.contains_subset_of(mask):
        add_on_subsets(table, mask, delta)
    return table


def differential_via_density(f: AnySetFunction, family: SetFamily, x_mask: int):
    """Evaluate ``D_f^Y(X)`` through Proposition 2.9.

    Sums the density of ``f`` over the lattice decomposition ``L(X, Y)``.
    For :class:`SparseDensityFunction` this touches only the nonzero
    density entries, giving the scalable evaluation path.
    """
    from repro.core.lattice import in_lattice, iter_lattice

    f.ground.check_same(family.ground)
    if isinstance(f, SparseDensityFunction):
        return sum(
            v for mask, v in f.density_items() if in_lattice(x_mask, family, mask)
        )
    total = 0
    for u in iter_lattice(x_mask, family, f.ground):
        total = total + f.density_value(u)
    return total


def density_family_for(ground: GroundSet, x_mask: int) -> SetFamily:
    """The family ``{{y} | y in S - X}`` used in Definition 2.1's density.

    (The printed paper drops the complement bar in the definition; the
    worked Example 2.2 -- ``d_f(A) = D_f^{B,C,D}(A)`` over ``S = ABCD`` --
    shows the family ranges over the complement of ``X``.)
    """
    return SetFamily.singletons_of(ground, ground.complement(x_mask))


def density_value_by_definition(f: AnySetFunction, x_mask: int):
    """``d_f(X)`` computed as the differential of Definition 2.1.

    Equivalent to the Moebius transform value (Remark 2.3); kept as an
    independent code path for the test suite.
    """
    family = density_family_for(f.ground, x_mask)
    return differential_value(f, family, x_mask)
