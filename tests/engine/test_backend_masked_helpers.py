"""Micro-tests pinning the masked nonzero helper on edge cases.

``any_nonzero_where`` backs the violation checks (density scanned under
a lattice mask), so its edge behaviour -- empty masks, masked-out hits,
the strict ``|v| > tol`` boundary, negative entries -- is pinned here
for both backends.  The float backend gathers the masked entries
before taking ``|.|`` (it must never materialize a full ``2^n`` temp);
these tests pin that its answers agree with the naive scalar definition
so the gather-first form can't drift.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.backends import backend_by_name

BACKENDS = ["exact", "float"]


def make_table(backend_name, values):
    backend = backend_by_name(backend_name)
    table = backend.zeros(len(values))
    for i, v in enumerate(values):
        if v:
            table[i] = v
    return backend, table


def where_mask(size, true_at):
    where = np.zeros(size, dtype=bool)
    for i in true_at:
        where[i] = True
    return where


def oracle_any(values, where, tol):
    return any(where[i] and abs(values[i]) > tol for i in range(len(values)))


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestMaskedNonzeroHelpers:
    def test_all_false_mask(self, backend_name):
        backend, table = make_table(backend_name, [1, 2, 3, 4])
        where = where_mask(4, [])
        assert backend.any_nonzero_where(table, where, 0.0) is False

    def test_mask_selects_only_zeros(self, backend_name):
        backend, table = make_table(backend_name, [5, 0, 0, 5])
        where = where_mask(4, [1, 2])
        assert backend.any_nonzero_where(table, where, 0.0) is False

    def test_first_hit_respects_mask_not_global_order(self, backend_name):
        # index 1 is nonzero but masked out: only masked hits count
        backend, table = make_table(backend_name, [0, 9, 0, 0, 0, 7, 0, 2])
        where = where_mask(8, [0, 3, 5, 7])
        assert backend.any_nonzero_where(table, where, 0.0) is True
        where = where_mask(8, [0, 2, 3, 4, 6])
        assert backend.any_nonzero_where(table, where, 0.0) is False

    def test_tolerance_boundary_is_strict(self, backend_name):
        # |v| > tol, not >=: entries exactly at tol are not hits
        backend, table = make_table(backend_name, [0, 2, 0, 3])
        where = where_mask(4, [1, 3])
        assert backend.any_nonzero_where(table, where, 2.0) is True
        assert backend.any_nonzero_where(table, where, 3.0) is False

    def test_negative_entries_hit_through_abs(self, backend_name):
        backend, table = make_table(backend_name, [0, 0, -4, 0])
        where = where_mask(4, [2, 3])
        assert backend.any_nonzero_where(table, where, 0.0) is True
        assert backend.any_nonzero_where(table, where, 3.0) is True
        assert backend.any_nonzero_where(table, where, 4.0) is False

    def test_hit_at_last_masked_index(self, backend_name):
        backend, table = make_table(backend_name, [0] * 7 + [1])
        assert backend.any_nonzero_where(table, where_mask(8, [0, 7]), 0.0)
        assert not backend.any_nonzero_where(
            table, where_mask(8, [0, 6]), 0.0
        )

    def test_single_entry_table(self, backend_name):
        backend, table = make_table(backend_name, [3])
        assert backend.any_nonzero_where(table, where_mask(1, [0]), 0.0) is True
        assert backend.any_nonzero_where(table, where_mask(1, []), 0.0) is False

    def test_matches_scalar_oracle_on_sparse_mask(self, backend_name):
        # a larger table with a sparse mask -- the shape the violation
        # scan actually sees (lattice masks select few of 2^n entries)
        values = [0] * 64
        for i, v in [(3, 1), (17, -2), (40, 3), (41, 0), (63, -1)]:
            values[i] = v
        backend, table = make_table(backend_name, values)
        for true_at in ([], [41], [17, 41], [40, 63], list(range(0, 64, 7))):
            where = where_mask(64, true_at)
            for tol in (0.0, 1.0, 2.5):
                want = oracle_any(values, where, tol)
                assert backend.any_nonzero_where(table, where, tol) is want
