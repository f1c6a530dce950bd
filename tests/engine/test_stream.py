"""Unit tests for the incremental context and stream sessions, plus the
degenerate-input audit (empty ground set, singleton ``S``, all-zero
density) comparing engine and scalar paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ConstraintSet,
    DifferentialConstraint,
    GroundSet,
    SetFamily,
    SetFunction,
    SparseDensityFunction,
    decide,
    differential_function,
    differential_function_by_definition,
)
from repro.engine import (
    EngineConfig,
    ImplicationCache,
    IncrementalEvalContext,
    StreamSession,
    parse_transaction_log,
    recompute_tables,
)
from repro.engine.backends import EXACT, FLOAT
from repro.fis import BasketDatabase
from repro.fis.discovery import discover_cover, theory_of, zero_set
from repro.relational import FunctionalDependency, Relation, StreamingFDChecker


class TestIncrementalContext:
    def test_single_insert_violates_and_restores(self, ground_abcd):
        c = DifferentialConstraint.parse(ground_abcd, "A -> B")
        ctx = IncrementalEvalContext(ground_abcd, constraints=[c])
        flips = ctx.apply_delta(ground_abcd.parse("AC"), 1)
        assert flips == [(c, True)]
        assert ctx.violated_constraints() == (c,)
        flips = ctx.apply_delta(ground_abcd.parse("AC"), -1)
        assert flips == [(c, False)]
        assert ctx.violated_constraints() == ()

    def test_non_crossing_delta_reports_no_flip(self, ground_abcd):
        c = DifferentialConstraint.parse(ground_abcd, "A -> B")
        ctx = IncrementalEvalContext(ground_abcd, constraints=[c])
        assert ctx.apply_delta(ground_abcd.parse("AC"), 1) == [(c, True)]
        # same mask again: density 1 -> 2, still nonzero, no flip
        assert ctx.apply_delta(ground_abcd.parse("AC"), 1) == []

    def test_blocked_delta_leaves_differential_table_alone(self, ground_abcd):
        fam = SetFamily.of(ground_abcd, "B", "CD")
        ctx = IncrementalEvalContext(ground_abcd)
        table = ctx.differential_table(fam)
        before = list(table)
        # ABD contains member B -> blocked for this family
        ctx.apply_delta(ground_abcd.parse("ABD"), 5)
        assert list(ctx.differential_table(fam)) == before
        # but the density and support did move
        assert ctx.density_value(ground_abcd.parse("ABD")) == 5
        assert ctx.value(ground_abcd.parse("AB")) == 5

    def test_seed_density_not_a_stream_event(self, ground_abc):
        c = DifferentialConstraint.parse(ground_abc, "A -> B")
        ctx = IncrementalEvalContext(
            ground_abc, density={ground_abc.parse("AC"): 2}, constraints=[c]
        )
        assert ctx.is_violated(c)
        assert ctx.theory_version == 0
        assert ctx.zero_version == 0

    def test_versions_bump_only_on_flips_and_crossings(self, ground_abc):
        c = DifferentialConstraint.parse(ground_abc, "A -> B")
        ctx = IncrementalEvalContext(ground_abc, constraints=[c])
        snap = ctx.satisfied_constraints()
        zeros = ctx.zero_set()
        tv, zv = ctx.theory_version, ctx.zero_version
        # a delta on a mask outside L(A, {B}): crossing but no flip
        ctx.apply_delta(ground_abc.parse("AB"), 1)
        assert ctx.zero_version == zv + 1
        assert ctx.theory_version == tv
        assert ctx.satisfied_constraints() is snap  # fingerprint stable
        assert ctx.zero_set() is not zeros
        # a non-crossing delta: neither version moves
        zv = ctx.zero_version
        zeros = ctx.zero_set()
        ctx.apply_delta(ground_abc.parse("AB"), 1)
        assert (ctx.theory_version, ctx.zero_version) == (tv, zv)
        assert ctx.zero_set() is zeros
        # a flipping delta: both move, snapshot invalidated
        ctx.apply_delta(ground_abc.parse("AC"), 1)
        assert ctx.theory_version == tv + 1
        assert ctx.satisfied_constraints() == ()

    def test_batch_net_reporting_collapses_churn(self, ground_abc):
        c = DifferentialConstraint.parse(ground_abc, "A -> B")
        ctx = IncrementalEvalContext(ground_abc, constraints=[c])
        tv = ctx.theory_version
        ac = ground_abc.parse("AC")
        newly, restored = ctx.apply_batch([(ac, 1), (ac, -1)])
        assert newly == () and restored == ()
        # violate-then-restore within one batch is not a net change
        assert ctx.theory_version == tv

    def test_float_tolerance_crossing_matches_scalar(self, ground_abc):
        c = DifferentialConstraint.parse(ground_abc, "A -> B")
        ctx = IncrementalEvalContext(ground_abc, constraints=[c], backend="float")
        mask = ground_abc.parse("AC")
        ctx.apply_delta(mask, 5e-10)  # below DEFAULT_TOLERANCE
        f = SparseDensityFunction(ground_abc, {mask: 5e-10})
        assert c.satisfied_by(f) is True
        assert not ctx.is_violated(c)
        ctx.apply_delta(mask, 1.0)
        assert ctx.is_violated(c)

    def test_zero_set_with_foreign_tolerance_sees_subtol_residue(
        self, ground_abc
    ):
        """A tolerance finer than the context's resolves density residues
        the context itself rounds to zero (parity with the scalar path)."""
        from repro.fis.discovery import zero_set as discovery_zero_set

        ctx = IncrementalEvalContext(ground_abc, backend="float")
        mask = ground_abc.parse("AC")
        ctx.apply_delta(mask, 1e-10)  # below the context's 1e-9
        assert mask in ctx.zero_set()  # context tolerance: a zero
        assert mask not in ctx.zero_set(tol=1e-12)
        f = SparseDensityFunction(ground_abc, {mask: 1e-10})
        assert ctx.zero_set(tol=1e-12) == frozenset(
            discovery_zero_set(f, tol=1e-12)
        )

    def test_delta_affects_hook_drives_monitoring(self, ground_abc):
        """The engine fires constraint monitoring through the
        delta_affects streaming hook on the core constraint types, and
        honors a custom monitor's own hook."""
        c = DifferentialConstraint.parse(ground_abc, "A -> B")
        assert c.delta_affects(ground_abc.parse("AC"))
        assert not c.delta_affects(ground_abc.parse("AB"))
        cset = ConstraintSet(ground_abc, [c])
        assert cset.delta_affects(ground_abc.parse("AC"))

        class EverythingMonitor:
            """Duck-typed monitor violated by any nonzero density."""

            def delta_affects(self, mask):
                return True

        monitor = EverythingMonitor()
        ctx = IncrementalEvalContext(ground_abc, constraints=[monitor])
        # AB is outside L(A, {B}) but the custom hook claims it
        flips = ctx.apply_delta(ground_abc.parse("AB"), 1)
        assert flips == [(monitor, True)]

    def test_track_after_deltas_counts_existing_state(self, ground_abc):
        ctx = IncrementalEvalContext(ground_abc)
        ctx.apply_delta(ground_abc.parse("AC"), 1)
        c = DifferentialConstraint.parse(ground_abc, "A -> B")
        ctx.track(c)
        assert ctx.is_violated(c)

    def test_value_without_materialized_support(self, ground_abc):
        ctx = IncrementalEvalContext(ground_abc)
        ctx.apply_delta(ground_abc.parse("AB"), 2)
        ctx.apply_delta(ground_abc.parse("ABC"), 1)
        assert ctx.value(ground_abc.parse("A")) == 3  # sparse sum path
        assert ctx.support_table()[ground_abc.parse("A")] == 3
        assert ctx("AB") == 3

    @pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
    def test_live_density_is_sparse_at_the_dense_limit(self, backend):
        """The live density holds only its nonzero entries: at |S| = 22
        a dense float64 density table alone would be 32 MB."""
        import tracemalloc

        ground = GroundSet([f"x{i}" for i in range(22)])
        theory = ConstraintSet.of(ground, "x0 -> x1", "x2 -> x3, x4")
        tracemalloc.start()
        try:
            ctx = IncrementalEvalContext(
                ground, constraints=theory.constraints, backend=backend
            )
            for mask, delta in ((0b1, 2), (0b11, 1), (0b100, 3), (0b1, -2)):
                ctx.apply_delta(mask, delta)
            ctx.apply_delta(ground.universe_mask, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert ctx.support_size() == 3
        assert ctx.violated_constraints() == theory.constraints[1:]
        # the dense view is a scatter of the sparse items
        view = ctx.density_table()
        want = backend.scatter(1 << 22, ctx.density_items())
        assert np.array_equal(
            getattr(view, "arr", view), getattr(want, "arr", want)
        )
        assert view[0b11] == 1 and view[0b1] == 0

    def test_rejects_oversized_ground_sets(self):
        big = GroundSet([f"x{i}" for i in range(23)])
        with pytest.raises(ValueError):
            IncrementalEvalContext(big)

    def test_rejects_foreign_masks(self, ground_abc):
        ctx = IncrementalEvalContext(ground_abc)
        with pytest.raises(ValueError):
            ctx.apply_delta(1 << 5, 1)


class TestStreamSession:
    def test_transaction_log_roundtrip(self, ground_abc):
        cset = ConstraintSet.of(ground_abc, "A -> B", "B -> C")
        session = cset.stream_session()
        log = [
            "# two baskets, then churn",
            "+ AB 2",
            "commit",
            "+ AC",
            "commit",
            "= AC 0",
            "- AB",
            "commit",
        ]
        reports = session.replay(log)
        assert [r.tx for r in reports] == [1, 2, 3]
        assert [len(r.violated) for r in reports] == [1, 2, 1]
        assert session.support("AB") == 1
        assert session.transactions == 3

    def test_set_op_is_resolved_against_live_density(self, ground_abc):
        session = StreamSession(ground_abc)
        session.insert("AB", 3)
        session.apply_ops([("set", ground_abc.parse("AB"), 1)])
        assert session.context.density_value(ground_abc.parse("AB")) == 1
        # set twice within one batch: last write wins
        session.apply_ops(
            [
                ("set", ground_abc.parse("AB"), 5),
                ("set", ground_abc.parse("AB"), 2),
            ]
        )
        assert session.context.density_value(ground_abc.parse("AB")) == 2

    def test_parse_rejects_bad_lines(self, ground_abc):
        with pytest.raises(ValueError):
            parse_transaction_log(ground_abc, ["* AB"])
        with pytest.raises(ValueError):
            parse_transaction_log(ground_abc, ["= AB"])
        with pytest.raises(ValueError):
            parse_transaction_log(ground_abc, ["+ AB -2"])
        with pytest.raises(ValueError):
            parse_transaction_log(ground_abc, ["= AB -3"])

    def test_implicit_final_commit(self, ground_abc):
        batches = parse_transaction_log(ground_abc, ["+ AB", "commit", "+ C"])
        assert len(batches) == 2

    def test_decider_reuses_satisfied_snapshot_across_benign_deltas(
        self, ground_abc
    ):
        """The fingerprint-keyed decider cache is only 'invalidated'
        (i.e. a fresh satisfied-set fingerprint appears) on status
        flips, not on benign deltas."""
        cset = ConstraintSet.of(ground_abc, "A -> B", "B -> C")
        session = cset.stream_session(cache=ImplicationCache())
        session.insert("AB")  # violates B -> C, leaves A -> B satisfied
        ctx = session.context
        target = DifferentialConstraint.parse(ground_abc, "A -> B, C")
        first = ConstraintSet(ground_abc, session.satisfied_constraints())
        assert decide(first, target, method="engine", context=ctx)
        stats_before = ctx.cache.stats()
        session.insert("AB")  # no crossing, no flip
        second = ConstraintSet(ground_abc, session.satisfied_constraints())
        assert decide(second, target, method="engine", context=ctx)
        stats_after = ctx.cache.stats()
        # same fingerprints -> pure cache hits, nothing recomputed
        assert stats_after["misses"] == stats_before["misses"]
        assert stats_after["hits"] > stats_before["hits"]

    def test_basket_session_support_equals_database(self, ground_abc):
        db = BasketDatabase.of(ground_abc, "AB", "AB", "ABC", "C", "BC")
        session = db.stream_session()
        for mask in ground_abc.all_masks():
            assert session.value(mask) == db.support(mask)
        session.insert("BC")
        db2 = db.extended(["BC"])
        for mask in ground_abc.all_masks():
            assert session.value(mask) == db2.support(mask)

    def test_discovery_over_growing_baskets(self, ground_abc):
        db = BasketDatabase.of(ground_abc, "AB", "ABC")
        session = db.stream_session()
        assert zero_set(session) == zero_set(db.support_function())
        assert theory_of(session) == theory_of(db.support_function())
        session.insert("C")
        db2 = db.extended(["C"])
        assert zero_set(session) == zero_set(db2.support_function())
        cover = discover_cover(session)
        assert cover.equivalent_to(discover_cover(db2))


class TestStreamingFDChecker:
    def test_insert_delete_parity_with_relation_checks(self, ground_abc):
        fds = [
            FunctionalDependency.of(ground_abc, "A", "B"),
            FunctionalDependency.of(ground_abc, "B", "C"),
        ]
        chk = StreamingFDChecker(ground_abc, fds)
        rows = [(0, 0, 0), (0, 0, 1), (1, 1, 0), (0, 1, 0)]
        present = []
        for row in rows:
            chk.insert(row)
            present.append(row)
            rel = Relation(ground_abc, present)
            want = {fd for fd in fds if not fd.satisfied_by(rel)}
            assert set(chk.violated_fds()) == want
        while present:
            row = present.pop()
            chk.delete(row)
            rel = Relation(ground_abc, present)
            want = {fd for fd in fds if not fd.satisfied_by(rel)}
            assert set(chk.violated_fds()) == want
        assert len(chk) == 0

    def test_reports_name_the_flipping_fd(self, ground_abc):
        fd = FunctionalDependency.of(ground_abc, "A", "B")
        chk = StreamingFDChecker(ground_abc, [fd])
        chk.insert((0, 0, 0))
        report = chk.insert((0, 1, 0))  # agree on A (and C), differ on B
        assert [chk.fd_of(c) for c in report.newly_violated] == [fd]
        report = chk.delete((0, 1, 0))
        assert [chk.fd_of(c) for c in report.restored] == [fd]

    def test_duplicate_rows_and_to_relation(self, ground_abc):
        fd = FunctionalDependency.of(ground_abc, "A", "B")
        chk = StreamingFDChecker(ground_abc, [fd])
        chk.insert((0, 0, 0))
        chk.insert((0, 0, 0))
        assert len(chk) == 2
        assert not chk.violated_fds()  # identical rows violate nothing
        # Relation has set semantics: the duplicate collapses
        assert len(chk.to_relation()) == 1
        with pytest.raises(ValueError):
            chk.delete((1, 1, 1))

    def test_arity_checked(self, ground_abc):
        chk = StreamingFDChecker(ground_abc, [])
        with pytest.raises(ValueError):
            chk.insert((0, 0))


class TestDegenerateAudit:
    """Engine vs scalar paths on the paper's degenerate corners."""

    EMPTY = GroundSet("")
    SINGLE = GroundSet("A")

    @pytest.mark.parametrize("exact", [True, False])
    def test_empty_ground_set_differentials(self, exact):
        ground = self.EMPTY
        f = SetFunction(ground, [7], exact=exact)
        for members in ([], [0]):
            fam = SetFamily(ground, members)
            batched = differential_function(f, fam)
            scalar = differential_function_by_definition(f, fam)
            assert batched.table() == scalar.table()
        assert f.density().value(0) == 7

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_empty_ground_set_streaming(self, backend):
        ground = self.EMPTY
        # the only nontrivial constraint: (/) -> {} with empty family
        c = DifferentialConstraint(ground, 0, SetFamily(ground))
        session = StreamSession(
            ground, [c], config=EngineConfig(backend=backend)
        )
        report = session.apply([(0, 1)])
        assert report.newly_violated == (c,)
        f = SetFunction.from_density(ground, {0: 1}, exact=backend == "exact")
        assert not c.satisfied_by(f)
        report = session.apply([(0, -1)])
        assert report.restored == (c,)
        density, support, diffs = recompute_tables(
            0, session.context.density_items(), [()], session.context.backend
        )
        assert list(density) == [0] and list(support) == [0]

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_singleton_ground_set_parity(self, backend):
        ground = self.SINGLE
        exact = backend == "exact"
        # Remark 3.6's setting: S = {A}; constraint (/) -> {A}
        c = DifferentialConstraint.parse(ground, " -> A")
        ctx = IncrementalEvalContext(ground, constraints=[c], backend=backend)
        ctx.support_table()
        ctx.differential_table(c.family)
        for mask, delta in [(0, 1), (1, 2), (0, -1), (1, -2)]:
            ctx.apply_delta(mask, delta)
            f = SetFunction.from_density(
                ground, dict(ctx.density_items()), exact=exact
            )
            assert ctx.is_violated(c) == (not c.satisfied_by(f))
            want = differential_function_by_definition(f, c.family)
            got = ctx.differential_table(c.family)
            assert list(got) == list(want.table())

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_all_zero_density_satisfies_everything(self, backend):
        ground = GroundSet("ABC")
        constraints = [
            DifferentialConstraint.parse(ground, "A -> B"),
            DifferentialConstraint.parse(ground, " -> A, BC"),
            DifferentialConstraint.parse(ground, "AB ->"),
        ]
        ctx = IncrementalEvalContext(
            ground, constraints=constraints, backend=backend
        )
        # churn that cancels back to the zero function
        for mask in ground.all_masks():
            ctx.apply_delta(mask, 2)
        for mask in ground.all_masks():
            ctx.apply_delta(mask, -2)
        assert ctx.violated_constraints() == ()
        assert ctx.zero_set() == frozenset(ground.all_masks())
        zero = SetFunction.zeros(ground, exact=backend == "exact")
        for c in constraints:
            assert c.satisfied_by(zero)
        assert list(ctx.support_table()) == list(zero.table())

    def test_zero_function_theory_is_everything(self):
        ground = GroundSet("AB")
        session = StreamSession(ground)
        theory = theory_of(session)
        # every constraint is implied by the full atomic theory
        target = DifferentialConstraint.parse(ground, "A -> B")
        assert decide(theory, target)
