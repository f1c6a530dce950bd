"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main, parse_basket_file, parse_constraint_file


@pytest.fixture
def constraint_file(tmp_path):
    path = tmp_path / "constraints.txt"
    path.write_text(
        "# example 3.4\n"
        "ABC\n"
        "\n"
        "A -> B\n"
        "B -> C\n"
    )
    return str(path)


@pytest.fixture
def basket_file(tmp_path):
    path = tmp_path / "baskets.txt"
    path.write_text(
        "ABC\n"
        "AB\nAB\nABC\nC\nBC\n"
    )
    return str(path)


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParsing:
    def test_constraint_file(self):
        ground, cset = parse_constraint_file(
            ["# comment", "ABCD", "A -> B, CD", "", "C -> D"]
        )
        assert ground.size == 4
        assert len(cset) == 2

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            parse_constraint_file(["", "# only comments"])

    def test_basket_file(self):
        ground, db = parse_basket_file(["AB", "A", "AB", "B"])
        assert len(db) == 3
        assert db.support(ground.parse("A")) == 2


class TestImplies:
    def test_implied(self, constraint_file):
        code, text = _run(["implies", constraint_file, "A -> C"])
        assert code == 0
        assert "IMPLIED" in text and "NOT" not in text

    def test_not_implied_with_counterexample(self, constraint_file):
        code, text = _run(
            ["implies", constraint_file, "C -> A", "--counterexample"]
        )
        assert code == 1
        assert "NOT IMPLIED" in text
        assert "counterexample" in text

    def test_methods(self, constraint_file):
        for method in ("engine", "lattice", "sat", "fd"):
            code, _ = _run(
                ["implies", constraint_file, "A -> C", "--method", method]
            )
            assert code == 0

    def test_counterexample_without_backend_checks_exact(self, constraint_file):
        code, text = _run(
            ["implies", constraint_file, "C -> A", "--counterexample"]
        )
        assert code == 1
        assert "witness checked on the exact backend: ok" in text

    def test_bad_file(self):
        code, text = _run(["implies", "/nonexistent/file", "A -> B"])
        assert code == 2
        assert "error:" in text


class TestPlan:
    def test_one_shot_plan(self, constraint_file):
        # the backend is exact unless pinned, so the plan is the method
        # `implies` takes, with the cost model's reason
        code, text = _run(["plan", constraint_file])
        assert code == 0
        assert "plan: implies method=fd: " in text
        assert "backend" not in text

    def test_explain_prints_the_cost_model(self, constraint_file, tmp_path):
        # the plan line carries the cost model's reason for its method
        code, text = _run(["plan", constraint_file])
        assert code == 0
        assert "P-time FD fragment" in text
        general = tmp_path / "general.txt"
        general.write_text("ABCD\nA -> B, CD\n")
        code, text = _run(["plan", str(general)])
        assert code == 0
        assert "plan: implies method=engine: |S|=4 <= dense limit 22" in text

    @pytest.mark.parametrize(
        "command", ["implies", "plan", "stream", "serve", "fleet"]
    )
    def test_engine_flag_exits_2(
        self, command, constraint_file, log_file, query_file, capsys,
        monkeypatch,
    ):
        """The question fixes the context, so no subcommand takes a
        tier request any more (fleet no longer forwards one either)."""
        from repro.engine import fleet

        def must_not_boot(*args, **kwargs):
            raise AssertionError("the fleet booted")

        monkeypatch.setattr(fleet, "FleetService", must_not_boot)
        extra = {
            "implies": ["A -> C"],
            "plan": [],
            "stream": [log_file],
            "serve": [query_file],
            "fleet": [],
        }[command]
        with pytest.raises(SystemExit) as err:
            _run([command, constraint_file, *extra, "--engine", "auto"])
        assert err.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_plan_baskets_exits_2(self, constraint_file, basket_file, capsys):
        # live and one-shot work share one backend rule: nothing to plan
        with pytest.raises(SystemExit) as err:
            _run(["plan", constraint_file, "--baskets", basket_file])
        assert err.value.code == 2
        assert "--baskets" in capsys.readouterr().err

    def test_bitset_method_exits_2(self, constraint_file, capsys):
        # folded into --method engine (the same cached L(C) table)
        with pytest.raises(SystemExit) as err:
            _run(["implies", constraint_file, "A -> C", "--method", "bitset"])
        assert err.value.code == 2
        assert "bitset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["implies", "plan", "stream", "serve"]
    )
    @pytest.mark.parametrize(
        "flags",
        [
            ["--engine", "sharded"],
            ["--shards", "2"],
            ["--workers", "2"],
            ["--backend", "float"],
            ["--calibrate"],
            ["--recalibrate"],
            ["--explain"],
        ],
    )
    def test_removed_engine_flags_exit_2(
        self, command, flags, constraint_file, log_file, query_file, capsys
    ):
        extra = {
            "implies": ["A -> C"],
            "plan": [],
            "stream": [log_file],
            "serve": [query_file],
        }[command]
        with pytest.raises(SystemExit) as err:
            _run([command, constraint_file, *extra, *flags])
        assert err.value.code == 2
        assert flags[0] in capsys.readouterr().err


class TestDerive:
    def test_derivation_printed(self, constraint_file):
        code, text = _run(["derive", constraint_file, "A -> C"])
        assert code == 0
        assert "given" in text
        assert "checked" in text

    def test_primitive_mode(self, constraint_file):
        code, text = _run(
            ["derive", constraint_file, "A -> C", "--primitive"]
        )
        assert code == 0
        for macro in ("projection", "transitivity", "union", "chain"):
            assert macro not in text

    def test_refusal(self, constraint_file):
        code, text = _run(["derive", constraint_file, "C -> A"])
        assert code == 1
        assert "NOT IMPLIED" in text


class TestClosure:
    def test_closure_output(self, constraint_file):
        code, text = _run(["closure", constraint_file])
        assert code == 0
        assert "atomic closure" in text
        assert "minimal cover" in text

    def test_cover_drops_redundant(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("ABC\nA -> B\nB -> C\nA -> C\n")
        code, text = _run(["closure", str(path)])
        assert code == 0
        assert "minimal cover (2 of 3" in text

    def test_empty_closure_marked(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("ABC\nAB -> B\n")  # only a trivial constraint
        code, text = _run(["closure", str(path)])
        assert code == 0
        assert "(empty)" in text


class TestMine:
    def test_apriori_mode(self, basket_file):
        code, text = _run(["mine", basket_file, "--minsupport", "2"])
        assert code == 0
        assert "frequent itemsets" in text
        assert "AB" in text

    def test_concise_mode(self, basket_file):
        code, text = _run(
            ["mine", basket_file, "--minsupport", "2", "--concise"]
        )
        assert code == 0
        assert "FDFree" in text

    def test_stdin_not_required_for_files(self, basket_file):
        code, _ = _run(["mine", basket_file])
        assert code == 0


class TestDiscover:
    def test_rules_printed(self, basket_file):
        code, text = _run(["discover", basket_file])
        assert code == 0
        assert "minimal disjunctive rules" in text

    def test_cover_flag(self, basket_file):
        code, text = _run(["discover", basket_file, "--cover"])
        assert code == 0
        assert "differential-theory cover" in text
        assert "->" in text

    def test_perfect_correlation_discovered(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("ABC\nAB\nAB\nABC\nC\n")
        code, text = _run(["discover", str(path), "--rule-width", "1"])
        assert code == 0
        assert "A =>disj {B}" in text
        assert "B =>disj {A}" in text


@pytest.fixture
def log_file(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text(
        "# violate A -> B, then heal it\n"
        "+ AC 2\n"
        "commit\n"
        "= AC 0   # update: retract both rows\n"
        "+ AB\n"
        "commit\n"
    )
    return str(path)


class TestStream:
    def test_output_stamped_with_engine_config(self, constraint_file, log_file):
        code, text = _run(["stream", constraint_file, log_file])
        assert "# engine: backend=exact\n" in text

    def test_replay_reports_flips(self, constraint_file, log_file):
        code, text = _run(["stream", constraint_file, log_file])
        assert "# engine: backend=exact\n" in text
        assert "tx 1: +1 violated" in text
        assert "violated: A -> {B}" in text
        assert "tx 2:" in text and "restored: A -> {B}" in text
        # tx 2 inserts AB, which violates B -> C
        assert "violated: B -> {C}" in text
        assert "final: 1/2 constraints violated" in text
        assert code == 1

    def test_clean_stream_exits_zero(self, constraint_file, tmp_path):
        log = tmp_path / "clean.txt"
        log.write_text("+ ABC 3\ncommit\n")
        code, text = _run(["stream", constraint_file, str(log)])
        assert code == 0
        assert "final: 0/2 constraints violated" in text

    def test_basket_seed_and_float_backend(self, constraint_file, basket_file, tmp_path):
        log = tmp_path / "log.txt"
        log.write_text("- AB\n- AB\n- C\n- BC\ncommit\n")
        code, text = _run(
            ["stream", constraint_file, str(log), "--baskets", basket_file]
        )
        assert "# engine: backend=exact\n" in text
        # the AB baskets violate B -> C at seed time (A -> B holds)
        assert "seeded 5 rows; 1/2 constraints violated" in text
        # removing every basket except ABC restores it
        assert "restored: B -> {C}" in text
        assert "final: 0/2 constraints violated" in text
        assert code == 0

    def test_ground_set_mismatch_rejected(self, constraint_file, tmp_path):
        baskets = tmp_path / "other.txt"
        baskets.write_text("AB\nAB\n")
        log = tmp_path / "log.txt"
        log.write_text("+ AB\ncommit\n")
        code, text = _run(
            ["stream", constraint_file, str(log), "--baskets", str(baskets)]
        )
        assert code == 2
        assert "error" in text

    def test_bad_log_line_is_an_error(self, constraint_file, tmp_path):
        log = tmp_path / "log.txt"
        log.write_text("* AB\n")
        code, text = _run(["stream", constraint_file, str(log)])
        assert code == 2
        assert "error" in text


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "queries.txt"
    path.write_text(
        "# implied twice (a cache hit), then an instance check\n"
        "A -> C\n"
        "implies A -> C\n"
        "check A -> B\n"
        "check B -> C\n"
        "implies C -> A\n"
    )
    return str(path)


class TestServe:
    def test_check_without_instance_is_an_error(
        self, constraint_file, query_file
    ):
        code, text = _run(["serve", constraint_file, query_file])
        assert code == 2
        assert "no live instance" in text

    def test_full_serving_with_instance(
        self, constraint_file, query_file, basket_file
    ):
        code, text = _run(
            ["serve", constraint_file, query_file, "--baskets", basket_file]
        )
        assert "# engine: backend=exact\n" in text
        assert text.count("IMPLIED: A -> {C}") == 2
        assert "NOT IMPLIED: C -> {A}" in text
        # the AB baskets violate B -> C; A -> B holds on the instance
        assert "SATISFIED: A -> {B}" in text
        assert "VIOLATED: B -> {C}" in text
        assert "# served 5 queries: 1 cache hits, 4 computed\n" in text
        assert code == 1  # some answers were negative

    def test_unpinned_baskets_run_exact_at_twenty_elements(self, tmp_path):
        # the live instance is exact at every dense-capable size unless
        # pinned, and the CLI has no pin
        items = "ABCDEFGHIJKLMNOPQRST"
        constraints = tmp_path / "big.txt"
        constraints.write_text(f"{items}\nA -> B\n")
        baskets = tmp_path / "big_baskets.txt"
        baskets.write_text(f"{items}\nAB\nABT\nA\n")
        queries = tmp_path / "big_queries.txt"
        queries.write_text("check A -> B\nimplies A -> B\n")
        code, text = _run([
            "serve", str(constraints), str(queries),
            "--baskets", str(baskets),
        ])
        assert "# engine: backend=exact\n" in text
        assert "VIOLATED: A -> {B}" in text
        assert code == 1

    def test_all_positive_exits_zero(self, constraint_file, tmp_path):
        queries = tmp_path / "q.txt"
        queries.write_text("A -> B\nA -> C\nB -> C\n")
        code, text = _run(["serve", constraint_file, str(queries)])
        assert code == 0
        assert "NOT IMPLIED" not in text

    def test_coalescing_visible_in_stats(self, constraint_file, tmp_path):
        # 8 identical queries coalesce into one computation via the LRU
        queries = tmp_path / "q.txt"
        queries.write_text("A -> C\n" * 8)
        code, text = _run(["serve", constraint_file, str(queries)])
        assert code == 0
        assert "# served 8 queries: 7 cache hits, 1 computed\n" in text

    def test_bad_query_line_is_an_error(self, constraint_file, tmp_path):
        queries = tmp_path / "q.txt"
        queries.write_text("A -> Z\n")  # Z is not in the ground set
        code, text = _run(["serve", constraint_file, str(queries)])
        assert code == 2
        assert "error" in text

    def test_removed_max_delay_exits_2(
        self, constraint_file, query_file, capsys
    ):
        """Queries are answered inline: the microbatch window, the batch
        bound and their knobs are gone from every layer, not ignored."""
        from repro.engine import ConstraintServer, ReproService

        for flag in ("--max-delay", "--batch-size"):
            with pytest.raises(SystemExit) as err:
                _run(["serve", constraint_file, query_file, flag, "2"])
            assert err.value.code == 2
            assert flag in capsys.readouterr().err
        _, cset = parse_constraint_file(["ABC", "A -> B"])
        for kwarg, value in (("max_delay", 0.002), ("max_batch", 2)):
            with pytest.raises(TypeError, match=kwarg):
                ConstraintServer(cset, **{kwarg: value})
            with pytest.raises(TypeError, match=kwarg):
                ReproService(cset, **{kwarg: value})


class TestStreamDurable:
    def test_replay_resumes_across_runs(self, constraint_file, tmp_path):
        data = str(tmp_path / "data")
        log1 = tmp_path / "log1.txt"
        log1.write_text("+ AB 2\ncommit\n+ A\ncommit\n")
        log2 = tmp_path / "log2.txt"
        log2.write_text("- A\ncommit\n")
        code, text = _run(
            ["stream", constraint_file, str(log1), "--data-dir", data]
        )
        assert "# snapshotted tx 2" in text
        code, text = _run(
            ["stream", constraint_file, str(log2), "--data-dir", data]
        )
        assert "recovered 2 transaction(s)" in text
        assert "tx 3:" in text and "restored: A -> {B}" in text

    def test_snapshot_every_flag(self, constraint_file, tmp_path):
        import os

        data = str(tmp_path / "data")
        log = tmp_path / "log.txt"
        log.write_text("+ AB\ncommit\n" * 4)
        _run(["stream", constraint_file, str(log), "--data-dir", data,
              "--snapshot-every", "2", "--fsync", "never"])
        snapshots = [f for f in os.listdir(data) if f.startswith("snapshot-")]
        assert f"snapshot-{4:016d}.json" in snapshots


class TestServeNetwork:
    def test_batch_mode_without_queries_is_an_error(self, constraint_file):
        code, text = _run(["serve", constraint_file])
        assert code == 2
        assert "--port" in text

    def test_network_mode_serves_and_recovers(self, constraint_file, tmp_path):
        import threading

        from repro.engine.net import ReproClient

        data = str(tmp_path / "data")
        ports = []

        def run_service(out_lines):
            import io

            class PortGrabber(io.StringIO):
                def write(self, text):
                    for line in text.splitlines():
                        if line.startswith("# listening on"):
                            ports.append(int(line.rsplit(":", 1)[1]))
                    return super().write(text)

            out = PortGrabber()
            code = main(
                ["serve", constraint_file, "--port", "0",
                 "--data-dir", data, "--snapshot-every", "2"],
                out=out,
            )
            out_lines.append((code, out.getvalue()))

        for round_no in range(2):
            results = []
            thread = threading.Thread(
                target=run_service, args=(results,), daemon=True
            )
            thread.start()
            deadline = 30.0
            import time

            waited = 0.0
            while len(ports) <= round_no and waited < deadline:
                time.sleep(0.02)
                waited += 0.02
            assert len(ports) > round_no, "service never printed its port"
            client = ReproClient("127.0.0.1", ports[round_no])
            client.wait_ready(timeout=10)
            if round_no == 0:
                client.delta(["+ AB 3"])
                client.delta(["+ A"])
                assert client.check("A -> B") is False
                assert client.implies("A -> C") is True
            else:
                health = client.health()
                assert health["transactions"] == 2  # recovered
                assert client.probe("AB") == 3
            client.shutdown()
            thread.join(timeout=30)
            assert not thread.is_alive()
            code, text = results[0]
            assert code == 0
            assert "# listening on 127.0.0.1:" in text
            assert "# drained after 2 transaction(s)" in text
            if round_no == 1:
                assert "recovered 2 transaction(s)" in text
