"""Documentation stays executable: run the code blocks in the docs.

Extracts every ```python fenced block from README.md, docs/TUTORIAL.md,
docs/ARCHITECTURE.md and docs/OPERATIONS.md and executes them
cumulatively in one namespace per file, so the documented snippets can
never drift from the library.
"""

import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _python_blocks(path):
    with open(path) as fh:
        text = fh.read()
    return _FENCE.findall(text)


def _run_blocks(path):
    namespace = {}
    blocks = _python_blocks(path)
    assert blocks, f"no python blocks found in {path}"
    for i, block in enumerate(blocks):
        try:
            exec(compile(block, f"{path}#block{i}", "exec"), namespace)
        except Exception as err:  # pragma: no cover - the assert explains
            raise AssertionError(
                f"documentation block {i} in {os.path.basename(path)} "
                f"failed: {err}\n--- block ---\n{block}"
            ) from err
    return namespace


class TestReadme:
    def test_quickstart_block_runs(self):
        namespace = _run_blocks(os.path.join(ROOT, "README.md"))
        assert "proof" in namespace

    def test_quickstart_claims_true(self):
        namespace = _run_blocks(os.path.join(ROOT, "README.md"))
        C = namespace["C"]
        assert C.implies("A -> CD") is True
        assert C.implies("C -> A") is False


class TestTutorial:
    def test_all_blocks_run(self):
        namespace = _run_blocks(os.path.join(ROOT, "docs", "TUTORIAL.md"))
        # spot-check a few documented claims
        assert namespace["f"]("A") == 3
        assert namespace["C"].implies("A -> CD") is True
        assert namespace["proof"].conclusion is not None

    def test_tutorial_mentions_every_subpackage(self):
        with open(os.path.join(ROOT, "docs", "TUTORIAL.md")) as fh:
            text = fh.read()
        for package in ("repro.core", "repro.fis", "repro.relational",
                        "repro.logic", "repro.measures", "repro.equivalence",
                        "repro.engine"):
            assert package in text, package

    def test_streaming_section_exercises_the_session(self):
        namespace = _run_blocks(os.path.join(ROOT, "docs", "TUTORIAL.md"))
        session = namespace["session"]
        assert session.transactions == 2
        assert session.violated_constraints() == ()
        assert namespace["checker"].violated_fds() == ()

    def test_server_section_exercises_the_answer_cache(self):
        namespace = _run_blocks(os.path.join(ROOT, "docs", "TUTORIAL.md"))
        assert namespace["server_answers"] == [True, True, False]
        stats = namespace["server_stats"]
        assert stats.requests == 3
        assert (stats.cache_hits, stats.computed) == (1, 2)

    def test_service_section_exercises_durability_and_the_wire(self):
        namespace = _run_blocks(os.path.join(ROOT, "docs", "TUTORIAL.md"))
        # the durable session recovered the acknowledged stream
        assert namespace["recovered_support"] == 4
        assert namespace["reopened"].transactions == 2
        # the wire protocol served a delta that flipped a status
        assert namespace["client_violations"] == ["A -> {B}"]
        assert namespace["client_stats"]["requests"] >= 2
        # and the tutorial removed its own data dir
        assert not os.path.exists(namespace["data_dir"])


class TestArchitecture:
    def test_all_blocks_run(self):
        namespace = _run_blocks(os.path.join(ROOT, "docs", "ARCHITECTURE.md"))
        # the planner example resolved the documented method, and the
        # live examples ran on the documented backends
        assert namespace["method"] == "engine"
        assert namespace["streaming"].context.backend.name == "exact"
        assert namespace["pinned"].context.backend.name == "float"
        # the ring examples exercised the fleet layer
        assert namespace["ring"].route("tenant-a") in {0, 1, 2, 3}
        # the shipping example recovered both acknowledged transactions
        assert namespace["recovered"].tx == 2

    def test_page_covers_every_engine_module(self):
        with open(os.path.join(ROOT, "docs", "ARCHITECTURE.md")) as fh:
            text = fh.read()
        for module in ("batch", "backends", "decider", "context", "plan",
                       "incremental", "stream", "server", "persist",
                       "net", "quota", "fleet"):
            assert f"repro.engine.{module}" in text, module


class TestOperations:
    def test_all_blocks_run(self):
        namespace = _run_blocks(os.path.join(ROOT, "docs", "OPERATIONS.md"))
        # the quota example showed the /stats block operators read
        assert namespace["stats"]["tenants"]["acme"]["admitted"] == 1
        # the takeover example recovered exactly the acknowledged prefix
        assert namespace["acknowledged"] == 2

    def test_runbook_documents_the_status_codes(self):
        with open(os.path.join(ROOT, "docs", "OPERATIONS.md")) as fh:
            text = fh.read()
        for needle in ("429", "503", "Retry-After", "--takeover",
                       "--ship-to", "/healthz", "/stats",
                       "--quota-rate", "--snapshot-every", "--fsync"):
            assert needle in text, needle


class TestDurableServiceExample:
    def test_example_runs_end_to_end(self, capsys):
        import runpy

        runpy.run_path(
            os.path.join(ROOT, "examples", "durable_service.py"),
            run_name="__main__",
        )
        out = capsys.readouterr().out
        assert "recovered answers match the acknowledged state" in out
        assert "streamed on after recovery" in out
        assert "done (data dir removed)" in out
