"""Documentation hygiene: the checks tools/check_docs.py enforces in
the CI docs job, plus negative tests proving the checker actually
catches the problems it claims to."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tools"))

import check_docs  # noqa: E402


class TestRepoDocsAreClean:
    def test_no_dangling_links(self):
        assert check_docs.check_links() == []

    def test_no_stale_path_references(self):
        assert check_docs.check_path_refs() == []

    def test_no_orphan_docs(self):
        assert check_docs.check_orphans() == []

    def test_docs_doctest_snippets_run(self):
        assert check_docs.run_doctests() == []

    def test_no_cli_verb_drift(self):
        assert check_docs.check_cli_verbs() == []

    def test_no_knob_drift(self):
        assert check_docs.check_knobs() == []

    def test_kernel_lookups_name_registered_kernels(self):
        assert check_docs.check_kernel_names() == []

    def test_index_lists_every_doc(self):
        index = (check_docs.REPO / "docs" / "INDEX.md").read_text()
        for doc in (check_docs.REPO / "docs").glob("*.md"):
            if doc.name != "INDEX.md":
                assert doc.name in index, f"{doc.name} missing from INDEX.md"

    def test_readme_links_docs_index(self):
        readme = (check_docs.REPO / "README.md").read_text()
        assert "docs/INDEX.md" in readme

    def test_cli_is_green(self, capsys):
        assert check_docs.main(["--no-doctest"]) == 0
        assert "0 problem(s)" in capsys.readouterr().out


class TestCheckerCatchesProblems:
    def test_dangling_link_detected(self, tmp_path):
        doc = tmp_path / "bad.md"
        doc.write_text("see [missing](does-not-exist.md) for details")
        errors = check_docs.check_links([doc])
        assert len(errors) == 1
        assert "does-not-exist.md" in errors[0]

    def test_external_and_anchor_links_skipped(self, tmp_path):
        doc = tmp_path / "ok.md"
        doc.write_text(
            "[perfetto](https://ui.perfetto.dev) and [below](#section)"
        )
        assert check_docs.check_links([doc]) == []

    def test_stale_path_reference_detected(self, tmp_path):
        doc = tmp_path / "bad.md"
        doc.write_text("see `docs/NO_SUCH_DOC.md` and `tests/test_docs.py`")
        errors = check_docs.check_path_refs([doc])
        assert len(errors) == 1
        assert "NO_SUCH_DOC" in errors[0]

    def test_repro_shorthand_resolves_under_src(self, tmp_path):
        doc = tmp_path / "ok.md"
        doc.write_text("events live in `repro/verify/events.py`")
        assert check_docs.check_path_refs([doc]) == []

    def test_pytest_node_ids_allowed(self, tmp_path):
        doc = tmp_path / "ok.md"
        doc.write_text("pinned by `tests/test_obs.py::TestExporters`")
        assert check_docs.check_path_refs([doc]) == []

    def test_failing_doctest_block_detected(self, tmp_path):
        doc = tmp_path / "bad.md"
        doc.write_text("```python\n>>> 1 + 1\n3\n```\n")
        errors = check_docs.run_doctests([doc])
        assert len(errors) == 1
        assert "doctest failure" in errors[0]

    def test_prose_only_python_blocks_not_executed(self, tmp_path):
        doc = tmp_path / "ok.md"
        doc.write_text("```python\nthis_would_raise()\n```\n")
        assert list(check_docs.doctest_blocks([doc])) == []
        assert check_docs.run_doctests([doc]) == []

    def test_stale_cli_verb_detected(self, tmp_path):
        doc = tmp_path / "bad.md"
        doc.write_text("run `python -m repro frobnicate` to frob")
        errors = check_docs.check_cli_verbs([doc])
        assert len(errors) == 1
        assert "frobnicate" in errors[0]

    def test_unregistered_kernel_lookup_detected(self, tmp_path):
        doc = tmp_path / "bad.py"
        doc.write_text(
            'KERNELS["histogram"](4)\n'
            "KERNELS['canneal'](4)\n"
        )
        errors = check_docs.check_kernel_names([doc])
        assert len(errors) == 1
        assert "histogram" in errors[0]

    def test_live_verbs_come_from_the_parser(self, tmp_path):
        verbs = check_docs.live_verbs()
        for verb in ("run", "sweep", "report", "serve"):
            assert verb in verbs
        # A doc mentioning only live verbs produces no errors.
        doc = tmp_path / "ok.md"
        doc.write_text(
            " and ".join(f"`python -m repro {v}`" for v in sorted(verbs))
        )
        assert check_docs.check_cli_verbs([doc]) == []

    def test_unknown_knob_detected(self, tmp_path):
        doc = tmp_path / "bad.md"
        doc.write_text("set REPRO_NO_SUCH_KNOB=1 to speed things up")
        errors = check_docs.check_knobs([doc])
        assert len(errors) == 1
        assert "REPRO_NO_SUCH_KNOB" in errors[0]

    def test_known_knob_passes(self, tmp_path):
        doc = tmp_path / "ok.md"
        doc.write_text("export REPRO_WORKERS=4 and REPRO_CACHE_DIR=/tmp")
        assert check_docs.check_knobs([doc]) == []


class TestPublicApiDocstrings:
    """The docstring pass: public entry points carry runnable examples."""

    @pytest.mark.parametrize("obj_path", [
        "repro.api",
        "repro.obs",
    ])
    def test_module_docstrings_exist(self, obj_path):
        import importlib

        mod = importlib.import_module(obj_path)
        assert mod.__doc__ and len(mod.__doc__) > 200

    def test_api_observe_has_doctest(self):
        from repro import api

        assert ">>>" in api.observe.__doc__

    def test_checker_suite_has_doctest(self):
        from repro.verify import CheckerSuite

        assert ">>>" in CheckerSuite.__doc__
