"""The docs gate: green on the repo itself, red on seeded violations."""

from __future__ import annotations

import importlib.util
import os
import pathlib
import sys

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
TOOL_PATH = os.path.join(REPO_ROOT, "tools", "check_docs.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


@pytest.fixture()
def repo(tmp_path):
    """A minimal healthy repo tree the violation tests then break."""
    (tmp_path / "src" / "repro" / "alpha").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "alpha" / "__init__.py").write_text("")
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "api.md").write_text("# API\n\n## `repro.alpha`\n\nstuff\n")
    (tmp_path / "README.md").write_text("# Readme\n\nSee [api](docs/api.md).\n")
    return tmp_path


class TestRealRepo:
    def test_gate_passes_on_this_repository(self, capsys):
        assert tool.main(["--root", REPO_ROOT, "--skip-snippets"]) == 0
        out = capsys.readouterr().out
        assert "api coverage: OK" in out and "links: OK" in out
        assert "references: OK" in out and "citations: OK" in out

    def test_every_public_package_is_documented(self):
        assert tool.check_api_coverage(pathlib.Path(REPO_ROOT)) == []

    def test_repo_docs_contain_runnable_snippets(self):
        docs = pathlib.Path(REPO_ROOT) / "docs"
        found = [s for doc in docs.glob("*.md")
                 for s in tool.python_snippets(doc)]
        assert found, "docs/ should carry at least one executable example"


class TestApiCoverage:
    def test_healthy_tree_passes(self, repo):
        assert tool.check_api_coverage(repo) == []

    def test_undocumented_package_fails(self, repo):
        pkg = repo / "src" / "repro" / "beta"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        failures = tool.check_api_coverage(repo)
        assert len(failures) == 1 and "repro.beta" in failures[0]

    def test_private_and_plain_dirs_ignored(self, repo):
        (repo / "src" / "repro" / "_internal").mkdir()
        (repo / "src" / "repro" / "_internal" / "__init__.py").write_text("")
        (repo / "src" / "repro" / "notapkg").mkdir()  # no __init__.py
        assert tool.check_api_coverage(repo) == []

    def test_missing_api_md_fails(self, repo):
        (repo / "docs" / "api.md").unlink()
        assert tool.check_api_coverage(repo) == ["docs/api.md is missing"]


class TestLinks:
    def test_healthy_tree_passes(self, repo):
        assert tool.check_links(repo) == []

    def test_broken_file_link_fails(self, repo):
        (repo / "docs" / "extra.md").write_text("[gone](missing.md)\n")
        failures = tool.check_links(repo)
        assert len(failures) == 1 and "missing.md" in failures[0]

    def test_broken_anchor_fails_good_anchor_passes(self, repo):
        (repo / "docs" / "extra.md").write_text(
            "[ok](api.md#reproalpha)\n[bad](api.md#nope)\n"
        )
        failures = tool.check_links(repo)
        assert len(failures) == 1 and "#nope" in failures[0]

    def test_external_links_skipped(self, repo):
        (repo / "docs" / "extra.md").write_text(
            "[w](https://example.com/x) [m](mailto:a@b.c)\n"
        )
        assert tool.check_links(repo) == []

    def test_links_inside_code_fences_ignored(self, repo):
        (repo / "docs" / "extra.md").write_text(
            "```\n[not a link](nowhere.md)\n```\n"
        )
        assert tool.check_links(repo) == []

    def test_slugify_matches_github_style(self):
        assert tool.slugify("## `repro.alpha`".lstrip("#")) == "reproalpha"
        assert (tool.slugify("Streams, events, and overlap accounting")
                == "streams-events-and-overlap-accounting")


class TestReferences:
    @pytest.fixture()
    def named(self, repo):
        (repo / "src" / "repro" / "alpha" / "__init__.py").write_text(
            "class Thing:\n    def run(self):\n        pass\n"
        )
        (repo / "src" / "repro" / "alpha" / "inner.py").write_text("LIMIT = 3\n")
        return repo

    def test_modules_and_attributes_resolve(self, named):
        (named / "docs" / "refs.md").write_text(
            "`repro.alpha`, `repro.alpha.Thing.run`, `repro.alpha.inner.LIMIT`,\n"
            "`python -m repro.alpha` and `repro.alpha.Thing(x)`.\n"
        )
        assert tool.check_references(named) == []

    def test_a_missing_name_fails_with_its_line(self, named):
        (named / "docs" / "refs.md").write_text(
            "intro\n\nsee `repro.alpha.Thing.gone` and `repro.beta`\n"
        )
        assert tool.check_references(named) == [
            "docs/refs.md:3: `repro.alpha.Thing.gone` does not resolve",
            "docs/refs.md:3: `repro.beta` does not resolve",
        ]

    def test_readme_is_checked(self, named):
        (named / "README.md").write_text("`repro.alpha.nope`\n")
        assert tool.check_references(named) == ["README.md:1: `repro.alpha.nope` does not resolve"]

    def test_fences_plain_text_and_other_prefixes_ignored(self, named):
        (named / "docs" / "refs.md").write_text(
            "```\n`repro.alpha.gone`\n```\nrepro.alpha.gone and `myrepro.gone`\n"
        )
        assert tool.check_references(named) == []

    def test_capital_names_resolve_against_src_and_tools(self, named):
        (named / "tools").mkdir()
        (named / "tools" / "build.py").write_text('SECTIONS: tuple = ()\nENV = {"OMP_NUM_THREADS": "1"}\n')
        (named / "docs" / "refs.md").write_text(
            "`LIMIT`, `LIMIT = 3`, `SECTIONS`, `ENV` and `OMP_NUM_THREADS`;\n"
            "`N`, `(E, H, D)`, `Thing` and `repro.alpha.inner.LIMIT` are no bare capital names.\n"
        )
        assert tool.check_references(named) == []

    def test_a_deleted_constant_fails_with_its_line(self, named):
        (named / "docs" / "refs.md").write_text(
            "intro\n\nthe order is `DEFAULT_PASSES = (\"dce\", \"cse\")`, at most `LIMIT`\n"
            "```\nGONE_TOO = 1\n`GONE_TOO`\n```\n"
        )
        assert tool.check_references(named) == [
            "docs/refs.md:3: `DEFAULT_PASSES` is no module-level name in src/ or tools/",
        ]


class TestCitations:
    @pytest.fixture()
    def cited(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "# Guide\n\n## Reduction numerics\n\n"
            "1. **Everything meets at `Device.launch`, and only `Device`\n"
            "   charges.** Wrapped onto a second line.\n"
            "- **Set both or neither.** More.\n"
            "- **The opt-out is glibc's own.**\n\n"
            "**A bold paragraph.** Not a list item.\n"
        )
        (repo / "tests").mkdir()
        (repo / "tests" / "test_thing.py").write_text(
            "class TestThing:\n    def test_a(self):\n        pass\n\n"
            "def test_b():\n    pass\n"
        )
        return repo

    def _cite(self, repo, source):
        # Written as ``DOCS/`` here, so this file cites nothing itself.
        (repo / "src" / "repro" / "alpha" / "mod.py").write_text(source.replace("DOCS/", "docs/"))
        return tool.check_citations(repo)

    def test_headings_and_bold_list_items_match(self, cited):
        assert self._cite(cited, (
            '# see DOCS/guide.md, "Reduction numerics".\n'
            "X = \"DOCS/guide.md, 'Everything meets at Device.launch, and only Device charges'\"\n"
            '"""DOCS/guide.md ("Set both or neither")."""\n'
            '# DOCS/guide.md, "The opt-out is glibc\'s own"\n'
        )) == []
        assert len(list(tool.citations(cited))) == 4

    def test_a_stale_title_fails_with_its_line(self, cited):
        assert self._cite(cited, 'x = 1\n# DOCS/guide.md, "What an op costs on the host"\n') == [
            'src/repro/alpha/mod.py:2: cites "What an op costs on the host" in docs/guide.md, '
            "which has no such heading or bold-lead list item"
        ]

    def test_a_bold_paragraph_is_not_a_section(self, cited):
        assert len(self._cite(cited, '# DOCS/guide.md, "A bold paragraph"\n')) == 1

    def test_a_missing_doc_fails(self, cited):
        assert self._cite(cited, '# DOCS/gone.md, "Anything"\n') == [
            "src/repro/alpha/mod.py:1: cites docs/gone.md, which does not exist"
        ]

    def test_concatenated_literals_and_wrapped_comments_are_one_title(self, cited):
        source = (
            'MESSAGE = ("see DOCS/guide.md, \'Reduction "\n'
            '           "numerics\'; and DOCS/guide.md, \'Reduction "\n'
            '           "nonsense\'")\n'
            '# wrapped (DOCS/guide.md, "Set both\n'
            '# or neither").\n'
        )
        failures = self._cite(cited, source)
        assert [c[2] for c in tool.citations(cited)] == [
            "Reduction numerics", "Reduction nonsense", "Set both or neither"]
        assert len(failures) == 1 and "Reduction nonsense" in failures[0]

    def test_ci_files_are_read(self, cited):
        workflows = cited / ".github" / "workflows"
        workflows.mkdir(parents=True)
        (workflows / "ci.yml").write_text('# DOCS/guide.md, "Gone section"\n'.replace("DOCS/", "docs/"))
        assert self._cite(cited, "") == [
            '.github/workflows/ci.yml:1: cites "Gone section" in docs/guide.md, '
            "which has no such heading or bold-lead list item"
        ]

    def test_plain_mentions_are_not_citations(self, cited):
        assert self._cite(cited, (
            "# DOCS/guide.md's policy; (DOCS/guide.md) and DOCS/guide.md\n"
            'x = {"DOCS/guide.md": "text"}\n'
        )) == []

    def test_cited_test_paths_must_exist(self, cited):
        (cited / "docs" / "refs.md").write_text(
            "`tests/test_thing.py`, `tests/test_thing.py::TestThing::test_a`,\n"
            "`tests/test_thing.py::test_b`,\n"
            "```\n`tests/fenced_gone.py`\n```\n"
            "`tests/gone.py` and `pytest tests/test_thing.py::test_c`\n"
            "`tests/test_thing.py::TestThing::test_b`\n"
        )
        assert tool.check_citations(cited) == [
            "docs/refs.md:6: `tests/gone.py` does not exist",
            "docs/refs.md:6: `tests/test_thing.py::test_c` is not defined",
            "docs/refs.md:7: `tests/test_thing.py::TestThing::test_b` is not defined",
        ]

    def test_readme_test_paths_are_checked(self, cited):
        (cited / "README.md").write_text("Run `tests/missing.py`.\n")
        assert tool.check_citations(cited) == ["README.md:1: `tests/missing.py` does not exist"]


class TestSnippets:
    def test_passing_snippet(self, repo):
        (repo / "docs" / "code.md").write_text(
            "```python\nassert 1 + 1 == 2\n```\n"
        )
        assert tool.check_snippets(repo) == []

    def test_failing_snippet_reported_with_line(self, repo):
        (repo / "docs" / "code.md").write_text(
            "intro\n\n```python\nraise ValueError('boom')\n```\n"
        )
        failures = tool.check_snippets(repo)
        assert len(failures) == 1
        assert "code.md:3" in failures[0] and "boom" in failures[0]

    def test_no_run_tag_and_other_languages_skipped(self, repo):
        (repo / "docs" / "code.md").write_text(
            "```python no-run\nundefined_name\n```\n"
            "```bash\nexit 1\n```\n```\nplain text\n```\n"
        )
        assert tool.check_snippets(repo) == []

    def test_main_reports_failure_exit_code(self, repo, capsys):
        (repo / "docs" / "code.md").write_text("[gone](missing.md)\n")
        assert tool.main(["--root", str(repo)]) == 1
        assert "FAIL" in capsys.readouterr().out
