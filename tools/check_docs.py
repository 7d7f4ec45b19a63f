"""Documentation consistency gate.

Five independent checks over README.md and docs/*.md, each fatal:

1. **API coverage** — every public package under ``src/repro/`` (a
   directory with an ``__init__.py`` whose name does not start with an
   underscore) must be mentioned as ```repro.<name>``` somewhere in
   ``docs/api.md``.  Adding a subsystem without documenting its surface
   fails CI.
2. **Links** — every relative markdown link must resolve to an existing
   file, and a ``#fragment`` must match a heading in the target file
   (GitHub anchor rules: lowercase, punctuation stripped, spaces to
   hyphens).
3. **Snippets** — every fenced ```` ```python ```` block in ``docs/``
   must execute under ``PYTHONPATH=src`` in a scratch directory (README
   snippets are exempt — they are full training runs).  Tag a block
   ```` ```python no-run ```` to exempt it (for deliberately partial
   fragments).
4. **References** — every backticked ```repro.<path>``` outside a fence
   (``repro`` starting a dotted name anywhere in the span) must resolve
   under ``PYTHONPATH=src``: the longest importable module prefix, then
   attributes for the rest.  And a span that is a bare ``ALL_CAPS`` name
   (``GATHER_MUL_BLOCK``, or ``NAME = value``) must be a module-level name,
   or a string literal such as an environment variable's name, in some
   ``.py`` under ``src/`` or ``tools/``.  A doc line naming a deleted or
   moved name fails; an acronym goes without backticks.
5. **Citations** — a ``docs/<file>.md`` followed by a quoted section title
   (``docs/kernels.md, "Reduction numerics"``), anywhere under ``src/``,
   ``tests/``, ``tools/``, ``benchmarks/``, ``examples/`` or ``.github/``,
   must name a heading or a bold-lead list item of that file (backticks and
   a trailing period ignored; a title split across concatenated string
   literals or wrapped comment lines counts as one).  And every backticked
   ``tests/<path>.py`` outside a fence in the docs must exist; with
   ``::name`` (``::Class::method``), that name must be defined in it.

Usage::

    python tools/check_docs.py [--root DIR] [--skip-snippets]

Exit status 0 when all checks pass, 1 with a per-failure report otherwise.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from typing import List

ROOT = pathlib.Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\S*)[ \t]*(.*)$")
SPAN_RE = re.compile(r"`([^`\n]+)`")
REFERENCE_RE = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")
CITED_DOC_RE = re.compile(r"docs/(\w+)\.md")
CITATION_RE = re.compile(r"docs/(\w+)\.md[\"'`]?(?:,\s*|\s*\(\s*|\s+)(?:see\s+)?(?:\"([^\"]+)\"|'([^']+)')")
#: A closing quote, a line break and an opening quote: implicit string
#: concatenation.  Then a line break and any comment leader: a wrapped line.
CONCATENATION_RE = re.compile(r"[\"'][ \t]*\n\s*[rRbBuUfF]*[\"']")
WRAP_RE = re.compile(r"\s*\n\s*(?:#+\s*)?")
HEADING_RE = re.compile(r"^#{1,6}\s+(.+)$", re.M)
BOLD_ITEM_RE = re.compile(r"^\s*(?:[-*+]|\d+\.)\s+\*\*(.+?)\*\*", re.M | re.S)
TEST_PATH_RE = re.compile(r"(?<![\w/])tests/[\w/]+\.py(?:::\w+)*")
CAPS_RE = re.compile(r"([A-Z][A-Z0-9]*(?:_[A-Z0-9]*)+|[A-Z][A-Z0-9]+)(?:\s*=.*)?")
CITING_DIRS = ("src", "tests", "tools", "benchmarks", "examples", ".github")
SNIPPET_TIMEOUT = 300

#: Reads a JSON list of dotted paths on stdin, prints the unresolved ones as
#: the last line of its output.
RESOLVE = """
import importlib, json, sys

def resolves(path):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        try:
            found = importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if (name + ".").startswith(str(exc.name) + "."):
                continue  # this prefix (or a shorter one) is no module
            return False
        for attr in parts[cut:]:
            if not hasattr(found, attr):
                return False
            found = getattr(found, attr)
        return True
    return False

print(json.dumps([path for path in json.load(sys.stdin) if not resolves(path)]))
"""


def doc_files(root: pathlib.Path) -> List[pathlib.Path]:
    docs = sorted((root / "docs").glob("*.md"))
    readme = root / "README.md"
    return ([readme] if readme.exists() else []) + docs


def public_packages(root: pathlib.Path) -> List[str]:
    src = root / "src" / "repro"
    return sorted(
        entry.name
        for entry in src.iterdir()
        if entry.is_dir()
        and not entry.name.startswith("_")
        and (entry / "__init__.py").exists()
    )


def check_api_coverage(root: pathlib.Path) -> List[str]:
    api = root / "docs" / "api.md"
    if not api.exists():
        return ["docs/api.md is missing"]
    text = api.read_text()
    return [
        f"docs/api.md has no section mentioning `repro.{name}`"
        for name in public_packages(root)
        if f"repro.{name}" not in text
    ]


def slugify(heading: str) -> str:
    """GitHub's heading -> anchor transformation (the common subset)."""
    slug = heading.strip().lower().replace("`", "")
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def prose_lines(path: pathlib.Path):
    """Yield (line number, line) for every line of ``path`` outside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
        elif not in_fence:
            yield lineno, line


def heading_anchors(path: pathlib.Path) -> set:
    return {slugify(line.lstrip("#")) for _, line in prose_lines(path) if re.match(r"^#{1,6}\s", line)}


def iter_links(text: str):
    """Yield link targets outside fenced code blocks."""
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
        elif not in_fence:
            yield from LINK_RE.findall(line)


def check_links(root: pathlib.Path) -> List[str]:
    failures = []
    for doc in doc_files(root):
        rel = doc.relative_to(root)
        for target in iter_links(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            resolved = (doc.parent / path_part).resolve() if path_part else doc
            if not resolved.exists():
                failures.append(f"{rel}: broken link `{target}` "
                                f"({path_part} does not exist)")
                continue
            if fragment and resolved.suffix == ".md":
                if fragment not in heading_anchors(resolved):
                    failures.append(f"{rel}: broken anchor `{target}` "
                                    f"(no heading #{fragment})")
    return failures


def python_snippets(path: pathlib.Path):
    """Yield (start_line, source) for runnable ```python fences."""
    lines = path.read_text().splitlines()
    block, start, info = None, 0, ""
    for i, line in enumerate(lines, start=1):
        match = FENCE_RE.match(line.strip())
        if match and block is None:
            block, start, info = [], i, (match.group(1) + " " + match.group(2))
        elif match:
            if info.split()[:1] == ["python"] and "no-run" not in info:
                yield start, "\n".join(block)
            block = None
        elif block is not None:
            block.append(line)


def _src_env(root: pathlib.Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def check_snippets(root: pathlib.Path) -> List[str]:
    failures = []
    env = _src_env(root)
    with tempfile.TemporaryDirectory() as scratch:
        for doc in sorted((root / "docs").glob("*.md")):
            rel = doc.relative_to(root)
            for lineno, source in python_snippets(doc):
                proc = subprocess.run(
                    [sys.executable, "-c", source],
                    cwd=scratch, env=env, capture_output=True,
                    text=True, timeout=SNIPPET_TIMEOUT,
                )
                if proc.returncode != 0:
                    tail = proc.stderr.strip().splitlines()[-1:]
                    failures.append(
                        f"{rel}:{lineno}: python snippet failed "
                        f"(rc={proc.returncode}) {' '.join(tail)}"
                    )
    return failures


def references(root: pathlib.Path):
    """Yield ("file:line", dotted path) per backticked ``repro.<path>`` outside fences."""
    for where, span in spans(root):
        for path in REFERENCE_RE.findall(span):
            yield where, path


def spans(root: pathlib.Path):
    """Yield ("file:line", span) per backticked span outside fences in README.md and docs/."""
    for doc in doc_files(root):
        for lineno, line in prose_lines(doc):
            for span in SPAN_RE.findall(line):
                yield f"{doc.relative_to(root)}:{lineno}", span


def defined_names(root: pathlib.Path) -> set:
    """Names assigned at module level, and string literals, in every ``.py`` under ``src/`` and ``tools/``."""
    names = set()
    for directory in ("src", "tools"):
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
            names.update(n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return names


def check_references(root: pathlib.Path) -> List[str]:
    return _unknown_capitals(root) + _unresolved_paths(root)


def _unknown_capitals(root: pathlib.Path) -> List[str]:
    matches = [(where, CAPS_RE.fullmatch(span)) for where, span in spans(root)]
    capitals = [(where, match.group(1)) for where, match in matches if match]
    names = defined_names(root) if capitals else set()
    return [f"{where}: `{name}` is no module-level name in src/ or tools/"
            for where, name in capitals if name not in names]


def _unresolved_paths(root: pathlib.Path) -> List[str]:
    found = list(references(root))
    if not found:
        return []
    with tempfile.TemporaryDirectory() as scratch:
        proc = subprocess.run(
            [sys.executable, "-c", RESOLVE],
            input=json.dumps(sorted({path for _, path in found})),
            cwd=scratch, env=_src_env(root), capture_output=True,
            text=True, timeout=SNIPPET_TIMEOUT,
        )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:]
        return [f"reference resolver failed (rc={proc.returncode}) {' '.join(tail)}"]
    missing = set(json.loads(proc.stdout.splitlines()[-1]))  # after any import chatter
    return [f"{where}: `{path}` does not resolve" for where, path in found if path in missing]


def _title(text: str) -> str:
    return " ".join(text.replace("`", "").split()).rstrip(".:")


def section_titles(path: pathlib.Path) -> set:
    """Headings and bold-lead list items of one doc, as citations name them."""
    text = "\n".join(line for _, line in prose_lines(path))
    found = HEADING_RE.findall(text) + BOLD_ITEM_RE.findall(text)
    return {_title(title) for title in found}


def citations(root: pathlib.Path):
    """Yield ("file:line", doc name, title) per section citation in code, tests and CI."""
    for directory in CITING_DIRS:
        for path in sorted((root / directory).rglob("*")):
            if path.suffix not in (".py", ".yml", ".yaml", ".md") or not path.is_file():
                continue
            text = path.read_text(errors="replace")
            rel = path.relative_to(root)
            for found in CITED_DOC_RE.finditer(text):
                window = text[found.start():found.start() + 400]
                match = CITATION_RE.match(WRAP_RE.sub(" ", CONCATENATION_RE.sub("", window)))
                if match:
                    line = text.count("\n", 0, found.start()) + 1
                    yield f"{rel}:{line}", match.group(1), _title(match.group(2) or match.group(3))


def _defined(path: pathlib.Path, names: List[str]) -> bool:
    """Whether ``names[0]`` is a test or class of ``path`` and each later name one inside the previous class."""
    body = ast.parse(path.read_text()).body
    for name in names:
        found = [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def check_citations(root: pathlib.Path) -> List[str]:
    failures = []
    titles = {}
    for where, doc, title in citations(root):
        path = root / "docs" / f"{doc}.md"
        if doc not in titles:
            titles[doc] = section_titles(path) if path.exists() else None
        if titles[doc] is None:
            failures.append(f"{where}: cites docs/{doc}.md, which does not exist")
        elif title not in titles[doc]:
            failures.append(f"{where}: cites \"{title}\" in docs/{doc}.md, which has no such "
                            "heading or bold-lead list item")
    for where, span in spans(root):
        for cited in TEST_PATH_RE.findall(span):
            file, *names = cited.split("::")
            if not (root / file).is_file():
                failures.append(f"{where}: `{file}` does not exist")
            elif names and not _defined(root / file, names):
                failures.append(f"{where}: `{cited}` is not defined")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=ROOT)
    parser.add_argument("--skip-snippets", action="store_true",
                        help="skip executing fenced python blocks")
    args = parser.parse_args(argv)

    checks = [
        ("api coverage", check_api_coverage),
        ("links", check_links),
        ("references", check_references),
        ("citations", check_citations),
    ]
    if not args.skip_snippets:
        checks.append(("snippets", check_snippets))

    failures = []
    for label, check in checks:
        found = check(args.root)
        print(f"{label}: {'OK' if not found else f'{len(found)} failure(s)'}")
        failures.extend(found)
    for failure in failures:
        print(f"  FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
