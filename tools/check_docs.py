"""Documentation consistency gate.

Four independent checks over README.md and docs/*.md, each fatal:

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
   attributes for the rest.  A doc line naming a deleted or moved name
   fails.

Usage::

    python tools/check_docs.py [--root DIR] [--skip-snippets]

Exit status 0 when all checks pass, 1 with a per-failure report otherwise.
"""

from __future__ import annotations

import argparse
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


def heading_anchors(path: pathlib.Path) -> set:
    anchors = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
        elif not in_fence and re.match(r"^#{1,6}\s", line):
            anchors.add(slugify(line.lstrip("#")))
    return anchors


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
    for doc in doc_files(root):
        rel = doc.relative_to(root)
        in_fence = False
        for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
            elif not in_fence:
                for span in SPAN_RE.findall(line):
                    for path in REFERENCE_RE.findall(span):
                        yield f"{rel}:{lineno}", path


def check_references(root: pathlib.Path) -> List[str]:
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
