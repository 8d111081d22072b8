"""Documentation checks: links resolve, anchors exist, knobs are real.

The documentation set (``docs/*.md`` + ``README.md``) cross-links heavily —
doc map → pages → section anchors — and documents environment knobs that
must exist in the Makefile and the code.  This suite keeps all of that
honest:

* every relative markdown link points at an existing file,
* every ``#anchor`` fragment matches a real heading (GitHub slugification)
  in the target document,
* every documented grid knob appears in both the Makefile and
  ``docs/benchmarks.md``, and is actually read by the code,
* the doc map (``docs/index.md``) lists every document in ``docs/``.

Run it standalone via ``make docs-check``; it also runs as part of tier-1.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS_DIR = REPO_ROOT / "docs"

#: The documentation set under test.
DOC_FILES = sorted(DOCS_DIR.glob("*.md")) + [REPO_ROOT / "README.md"]

#: Environment knobs (differential-grid sizes) the docs promise; each must
#: exist in the Makefile, in docs/benchmarks.md, and in the code that reads it.
DOCUMENTED_KNOBS = {
    "ORACLE_DIFF_SCENARIOS": "tests/integration/test_oracle_differential.py",
    "PANE_DIFF_SCENARIOS": "tests/integration/test_oracle_differential.py",
    "REPLAY_DIFF_SCENARIOS": "tests/integration/test_replay_determinism.py",
    "DISORDER_DIFF_SCENARIOS": "tests/integration/test_oracle_differential.py",
    "CHURN_DIFF_SCENARIOS": "tests/integration/test_churn_differential.py",
}

_LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def non_fence_lines(text: str) -> list[str]:
    """The document's lines with fenced code blocks removed."""
    lines = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            lines.append(line)
    return lines


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading."""
    text = heading.lstrip("#").strip().replace("`", "")
    kept = "".join(ch for ch in text.lower() if ch.isalnum() or ch in "-_ ")
    return kept.replace(" ", "-")


def heading_slugs(path: Path) -> set[str]:
    """All heading anchors a document defines (code fences excluded)."""
    slugs: set[str] = set()
    for line in non_fence_lines(path.read_text(encoding="utf-8")):
        if line.startswith("#"):
            slugs.add(github_slug(line))
    return slugs


def relative_links(path: Path) -> list[str]:
    """All relative markdown link targets of a document (code fences excluded)."""
    text = "\n".join(non_fence_lines(path.read_text(encoding="utf-8")))
    targets = []
    for target in _LINK_PATTERN.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        targets.append(target)
    return targets


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    """Every relative link points at a file that exists."""
    broken = []
    for target in relative_links(doc):
        file_part = target.split("#", 1)[0]
        if not file_part:  # same-document anchor
            continue
        if not (doc.parent / file_part).resolve().exists():
            broken.append(target)
    assert not broken, f"{doc.name} has broken links: {broken}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_anchors_match_real_headings(doc):
    """Every ``#fragment`` matches a heading slug in the target document."""
    dangling = []
    for target in relative_links(doc):
        if "#" not in target:
            continue
        file_part, anchor = target.split("#", 1)
        resolved = (doc.parent / file_part).resolve() if file_part else doc
        if not resolved.exists() or resolved.suffix != ".md":
            continue  # broken files are the previous test's finding
        if anchor not in heading_slugs(resolved):
            dangling.append((target, resolved.name))
    assert not dangling, f"{doc.name} has dangling anchors: {dangling}"


def test_doc_map_lists_every_document():
    """docs/index.md must link every file living in docs/."""
    index = DOCS_DIR / "index.md"
    linked = {target.split("#", 1)[0] for target in relative_links(index)}
    missing = [
        doc.name
        for doc in DOCS_DIR.glob("*.md")
        if doc.name != "index.md" and doc.name not in linked
    ]
    assert not missing, f"docs/index.md does not link: {missing}"


def test_readme_links_the_doc_map():
    readme = REPO_ROOT / "README.md"
    assert "docs/index.md" in readme.read_text(encoding="utf-8")


@pytest.mark.parametrize("knob", sorted(DOCUMENTED_KNOBS), ids=str)
def test_documented_knobs_exist_everywhere(knob):
    """A knob the docs promise must exist in the Makefile and the code."""
    makefile = (REPO_ROOT / "Makefile").read_text(encoding="utf-8")
    benchmarks_doc = (DOCS_DIR / "benchmarks.md").read_text(encoding="utf-8")
    reader = (REPO_ROOT / DOCUMENTED_KNOBS[knob]).read_text(encoding="utf-8")
    assert knob in makefile, f"{knob} missing from Makefile"
    assert knob in benchmarks_doc, f"{knob} missing from docs/benchmarks.md"
    assert knob in reader, f"{knob} not read by {DOCUMENTED_KNOBS[knob]}"
