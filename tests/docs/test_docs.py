"""Documentation checks: links resolve, anchors exist, no retired knob is named.

The documentation set (``docs/*.md`` + ``README.md``) cross-links heavily —
doc map → pages → section anchors.  This suite keeps all of that honest:

* every relative markdown link points at an existing file,
* every ``#anchor`` fragment matches a real heading (GitHub slugification)
  in the target document,
* the doc map (``docs/index.md``) lists every document in ``docs/``,
* no document, the Makefile or CI names a grid-size environment knob: the
  randomized run grid has one fixed size and reads none.

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

#: The retired grid-size knobs (``ORACLE_``, ``PANE_``, ``REPLAY_``,
#: ``DISORDER_`` and ``CHURN_DIFF_SCENARIOS``), and any new one like them.
_GRID_KNOB = re.compile(r"\b[A-Z]+_DIFF_SCENARIOS\b")

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


def test_no_document_names_a_grid_size_knob():
    """The randomized run grid has one fixed size: nothing may promise a knob."""
    files = DOC_FILES + [REPO_ROOT / "Makefile", REPO_ROOT / ".github" / "workflows" / "ci.yml"]
    named = {}
    for path in files:
        knobs = sorted(set(_GRID_KNOB.findall(path.read_text(encoding="utf-8"))))
        if knobs:
            named[path.relative_to(REPO_ROOT).as_posix()] = knobs
    assert not named, f"grid-size knobs named: {named}"
