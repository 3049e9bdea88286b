#!/usr/bin/env python3
"""Markdown link checker for the repo docs.

Scans the given markdown files (default: every top-level *.md and
docs/*.md) for inline links and validates every relative one:

  * the target file or directory must exist (resolved against the
    linking file's directory);
  * a fragment (``FILE.md#anchor``, or ``#anchor`` within the same
    file) must match a heading's GitHub-style anchor in the target.

External links (http/https/mailto) are not fetched — CI must not fail
on somebody else's outage — but their URLs are checked for whitespace
damage. Exits non-zero listing every broken link.

Usage: tools/check_links.py [file.md ...]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# Inline markdown links: [text](target). Images share the syntax.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+(?:\s+\"[^\"]*\")?)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")


def github_anchor(heading: str) -> str:
    """GitHub's heading -> fragment rule: lowercase, drop everything
    but word characters, spaces and hyphens, then spaces to hyphens."""
    text = re.sub(r"[`*_]", "", heading.strip())
    text = re.sub(r"[^\w\- ]", "", text.lower())
    return re.sub(r" ", "-", text)


def heading_anchors(path: Path) -> set[str]:
    anchors: set[str] = set()
    seen: dict[str, int] = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if not match:
            continue
        anchor = github_anchor(match.group(2))
        count = seen.get(anchor, 0)
        seen[anchor] = count + 1
        anchors.add(anchor if count == 0 else f"{anchor}-{count}")
    return anchors


def iter_links(path: Path):
    in_fence = False
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1).split(' "')[0].strip()
            yield number, target


def check_file(path: Path, repo_root: Path) -> list[str]:
    errors: list[str] = []
    for number, target in iter_links(path):
        where = f"{path.relative_to(repo_root)}:{number}"
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):
            if target[1:] not in heading_anchors(path):
                errors.append(f"{where}: missing anchor '{target}'")
            continue
        name, _, fragment = target.partition("#")
        resolved = (path.parent / name).resolve()
        if not resolved.exists():
            errors.append(f"{where}: broken link '{target}'")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in heading_anchors(resolved):
                errors.append(
                    f"{where}: missing anchor '#{fragment}' in '{name}'"
                )
    return errors


def main(argv: list[str]) -> int:
    repo_root = Path(__file__).resolve().parent.parent
    if argv:
        files = [Path(arg).resolve() for arg in argv]
    else:
        files = sorted(repo_root.glob("*.md")) + sorted(
            (repo_root / "docs").glob("*.md")
        )
    errors: list[str] = []
    checked = 0
    for path in files:
        if not path.exists():
            errors.append(f"{path}: file not found")
            continue
        checked += 1
        errors.extend(check_file(path, repo_root))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {checked} files: "
          f"{'OK' if not errors else f'{len(errors)} broken links'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
