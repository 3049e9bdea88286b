#!/usr/bin/env python3
"""TSan suite-selection checker for .github/workflows/ci.yml.

The ThreadSanitizer job does not run the full test suite: it selects
the concurrency-bearing gtest suites with an anchored ``ctest -R``
regex, then runs everything labelled ``chaos`` in a second step. That
regex rots silently: a new suite added under a concurrency-bearing
test directory simply never runs under TSan, and a renamed suite
leaves a dead alternation branch behind.

This tool cross-checks the workflow against the tests actually
registered in tests/CMakeLists.txt:

  * every ``TEST``/``TEST_F``/``TEST_P`` suite defined in the
    concurrency-bearing directories (tests/support, tests/online,
    tests/obs, tests/detect, tests/serving) must either match the
    anchored ``-R`` regex or belong to a test binary labelled
    ``chaos`` (those run under ``ctest -L chaos`` in the same job);
  * every alternation branch of the regex must match at least one
    registered suite somewhere in tests/ — no dead entries.

Branches may name suites outside the scoped directories (e.g. the
IncrementalTracker suite in tests/rpca): that is extra coverage, not an
error.

Usage: tools/check_tsan_regex.py  (exits non-zero listing violations)
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# Directories whose suites exercise threads, shared registries, or the
# service/serving stacks and therefore must run under TSan.
SCOPED_DIRS = ("support", "online", "obs", "detect", "serving")

TEST_MACRO_RE = re.compile(r"^\s*TEST(?:_F|_P)?\(\s*([A-Za-z_]\w*)\s*,")
REGISTRATION_RE = re.compile(
    r"netconst_test\(\s*(\w+)\s+([\w/.]+\.cpp)((?:\s+[\w/.]+\.cpp)*)"
    r"(?:\s+LABEL\s+(\w+))?\s*\)"
)
CTEST_REGEX_RE = re.compile(r"-R\s+'\^\(([^')]+)\)\\\.'")


def registered_tests(cmake_path: Path) -> list[tuple[str, str]]:
    """(source path, label) per registration; default label tier1."""
    text = re.sub(r"#[^\n]*", "", cmake_path.read_text(encoding="utf-8"))
    # Registrations span lines; normalise whitespace before matching.
    text = re.sub(r"\s+", " ", text)
    tests: list[tuple[str, str]] = []
    for match in REGISTRATION_RE.finditer(text):
        label = match.group(4) or "tier1"
        for source in [match.group(2)] + match.group(3).split():
            tests.append((source, label))
    return tests


def suites_in(source: Path) -> set[str]:
    suites: set[str] = set()
    for line in source.read_text(encoding="utf-8").splitlines():
        match = TEST_MACRO_RE.match(line)
        if match:
            suites.add(match.group(1))
    return suites


def tsan_regex_branches(workflow: Path) -> list[str]:
    match = CTEST_REGEX_RE.search(workflow.read_text(encoding="utf-8"))
    if not match:
        raise SystemExit(
            f"{workflow}: no anchored ctest -R '^(...)\\.' regex found"
        )
    return match.group(1).split("|")


def main() -> int:
    repo_root = Path(__file__).resolve().parent.parent
    workflow = repo_root / ".github" / "workflows" / "ci.yml"
    cmake = repo_root / "tests" / "CMakeLists.txt"

    branches = tsan_regex_branches(workflow)
    selected = set(branches)

    all_suites: set[str] = set()
    errors: list[str] = []
    for source_rel, label in registered_tests(cmake):
        source = repo_root / "tests" / source_rel
        if not source.exists():
            errors.append(f"tests/CMakeLists.txt: missing source "
                          f"'{source_rel}'")
            continue
        suites = suites_in(source)
        all_suites |= suites
        if source_rel.split("/")[0] not in SCOPED_DIRS:
            continue
        # chaos-labelled binaries run under the job's `ctest -L chaos`
        # step; everything else must be picked up by the -R regex.
        if label == "chaos":
            continue
        for suite in sorted(suites - selected):
            errors.append(
                f"tests/{source_rel}: suite '{suite}' is not in the "
                f"TSan ctest regex (ci.yml) and not chaos-labelled"
            )

    for branch in branches:
        if branch not in all_suites:
            errors.append(
                f"ci.yml: TSan regex branch '{branch}' matches no "
                f"registered gtest suite (stale entry?)"
            )

    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {len(all_suites)} suites against "
          f"{len(branches)} regex branches: "
          f"{'OK' if not errors else f'{len(errors)} violations'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
