"""Helpers for the reprolint test suite.

Fixture source files live under ``tests/analysis/fixtures/``; they are
*text*, never imported.  Each is parsed with a **virtual path** (e.g.
``repro/estimators/fixture_r101.py``) so package-scoped rules treat it
as estimator-stack code regardless of where the file really lives.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.findings import Finding
from repro.analysis.project import build_context
from repro.analysis.rules import ProjectRule, all_rules
from repro.analysis.source import SourceModule

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="session")
def src_lint_report():
    """``lint_paths([src])`` with the full rule set, linted once per session.

    The tree-wide gates read the same report; linting ``src/`` takes
    about ten seconds, so each gate re-linting it would multiply that.
    """
    return lint_paths([str(SRC)])


def fixture_text(name: str) -> str:
    """Raw source text of one fixture file."""
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        return handle.read()


def lint_modules(modules: list[SourceModule], codes: list[str]) -> list[Finding]:
    """Run the selected rules over prepared modules, suppression-aware."""
    context = build_context(modules)
    findings: list[Finding] = []
    for code in codes:
        rule = all_rules()[code]()
        for module in modules:
            findings.extend(rule.check(module, context))
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(modules, context))
    return sorted(
        finding
        for finding in findings
        if not _suppressed(modules, finding)
    )


def _suppressed(modules: list[SourceModule], finding: Finding) -> bool:
    for module in modules:
        if module.path == finding.path:
            return module.suppressions.is_suppressed(finding.line, finding.code)
    return False


def lint_fixture(
    name: str, codes: list[str], virtual_path: str = "repro/estimators/fixture.py"
) -> list[Finding]:
    """Lint one fixture file under a virtual in-package path."""
    module = SourceModule.from_source(fixture_text(name), path=virtual_path)
    return lint_modules([module], codes)


def lint_text(
    text: str, codes: list[str], virtual_path: str = "repro/estimators/fixture.py"
) -> list[Finding]:
    """Lint an inline snippet under a virtual in-package path."""
    module = SourceModule.from_source(text, path=virtual_path)
    return lint_modules([module], codes)
