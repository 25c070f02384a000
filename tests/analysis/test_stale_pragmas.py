"""Tests for R701 stale-suppression detection.

R701 lives in the runner, not in a per-module rule pass: the runner
records which pragma entries absorbed a finding and flags the leftovers.
These tests therefore go through :func:`lint_paths` on real temp files,
laid out under a ``repro/estimators`` directory so the numeric rules
are in scope.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_paths

_UNGUARDED = (
    "def f(n):\n"
    "    return 1.0 / n  # reprolint: disable=R101\n"
)

_GUARDED = (
    "def f(n):\n"
    "    if n == 0:\n"
    "        return 0.0\n"
    "    return 1.0 / n  # reprolint: disable=R101\n"
)


def _write(tmp_path: Path, text: str, name: str = "fixture.py") -> Path:
    target = tmp_path / "repro" / "estimators"
    target.mkdir(parents=True, exist_ok=True)
    path = target / name
    path.write_text(text)
    return path


def _lint(path: Path, codes: list[str] | None):
    return lint_paths([str(path)], select=codes)


class TestStaleDetection:
    def test_working_pragma_is_not_stale(self, tmp_path):
        path = _write(tmp_path, _UNGUARDED)
        report = _lint(path, ["R101", "R701"])
        assert report.findings == []
        assert report.suppressed == 1

    def test_discharged_pragma_is_stale(self, tmp_path):
        # The guard lets the prover discharge R101, so the pragma no
        # longer suppresses anything — exactly what R701 exists to catch.
        path = _write(tmp_path, _GUARDED)
        report = _lint(path, ["R101", "R701"])
        assert [finding.code for finding in report.findings] == ["R701"]
        finding = report.findings[0]
        assert finding.line == 4
        assert "stale suppression: pragma for 'R101'" in finding.message
        assert "remove it" in finding.message

    def test_stale_file_wide_pragma(self, tmp_path):
        path = _write(
            tmp_path,
            "# reprolint: disable-file=R101\n"
            "def f(n):\n"
            "    return float(n)\n",
        )
        report = _lint(path, ["R101", "R701"])
        assert [finding.code for finding in report.findings] == ["R701"]
        assert "file-wide pragma for 'R101'" in report.findings[0].message
        assert report.findings[0].line == 1


class TestScoping:
    def test_pragma_for_inactive_rule_not_judged(self, tmp_path):
        # The R102 pragma is unused, but R102 did not run — a partial
        # --select run must not declare other rules' pragmas stale.
        path = _write(
            tmp_path,
            "def f(n):\n"
            "    return float(n)  # reprolint: disable=R102\n",
        )
        report = _lint(path, ["R101", "R701"])
        assert report.findings == []

    def test_disable_all_judged_only_on_full_run(self, tmp_path):
        text = (
            '"""Fixture module."""\n'
            "__all__ = ['f']\n"
            "def f(n):\n"
            '    """Pass through."""\n'
            "    return float(n)  # reprolint: disable=all\n"
        )
        path = _write(tmp_path, text)
        assert _lint(path, ["R101", "R701"]).findings == []
        full = _lint(path, None)
        assert [finding.code for finding in full.findings] == ["R701"]
        assert "pragma for 'all'" in full.findings[0].message

    def test_r701_finding_is_itself_suppressible(self, tmp_path):
        path = _write(
            tmp_path,
            "def f(n):\n"
            "    return float(n)  # reprolint: disable=R101,R701\n",
        )
        report = _lint(path, ["R101", "R701"])
        assert report.findings == []

    def test_without_r701_selected_no_stale_reports(self, tmp_path):
        path = _write(tmp_path, _GUARDED)
        report = _lint(path, ["R101"])
        assert report.findings == []


class TestRepoGate:
    """Tier-1 gate: the real tree carries zero stale pragmas."""

    def test_src_has_no_stale_pragmas(self, src_lint_report):
        report = src_lint_report  # full rule set: 'all' judged too
        stale = [f for f in report.findings if f.code == "R701"]
        assert stale == []

    def test_every_surviving_pragma_still_works(self, src_lint_report):
        # Stronger than "no R701": every pragma in the tree must have
        # absorbed at least one finding, i.e. suppressed count > 0 and
        # no finding of any kind escapes.
        report = src_lint_report
        assert report.exit_code == 0
        assert report.suppressed > 0
