"""Tests for the one-command reproduction facade."""

import pytest

from repro.errors import ConfigError
from repro.analysis.paperfigures import reproduce


class TestReproduce:
    def test_smoke_report_structure(self):
        report = reproduce(scale="smoke")
        assert "TMM schemes" in report
        assert "Crash recovery" in report
        assert "Checksum accuracy" in report
        assert "True" in report  # recovery exactness row

    def test_unknown_scale(self):
        with pytest.raises(ConfigError):
            reproduce(scale="galactic")

    def test_cli_integration(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.md"
        rc = main(["reproduce", "--scale", "smoke", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "reproduction report" in out.read_text()


def test_accuracy_section_matches_scalar_reference(monkeypatch):
    """The quick-scale III-D table is the one the scalar campaign gives."""
    from repro.analysis import paperfigures
    from tests.core.test_accuracy import reference_injection

    scale = paperfigures._SCALES["quick"]
    batched = paperfigures._accuracy_section(scale)
    monkeypatch.setattr(paperfigures, "run_error_injection", reference_injection)
    assert batched == paperfigures._accuracy_section(scale)
