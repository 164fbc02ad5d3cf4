"""Tests for the one-shot reproduction report."""

import pytest

from repro.bench.paper_report import generate_report
from repro.cli import main
from repro.core.optimizer import OPTIMIZERS
from repro.workload.paper_schema import build_paper_database


@pytest.fixture(scope="module")
def db():
    return build_paper_database(scale=0.002)


@pytest.fixture(scope="module")
def report_text(db):
    return generate_report(db)


class TestGenerateReport:
    def test_all_sections_present(self, report_text):
        assert "# Reproduction report" in report_text
        assert "Table 1" in report_text
        for figure in ("Figure 10", "Figure 11", "Figure 12"):
            assert figure in report_text
        for test_name in ("test4", "test5", "test6", "test7"):
            assert test_name in report_text

    def test_all_algorithms_reported(self, report_text):
        for algorithm in OPTIMIZERS:
            assert f"| {algorithm} |" in report_text

    def test_markdown_tables_well_formed(self, report_text):
        lines = report_text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("|") and set(line) <= {"|", "-", " "}:
                header = lines[i - 1]
                assert header.count("|") == line.count("|")

    def test_written_to_file(self, db, tmp_path):
        path = tmp_path / "report.md"
        text = generate_report(db, tests=["test6"], figures=False, output=path)
        assert path.read_text() == text
        assert "test6" in text and "Figure" not in text and "test4" not in text

    def test_cli_report(self, tmp_path, capsys):
        out_file = str(tmp_path / "r.md")
        assert main(
            ["report", "--scale", "0.002", "--output", out_file]
        ) == 0
        assert "report written" in capsys.readouterr().out

    def test_cli_report_stdout(self, capsys):
        assert main(["report", "--scale", "0.002"]) == 0
        assert "Figure 10" in capsys.readouterr().out
