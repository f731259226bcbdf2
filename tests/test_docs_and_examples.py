"""Repository-level checks: examples compile and run, docs are present."""

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


class TestExamples:
    def test_at_least_five_examples(self):
        assert len(EXAMPLES) >= 5

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    @pytest.mark.parametrize(
        "script,args",
        [("quickstart.py", []), ("sc_multiplier_accuracy.py", ["5"]), ("sc_edge_detection.py", [])],
    )
    def test_fast_examples_run(self, script, args):
        proc = subprocess.run(
            [sys.executable, str(REPO / "examples" / script), *args],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert len(proc.stdout) > 200


class TestDocs:
    def test_readme_sections(self):
        text = (REPO / "README.md").read_text()
        for needle in ("Install", "Quickstart", "Architecture", "reproduction"):
            assert needle in text

    def test_design_lists_every_experiment(self):
        text = (REPO / "DESIGN.md").read_text()
        for exp in ("T1", "F5", "F6", "F7", "T2", "T3", "A1", "A2", "A3", "A4", "R1", "P1"):
            assert f"| {exp} " in text

    def test_experiments_md_covers_every_artefact(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for needle in ("Table 1", "Fig. 5", "Fig. 6", "Fig. 7", "Table 2", "Table 3",
                       "A1", "A2", "A3", "A4", "Resilience", "Network-level"):
            assert needle in text

    def test_theory_notes_present(self):
        text = (REPO / "docs" / "THEORY.md").read_text()
        assert "Appearance-count identity" in text
        assert "round(k / 2^i)" in text

    def test_runner_registry_matches_cli(self):
        from repro.cli import build_parser
        from repro.experiments.runner import EXPERIMENTS

        assert len(EXPERIMENTS) == 12
        # the CLI accepts exactly the runner's names plus the 'all' alias
        parser = build_parser()
        for name in (*EXPERIMENTS, "all"):
            assert parser.parse_args(["experiment", name]).name == name
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "fig99"])
