"""Tests for the experiment runner plumbing (without heavy execution)."""

import json
from unittest import mock


from repro.experiments import runner
from repro.experiments.results_io import load_result


class TestRegistry:
    def test_twelve_experiments(self):
        assert len(runner.EXPERIMENTS) == 12

    def test_titles_cover_all_artefacts(self):
        titles = " ".join(t for t, _ in runner.EXPERIMENTS.values())
        for needle in ("Table 1", "Fig. 5", "Fig. 6", "Fig. 7", "Table 2", "Table 3",
                       "A1", "A2", "A3", "A4", "Resilience", "Network"):
            assert needle in titles

    def test_every_entry_is_callable(self):
        assert all(callable(fn) for _, fn in runner.EXPERIMENTS.values())


class TestRunAll:
    def test_collects_outputs_and_saves_json(self, tmp_path, capsys):
        fake = {
            "a": ("Exp A (x)", lambda quick: print("alpha")),
            "b": ("Exp B (y)", lambda quick: print("beta")),
        }
        with mock.patch.object(runner, "EXPERIMENTS", fake):
            out = runner.run_all(json_dir=str(tmp_path))
        assert out == {"Exp A (x)": "alpha", "Exp B (y)": "beta"}
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 2
        data = load_result(files[0])
        assert data["result"]["report"] in ("alpha", "beta")
        json.loads(files[0].read_text())  # valid JSON on disk

    def test_quick_flag_forwarded(self):
        seen = []
        fake = {"exp": ("Exp", lambda quick: seen.append(quick))}
        with mock.patch.object(runner, "EXPERIMENTS", fake):
            runner.run_all(quick=True)
        assert seen == [True]
