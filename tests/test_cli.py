"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.experiments import EXPERIMENTS


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_closed_stdout_exits_without_traceback(self):
        """The reader of stdout is gone before the CLI prints (as
        after ``repro ... | head`` has read its lines), so every write
        fails with EPIPE."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "list"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=str(
                    pathlib.Path(repro.__file__).parents[1])))
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr
        assert proc.returncode == 1

    def test_unknown_experiment(self, capsys):
        assert main(["nonexistent"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_table5_runs(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "completed in" in out

    def test_fig6_runs(self, capsys):
        assert main(["fig6"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_fig4_with_dies_flag(self, capsys):
        assert main(["fig4", "--dies", "2"]) == 0
        assert "Figure 4(a)" in capsys.readouterr().out

    def test_fig7_with_trials_flag(self, capsys):
        assert main(["fig7", "--trials", "2"]) == 0
        assert "Figure 7(a)" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["fig14", "fig15"])
    def test_trials_flag_reaches_run(self, name, capsys, monkeypatch):
        seen = {}

        class _Result:
            def format_table(self):
                return "stub table"

        def run(**kwargs):
            seen.update(kwargs)
            return _Result()

        monkeypatch.setattr(EXPERIMENTS[name], "run", run)
        assert main([name, "--trials", "3"]) == 0
        assert seen == {"n_trials": 3}
        assert "stub table" in capsys.readouterr().out

    def test_fig11_static_no_sann(self, capsys):
        assert main(["fig11", "--trials", "1", "--static",
                     "--no-sann"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11(a)" in out
        assert "SAnn" not in out


class TestCliParallelFlags:
    def test_workers_flag_populates_cache(self, capsys, tmp_path,
                                          monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(["fig5", "--dies", "2", "--workers", "2"]) == 0
        assert "Figure 5" in capsys.readouterr().out
        assert list(cache_dir.rglob("*.sealed"))

    def test_no_cache_flag(self, capsys, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(["fig4", "--dies", "1", "--no-cache"]) == 0
        assert "Figure 4(a)" in capsys.readouterr().out
        assert not cache_dir.exists()


class TestCliCache:
    @pytest.fixture(autouse=True)
    def _cache_env(self, tmp_path, monkeypatch):
        self.cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(self.cache_dir))

    def _populate(self):
        assert main(["fig4", "--dies", "2", "--workers", "1"]) == 0
        return list(self.cache_dir.rglob("*.sealed"))

    def test_stats(self, capsys):
        entries = self._populate()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(self.cache_dir) in out
        assert f"entries           {len(entries)}" in out

    def test_verify_clean_and_corrupt(self, capsys):
        entries = self._populate()
        assert main(["cache", "verify"]) == 0
        assert "0 corrupt" in capsys.readouterr().out
        entries[0].write_bytes(b"garbage")
        assert main(["cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert "quarantined" in out

    def test_gc_requires_budget(self, capsys):
        assert main(["cache", "gc"]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_gc_evicts_to_budget(self, capsys):
        self._populate()
        assert main(["cache", "gc", "--max-bytes", "0"]) == 0
        assert "0 left" in capsys.readouterr().out
        assert not list(self.cache_dir.rglob("*.sealed"))

    def test_clear(self, capsys):
        self._populate()
        assert main(["cache", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert not list(self.cache_dir.rglob("*.sealed"))

    def test_cache_dir_flag_overrides_env(self, tmp_path, capsys):
        other = tmp_path / "elsewhere"
        assert main(["cache", "stats", "--cache-dir", str(other)]) == 0
        assert str(other) in capsys.readouterr().out


class TestCliCharts:
    def test_fig4_chart(self, capsys):
        assert main(["fig4", "--dies", "2", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "histogram" in out
        assert "█" in out

    def test_fig5_chart(self, capsys):
        assert main(["fig5", "--dies", "2", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "ratios vs Vth" in out

    def test_chartless_experiment_is_fine(self, capsys):
        assert main(["table5", "--chart"]) == 0
        assert "Table 5" in capsys.readouterr().out
