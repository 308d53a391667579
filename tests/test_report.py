"""Tests for the terminal chart renderer."""

import numpy as np
import pytest

from repro.report import bar_chart, histogram_chart, line_chart


class TestBarChart:
    def test_renders_all_rows(self):
        out = bar_chart(["a", "bb", "ccc"], [1.0, 2.0, 3.0],
                        title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 4
        assert "3.000" in lines[3]

    def test_longest_bar_is_max(self):
        out = bar_chart(["a", "b"], [1.0, 4.0], width=20)
        bars = [line.split("|")[1] for line in out.splitlines()]
        assert bars[1].count("█") > bars[0].count("█")
        assert bars[1].count("█") == 20

    def test_baseline_marker(self):
        out = bar_chart(["x"], [1.2], baseline=1.0)
        assert "^ 1" in out

    def test_zero_values_ok(self):
        out = bar_chart(["x", "y"], [0.0, 0.0])
        assert "0.000" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            bar_chart([], [])
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0], width=2)


class TestLineChart:
    def test_renders_series(self):
        xs = [1, 2, 3, 4]
        out = line_chart(xs, {"up": [1, 2, 3, 4],
                              "down": [4, 3, 2, 1]})
        assert "o up" in out
        assert "x down" in out
        assert "4.000" in out  # y max label

    def test_flat_series_does_not_crash(self):
        out = line_chart([0, 1], {"flat": [2.0, 2.0]})
        assert "flat" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            line_chart([1, 2], {})
        with pytest.raises(ValueError):
            line_chart([1, 2], {"a": [1.0]})
        with pytest.raises(ValueError):
            line_chart([1, 2], {"a": [1.0, 2.0]}, width=4)


class TestHistogramChart:
    def test_counts_sum(self):
        values = np.random.default_rng(0).normal(size=200)
        out = histogram_chart(values, n_bins=6, title="H")
        assert out.splitlines()[0] == "H"
        total = sum(float(line.rsplit(" ", 1)[-1])
                    for line in out.splitlines()[1:])
        assert total == pytest.approx(200)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram_chart([])


class TestSerialize:
    def test_round_trip_dataclass(self):
        import dataclasses
        import json
        import numpy as np
        from repro.report import to_jsonable

        @dataclasses.dataclass(frozen=True)
        class Inner:
            xs: tuple

        @dataclasses.dataclass(frozen=True)
        class Result:
            name: str
            value: float
            arr: np.ndarray
            nested: Inner
            table: dict

        r = Result(name="fig", value=np.float64(1.5),
                   arr=np.array([1.0, 2.0]),
                   nested=Inner(xs=(1, 2)),
                   table={4: Inner(xs=(3,))})
        loaded = json.loads(json.dumps(to_jsonable(r)))
        assert loaded["name"] == "fig"
        assert loaded["value"] == 1.5
        assert loaded["arr"] == [1.0, 2.0]
        assert loaded["nested"]["xs"] == [1, 2]
        assert loaded["table"]["4"]["xs"] == [3]

    def test_real_experiment_result_serialises(self):
        import json
        from repro.experiments import table5_apps
        from repro.report import to_jsonable
        result = table5_apps.run()
        loaded = json.loads(json.dumps(to_jsonable(result)))
        assert len(loaded["rows"]) == 14

    def test_failed_write_keeps_previous_result(self, tmp_path,
                                                monkeypatch):
        import json
        import os
        from repro.storage import write_atomic
        path = tmp_path / "r.json"
        write_atomic(path, json.dumps({"value": 1.0}).encode("utf-8"))

        def boom(src, dst):
            raise OSError("crash before the rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="crash before the rename"):
            write_atomic(path, json.dumps({"value": 2.0}).encode("utf-8"))
        assert json.loads(path.read_text()) == {"value": 1.0}
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_unserialisable_rejected(self):
        from repro.report import to_jsonable
        with pytest.raises(TypeError):
            to_jsonable(object())
