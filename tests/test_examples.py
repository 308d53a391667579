"""Smoke tests: the runnable examples must execute end to end.

Only the quick examples run here (the full set is exercised manually);
each is imported and its ``main()`` invoked with output captured.
"""

import importlib.util
import pathlib
import sys

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


def _run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = _run_example("quickstart", capsys)
        assert "NUniFreq" in out
        assert "LinOpt" in out

    def test_thermal_aware(self, capsys):
        out = _run_example("thermal_aware", capsys)
        assert "VarTemp" in out
        assert "peak T" in out

    def test_trace_driven_profiles(self, capsys):
        out = _run_example("trace_driven_profiles", capsys)
        assert "memory" in out
        assert "LinOpt" in out

    def test_daemon_service(self, capsys):
        out = _run_example("daemon_service", capsys)
        assert "actuation stream" in out
        assert "resilience timeline" in out
        assert "tenants_registered" in out

    def test_all_examples_exist_and_compile(self):
        expected = {"quickstart", "variation_study",
                    "online_power_management", "thermal_aware",
                    "solver_comparison", "full_timeline",
                    "trace_driven_profiles", "lifetime_study",
                    "daemon_service"}
        found = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
        assert expected <= found
        for path in EXAMPLES_DIR.glob("*.py"):
            compile(path.read_text(), str(path), "exec")
