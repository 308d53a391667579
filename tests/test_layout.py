"""Structural guards: one implementation of each idea in ``src/``.

The serial and per-sample oracles the product code is checked against
live in ``tests/references.py``. These ``ast`` checks fail if product
code starts importing test code, if ``OnlineSimulation.run`` grows
a parameter again (a mode switch would bring a second simulation loop
back into ``src/``), or if an experiment module other than
``experiments/common.py`` keys or touches the campaign journal (a
second journaled trial loop), or if a Section 6.4 experiment (Figs
7-14, the ablations) draws its own workloads (a second trial loop),
or if a module other than the binning kernel and the characterisation
cache builds a ``ChipProfile`` (a second binning flow), or if a field
sampler grows a one-field ``sample`` next to ``sample_batch`` (a
second field generator), or if a public top-level function or class
has no caller (code that nothing runs).
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _test_imports(path: pathlib.Path):
    """Lines of ``path`` that import the ``tests`` package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "tests" or name.startswith("tests.")
               for name in names):
            yield node.lineno


def test_src_never_imports_tests():
    offenders = [f"{path.relative_to(SRC)}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 for line in _test_imports(path)]
    assert offenders == []


def test_import_guard_sees_test_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import tests.references\n"
                     "from tests import references\n"
                     "from tests.references import run_dense\n"
                     "import testsuite\n")
    assert list(_test_imports(probe)) == [1, 2, 3]


def test_online_simulation_run_takes_duration_and_interval_only():
    path = SRC / "runtime" / "simulation.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef)
               and node.name == "OnlineSimulation")
    run = next(node for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    args = run.args
    params = [a.arg for a in args.posonlyargs + args.args
              + args.kwonlyargs]
    assert params == ["self", "duration_s", "dvfs_interval_s"]
    assert args.vararg is None and args.kwarg is None


#: Calls that key, read or write campaign-journal units.
JOURNAL_CALLS = frozenset({"unit_key", "lookup", "record",
                           "require_complete", "mark_complete"})


def _calls_to(path: pathlib.Path, names):
    """Lines of ``path`` that call a function or method in ``names``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None)
        if name in names:
            yield node.lineno


def test_only_the_shared_trial_loop_journals():
    experiments = SRC / "experiments"
    offenders = [f"{path.name}:{line}"
                 for path in sorted(experiments.glob("*.py"))
                 if path.name != "common.py"
                 for line in _calls_to(path, JOURNAL_CALLS)]
    assert offenders == []


def test_journal_guard_sees_journal_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("key = unit_key(trial=0)\n"
                     "journal.lookup(key)\n"
                     "journal.record(key, {}, [1.0])\n"
                     "journal.require_complete([key])\n"
                     "journal.mark_complete('scope', 1)\n"
                     "lookup_table = {}\n"
                     "journal.replay()\n")
    assert list(_calls_to(probe, JOURNAL_CALLS)) == [1, 2, 3, 4, 5]


#: The Section 6.4 experiments: their trials come from ``trial_table``.
SECTION_64_MODULES = tuple(
    sorted(path for path in (SRC / "experiments").glob("fig*.py")
           if 7 <= int(path.name[3:5]) <= 14)) + (
    SRC / "experiments" / "ablations.py",)


def test_section_64_experiments_use_the_shared_trial_loop():
    assert len(SECTION_64_MODULES) == 9
    offenders = [f"{path.name}:{line}"
                 for path in SECTION_64_MODULES
                 for line in _calls_to(path, {"make_workload"})]
    assert offenders == []


def test_workload_guard_sees_workload_draws(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("w = make_workload(4, rng)\n"
                     "w = workloads.make_workload(4, rng)\n"
                     "make_workload_cache = {}\n"
                     "f = make_workload\n")
    assert list(_calls_to(probe, {"make_workload"})) == [1, 2]


#: The ``src/`` modules that build a ``ChipProfile``: the binning
#: kernel and the characterisation cache's loader.
PROFILE_BUILDERS = frozenset({"chip/batch.py", "parallel/cache.py"})


def test_only_the_binning_kernel_and_cache_build_profiles():
    offenders = [f"{rel}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 if (rel := path.relative_to(SRC).as_posix())
                 not in PROFILE_BUILDERS
                 for line in _calls_to(path, {"ChipProfile"})]
    assert offenders == []


def _class_members(path: pathlib.Path, name: str):
    """``Class.name`` for every class in ``path`` that defines or
    assigns a member called ``name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = (item.targets if isinstance(item, ast.Assign)
                           else [item.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            if name in names:
                yield f"{cls.name}.{name}"


def test_field_samplers_only_draw_batched():
    path = SRC / "variation" / "spatial.py"
    assert list(_class_members(path, "sample")) == []


def test_die_pipeline_guards_see_their_targets(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("profile = ChipProfile(die_id=0)\n"
                     "profile = chip.ChipProfile(**fields)\n"
                     "isinstance(profile, ChipProfile)\n"
                     "ChipProfileCache = {}\n")
    assert list(_calls_to(probe, {"ChipProfile"})) == [1, 2]
    probe.write_text("class A:\n"
                     "    def sample(self, rng):\n"
                     "        pass\n"
                     "    def sample_batch(self, rngs, count=1):\n"
                     "        pass\n"
                     "class B:\n"
                     "    sample = sample_batch\n"
                     "class C:\n"
                     "    def sample_batch(self, rngs, count=1):\n"
                     "        sample = rngs\n"
                     "def sample(rng):\n"
                     "    pass\n")
    assert list(_class_members(probe, "sample")) == ["A.sample",
                                                     "B.sample"]


#: Public top-level names kept without a caller, each with its reason.
ORPHAN_ALLOWLIST = {
    "TransientThermal": "DESIGN §3 substitution tool: transient "
                        "thermal model beside the steady-state one",
    "pooled_variogram": "DESIGN §3 substitution tool: checks a "
                        "variation map's spatial correlation",
    "fit_spherical": "DESIGN §3 substitution tool: fits phi to a "
                     "measured variogram",
    "ReconnectingClient": "DESIGN §19 client API for daemon tenants",
}


def _public_definitions(tree: ast.Module):
    """``(index, name)`` of each public top-level function and class."""
    for index, node in enumerate(tree.body):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not node.name.startswith("_")):
            yield index, node.name


def _referenced_names(node: ast.AST):
    """Every name and attribute ``node`` mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _orphans(src: pathlib.Path, text_roots):
    """``module:name`` of each public top-level function or class of
    ``src`` that no other top-level statement of a non-``__init__``
    module mentions and no ``.py`` file under ``text_roots`` names."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.rglob("*.py"))}
    # name -> the (module, statement) places that mention it.
    places = collections.defaultdict(set)
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue  # re-exports are not callers
        for index, node in enumerate(tree.body):
            for name in _referenced_names(node):
                places[name].add((path, index))
    words = {word for root in text_roots
             for path in root.rglob("*.py")
             for word in re.findall(r"\w+", path.read_text())}
    for path, tree in trees.items():
        for index, name in _public_definitions(tree):
            if places[name] - {(path, index)} or name in words:
                continue
            yield f"{path.relative_to(src).as_posix()}:{name}"


def test_every_public_name_has_a_caller():
    orphans = list(_orphans(SRC, (ROOT / "benchmarks", ROOT / "examples")))
    names = [orphan.rsplit(":", 1)[1] for orphan in orphans]
    assert [orphan for orphan, name in zip(orphans, names)
            if name not in ORPHAN_ALLOWLIST] == []
    # An allowlisted name that gained a caller leaves the list.
    assert sorted(names) == sorted(ORPHAN_ALLOWLIST)


def test_orphan_guard_sees_orphans(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "__init__.py").write_text("from .a import orphan, used\n"
                                     "__all__ = ['orphan', 'used']\n")
    (src / "a.py").write_text("def used():\n"
                              "    pass\n"
                              "def orphan():\n"
                              "    orphan()\n"
                              "class Bench:\n"
                              "    pass\n"
                              "class Method:\n"
                              "    pass\n"
                              "def _private():\n"
                              "    pass\n")
    (src / "b.py").write_text("from .a import used\n"
                              "x = used()\n"
                              "y = obj.Method\n")
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text("TARGETS = ['a', 'Bench.solve']\n")
    assert list(_orphans(src, [bench])) == ["a.py:orphan"]
