import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import cubeshell
import cubeshell.oracle
import cubeshell.voronoi
from cubeshell.pointio import generate_points, write_points


class TestLazySurface:
    def test_every_public_name_resolves(self):
        listed = dir(cubeshell)
        for name in cubeshell.__all__:
            assert getattr(cubeshell, name) is not None, name
            assert name in listed, name

    def test_star_import_binds_all(self):
        ns: dict = {}
        exec("from cubeshell import *", ns)
        assert set(cubeshell.__all__) <= set(ns)

    def test_lazy_names_are_the_module_objects(self):
        assert cubeshell.build_voronoi is cubeshell.voronoi.build_voronoi
        assert cubeshell.exact_oracle_3d is cubeshell.oracle.exact_oracle_3d

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cubeshell.no_such_name
        assert not hasattr(cubeshell, "no_such_name")


class TestNoThirdPartyRuntime:
    def test_everything_runs_without_numpy(self, tmp_path):
        files = []
        for dim in (3, 2):
            path = tmp_path / f"d{dim}.txt"
            path.write_text(write_points(generate_points(14, dim, "uniform", 3)))
            files.append(str(path))
        script = (
            "import json, sys\n"
            "sys.modules['numpy'] = None  # any import of numpy now fails\n"
            "import cubeshell\n"
            "for name in cubeshell.__all__:\n"
            "    getattr(cubeshell, name)\n"
            "from cubeshell.cli import main\n"
            f"codes = [main(['oracle', f]) for f in {files!r}]\n"
            "print(json.dumps(codes), file=sys.stderr)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr.splitlines()[-1]) == [0, 0]


class TestBenchmarkSpans:
    def test_traced_functions_resolve(self):
        # a renamed function would leave its span, and its metrics, at 0
        spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        targets = runpy.run_path(str(spans))["TARGETS"]
        assert targets
        for module, function, *_ in targets:
            mod = importlib.import_module(f"cubeshell.{module}")
            assert callable(getattr(mod, function, None)), (module, function)
