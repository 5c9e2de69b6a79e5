import importlib
import runpy
from pathlib import Path

import pytest

import cubeshell
import cubeshell.oracle
import cubeshell.voronoi


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


class TestBenchmarkSpans:
    def test_traced_functions_resolve(self):
        # a renamed function would leave its span, and its metrics, at 0
        spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        targets = runpy.run_path(str(spans))["TARGETS"]
        assert targets
        for module, function, *_ in targets:
            mod = importlib.import_module(f"cubeshell.{module}")
            assert callable(getattr(mod, function, None)), (module, function)
