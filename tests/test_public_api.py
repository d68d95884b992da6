"""The public surface of ``repro`` and every sub-package.

The packages serve their re-exports lazily: an ``_EXPORTS`` table (name ->
home module) behind module ``__getattr__``/``__dir__``, with the real
imports kept under ``if TYPE_CHECKING:`` for mypy and simlint.  Laziness
must be invisible: everything ``__all__`` names resolves, to the very
object its home module defines, and the two lists of names cannot drift.
"""

import ast
import importlib
import pickle
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

PACKAGES = ["repro"] + [
    "repro." + name
    for name in (
        "analysis apps aqm bench core harness metrics net obs pias sched "
        "sim sim.equeue sim.fluid sim.parallel topo transport workloads"
    ).split()
]


def _init_tree(package):
    rel = package.split(".")[1:]
    return ast.parse(SRC.joinpath(*rel, "__init__.py").read_text())


def _table(tree):
    """The literal ``_EXPORTS`` dict: exported name -> home module."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no _EXPORTS table")


def _type_checking_imports(tree):
    """name -> module for every import in the ``if TYPE_CHECKING:`` block."""
    found = {}
    for node in tree.body:
        if (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        ):
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom) and not stmt.level
                for alias in stmt.names:
                    assert alias.asname is None
                    found[alias.name] = stmt.module
    return found


def test_every_package_is_covered():
    on_disk = {
        ".".join(("repro",) + p.parent.relative_to(SRC).parts)
        for p in SRC.rglob("__init__.py")
    }
    assert on_disk == set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
class TestEveryPackage:
    def test_all_resolves_and_is_listed(self, package):
        pkg = importlib.import_module(package)
        listed = dir(pkg)
        assert len(set(pkg.__all__)) == len(pkg.__all__)
        for name in pkg.__all__:
            getattr(pkg, name)  # raises AttributeError if it cannot resolve
            assert name in listed

    def test_exports_are_the_home_modules_objects(self, package):
        pkg = importlib.import_module(package)
        for name, home in _table(_init_tree(package)).items():
            assert name in pkg.__all__
            served = getattr(pkg, name)
            assert served is getattr(importlib.import_module(home), name)
            # resolved once: from now on a plain attribute of the package
            assert vars(pkg)[name] is served

    def test_table_and_type_checking_block_agree(self, package):
        tree = _init_tree(package)
        # same names, and the same home module for each of them
        assert _table(tree) == _type_checking_imports(tree)

    def test_unknown_attribute_names_the_package(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match=repr(package)):
            pkg.no_such_name
        assert not hasattr(pkg, "no_such_name")


def test_lazy_packages_export_exactly_their_table():
    # repro.sim.equeue also defines names of its own (make_equeue, BACKENDS)
    for package in PACKAGES:
        if package == "repro.sim.equeue":
            continue
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) == set(_table(_init_tree(package))), package


def test_star_import_binds_all_of_repro():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["Simulator"] is repro.sim.engine.Simulator


def test_results_and_configs_pickle():
    from repro import ExperimentConfig, SweepResult

    cfg = ExperimentConfig(scheme="red_std", n_flows=7, seed=3)
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    result = SweepResult(config=cfg, completed=7, total=7, flow_stats=[(1, 2)])
    assert pickle.loads(pickle.dumps(result)) == result
