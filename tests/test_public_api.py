"""The public surface of ``repro`` and every sub-package.

The packages serve their re-exports lazily: an ``_EXPORTS`` table (name ->
home module) behind module ``__getattr__``/``__dir__``, and ``__all__`` is
the table's keys.  Laziness must be invisible: everything ``__all__`` names
resolves, to the very object its home module defines, and the table is the
only place a package spells a public name.
"""

import ast
import collections
import importlib
import pickle
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

PACKAGES = ["repro"] + [
    "repro." + name
    for name in (
        "apps aqm core harness metrics net obs pias sched "
        "sim sim.fluid topo transport workloads"
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

    def test_the_table_is_the_only_spelling(self, package):
        tree = _init_tree(package)
        table = _table(tree)
        assert importlib.import_module(package).__all__ == list(table)
        # no TYPE_CHECKING mirror, no __all__ literal: each exported name
        # is written once in the file, as its table key
        spelled = collections.Counter(
            node.value if isinstance(node, ast.Constant)
            else getattr(node, "id", None) or getattr(node, "name", None)
            for node in ast.walk(tree)
        )
        assert {name: spelled[name] for name in table} == dict.fromkeys(table, 1)

    def test_unknown_attribute_names_the_package(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match=repr(package)):
            pkg.no_such_name
        assert not hasattr(pkg, "no_such_name")


def test_obs_surface_is_pinned():
    """``repro.obs`` exports exactly this list: removing a name (as the
    metrics registry, the null tracer and the RSS sampler were removed)
    is a deliberate public-API change made here too."""
    import repro.obs

    assert sorted(repro.obs.__all__) == [
        "DEFAULT_CAPACITY", "DEFAULT_SPAN_CAPACITY", "QueueSummary",
        "RunProfile", "SpanRecorder", "TraceSummary", "Tracer",
        "chrome_trace", "current_rss_bytes", "format_span_summary",
        "format_trace_summary", "read_jsonl", "read_records",
        "summarize_events", "trace_events_to_chrome", "write_chrome",
        "write_jsonl",
    ]


def test_star_import_binds_all_of_repro():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["Simulator"] is repro.sim.engine.Simulator


def test_results_and_configs_pickle():
    from repro import ExperimentConfig, ExperimentResult

    cfg = ExperimentConfig(scheme="red_std", n_flows=7, seed=3)
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    result = ExperimentResult(cfg, completed=7, total=7, flow_stats=[(1, 2)])
    assert pickle.loads(pickle.dumps(result)) == result
