"""simlint: rules fire exactly where the fixtures say, pragmas and the
baseline round-trip, the JSON schema stays stable, and the repo's own tree
is clean.  The hash-seed determinism property SIM003 guards is asserted
end-to-end in ``TestHashSeedDeterminism``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    BASELINE_VERSION,
    JSON_SCHEMA_VERSION,
    Baseline,
    lint_paths,
    registered_rules,
    rule_range,
)
from repro.analysis.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_ROOT = REPO_ROOT / "tests" / "simlint_fixtures"
EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<rules>SIM\d{3}(?:\s*,\s*SIM\d{3})*)")


def expected_findings(path):
    """(rule, line) pairs declared by ``# expect:`` comments in a fixture."""
    expected = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = EXPECT_RE.search(line)
        if match:
            for rule_id in match.group("rules").split(","):
                expected.add((rule_id.strip(), lineno))
    return expected


def fixture_files():
    return sorted((FIXTURE_ROOT / "repro").rglob("bad_*.py"))


class TestRulesOnFixtures:
    def test_fixtures_exist_and_cover_every_rule(self):
        files = fixture_files()
        assert files, "fixture package is empty"
        covered = set()
        for path in files:
            covered |= {rule_id for rule_id, _ in expected_findings(path)}
        all_rules = set(registered_rules()) - {"SIM000"}
        assert covered == all_rules, (
            f"rules without a fixture: {sorted(all_rules - covered)}; "
            f"fixtures naming unknown rules: {sorted(covered - all_rules)}"
        )

    @pytest.mark.parametrize(
        "path", fixture_files(), ids=lambda p: p.stem
    )
    def test_rule_fires_exactly_where_expected(self, path):
        expected = expected_findings(path)
        assert expected, f"{path} declares no '# expect:' lines"
        result = lint_paths([path], root=FIXTURE_ROOT)
        actual = {(f.rule, f.line) for f in result.findings}
        assert actual == expected, (
            f"missing: {sorted(expected - actual)}, "
            f"unexpected: {sorted(actual - expected)}"
        )

    def test_tree_equals_union_of_single_files(self):
        """Every rule reads only the file it checks, so linting the fixture
        package as one tree finds exactly what linting each file alone
        finds — the property that makes ``--changed`` exact."""
        tree = lint_paths([FIXTURE_ROOT / "repro"], root=FIXTURE_ROOT)
        union = [
            f
            for path in fixture_files()
            for f in lint_paths([path], root=FIXTURE_ROOT).findings
        ]
        assert tree.findings
        assert sorted(tree.findings) == sorted(union)

    def test_fixture_package_fails_the_gate(self):
        result = lint_paths([FIXTURE_ROOT / "repro"], root=FIXTURE_ROOT)
        assert not result.ok
        assert result.errors

    def test_select_restricts_rules(self):
        path = FIXTURE_ROOT / "repro" / "sched" / "bad_scheduler.py"
        result = lint_paths([path], root=FIXTURE_ROOT, select=["SIM005"])
        assert {f.rule for f in result.findings} == {"SIM005"}


class TestPragmas:
    def _lint_source(self, tmp_path, source, name="repro/sim/mod.py", select=None):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint_paths([path], root=tmp_path, select=select)

    def test_justified_pragma_suppresses(self, tmp_path):
        result = self._lint_source(
            tmp_path,
            "import time\n"
            "t = time.time()  # simlint: disable=SIM001 -- wall accounting\n",
        )
        assert result.findings == []

    def test_standalone_pragma_covers_next_line(self, tmp_path):
        result = self._lint_source(
            tmp_path,
            "import time\n"
            "# simlint: disable=SIM001 -- wall accounting\n"
            "t = time.time()\n",
        )
        assert result.findings == []

    def test_file_pragma_covers_whole_module(self, tmp_path):
        result = self._lint_source(
            tmp_path,
            "# simlint: disable-file=SIM001 -- wall-clock is this module's job\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.monotonic()\n",
        )
        assert result.findings == []

    def test_pragma_without_justification_is_rejected(self, tmp_path):
        result = self._lint_source(
            tmp_path,
            "import time\n"
            "t = time.time()  # simlint: disable=SIM001\n",
        )
        rules_hit = {f.rule for f in result.findings}
        # the violation is NOT suppressed, and the pragma itself is flagged
        assert rules_hit == {"SIM000", "SIM001"}
        assert any(
            "justification" in f.message
            for f in result.findings
            if f.rule == "SIM000"
        )

    def test_pragma_with_unknown_rule_is_rejected(self, tmp_path):
        result = self._lint_source(
            tmp_path,
            "x = 1  # simlint: disable=SIM999 -- no such rule\n",
        )
        assert [f.rule for f in result.findings] == ["SIM000"]
        assert "unknown rule" in result.findings[0].message

    def test_unused_pragma_is_reported(self, tmp_path):
        result = self._lint_source(
            tmp_path,
            "x = 1  # simlint: disable=SIM001 -- nothing to suppress here\n",
        )
        assert [f.rule for f in result.findings] == ["SIM000"]
        assert result.findings[0].severity == "warning"
        assert "unused" in result.findings[0].message

    def test_pragma_of_an_unselected_rule_is_not_judged(self, tmp_path):
        result = self._lint_source(
            tmp_path,
            "import time\n"
            "t = time.time()  # simlint: disable=SIM001 -- wall accounting\n",
            select=["SIM005"],
        )
        assert result.findings == []

    def test_pragma_inside_string_literal_is_inert(self, tmp_path):
        result = self._lint_source(
            tmp_path,
            'DOC = "# simlint: disable=SIM001 -- not a real pragma"\n'
            "import time\n"
            "t = time.time()\n",
        )
        assert [f.rule for f in result.findings] == ["SIM001"]


class TestConfinementAliases:
    """SIM017 follows a module alias bound in the same file to the
    confined call, however the module import is spelled."""

    @pytest.mark.parametrize(
        "binding, call",
        [
            ("import repro.net.packet as p", "p.release(f)"),
            ("from repro.net import packet", "packet.make_ack(f)"),
            ("from repro.net import packet as pk", "pk.make_data(f)"),
            ("import repro.net.packet", "repro.net.packet.release(f)"),
            ("from repro.sim import engine", "engine.heappush(h, f)"),
        ],
        ids=["import-as", "from-package", "from-package-as", "full-path",
             "engine-heap"],
    )
    def test_alias_call_fires(self, tmp_path, binding, call):
        path = tmp_path / "repro" / "workloads" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text(f"{binding}\n\n\ndef go(f, h):\n    {call}\n")
        result = lint_paths([path], root=tmp_path, select=["SIM017"])
        assert [(f.rule, f.line) for f in result.findings] == [("SIM017", 5)]

    @pytest.mark.parametrize(
        "package, call",
        [
            ("workloads", "p.freelist_stats()"),  # not a confined name
            ("transport", "p.release(f)"),  # the owning layer
        ],
        ids=["unconfined-name", "owning-package"],
    )
    def test_near_misses_are_silent(self, tmp_path, package, call):
        path = tmp_path / "repro" / package / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            f"import repro.net.packet as p\n\n\ndef go(f):\n    {call}\n"
        )
        result = lint_paths([path], root=tmp_path, select=["SIM017"])
        assert result.findings == []


class TestRuleRange:
    def test_range_tracks_the_registry(self):
        ids = sorted(r for r in registered_rules() if r != "SIM000")
        assert rule_range() == f"{ids[0]}..{ids[-1]}"
        # the span that once went stale in help text must stay derived
        assert rule_range() >= "SIM001..SIM018"

    def test_cli_description_uses_derived_range(self, capsys):
        from repro.analysis.cli import build_parser

        assert rule_range() in build_parser().description
        assert "SIM001..SIM010" not in build_parser().description


class TestChangedFlag:
    def _git(self, cwd, *args):
        subprocess.run(
            ["git", *args], cwd=cwd, check=True, capture_output=True,
            env=dict(
                os.environ,
                GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@t",
                GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@t",
            ),
        )

    def _repo_with_commit(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        (src / "clean.py").write_text("x = 1\n")
        (src / "other.py").write_text("y = 2\n")
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "commit", "-qm", "seed")
        return src

    def test_changed_lints_only_touched_files(self, tmp_path, capsys):
        src = self._repo_with_commit(tmp_path)
        (src / "clean.py").write_text(
            "import time\nt = time.time()\n"
        )
        code = lint_main(["--root", str(tmp_path), "--changed"])
        out = capsys.readouterr().out
        assert code == 1
        assert "clean.py" in out and "SIM001" in out
        assert "other.py" not in out

    def test_changed_with_no_changes_is_clean(self, tmp_path, capsys):
        self._repo_with_commit(tmp_path)
        code = lint_main(["--root", str(tmp_path), "--changed"])
        assert code == 0
        assert "no changed Python files" in capsys.readouterr().out

    def test_changed_skips_files_outside_the_targets(self, tmp_path, capsys):
        self._repo_with_commit(tmp_path)
        stray = tmp_path / "scripts"
        stray.mkdir()
        (stray / "tool.py").write_text("z = 1\n")
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "commit", "-qm", "stray")
        # a *tracked* change outside src/repro: in the diff, out of scope
        (stray / "tool.py").write_text("import time\nt = time.time()\n")
        code = lint_main(["--root", str(tmp_path), "--changed"])
        assert code == 0
        assert "no changed Python files" in capsys.readouterr().out

    def test_bad_base_exits_two(self, tmp_path, capsys):
        self._repo_with_commit(tmp_path)
        code = lint_main(
            ["--root", str(tmp_path), "--changed", "no-such-ref"]
        )
        assert code == 2


class TestBaseline:
    def test_round_trip_absorbs_then_catches_new(self, tmp_path):
        target = FIXTURE_ROOT / "repro" / "topo" / "bad_print.py"
        first = lint_paths([target], root=FIXTURE_ROOT)
        assert first.errors

        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(first.findings).write(baseline_path)
        baseline = Baseline.load(baseline_path)

        again = lint_paths([target], root=FIXTURE_ROOT, baseline=baseline)
        assert again.ok
        assert len(again.baselined) == len(first.findings)

        # a *new* violation in the same file is not grandfathered
        copy = tmp_path / "repro" / "topo" / "bad_print.py"
        copy.parent.mkdir(parents=True)
        copy.write_text(target.read_text() + "\n\nprint('new violation')\n")
        newer = lint_paths([copy], root=tmp_path, baseline=baseline)
        assert not newer.ok
        assert len(newer.findings) == 1
        assert newer.findings[0].rule == "SIM009"

    def test_fingerprints_survive_line_moves(self, tmp_path):
        target = FIXTURE_ROOT / "repro" / "topo" / "bad_print.py"
        baseline = Baseline.from_findings(
            lint_paths([target], root=FIXTURE_ROOT).findings
        )
        # shift every finding down ten lines; fingerprints must still match
        moved = tmp_path / "repro" / "topo" / "bad_print.py"
        moved.parent.mkdir(parents=True)
        moved.write_text("\n" * 10 + target.read_text())
        result = lint_paths([moved], root=tmp_path, baseline=baseline)
        assert result.ok
        assert result.baselined

    def test_version_mismatch_is_an_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 999, "fingerprints": {}}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)

    def test_missing_baseline_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "does-not-exist.json")
        assert baseline.counts == {}


class TestJsonSchema:
    def test_document_shape_is_stable(self):
        result = lint_paths([FIXTURE_ROOT / "repro"], root=FIXTURE_ROOT)
        doc = result.to_json()
        assert doc["version"] == JSON_SCHEMA_VERSION == 1
        assert set(doc) == {
            "version", "files_checked", "ok", "counts", "findings", "rules",
        }
        assert set(doc["counts"]) == {
            "errors", "warnings", "baselined", "parse_errors",
        }
        assert doc["findings"], "fixture lint should produce findings"
        for finding in doc["findings"]:
            assert set(finding) == {
                "rule", "path", "line", "col", "severity", "message",
                "snippet", "fingerprint", "baselined",
            }
            assert re.fullmatch(r"[0-9a-f]{16}", finding["fingerprint"])
        for rule_id, meta in doc["rules"].items():
            assert re.fullmatch(r"SIM\d{3}", rule_id)
            assert set(meta) == {"name", "severity", "rationale"}

    def test_baseline_version_is_pinned(self):
        assert BASELINE_VERSION == 1


class TestCli:
    def test_fixture_package_exits_nonzero(self, capsys):
        code = lint_main(
            [str(FIXTURE_ROOT / "repro"), "--root", str(FIXTURE_ROOT)]
        )
        assert code == 1
        assert "SIM" in capsys.readouterr().out

    def test_json_format_parses(self, capsys):
        code = lint_main(
            [
                str(FIXTURE_ROOT / "repro"),
                "--root", str(FIXTURE_ROOT),
                "--format", "json",
            ]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == JSON_SCHEMA_VERSION
        assert not doc["ok"]

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert lint_main([str(path), "--root", str(tmp_path)]) == 0

    def test_unknown_select_exits_two(self, capsys):
        assert lint_main(["--select", "SIM999"]) == 2

    def test_missing_path_exits_two(self, capsys):
        assert lint_main([str(FIXTURE_ROOT / "no-such-dir")]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in registered_rules():
            if rule_id != "SIM000":
                assert rule_id in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "bl.json"
        target = str(FIXTURE_ROOT / "repro" / "topo")
        root = ["--root", str(FIXTURE_ROOT)]
        assert lint_main(
            [target, *root, "--write-baseline", "--baseline", str(baseline)]
        ) == 0
        assert lint_main([target, *root, "--baseline", str(baseline)]) == 0
        assert lint_main([target, *root, "--no-baseline"]) == 1


class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        """The shipped tree has zero findings — and therefore also zero
        unjustified or unused pragmas (both are SIM000 findings)."""
        result = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        assert result.ok, [f.location() + " " + f.rule for f in result.errors]
        assert result.warnings == [], [
            f.location() + " " + f.message for f in result.warnings
        ]


class TestHashSeedDeterminism:
    """The property SIM003 exists to protect, asserted end-to-end: the FCT
    vector of a run must not depend on PYTHONHASHSEED."""

    SCRIPT = (
        "import json\n"
        "from repro.harness.config import ExperimentConfig\n"
        "from repro.harness.runner import run_experiment\n"
        "cfg = ExperimentConfig(scheme='tcn', scheduler='dwrr',"
        " transport='dctcp', workload='websearch', load=0.6, seed=7,"
        " n_flows=40, n_queues=4)\n"
        "r = run_experiment(cfg)\n"
        "print(json.dumps(sorted([f.id, f.fct_ns] for f in r.flows)))\n"
    )

    def _fct_vector(self, hash_seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hash_seed)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
            check=True,
        )
        return json.loads(proc.stdout)

    def test_fct_vector_identical_across_hash_seeds(self):
        base = self._fct_vector(0)
        assert base, "experiment produced no flows"
        assert any(fct is not None for _, fct in base)
        assert self._fct_vector(42) == base
