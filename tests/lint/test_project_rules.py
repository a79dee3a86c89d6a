"""The project rules (REP201/REP202/REP301/REP302), three ways.

* **Fixture projects**: minimal virtual ``src/repro`` trees exercising
  each rule's positive and negative, without touching the real repo.
* **Real-tree canary**: pins that :func:`build_project` actually
  extracts this repo's registries (8 scenarios, 3 backends, 11 spec
  fields...).  The rules tolerate *absent* inputs by design -- the
  canary is what keeps that tolerance from silently disabling a rule
  here.
* **Acceptance toggles**: copy the real tree, delete one
  ``DIGEST_EXCLUDED`` entry / comment out one equivalence-matrix row,
  and assert the CLI flips to exit 1 (the ISSUE's acceptance
  criterion).
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import List

import pytest

from repro.lint.cli import main
from repro.lint.project import build_project, find_project_root, lint_project

REPO_ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Fixture-project scaffolding
# ---------------------------------------------------------------------------

SPEC_OK = '''\
from dataclasses import dataclass

DIGEST_EXCLUDED = frozenset({"cache"})
BATCH_KEY_EXCLUDED = frozenset({"graph"})


@dataclass(frozen=True)
class FloodSpec:
    graph: object
    budget: int
    cache: str = "use"

    def digest(self) -> str:
        return repr((self.graph, self.budget))

    def batch_key(self, resolved_backend: str) -> tuple:
        return (self.budget, resolved_backend)
'''

SCENARIOS_OK = '''\
BACKEND_NAMES = ("pure", "oracle")


def register_scenario(name, runner):
    pass


register_scenario("flood", None)
register_scenario("thinning", None)
'''

EQUIVALENCE_OK = '''\
import pytest

SCENARIOS = ("flood", "thinning:0.8")
BACKENDS = ["pure", "oracle"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_matrix(backend):
    pass
'''

RUN_BENCH_OK = '''\
BENCH_FILES = ("bench_core.py",)
FASTPATH_PREFIXES = ("test_ext_",)
TRAJECTORY_OPTIONAL = ("test_ext_canary",)
'''

BENCH_CORE_OK = '''\
def test_ext_scale(benchmark):
    pass


def test_ext_canary(benchmark):
    pass
'''

TRAJECTORY_OK = '{"rows": [{"benchmark": "test_ext_scale[pure-100]"}]}\n'


def make_project(
    tmp_path: Path,
    spec: str = SPEC_OK,
    scenarios: str = SCENARIOS_OK,
    equivalence: str = EQUIVALENCE_OK,
    run_bench: str = RUN_BENCH_OK,
    bench_core: str = BENCH_CORE_OK,
    trajectory: str = TRAJECTORY_OK,
) -> Path:
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "spec.py").write_text(spec)
    (package / "scenarios.py").write_text(scenarios)
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir()
    (tests_dir / "test_matrix_equivalence.py").write_text(equivalence)
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    (bench_dir / "run_bench.py").write_text(run_bench)
    (bench_dir / "bench_core.py").write_text(bench_core)
    (tmp_path / "BENCH_fastpath.json").write_text(trajectory)
    return tmp_path


def findings_of(root: Path, rule: str) -> List[str]:
    return [
        f"{f.path}:{f.line}"
        for f in lint_project([str(root / "src")], [rule], root=str(root))
    ]


# ---------------------------------------------------------------------------
# Root discovery
# ---------------------------------------------------------------------------


def test_find_project_root_walks_up_from_a_file(tmp_path):
    root = make_project(tmp_path)
    target = root / "src" / "repro" / "spec.py"
    assert find_project_root([str(target)]) == str(root)


def test_no_src_repro_layout_means_no_project_findings(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "x.py").write_text("X = 1\n")
    assert lint_project([str(tmp_path / "pkg")]) == []


# ---------------------------------------------------------------------------
# REP201 digest coverage
# ---------------------------------------------------------------------------


def test_rep201_clean_fixture_is_negative(tmp_path):
    root = make_project(tmp_path)
    assert findings_of(root, "REP201") == []


def test_rep201_flags_a_field_outside_digest_and_exclusions(tmp_path):
    spec = SPEC_OK.replace(
        'DIGEST_EXCLUDED = frozenset({"cache"})',
        "DIGEST_EXCLUDED = frozenset()",
    )
    root = make_project(tmp_path, spec=spec)
    assert findings_of(root, "REP201") == ["src/repro/spec.py:11"]


def test_rep201_flags_stale_and_contradictory_exclusions(tmp_path):
    spec = SPEC_OK.replace(
        'DIGEST_EXCLUDED = frozenset({"cache"})',
        'DIGEST_EXCLUDED = frozenset({"cache", "ghost", "budget"})',
    )
    root = make_project(tmp_path, spec=spec)
    # line 3 is the frozenset assignment: one stale entry, one
    # digest-covered entry.
    assert findings_of(root, "REP201") == [
        "src/repro/spec.py:3",
        "src/repro/spec.py:3",
    ]


# ---------------------------------------------------------------------------
# REP202 batch-key coverage
# ---------------------------------------------------------------------------


def test_rep202_clean_fixture_is_negative(tmp_path):
    root = make_project(tmp_path)
    assert findings_of(root, "REP202") == []


def test_rep202_flags_a_digest_field_missing_from_batch_key(tmp_path):
    spec = SPEC_OK.replace(
        'BATCH_KEY_EXCLUDED = frozenset({"graph"})',
        "BATCH_KEY_EXCLUDED = frozenset()",
    )
    root = make_project(tmp_path, spec=spec)
    assert findings_of(root, "REP202") == ["src/repro/spec.py:9"]


def test_rep202_ignores_fields_outside_the_digest(tmp_path):
    # `cache` is digest-excluded, so REP202 has no opinion on it even
    # though batch_key() never reads it.
    root = make_project(tmp_path)
    assert findings_of(root, "REP202") == []


# ---------------------------------------------------------------------------
# REP301 matrix coverage
# ---------------------------------------------------------------------------


def test_rep301_clean_fixture_is_negative(tmp_path):
    root = make_project(tmp_path)
    assert findings_of(root, "REP301") == []


def test_rep301_flags_an_uncovered_scenario(tmp_path):
    scenarios = SCENARIOS_OK + 'register_scenario("gossip", None)\n'
    root = make_project(tmp_path, scenarios=scenarios)
    assert findings_of(root, "REP301") == ["src/repro/scenarios.py:10"]


def test_rep301_flags_an_uncovered_backend(tmp_path):
    scenarios = SCENARIOS_OK.replace(
        'BACKEND_NAMES = ("pure", "oracle")',
        'BACKEND_NAMES = ("pure", "oracle", "cuda")',
    )
    root = make_project(tmp_path, scenarios=scenarios)
    assert findings_of(root, "REP301") == ["src/repro/scenarios.py:1"]


def test_rep301_parameterised_matrix_row_covers_the_base_scenario(tmp_path):
    # "thinning:0.8" in the matrix covers the registered "thinning".
    root = make_project(tmp_path)
    assert findings_of(root, "REP301") == []


def test_rep301_a_use_inside_a_test_body_is_not_coverage(tmp_path):
    equivalence = EQUIVALENCE_OK.replace(
        'SCENARIOS = ("flood", "thinning:0.8")',
        'SCENARIOS = ("flood",)',
    ).replace(
        "def test_matrix(backend):\n    pass",
        'def test_matrix(backend):\n    helper("thinning:0.8")',
    )
    root = make_project(tmp_path, equivalence=equivalence)
    assert findings_of(root, "REP301") == ["src/repro/scenarios.py:9"]


STOCHASTIC_SCENARIOS = SCENARIOS_OK + (
    'THINNING = "thinning"\n'
    'LOSS = "loss"\n'
    "STOCHASTIC_KINDS = (THINNING, LOSS)\n"
)


def test_rep301_flags_stochastic_kinds_without_a_numpy_row(tmp_path):
    root = make_project(tmp_path, scenarios=STOCHASTIC_SCENARIOS)
    assert findings_of(root, "REP301") == [
        "src/repro/scenarios.py:12",
        "src/repro/scenarios.py:12",
    ]


def test_rep301_stacked_numpy_row_covers_stochastic_kinds(tmp_path):
    equivalence = EQUIVALENCE_OK + (
        '\n\nKINDS = ("thinning", "loss:0.5")\n\n\n'
        '@pytest.mark.parametrize("lane", ["pure", "numpy"])\n'
        '@pytest.mark.parametrize("kind", KINDS)\n'
        "def test_lanes(lane, kind):\n    pass\n"
    )
    root = make_project(
        tmp_path, scenarios=STOCHASTIC_SCENARIOS, equivalence=equivalence
    )
    assert findings_of(root, "REP301") == []


def test_rep301_class_parametrize_reaches_its_methods(tmp_path):
    equivalence = EQUIVALENCE_OK + (
        '\n\n@pytest.mark.parametrize("lane", ["numpy"])\n'
        "class TestLanes:\n"
        '    @pytest.mark.parametrize("kind", ["thinning", "loss"])\n'
        "    def test_lanes(self, lane, kind):\n        pass\n"
    )
    root = make_project(
        tmp_path, scenarios=STOCHASTIC_SCENARIOS, equivalence=equivalence
    )
    assert findings_of(root, "REP301") == []


def test_rep301_numpy_in_another_test_is_not_a_row(tmp_path):
    equivalence = EQUIVALENCE_OK + (
        '\n\n@pytest.mark.parametrize("lane", ["numpy"])\n'
        "def test_numpy(lane):\n    pass\n\n\n"
        '@pytest.mark.parametrize("kind", ["thinning", "loss"])\n'
        "def test_kinds(kind):\n    pass\n"
    )
    root = make_project(
        tmp_path, scenarios=STOCHASTIC_SCENARIOS, equivalence=equivalence
    )
    assert len(findings_of(root, "REP301")) == 2


# ---------------------------------------------------------------------------
# REP302 bench coverage
# ---------------------------------------------------------------------------


def test_rep302_clean_fixture_is_negative(tmp_path):
    root = make_project(tmp_path)
    assert findings_of(root, "REP302") == []


def test_rep302_flags_a_family_without_a_trajectory_row(tmp_path):
    bench = BENCH_CORE_OK + "\n\ndef test_ext_new_surface(benchmark):\n    pass\n"
    root = make_project(tmp_path, bench_core=bench)
    assert findings_of(root, "REP302") == ["benchmarks/bench_core.py:9"]


def test_rep302_optional_declaration_is_the_escape_hatch(tmp_path):
    # test_ext_canary has no row but is declared TRAJECTORY_OPTIONAL.
    root = make_project(tmp_path)
    assert findings_of(root, "REP302") == []


def test_rep302_flags_stale_optional_entries(tmp_path):
    run_bench = RUN_BENCH_OK.replace(
        'TRAJECTORY_OPTIONAL = ("test_ext_canary",)',
        'TRAJECTORY_OPTIONAL = ("test_ext_canary", "test_ext_gone")',
    )
    root = make_project(tmp_path, run_bench=run_bench)
    assert findings_of(root, "REP302") == ["benchmarks/run_bench.py:3"]


def test_rep302_missing_trajectory_file_is_a_no_op(tmp_path):
    root = make_project(tmp_path)
    (root / "BENCH_fastpath.json").unlink()
    assert findings_of(root, "REP302") == []


# ---------------------------------------------------------------------------
# Suppressions apply to project findings
# ---------------------------------------------------------------------------


def test_project_findings_honour_line_suppressions(tmp_path):
    scenarios = SCENARIOS_OK + (
        "# repro-lint: disable=REP301 -- fixture: deliberately uncovered\n"
        'register_scenario("gossip", None)\n'
    )
    root = make_project(tmp_path, scenarios=scenarios)
    assert findings_of(root, "REP301") == []


# ---------------------------------------------------------------------------
# Real-tree canary: extraction must not silently degrade to "absent"
# ---------------------------------------------------------------------------


def test_real_tree_extraction_canary():
    ctx = build_project(str(REPO_ROOT))
    assert len(ctx.modules) >= 100
    assert [s.value for s in ctx.scenarios] == [
        "flood",
        "thinning",
        "lossy",
        "kmemory",
        "periodic",
        "multi_message",
        "random_delay",
        "dynamic",
    ]
    assert [b.value for b in ctx.backends] == ["pure", "numpy", "oracle"]
    assert [k.value for k in ctx.stochastic_kinds] == [
        "thinning",
        "loss",
        "random_delay",
    ]
    assert {"numpy", "thinning", "loss", "random_delay"} <= set(
        ctx.numpy_row_strings
    )
    spec = ctx.spec
    assert spec is not None
    assert len(spec.fields) == 11
    assert spec.has_digest and spec.has_batch_key
    assert spec.digest_excluded == ("cache",)
    assert len(ctx.equivalence_files) >= 4
    bench = ctx.bench
    assert bench is not None and bench.trajectory_present
    assert len(bench.families) >= 20
    assert "test_ext_par_forced_failure" in bench.optional


def test_real_tree_import_graph_is_populated():
    ctx = build_project(str(REPO_ROOT))
    assert "repro.api.spec" in ctx.modules
    assert any(
        module.startswith("repro.fastpath")
        for module in ctx.import_graph["repro.api.spec"]
    )


# ---------------------------------------------------------------------------
# Acceptance toggles: mutate a copy of the real tree, expect exit 1
# ---------------------------------------------------------------------------


@pytest.fixture
def tree_copy(tmp_path):
    """The real src/tests/benchmarks trees plus the trajectory file."""
    for name in ("src", "tests", "benchmarks"):
        shutil.copytree(
            REPO_ROOT / name,
            tmp_path / name,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    shutil.copy(REPO_ROOT / "BENCH_fastpath.json", tmp_path)
    return tmp_path


def test_tree_copy_control_exits_zero(tree_copy, monkeypatch, capsys):
    monkeypatch.chdir(tree_copy)
    assert main(["src", "--project"]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out


def test_deleting_a_digest_exclusion_exits_one(tree_copy, monkeypatch, capsys):
    spec_path = tree_copy / "src" / "repro" / "api" / "spec.py"
    text = spec_path.read_text()
    assert 'DIGEST_EXCLUDED = frozenset({"cache"})' in text
    spec_path.write_text(
        text.replace(
            'DIGEST_EXCLUDED = frozenset({"cache"})',
            "DIGEST_EXCLUDED = frozenset()",
        )
    )
    monkeypatch.chdir(tree_copy)
    assert main(["src", "--project"]) == 1
    out = capsys.readouterr().out
    assert "REP201" in out and "'cache'" in out


def test_commenting_out_a_matrix_row_exits_one(tree_copy, monkeypatch, capsys):
    matrix = (
        tree_copy
        / "tests"
        / "variants"
        / "test_scenario_fastpath_equivalence.py"
    )
    text = matrix.read_text()
    assert '"kmemory:2",' in text
    matrix.write_text(text.replace('"kmemory:2",', '# "kmemory:2",'))
    monkeypatch.chdir(tree_copy)
    assert main(["src", "--project"]) == 1
    out = capsys.readouterr().out
    assert "REP301" in out and "'kmemory'" in out


def test_dropping_the_numpy_lane_rows_exits_one(tree_copy, monkeypatch, capsys):
    for name in (
        "test_fastpath_equivalence.py",
        "test_scenario_fastpath_equivalence.py",
    ):
        matrix = tree_copy / "tests" / "variants" / name
        text = matrix.read_text()
        assert 'LANES = ("pure", "numpy")' in text
        matrix.write_text(text.replace('LANES = ("pure", "numpy")', 'LANES = ("pure",)'))
    monkeypatch.chdir(tree_copy)
    assert main(["src", "--project"]) == 1
    out = capsys.readouterr().out
    assert "REP301" in out and "'random_delay'" in out and "numpy" in out
