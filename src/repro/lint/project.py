"""The project-level analysis context and its one-pass builder.

The per-file rules (REP001-REP103) see one AST at a time; the contract
rules (REP201-REP302) check invariants that *span* modules -- every
``FloodSpec`` field flows into ``digest()`` or a declared exclusion,
every registered scenario appears in the equivalence matrix, every
trajectory bench family has a committed row.  :class:`ProjectContext`
is everything those rules need, built **once** per lint run:

* per-module ASTs of ``src/repro`` (sorted walk, parsed once),
* the import graph over the package (module -> imported repro modules),
* the extracted registries: scenario strings (top-level
  ``register_scenario("name", ...)`` calls), backend names (the
  ``BACKEND_NAMES`` tuple), the ``FloodSpec`` field/coverage tables
  (dataclass fields, ``digest()``/``batch_key()`` field references,
  the ``DIGEST_EXCLUDED``/``BATCH_KEY_EXCLUDED`` frozensets),
* the stochastic variant kinds (the ``STOCHASTIC_KINDS`` tuple, its
  names resolved through module-level string constants),
* the equivalence-matrix string constants under ``tests/`` (module
  names containing ``equivalence``; module-level sequence literals and
  ``pytest.mark.parametrize`` arguments only, so a variant *kind*
  string deep inside a helper call does not count as matrix coverage),
  and the *numpy rows* among them: the strings of every test function
  or class whose stacked ``parametrize`` decorators include
  ``"numpy"``,
* the bench-trajectory tables: the ``test_ext_*`` families defined in
  ``run_bench.py``'s ``BENCH_FILES`` and matching its
  ``FASTPATH_PREFIXES``, the declared ``TRAJECTORY_OPTIONAL`` names,
  and the row families committed in ``BENCH_fastpath.json``.

Everything is extracted by pattern, not by import: the analyzer never
executes project code, works on broken trees, and is a pure function
of the file bytes -- the same determinism contract as the file pass.
Missing inputs degrade each extraction to "absent" (``None``/empty),
and each project rule no-ops on absent input; the real tree's
extractions are pinned non-absent by ``tests/lint`` canary tests, so
absence tolerance cannot silently disable a rule on this repo.

Findings from project rules report paths **relative to the project
root** with POSIX separators (``src/repro/api/spec.py``), so reports
are byte-identical regardless of how the target path was spelled.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, sort_findings
from repro.lint.registry import all_project_rules
from repro.lint.suppress import apply_suppressions, parse_suppressions


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source module of the project under analysis."""

    path: str  # project-root-relative POSIX path
    module: str  # dotted module name (repro.api.spec)
    tree: ast.Module
    source_lines: Tuple[str, ...]


@dataclass(frozen=True)
class RegisteredName:
    """A name extracted from a registry, with the line that declared it."""

    value: str
    path: str
    line: int


@dataclass(frozen=True)
class SpecCoverage:
    """The ``FloodSpec`` field/coverage tables for REP201/REP202.

    ``fields`` maps each dataclass field to its declaration;
    ``digest_fields``/``batch_key_fields`` are the ``self.<field>``
    names referenced inside ``digest()``/``batch_key()``;
    ``digest_excluded``/``batch_key_excluded`` are the declared
    exclusion frozensets (empty when the assignment is absent), with
    ``*_line`` pointing at the frozenset assignment for findings about
    stale or contradicted entries.
    """

    path: str
    fields: Dict[str, int]
    digest_fields: Tuple[str, ...]
    batch_key_fields: Tuple[str, ...]
    digest_excluded: Tuple[str, ...]
    digest_excluded_line: int
    batch_key_excluded: Tuple[str, ...]
    batch_key_excluded_line: int
    has_digest: bool
    has_batch_key: bool


@dataclass(frozen=True)
class BenchCoverage:
    """The bench-trajectory tables for REP302."""

    runner_path: str
    families: Tuple[RegisteredName, ...]  # in-scope test_ext_* definitions
    optional: Tuple[str, ...]
    optional_line: int
    trajectory_families: Tuple[str, ...]  # BENCH_fastpath.json row families
    trajectory_present: bool


@dataclass(frozen=True)
class ProjectContext:
    """Everything a :class:`~repro.lint.registry.ProjectRule` may consult."""

    root: str
    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    import_graph: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    scenarios: Tuple[RegisteredName, ...] = ()
    backends: Tuple[RegisteredName, ...] = ()
    stochastic_kinds: Tuple[RegisteredName, ...] = ()
    spec: Optional[SpecCoverage] = None
    equivalence_strings: Tuple[str, ...] = ()
    equivalence_files: Tuple[str, ...] = ()
    numpy_row_strings: Tuple[str, ...] = ()
    bench: Optional[BenchCoverage] = None

    def module_by_path(self, path: str) -> Optional[ModuleInfo]:
        for info in self.modules.values():
            if info.path == path:
                return info
        return None


# ---------------------------------------------------------------------------
# Root discovery
# ---------------------------------------------------------------------------


def find_project_root(paths: Sequence[str]) -> Optional[str]:
    """The nearest ancestor of any target path holding a ``src/repro`` tree.

    ``python -m repro.lint src`` from the repo root resolves to the
    repo root; an absolute file target resolves identically.  ``None``
    (no such ancestor) disables the project pass -- fixture trees
    without the layout simply run the file rules.
    """
    for path in paths:
        current = os.path.abspath(path)
        if os.path.isfile(current):
            current = os.path.dirname(current)
        while True:
            if os.path.isdir(os.path.join(current, "src", "repro")):
                return current
            parent = os.path.dirname(current)
            if parent == current:
                break
            current = parent
    return None


# ---------------------------------------------------------------------------
# Extraction helpers
# ---------------------------------------------------------------------------


def _parse_file(full_path: str) -> Optional[Tuple[ast.Module, Tuple[str, ...]]]:
    try:
        with open(full_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        return ast.parse(source), tuple(source.splitlines())
    except (OSError, SyntaxError, ValueError):
        # Unreadable or unparseable files are the file pass's problem
        # (E999); the project pass extracts from what parses.
        return None


def _walk_python_files(base: str) -> List[str]:
    found: List[str] = []
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                found.append(os.path.join(dirpath, filename))
    return sorted(found)


def _rel(root: str, full_path: str) -> str:
    return os.path.relpath(full_path, root).replace(os.sep, "/")


def _string_elements(node: ast.AST) -> List[str]:
    """Every string constant anywhere inside ``node`` (tuples, lists,
    conditionals, concatenations -- matrix tables use them all)."""
    values: List[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            values.append(child.value)
    return values


def _tuple_assignment(
    tree: ast.Module, name: str
) -> Tuple[Optional[Tuple[str, ...]], int]:
    """A module-level ``NAME = (...str...)`` assignment's strings + line.

    Accepts tuple/list/set/frozenset literals of string constants (the
    registry tables in this repo are all one of those).  Returns
    ``(None, 0)`` when the assignment is absent.
    """
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name) and target.id == name):
            continue
        return tuple(_string_elements(node.value)), node.lineno
    return None, 0


def _self_field_reads(func: ast.AST) -> Tuple[str, ...]:
    """The ``self.<name>`` attributes read anywhere inside ``func``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return tuple(sorted(names))


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name_parts: List[str] = []
        current: ast.AST = target
        while isinstance(current, ast.Attribute):
            name_parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            name_parts.append(current.id)
        if name_parts and name_parts[0] == "dataclass":
            return True
    return False


def _extract_spec(modules: Dict[str, ModuleInfo]) -> Optional[SpecCoverage]:
    for info in modules.values():
        for node in info.tree.body:
            if not isinstance(node, ast.ClassDef) or node.name != "FloodSpec":
                continue
            if not _is_dataclass_decorated(node):
                continue
            fields: Dict[str, int] = {}
            digest_fields: Tuple[str, ...] = ()
            batch_key_fields: Tuple[str, ...] = ()
            has_digest = has_batch_key = False
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    annotation = ast.dump(item.annotation)
                    if "ClassVar" not in annotation:
                        fields[item.target.id] = item.lineno
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if item.name == "digest":
                        has_digest = True
                        digest_fields = _self_field_reads(item)
                    elif item.name == "batch_key":
                        has_batch_key = True
                        batch_key_fields = _self_field_reads(item)
            digest_excluded, digest_line = _tuple_assignment(
                info.tree, "DIGEST_EXCLUDED"
            )
            batch_excluded, batch_line = _tuple_assignment(
                info.tree, "BATCH_KEY_EXCLUDED"
            )
            return SpecCoverage(
                path=info.path,
                fields=fields,
                digest_fields=digest_fields,
                batch_key_fields=batch_key_fields,
                digest_excluded=digest_excluded or (),
                digest_excluded_line=digest_line,
                batch_key_excluded=batch_excluded or (),
                batch_key_excluded_line=batch_line,
                has_digest=has_digest,
                has_batch_key=has_batch_key,
            )
    return None


def _extract_scenarios(
    modules: Dict[str, ModuleInfo],
) -> Tuple[RegisteredName, ...]:
    names: List[RegisteredName] = []
    for info in modules.values():
        for node in info.tree.body:
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            callee = call.func
            callee_name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr
                if isinstance(callee, ast.Attribute)
                else None
            )
            if callee_name != "register_scenario" or not call.args:
                continue
            head = call.args[0]
            if isinstance(head, ast.Constant) and isinstance(head.value, str):
                names.append(RegisteredName(head.value, info.path, node.lineno))
    return tuple(sorted(names, key=lambda n: (n.path, n.line, n.value)))


def _extract_backends(
    modules: Dict[str, ModuleInfo],
) -> Tuple[RegisteredName, ...]:
    for info in modules.values():
        values, line = _tuple_assignment(info.tree, "BACKEND_NAMES")
        if values is not None:
            return tuple(
                RegisteredName(value, info.path, line) for value in values
            )
    return ()


def _extract_stochastic_kinds(
    modules: Dict[str, ModuleInfo],
) -> Tuple[RegisteredName, ...]:
    """The ``STOCHASTIC_KINDS`` tuple, names resolved to their strings."""
    for info in modules.values():
        constants = {
            node.targets[0].id: node.value.value
            for node in info.tree.body
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        }
        for node in info.tree.body:
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "STOCHASTIC_KINDS"
                and isinstance(node.value, (ast.Tuple, ast.List))
            ):
                continue
            kinds = []
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    kinds.append(element.value)
                elif isinstance(element, ast.Name) and element.id in constants:
                    kinds.append(constants[element.id])
            return tuple(
                RegisteredName(kind, info.path, node.lineno) for kind in kinds
            )
    return ()


def _parametrize_strings(
    decorators: Iterable[ast.AST], named: Dict[str, List[str]]
) -> List[str]:
    """The strings of the ``parametrize`` decorators among ``decorators``.

    A bare-name argument (``parametrize("kind", KINDS)``) contributes
    the strings of the module-level assignment it names.
    """
    values: List[str] = []
    for decorator in decorators:
        if not (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Attribute)
            and decorator.func.attr == "parametrize"
        ):
            continue
        for arg in list(decorator.args) + [kw.value for kw in decorator.keywords]:
            values.extend(_string_elements(arg))
            if isinstance(arg, ast.Name):
                values.extend(named.get(arg.id, ()))
    return values


def _numpy_rows(tree: ast.Module) -> Set[str]:
    """Strings parametrized alongside ``"numpy"`` in one test or class.

    Stacked ``parametrize`` decorators form a cross product, so every
    string of a test whose decorators (its own plus its class's)
    include ``"numpy"`` runs on a numpy row.
    """
    named: Dict[str, List[str]] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            named[node.targets[0].id] = _string_elements(node.value)
    rows: Set[str] = set()

    def visit(node: ast.AST, inherited: List[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                strings = inherited + _parametrize_strings(child.decorator_list, named)
                if "numpy" in strings:
                    rows.update(strings)
                if isinstance(child, ast.ClassDef):
                    visit(child, strings)

    visit(tree, [])
    return rows


def _extract_equivalence_strings(
    root: str,
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
    """Matrix-position string constants from ``tests/**/*equivalence*.py``.

    Only two positions count as "the matrix": module-level sequence
    assignments (``SCENARIOS = (...)``, ``BACKENDS = [...]``) and
    arguments of ``pytest.mark.parametrize(...)`` calls.  A scenario
    string buried in a helper call body is a *use*, not a matrix row.
    Returns ``(strings, files, numpy-row strings)``.
    """
    tests_dir = os.path.join(root, "tests")
    if not os.path.isdir(tests_dir):
        return (), (), ()
    strings: Set[str] = set()
    numpy_rows: Set[str] = set()
    files: List[str] = []
    for full_path in _walk_python_files(tests_dir):
        basename = os.path.basename(full_path)
        if "equivalence" not in basename:
            continue
        parsed = _parse_file(full_path)
        if parsed is None:
            continue
        tree, _ = parsed
        files.append(_rel(root, full_path))
        numpy_rows |= _numpy_rows(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                strings.update(_string_elements(node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                strings.update(_string_elements(node.value))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "parametrize"
            ):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    strings.update(_string_elements(arg))
    return tuple(sorted(strings)), tuple(sorted(files)), tuple(sorted(numpy_rows))


def _extract_bench(root: str) -> Optional[BenchCoverage]:
    runner_full = os.path.join(root, "benchmarks", "run_bench.py")
    parsed = _parse_file(runner_full)
    if parsed is None:
        return None
    tree, _ = parsed
    runner_path = _rel(root, runner_full)
    bench_files, _ = _tuple_assignment(tree, "BENCH_FILES")
    prefixes, _ = _tuple_assignment(tree, "FASTPATH_PREFIXES")
    optional, optional_line = _tuple_assignment(tree, "TRAJECTORY_OPTIONAL")
    if bench_files is None or prefixes is None:
        return None
    families: List[RegisteredName] = []
    for name in bench_files:
        bench_full = os.path.join(root, "benchmarks", name)
        bench_parsed = _parse_file(bench_full)
        if bench_parsed is None:
            continue
        bench_tree, _ = bench_parsed
        bench_path = _rel(root, bench_full)
        for node in ast.walk(bench_tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and node.name.startswith(tuple(prefixes)):
                families.append(
                    RegisteredName(node.name, bench_path, node.lineno)
                )
    trajectory_full = os.path.join(root, "BENCH_fastpath.json")
    trajectory_present = os.path.isfile(trajectory_full)
    row_families: Set[str] = set()
    if trajectory_present:
        try:
            with open(trajectory_full, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            for row in payload.get("rows", []):
                name = row.get("benchmark")
                if isinstance(name, str):
                    row_families.add(name.split("[", 1)[0])
        except (OSError, ValueError):
            trajectory_present = False
    return BenchCoverage(
        runner_path=runner_path,
        families=tuple(sorted(families, key=lambda f: (f.path, f.line))),
        optional=optional or (),
        optional_line=optional_line,
        trajectory_families=tuple(sorted(row_families)),
        trajectory_present=trajectory_present,
    )


def _repro_imports(tree: ast.Module) -> Tuple[str, ...]:
    imported: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    imported.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "repro" or node.module.startswith("repro."):
                imported.add(node.module)
    return tuple(sorted(imported))


# ---------------------------------------------------------------------------
# The builder and the project runner
# ---------------------------------------------------------------------------


def build_project(root: str) -> ProjectContext:
    """Parse and extract the whole-project context under ``root``.

    Deterministic end to end: sorted directory walks, sorted
    extraction tables, no environment reads.
    """
    package_dir = os.path.join(root, "src", "repro")
    modules: Dict[str, ModuleInfo] = {}
    import_graph: Dict[str, Tuple[str, ...]] = {}
    for full_path in _walk_python_files(package_dir):
        parsed = _parse_file(full_path)
        if parsed is None:
            continue
        tree, source_lines = parsed
        rel_path = _rel(root, full_path)
        dotted = (
            rel_path[len("src/"):]
            .replace(".py", "")
            .replace("/", ".")
        )
        if dotted.endswith(".__init__"):
            dotted = dotted[: -len(".__init__")]
        modules[dotted] = ModuleInfo(
            path=rel_path, module=dotted, tree=tree, source_lines=source_lines
        )
        import_graph[dotted] = _repro_imports(tree)
    equivalence_strings, equivalence_files, numpy_rows = (
        _extract_equivalence_strings(root)
    )
    return ProjectContext(
        root=root,
        modules=modules,
        import_graph=import_graph,
        scenarios=_extract_scenarios(modules),
        backends=_extract_backends(modules),
        stochastic_kinds=_extract_stochastic_kinds(modules),
        spec=_extract_spec(modules),
        equivalence_strings=equivalence_strings,
        equivalence_files=equivalence_files,
        numpy_row_strings=numpy_rows,
        bench=_extract_bench(root),
    )


def _apply_project_suppressions(
    root: str, findings: List[Finding]
) -> List[Finding]:
    """Honour per-line ``# repro-lint: disable=`` comments on the lines
    project findings attach to.

    Unlike the file pass, no hygiene findings are emitted here: the
    file pass owns REP000 for every linted file, and re-parsing would
    double-report; files outside the lint targets (tests, benchmarks)
    get suppression *power* without hygiene enforcement.
    """
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    kept: List[Finding] = []
    for path, group in by_path.items():
        full_path = os.path.join(root, path)
        try:
            with open(full_path, "r", encoding="utf-8") as handle:
                source_lines = handle.read().splitlines()
        except OSError:
            kept.extend(group)
            continue
        suppressions, _ = parse_suppressions(source_lines, path)
        kept.extend(apply_suppressions(group, suppressions))
    return kept


def lint_project(
    paths: Sequence[str],
    rule_ids: Optional[Iterable[str]] = None,
    root: Optional[str] = None,
) -> List[Finding]:
    """Run every project rule against the project owning ``paths``.

    ``rule_ids`` restricts to a subset (the CLI's ``--rule``); a target
    tree without a ``src/repro`` layout yields no findings (the file
    pass still runs).  Findings carry root-relative POSIX paths and are
    suppressible exactly like file findings.
    """
    wanted = set(rule_ids) if rule_ids is not None else None
    rules = [
        rule
        for rule in all_project_rules()
        if wanted is None or rule.rule_id in wanted
    ]
    if not rules:
        return []
    resolved = root if root is not None else find_project_root(paths)
    if resolved is None:
        return []
    context = build_project(resolved)
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(context))
    return sort_findings(_apply_project_suppressions(resolved, findings))
