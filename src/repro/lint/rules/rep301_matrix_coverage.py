"""REP301: every registered scenario and backend sits in the
equivalence matrix.

ROADMAP discipline: "every new path lands inside the bit-identical
matrix".  The cross-backend equivalence suites under ``tests/`` are
what makes a scenario or backend *trustworthy* -- a registered name
that no equivalence parametrization exercises is a path whose
bit-identity nobody checks, and it stays silently unchecked until it
diverges in production.

Coverage is judged against the matrix positions only (module-level
sequence assignments and ``parametrize`` arguments in
``tests/**/*equivalence*.py`` -- see
:func:`repro.lint.project._extract_equivalence_strings`): a scenario
string used as a helper argument deep inside a test body is a *use*,
not a matrix row.  A scenario ``name`` is covered by the exact string
or any parameterised form ``name:...``; a backend must appear exactly.

Every stochastic variant kind (the ``STOCHASTIC_KINDS`` tuple) also
runs on the numpy lane, so each needs a *numpy row*: a test whose
stacked ``parametrize`` decorators include both ``"numpy"`` and the
kind (exactly, or as ``kind:...``).

Findings attach to the registration site (the ``register_scenario``
call, the ``BACKEND_NAMES`` or ``STOCHASTIC_KINDS`` tuple), because
that is where the uncovered path was introduced.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.lint.findings import Finding
from repro.lint.project import ProjectContext
from repro.lint.registry import ProjectRule, register_project_rule

RULE_ID = "REP301"


def check(ctx: ProjectContext) -> Iterable[Finding]:
    if not ctx.equivalence_files:
        return []  # no matrix to be in; the canary test pins non-absence
    findings: List[Finding] = []
    strings = set(ctx.equivalence_strings)
    prefixes = {s.split(":", 1)[0] for s in strings}
    for scenario in ctx.scenarios:
        if scenario.value in strings or scenario.value in prefixes:
            continue
        findings.append(
            Finding(
                path=scenario.path,
                line=scenario.line,
                col=1,
                rule=RULE_ID,
                message=(
                    f"scenario {scenario.value!r} is registered but appears "
                    "in no equivalence-matrix parametrization under tests/; "
                    "its bit-identity is unchecked"
                ),
            )
        )
    for backend in ctx.backends:
        if backend.value in strings:
            continue
        findings.append(
            Finding(
                path=backend.path,
                line=backend.line,
                col=1,
                rule=RULE_ID,
                message=(
                    f"backend {backend.value!r} is registered but appears "
                    "in no equivalence-matrix parametrization under tests/; "
                    "its bit-identity is unchecked"
                ),
            )
        )
    numpy_rows = set(ctx.numpy_row_strings)
    numpy_prefixes = {s.split(":", 1)[0] for s in numpy_rows}
    for kind in ctx.stochastic_kinds:
        if kind.value in numpy_rows or kind.value in numpy_prefixes:
            continue
        findings.append(
            Finding(
                path=kind.path,
                line=kind.line,
                col=1,
                rule=RULE_ID,
                message=(
                    f"stochastic variant kind {kind.value!r} runs on the "
                    "numpy lane but no equivalence-matrix parametrization "
                    "pairs it with 'numpy'; its lane bit-identity is "
                    "unchecked"
                ),
            )
        )
    return findings


register_project_rule(
    ProjectRule(
        rule_id=RULE_ID,
        name="matrix-coverage",
        summary=(
            "a registered scenario or backend appears in no "
            "equivalence-matrix parametrization, or a stochastic "
            "variant kind has no numpy row"
        ),
        check=check,
    )
)
