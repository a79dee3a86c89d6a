"""REP103: blocking calls on the event loop.

The service keeps its latency promises only while the event loop spins
freely: admission, batching and cache coalescing all run on it, and one
synchronous stall starves every queued request at once.  The sanctioned
pattern is what ``service.py`` does -- CPU-bound sweeps go to the
:class:`SweepPool` workers via executor hand-off, file I/O stays out of
coroutines entirely.

Flagged, lexically inside an ``async def`` body (nested synchronous
``def``/``lambda`` bodies are separate execution contexts -- an
executor callback may block -- and are skipped):

* ``time.sleep(...)`` (resolved through import aliases; the async
  replacement is ``asyncio.sleep``),
* synchronous file I/O: builtin ``open(...)`` and the pathlib
  one-shots ``.read_text``/``.write_text``/``.read_bytes``/
  ``.write_bytes``,
* a direct ``.sweep(...)`` or ``.sweep_specs(...)`` call -- the
  blocking batch entry points (``FloodSession.sweep``,
  ``SweepPool.sweep_specs``); coroutines must use the submit/future
  side of the pool, ``FloodSession.aquery`` or the service instead.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List

from repro.lint.findings import Finding
from repro.lint.registry import FileContext, Rule, register_rule
from repro.lint.rules.common import ImportMap, call_name, is_builtin_call

RULE_ID = "REP103"

_BLOCKING_DOTTED = ("time.sleep",)
_BLOCKING_SWEEPS = ("sweep", "sweep_specs")
_BLOCKING_METHODS = _BLOCKING_SWEEPS + (
    "read_bytes",
    "read_text",
    "write_bytes",
    "write_text",
)

_SCOPE_BARRIERS = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,  # scanned by its own iteration, not the parent's
    ast.Lambda,
    ast.ClassDef,
)


def _walk_async_scope(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_BARRIERS):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _blocking_reason(node: ast.Call, imports: ImportMap) -> str:
    if is_builtin_call(node, "open"):
        return (
            "synchronous open() blocks the event loop; do file I/O "
            "outside coroutines or via an executor"
        )
    resolved = call_name(node, imports)
    if resolved in _BLOCKING_DOTTED:
        return f"{resolved}() blocks the event loop; use asyncio.sleep"
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _BLOCKING_METHODS
    ):
        if node.func.attr in _BLOCKING_SWEEPS:
            return (
                f".{node.func.attr}() blocks until the whole batch ran "
                "(FloodSession.sweep / SweepPool.sweep_specs); coroutines "
                "must use SweepPool.submit_batch, FloodSession.aquery or "
                "the service"
            )
        return (
            f".{node.func.attr}() is synchronous file I/O and blocks the "
            "event loop; do it outside coroutines or via an executor"
        )
    return ""


def check(tree: ast.Module, ctx: FileContext) -> Iterable[Finding]:
    imports = ImportMap(tree)
    findings: List[Finding] = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        for node in _walk_async_scope(func):
            if not isinstance(node, ast.Call):
                continue
            reason = _blocking_reason(node, imports)
            if reason:
                findings.append(
                    Finding(
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        rule=RULE_ID,
                        message=f"blocking call in async def: {reason}",
                    )
                )
    return findings


register_rule(
    Rule(
        rule_id=RULE_ID,
        name="blocking-async",
        summary=(
            "time.sleep / sync file I/O / blocking .sweep() or "
            ".sweep_specs() inside async def"
        ),
        check=check,
    )
)
