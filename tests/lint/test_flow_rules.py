"""The async-safety rules (REP101/REP102/REP103) on fixture snippets.

Each rule gets at least one true positive and one must-not-flag
negative.  The centrepiece is the PR 8 settlement-order regression
pair: the shipped fix settles the coalescing pending future on every
exception path *before* touching caller futures (negative), and the
bug it replaced skipped the settle on the ``except`` branch (positive).
"""

from __future__ import annotations

from typing import List

from repro.lint.walker import lint_source

PATH = "repro/service/service.py"


def _rules(source: str, rule: str) -> List[str]:
    return [
        f"{f.line}:{f.rule}"
        for f in lint_source(source, PATH)
        if f.rule == rule
    ]


# ---------------------------------------------------------------------------
# REP101: the PR 8 settlement-order regression pair
# ---------------------------------------------------------------------------

PR8_BUG = """\
async def query_spec(self, spec, key):
    pending = self._loop.create_future()
    self._inflight_results[key] = pending
    try:
        await self._admit(1)
    except BaseException:
        # BUG: pending stays registered and unsettled; every joiner
        # of the inflight table awaits it forever.
        self._entry.untrack(1)
        raise
    return await pending
"""

PR8_FIX = """\
async def query_spec(self, spec, key):
    pending = self._loop.create_future()
    self._inflight_results[key] = pending
    try:
        await self._admit(1)
    except BaseException as exc:
        self._entry.untrack(1)
        self._abort_pending(key, pending, exc)
        raise
    request = _Request(self._ids, self._loop.create_future(), pending=pending)
    self._batcher.add(self._bucket, request)
    return await request.future
"""


def test_rep101_flags_the_pr8_settlement_order_bug():
    findings = _rules(PR8_BUG, "REP101")
    assert findings == ["6:REP101"]


def test_rep101_passes_the_pr8_fix():
    assert _rules(PR8_FIX, "REP101") == []
    assert _rules(PR8_FIX, "REP102") == []


def test_rep101_settle_before_caller_futures_is_negative():
    source = """\
def _resolve(self, requests, blob, exc):
    pending = self._loop.create_future()
    self._table[self._key] = pending
    try:
        self._store(blob)
    except BaseException as err:
        pending.set_exception(err)
        raise
    pending.set_result(blob)
"""
    assert _rules(source, "REP101") == []


def test_rep101_flags_dead_futures():
    source = """\
def make(self):
    fut = self._loop.create_future()
    return self._other
"""
    assert _rules(source, "REP101") == ["2:REP101"]


def test_rep101_finally_covers_every_handler():
    source = """\
async def run(self, key):
    fut = loop.create_future()
    self._table[key] = fut
    try:
        await self._work()
    except KeyError:
        log()
    finally:
        if not fut.done():
            fut.cancel()
"""
    assert _rules(source, "REP101") == []


def test_rep101_handoff_ends_tracking():
    # The admission-gate shape: the future is appended into the waiter
    # queue (a call argument, nested in a tuple) before the try; the
    # cancellation handler manages the queue, not the future.
    source = """\
async def acquire(self, n):
    future = loop.create_future()
    self._waiters.append((n, future))
    try:
        await future
    except BaseException:
        self._cleanup(n)
        raise
"""
    assert _rules(source, "REP101") == []


def test_rep101_try_outside_the_risk_window_is_ignored():
    source = """\
async def query(self, key):
    pending = loop.create_future()
    self._table[key] = pending
    self._dispatch(pending)
    try:
        await self._other_work()
    except BaseException:
        raise
"""
    assert _rules(source, "REP101") == []


# ---------------------------------------------------------------------------
# REP102: await inside the registration window
# ---------------------------------------------------------------------------


def test_rep102_flags_await_between_registration_and_guard():
    source = """\
async def query(self, key):
    pending = loop.create_future()
    self._table[key] = pending
    await self._admit(1)
    try:
        self._dispatch(pending)
    except BaseException as exc:
        pending.set_exception(exc)
        raise
"""
    assert _rules(source, "REP102") == ["4:REP102"]


def test_rep102_adjacent_registration_and_guard_is_negative():
    source = """\
async def query(self, key):
    pending = loop.create_future()
    self._table[key] = pending
    try:
        await self._admit(1)
    except BaseException as exc:
        pending.set_exception(exc)
        raise
"""
    assert _rules(source, "REP102") == []


def test_rep102_await_before_registration_is_negative():
    source = """\
async def query(self, key):
    await self._admit(1)
    pending = loop.create_future()
    self._table[key] = pending
    try:
        self._dispatch(pending)
    except BaseException as exc:
        pending.set_exception(exc)
        raise
"""
    assert _rules(source, "REP102") == []


# ---------------------------------------------------------------------------
# REP103: blocking calls in async def
# ---------------------------------------------------------------------------


def test_rep103_flags_blocking_calls():
    source = """\
import time

async def handler(self, request):
    time.sleep(0.5)
    with open("dump.json") as handle:
        handle.read()
    return self._session.sweep(request.specs)
"""
    assert _rules(source, "REP103") == ["4:REP103", "5:REP103", "7:REP103"]


def test_rep103_flags_blocking_spec_sweeps():
    source = """\
async def handler(self, session, specs):
    first = session.sweep(specs)
    return first + self._pool.sweep_specs(specs)
"""
    assert _rules(source, "REP103") == ["2:REP103", "3:REP103"]
    messages = [
        f.message for f in lint_source(source, PATH) if f.rule == "REP103"
    ]
    assert all("FloodSession.sweep" in m for m in messages)
    assert all("SweepPool.sweep_specs" in m for m in messages)


def test_rep103_resolves_import_aliases():
    source = """\
from time import sleep as pause

async def handler(self):
    pause(1)
"""
    assert _rules(source, "REP103") == ["4:REP103"]


def test_rep103_sync_functions_and_nested_defs_are_negative():
    source = """\
import time

def blocking_is_fine_here(path):
    time.sleep(0.1)
    with open(path) as handle:
        return handle.read()

async def submit(self, sets):
    def on_done(result):
        # executor callback: runs off-loop, may block
        time.sleep(0)
        with open("log") as handle:
            handle.write(str(result))
    return await self._pool.submit(sets, on_done)
"""
    assert _rules(source, "REP103") == []


def test_rep103_asyncio_sleep_is_negative():
    source = """\
import asyncio

async def handler(self):
    await asyncio.sleep(0.5)
"""
    assert _rules(source, "REP103") == []
