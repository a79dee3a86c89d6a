"""``FloodSession`` lifecycle: closing never leaks the service or its pools."""

from __future__ import annotations

import asyncio

import pytest

from repro.api import FloodSession, FloodSpec
from repro.errors import ConfigurationError
from repro.graphs import cycle_graph

GRAPH = cycle_graph(9)
SPEC = FloodSpec(graph=GRAPH, sources=(0,))


@pytest.mark.parametrize("workers", [0, 1])
def test_sync_close_inside_a_running_loop_is_typed(workers):
    async def main():
        session = FloodSession(workers=workers)
        await session.aquery(SPEC)
        service = session._service
        with pytest.raises(ConfigurationError, match=r"await session\.aclose\(\)"):
            session.close()
        # Nothing was torn down: the session still serves.
        assert session._service is service and not service._closed
        assert (await session.aquery(SPEC)).termination_round == 9
        await session.aclose()
        assert service._closed
        with pytest.raises(ConfigurationError):
            session.run(SPEC)
        return service

    assert asyncio.run(main()).pending == 0


def test_with_block_inside_async_def_names_aclose():
    async def main():
        with pytest.raises(ConfigurationError, match="aclose"):
            with FloodSession(workers=0) as session:
                await session.aquery(SPEC)
        await session.aclose()
        return session._closed

    assert asyncio.run(main())


def test_close_inside_a_loop_without_a_service_closes():
    async def main():
        with FloodSession(workers=0) as session:
            session.run(SPEC)
        return session._closed

    assert asyncio.run(main())


def test_close_outside_a_loop_closes_an_idle_service():
    session = FloodSession(workers=0)
    asyncio.run(session.aquery(SPEC))
    service = session._service
    session.close()
    assert service._closed and service.pending == 0
    session.close()  # idempotent
