"""The live runtime's one event loop (``repro.live.clock.run``) and the
guards that keep it the only one.

``run`` is ``asyncio.run`` on a ``select(2)`` loop: epoll rounds every
wait up to a whole millisecond, so a live timer fired late on it. The
AST guards fail if a module under ``src/repro`` starts a loop of its
own, or if ``LiveServer`` goes back to a task or a queue per request.
"""

import ast
import asyncio
import os
import selectors
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.live.clock import run

SRC = Path(__file__).resolve().parents[2] / "src"
HELPER = SRC / "repro" / "live" / "clock.py"

#: the calls that start or drive an event loop
_LOOP_CALLS = {"new_event_loop", "SelectorEventLoop", "run_until_complete"}


def _loop_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in _LOOP_CALLS or (
            name == "run"
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "asyncio"
        ):
            yield f"line {node.lineno}: {name}"


def test_no_module_but_the_helper_starts_an_event_loop():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        if path == HELPER:
            # the helper's own body is the one place allowed
            tree.body = [
                node for node in tree.body
                if not (isinstance(node, ast.FunctionDef) and node.name == "run")
            ]
        found += [f"{path.relative_to(SRC)} {call}" for call in _loop_calls(tree)]
    assert found == []


def test_the_live_server_creates_no_task_and_holds_no_queue():
    tree = ast.parse((SRC / "repro" / "live" / "server.py").read_text())
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.AsyncFunctionDef, ast.Await)):
            offenders.append(f"line {node.lineno}: {type(node).__name__}")
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in {"create_task", "ensure_future", "Task", "Queue", "gather"}:
            offenders.append(f"line {node.lineno}: {name}")
    assert offenders == []


# ----------------------------------------------------------------------
# the helper
# ----------------------------------------------------------------------
def test_run_uses_a_select_selector_and_returns_the_result():
    async def probe():
        return asyncio.get_running_loop()._selector

    assert isinstance(run(probe()), selectors.SelectSelector)

    async def answer():
        await asyncio.sleep(0)
        return 42

    assert run(answer()) == 42


def test_run_propagates_the_exception():
    async def boom():
        await asyncio.sleep(0)
        raise ValueError("from the coroutine")

    with pytest.raises(ValueError, match="from the coroutine"):
        run(boom())


def test_run_cancels_leftover_tasks_finalizes_async_generators_and_closes_the_loop():
    cleaned = []

    async def forever():
        try:
            await asyncio.sleep(3600)
        finally:
            cleaned.append("task")

    async def agen():
        try:
            yield 1
            yield 2
        finally:
            cleaned.append("agen")

    async def main():
        task = asyncio.get_running_loop().create_task(forever())
        gen = agen()
        await gen.__anext__()  # left suspended, never closed
        await asyncio.sleep(0)
        return task, asyncio.get_running_loop()

    task, loop = run(main())
    assert task.cancelled()
    assert sorted(cleaned) == ["agen", "task"]
    assert loop.is_closed()


def test_run_leaves_the_policy_and_the_current_loop_alone():
    policy = asyncio.get_event_loop_policy()
    current = asyncio.new_event_loop()
    asyncio.set_event_loop(current)
    try:
        async def main():
            return asyncio.get_running_loop()

        inner = run(main())
        assert inner is not current
        assert asyncio.get_event_loop_policy() is policy
        assert policy.get_event_loop() is current
        assert not current.is_closed()
    finally:
        asyncio.set_event_loop(None)
        current.close()


def test_serve_prints_interrupted_on_ctrl_c():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--time-limit", "60"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *sys.path])},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("repro serve: node 0 on 127.0.0.1:"), banner
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert out.splitlines()[0] == "serve: interrupted"
    assert "Traceback" not in err
