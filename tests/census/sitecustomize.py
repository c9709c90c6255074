"""Call-census hook: record each ``repro`` function the first time it runs,
and every name a producer builds or passes.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one, so putting this directory on ``PYTHONPATH`` hooks the
interpreter and every child that inherits the environment (the smoke
targets' re-runs, the benchmark suite's set-up children, forked pool
workers). A profile function sees every call; the first call of a code
object defined under ``src/repro`` appends one ``path:firstlineno:name`` line
to ``out/<pid>.txt`` at once, because forked pool workers leave through
``os._exit`` and never run ``atexit``. ``census.py`` turns the lines into
``module:qualname`` names.

Three functions are recorded on every call, by argument: ``make_workload``
and ``make_policy`` write ``@workload:<name>`` / ``@policy:<name>``, and
``cli.main`` writes ``@flag:<command>:--<flag>`` for each option its
command line passes.
"""

import os
import sys
import threading

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src") + os.sep
_PACKAGE = os.path.join(_SRC, "repro") + os.sep
_OUT = os.path.join(_HERE, "out")

#: ``(path under src, function) -> what each call of it records``
_NAMED = {
    ("repro/workload/workloads.py", "make_workload"): "workload",
    ("repro/core/registry.py", "make_policy"): "policy",
    ("repro/cli.py", "main"): "flag",
}

_seen = set()
_named = {}
_pid = None
_fd = -1


def _write(line):
    global _pid, _fd
    if os.getpid() != _pid:  # first record in this process (or a fork of it)
        _pid = os.getpid()
        _fd = os.open(os.path.join(_OUT, f"{_pid}.txt"), os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    os.write(_fd, line.encode())


def _record_names(kind, frame):
    if kind != "flag":
        _write(f"@{kind}:{frame.f_locals['name']}\n")
        return
    argv = frame.f_locals.get("argv")
    argv = list(sys.argv[1:] if argv is None else argv)
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    for arg in argv:
        if arg.startswith("--") and command is not None:
            _write(f"@flag:{command}:{arg.partition('=')[0]}\n")


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_PACKAGE):
                rel = code.co_filename[len(_SRC):]
                _write(f"{rel}:{code.co_firstlineno}:{code.co_name}\n")
                kind = _NAMED.get((rel, code.co_name))
                if kind is not None:
                    _named[code] = kind
        kind = _named.get(code)
        if kind is not None:
            _record_names(kind, frame)


if os.path.isdir(_OUT):
    sys.setprofile(_profile)
    threading.setprofile(_profile)
