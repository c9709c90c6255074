"""Call-census hook: record each ``repro`` function the first time it runs.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one, so putting this directory on ``PYTHONPATH`` hooks the
interpreter and every child that inherits the environment (the smoke
targets' re-runs, the benchmark suite's set-up children, forked pool
workers). A profile function sees every call; the first call of a code
object defined under ``src/repro`` appends one ``path:firstlineno:name`` line
to ``out/<pid>.txt`` at once, because forked pool workers leave through
``os._exit`` and never run ``atexit``. ``census.py`` turns the lines into
``module:qualname`` names.
"""

import os
import sys
import threading

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src") + os.sep
_PACKAGE = os.path.join(_SRC, "repro") + os.sep
_OUT = os.path.join(_HERE, "out")

_seen = set()
_pid = None
_fd = -1


def _record(code):
    global _pid, _fd
    if os.getpid() != _pid:  # first record in this process (or a fork of it)
        _pid = os.getpid()
        _fd = os.open(os.path.join(_OUT, f"{_pid}.txt"), os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    line = f"{code.co_filename[len(_SRC):]}:{code.co_firstlineno}:{code.co_name}\n"
    os.write(_fd, line.encode())


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_PACKAGE):
                _record(code)


if os.path.isdir(_OUT):
    sys.setprofile(_profile)
    threading.setprofile(_profile)
