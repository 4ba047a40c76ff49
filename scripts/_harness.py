"""Process plumbing the smoke scripts share: spawn a ``repro`` CLI, stop it.

    process, port = spawn(["serve", "--port", "0"])
    try:
        ...  # drive it over HTTP
        stop(process)  # SIGTERM, then assert a clean (exit 0) drain
    finally:
        reap(process)

The smokes import this as ``from _harness import ...``: ``scripts/`` is
``sys.path[0]`` when a script runs directly.
"""

import re
import signal
import subprocess
import sys
import threading
from collections import deque

#: The bound port in ``repro serve``'s ``listening`` log line.
SERVE_PORT = r'"event": "listening".*?"port": (\d+)'
#: The gateway's own port (replica lines carry ports too).
CLUSTER_PORT = r'"event": "cluster_listening".*?"port": (\d+)'
#: Seconds a spawned child has to log its port.
SPAWN_TIMEOUT = 120.0


def spawn(args, port_pattern=SERVE_PORT):
    """Start ``python -m repro *args``; return the process and its port.

    A daemon thread reads the child's output for the child's whole life,
    so a server that logs one JSON line per request never blocks on a
    full pipe.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    pattern = re.compile(port_pattern)
    tail = deque(maxlen=50)
    found = {}
    bound = threading.Event()

    def drain():
        for line in process.stdout:
            tail.append(line.rstrip())
            match = None if found else pattern.search(line)
            if match:
                found["port"] = int(match.group(1))
                bound.set()
        bound.set()  # EOF: the child exited

    threading.Thread(target=drain, daemon=True).start()
    if not bound.wait(SPAWN_TIMEOUT) or "port" not in found:
        reap(process)
        raise RuntimeError(
            f"repro {args[0]} never reported a port; output so far: {list(tail)}"
        )
    return process, found["port"]


def stop(process, timeout=120.0):
    """SIGTERM the child and assert it drained cleanly (exit 0)."""
    process.send_signal(signal.SIGTERM)
    returncode = process.wait(timeout=timeout)
    assert returncode == 0, f"drain exited {returncode}"


def reap(process):
    """Kill the child if it is still running (the ``finally`` backstop)."""
    if process.poll() is None:
        process.kill()
        process.wait(timeout=10)
