"""Where the program lives, and how one CLI process is run and measured."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def env():
    """The environment of a CLI process: src first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


@dataclass(frozen=True)
class Finished:
    """One finished CLI process."""

    seconds: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Spawner:
    """Runs `python -m stspread.cli argv` in OUT through spawner.py.

    Use as a context manager; leaving it stops the spawner and waits for it.
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env(),
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def run(self, argv, key):
        """Run one command and wait for it to end.

        stdout and stderr go to OUT/<key>.out and .err.  Old copies are
        unlinked first: ext4 flushes a file that is truncated and rewritten
        when it is closed, a disk wait a fresh file does not have.
        """
        out_path, err_path = OUT / (key + ".out"), OUT / (key + ".err")
        for path in (out_path, err_path):
            path.unlink(missing_ok=True)
        request = {"argv": [sys.executable, "-m", "stspread.cli", *argv], "cwd": str(OUT),
                   "stdout": str(out_path), "stderr": str(err_path)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return Finished(reply["seconds"], reply["maxrss_kb"] / 1024, reply["code"],
                        out_path.read_text(), err_path.read_text())
