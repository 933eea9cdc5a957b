"""The environment of the Python processes that tests start."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env() -> dict:
    """The package source on PYTHONPATH, a plain PATH, and this process's
    PYTHONDONTWRITEBYTECODE, so a test run that writes no bytecode starts
    children that write none either."""
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env
