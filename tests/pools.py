"""The benchmark's input pools for the tests: perfbench/workloads.py, loaded
from its file (perfbench is not a package) and not edited."""

import importlib.util
import pathlib
import sys

_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("workloads", _PATH)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look the module up
_spec.loader.exec_module(workloads)
