import importlib.util
import os
import sys

import pytest

import _acceptance_log
from lampharm.graphs import array_frame

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "perfbench")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_log.LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _acceptance_log.LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def load_perfbench(monkeypatch):
    """load(name) runs perfbench/<name>.py as it is and returns the
    module, writing no bytecode next to it."""

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"_perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture
def decoded_rows(monkeypatch):
    """count(G) wraps the `decode` of G's array frame class and returns
    the list that records the number of rows of each call."""

    def count(G):
        cls = type(array_frame(G, (G.origin,), 1))
        calls = []
        original = cls.decode

        def decode(self, rows):
            calls.append(len(rows))
            return original(self, rows)

        monkeypatch.setattr(cls, "decode", decode)
        return calls

    return count
