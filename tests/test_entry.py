"""The process entry: ``python -m treebalance``, the console script and ``cli``'s own."""

import argparse
import gc
import importlib
import io
import os
import re
import runpy
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import treebalance
from treebalance import cli

ROOT = Path(__file__).resolve().parents[1]


def test_in_process_main_leaves_the_collector_alone(capsys):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    for argv in (["max-value", "--n", "5", "--method", "all"], ["verify", "--max-n", "6"],
                 ["table", "--from", "1", "--to", "50"]):
        assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def test_main_lets_a_broken_pipe_through(monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        cli.main(["table", "--from", "1", "--to", "10"])


def _run_as_main(module: str) -> int:
    """``python -m module`` in this process; its exit code."""
    with pytest.raises(SystemExit) as exc, warnings.catch_warnings():
        # Running the already imported ``treebalance.cli`` as __main__ warns.
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module(module, run_name="__main__")
    return exc.value.code


@pytest.mark.parametrize("module", ["treebalance", "treebalance.cli"])
def test_process_entry_freezes_once_after_the_imports_before_any_output(monkeypatch, capsys, module):
    # cli runs anew, so the freeze must wait for the whole module.
    monkeypatch.delitem(sys.modules, "treebalance.cli")
    monkeypatch.delattr(treebalance, "cli")
    seen = []

    def freeze():
        caller = sys._getframe(1).f_globals  # cli's, run as itself or as __main__
        seen.append(("entry" in caller, capsys.readouterr().out))

    monkeypatch.setattr(gc, "freeze", freeze)
    monkeypatch.setattr(sys, "argv", ["treebalance", "max-value", "--n", "5", "--method", "all"])
    assert _run_as_main(module) == 0
    assert seen == [(True, "")]
    assert capsys.readouterr().out == "recursive: 13/16 (0.8125000000)\nclosed: 13/16 (0.8125000000)\n"


def test_console_script_is_the_module_entry(monkeypatch):
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^treebalance = "([\w.]+):(\w+)"$', text, re.M)
    module, name = target.groups()
    assert getattr(importlib.import_module(module), name) is cli.entry
    monkeypatch.setattr(cli, "entry", lambda: 7)
    assert _run_as_main("treebalance") == 7


def _into_closed_reader(argv, head: int, unbuffered: bool) -> "tuple[int, bytes]":
    """Exit code and stderr of ``argv`` whose reader takes ``head`` bytes, then closes.

    With ``head`` 0 the reader is gone before the process starts.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    reader = os.fdopen(r, "rb")
    if not head:
        reader.close()
    proc = subprocess.Popen([sys.executable, "-m", "treebalance", *argv], stdout=w,
                            stderr=subprocess.PIPE, env=env)
    os.close(w)
    if head:
        assert len(reader.read(head)) == head
        reader.close()
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, head", [
    # Megabytes or hundreds of KB: more than a pipe holds, so a write fails.
    (["table", "--from", "1", "--to", "100000"], 10),
    (["enumerate", "--n", "15", "--emit-newick"], 10),
    # About 2 KB, which a pipe would hold: the reader is gone from the start.
    (["verify", "--max-n", "18"], 0),
])
def test_a_closed_reader_ends_the_process_by_sigpipe_with_nothing_on_stderr(argv, head, unbuffered):
    assert _into_closed_reader(argv, head, unbuffered) == (-signal.SIGPIPE, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["table", "-h"]], ids=["help", "table-h"])
def test_help_into_a_closed_reader_ends_the_process_by_sigpipe(argv, unbuffered):
    # A few KB, which a pipe would hold: the reader is gone from the start.
    assert _into_closed_reader(argv, 0, unbuffered) == (-signal.SIGPIPE, b"")


@pytest.mark.parametrize("argv", [["--help"], ["table", "-h"], ["verify", "--help"]])
def test_help_text_is_argparse_own_and_a_failed_write_gets_through(monkeypatch, capsys, argv):
    def help_of(parser_class):
        monkeypatch.setattr(cli, "_Parser", parser_class)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        return capsys.readouterr()

    ours = help_of(cli._Parser)
    assert ours.out.startswith("usage: treebalance") and ours.err == ""
    assert help_of(argparse.ArgumentParser) == ours

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.undo()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        cli.main(argv)
