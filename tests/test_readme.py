"""The README's CLI flow and library tour, run as written."""

import json
import re
import shlex
from pathlib import Path

from curveshape.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.S)


def test_cli_flow_then_library_tour(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for block in blocks("json"):
        name = "cascade.json" if "root" in json.loads(block) else "split.json"
        (tmp_path / name).write_text(block)
    commands = [
        line
        for block in blocks("bash")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("curveshape ")
    ]
    assert [shlex.split(c)[1] for c in commands] == [
        "simulate", "fit", "check-arbitrage", "outliers", "backtest", "predict"
    ]
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
    namespace = {}
    for block in blocks("python"):
        exec(compile(block, str(README), "exec"), namespace)
