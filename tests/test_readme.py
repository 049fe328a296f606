"""The README's library example and command-line block run as documented."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from toudesign.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def fenced_block(heading: str, language: str) -> str:
    """The first ```language block after the given markdown heading."""
    section = README[README.index(heading):]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert match, f"no {language} block under {heading!r}"
    return match.group(1)


def test_readme_library_example_runs():
    code = fenced_block("## Library", "python")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("TouPrice(") for line in done.stdout.splitlines())


def test_readme_commands_run_on_the_shipped_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    commands = [
        shlex.split(line, comments=True)
        for line in fenced_block("## Command line", "bash").splitlines()
        if line.strip()
    ]
    assert [argv[1] for argv in commands] == ["ingest", "optimize", "benchmark", "sweep", "verify"]
    for argv in commands:
        assert argv[0] == "toudesign"
        assert argv[argv.index("--config") + 1] == "configs/example.yaml"
        out = tmp_path / argv[1]
        argv[argv.index("--out") + 1] = str(out)
        assert main(argv[1:]) == 0, capsys.readouterr().err
        assert (out / "run_meta.json").is_file()
