"""The README's library example, command-line block and study script run as
documented, and `import toudesign` leaves the command line and the oracles
unloaded."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from toudesign.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
SRC_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def fenced_block(heading: str, language: str) -> str:
    """The first ```language block after the given markdown heading."""
    section = README[README.index(heading):]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert match, f"no {language} block under {heading!r}"
    return match.group(1)


def test_readme_library_example_runs():
    code = fenced_block("## Library", "python")
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=SRC_ENV, capture_output=True, text=True
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


def test_import_leaves_cli_and_oracles_unloaded():
    code = (
        "import sys, toudesign\n"
        "print(sorted({'toudesign.cli', 'toudesign.oracles'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=SRC_ENV, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_synthetic_study_script_writes_every_sweep(tmp_path):
    done = subprocess.run(
        [sys.executable, "scripts/run_synthetic_study.py", "--out", str(tmp_path)],
        cwd=ROOT,
        env=SRC_ENV,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    axes = ("theta_bar", "delta_s", "delta_d", "lambda", "tau", "eta", "elastic_fraction")
    assert sorted(p.name for p in tmp_path.glob("sweep_*.csv")) == sorted(
        f"sweep_{axis}.csv" for axis in axes
    )
