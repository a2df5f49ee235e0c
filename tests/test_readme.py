"""The README's Quickstart and "Library use" code, run as written, and
its list of the package's exports.

The only edits: `fxbench` runs as `python -m fxbench` (the entry point
need not be installed), and `--n` and the epochs are shrunk so the run
stays short. `python`/`python3` run as the interpreter of the tests.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import fxbench

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def section(title):
    """The text of the README section `## title`."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def blocks(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def shell_commands(block):
    """The commands of an sh block: comments dropped, continuations joined."""
    joined = block.replace("\\\n", " ")
    lines = (line.strip() for line in joined.splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def shrink(text):
    text = re.sub(r"--n \d+", "--n 300", text)
    text = re.sub(r"--epochs \d+", "--epochs 2", text)
    return re.sub(r"epochs=\d+", "epochs=2", text)


def test_quickstart_runs_as_written(tmp_path):
    (tmp_path / "scripts").symlink_to(ROOT / "scripts")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    (block,) = blocks(section("Quickstart"), "sh")
    commands = shell_commands(block)
    assert len(commands) == 6
    for step, command in enumerate(commands, 1):
        argv = shlex.split(shrink(command))
        if argv[0] == "fxbench":
            argv = ["python", "-m", "fxbench"] + argv[1:]
        if argv[0] in ("python", "python3"):
            argv[0] = sys.executable
        done = subprocess.run(
            argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, f"step {step}: {command}\n{done.stderr}"
    for name in ("data/walk.csv", "data/clean.csv", "results/walk_report.csv",
                 "results/lstm5.json", "results/lstm5_series.csv"):
        assert (tmp_path / name).is_file(), name


def test_library_use_runs_as_written(capsys):
    code = blocks(section("Library use"), "python")
    assert len(code) == 2
    namespace = {}
    for block in code:
        exec(compile(shrink(block), "README.md", "exec"), namespace)
    best = namespace["best"]
    assert capsys.readouterr().out == f"{best.arch} {best.structure} {best.test_mae}\n"
    assert namespace["yhat"].shape == (3, 32, 1)
    assert len(namespace["outcomes"]) == len(namespace["scores"]) == 3


def test_export_list_matches_the_package_exports():
    (paragraph,) = [p for p in README.split("\n\n") if p.startswith("The package exports ")]
    assert set(re.findall(r"`(\w+)`", paragraph)) == set(fxbench.__all__)
