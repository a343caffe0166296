import argparse
import re
import shlex
from pathlib import Path

from osd.cli import build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(lang: str, after: str) -> str:
    start = README.index(after)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_readme_quick_start_and_library_example_run(tmp_path, monkeypatch, capsys):
    # Every `osd ...` command of the quick start must parse, so the README
    # cannot name a removed subcommand or flag; the synth command writes
    # the bench.csv that the library example then reads.
    commands = _block("sh", "## Quick start").replace("\\\n", " ").splitlines()
    argvs = [shlex.split(c)[1:] for c in commands if c.startswith("osd ")]
    for argv in argvs:
        build_parser().parse_args(argv)
    monkeypatch.chdir(tmp_path)
    assert main(next(argv for argv in argvs if argv[0] == "synth")) == 0
    namespace = {}
    exec(compile(_block("python", "Library use"), "README.md", "exec"), namespace)
    assert '"schema_version": 3' in capsys.readouterr().out
    assert namespace["rerun"] == namespace["config"]  # a report's settings, rebuilt


def test_readme_flags_are_transform_or_eval_options():
    section = README[README.index("### Flags worth knowing"):]
    section = section[:section.index("\n#")]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for cmd in ("transform", "eval") for o in sub.choices[cmd]._option_string_actions}
    flags = set(re.findall(r"--[A-Za-z][A-Za-z-]*", section))
    assert flags and flags <= options, flags - options
