"""The README's Python example, run as written."""

import pathlib
import re

from factormesh import apps

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_passes(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    report = apps.verify(namespace["bench"], namespace["assignment"])
    assert namespace["quiescent"] and report.passed
    assert capsys.readouterr().out == report.text() + "\n"
