import re
from pathlib import Path

import treextremal


def test_all_names_resolve_once():
    # A stale string in __all__ would otherwise fail only under import *.
    names = treextremal.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(treextremal, name) is not None
    namespace = {}
    exec("from treextremal import *", namespace)
    assert set(names) <= set(namespace)


def test_readme_quick_start_prints_what_it_says(capsys):
    # Each `print(...)  # value` line of README's python block names the
    # line it prints.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    expected = [line.split("#")[-1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["3142", "(6, 0, 1, 1, 1)", "3142"]
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == expected
