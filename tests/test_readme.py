"""The README's library quick start runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_source() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_prints_its_commented_outputs(capsys):
    source = quick_start_source()
    exec(compile(source, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["14 11", "-1/2*X1^(1) + 1/2*X1^(1)^2 + X2^(1)"]
    prints = [line for line in source.splitlines() if line.startswith("print(")]
    comments = [line.split("#", 1)[1].strip() for line in prints]
    assert comments == ["14 elements, dim H^2 = 11", printed[1]]
