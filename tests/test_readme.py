"""README's examples, run as written: each command line through cli.main,
the library example statement by statement against its commented results."""

import ast
import pathlib
import re
import shlex

import pytest

from opchain import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section, lang):
    """The first ``lang`` code block under the heading ``## section``."""
    match = re.search(rf"^## {section}\n.*?^```{lang}\n(.*?)^```", README, re.M | re.S)
    assert match, section
    return match.group(1)


# each line without its comment
_COMMAND_LINES = [line.partition("#")[0].strip()
                  for line in _block("Command line", "sh").splitlines()
                  if line.startswith("opchain ")]


def test_readme_shows_every_command():
    assert {line.split()[1] for line in _COMMAND_LINES} == set(cli._COMMANDS)


@pytest.mark.parametrize("line", _COMMAND_LINES)
def test_readme_command_line(capsys, line):
    argv = shlex.split(line)[1:]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    # the negative control must fail its identity; every other line succeeds
    assert code == (1 if "--inject-corruption" in argv else 0), err
    assert out and (code == 1 or err == "")


def _poly_coeffs(text):
    """Ascending integer coefficients of a polynomial written as, say,
    ``x^2 - 8x + 3``."""
    coeffs = {}
    for term in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        sign, c, x, k = re.fullmatch(r"([+-]?)(\d*)(x(?:\^(\d+))?)?", term).groups()
        degree = int(k) if k else int(bool(x))
        coeffs[degree] = (-1 if sign == "-" else 1) * int(c or 1)
    return [str(coeffs.get(d, 0)) for d in range(max(coeffs) + 1)]


def test_readme_library_example():
    source = _block("Library example", "python")
    lines = source.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if not (isinstance(stmt, ast.Expr) and comment):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        result = comment.partition(":")[0]
        if result in ("True", "False"):
            assert value is (result == "True"), comment
        else:
            assert value.to_json()["coeffs"] == _poly_coeffs(result), comment
        checked.append(result)
    assert checked == ["x^2 - 8x + 3", "x^2 - 10x + 17", "True"]
