"""Count code lines: what a Python file holds besides comments,
docstrings and blank lines.

A line counts when a token other than a comment or a line break starts,
ends or runs through it, and no docstring (the leading string of a
module, class or function body) covers it.  Run::

    python benchmarks/loc.py [PATH ...]

to print one total per path (a file, or every ``*.py`` under a
directory); with no path it prints ``src/repro``, ``core/`` +
``oracle/`` + ``cli.py``, and ``oracle/explore.py``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the default report: a label and the paths it sums
DEFAULT = (("src/repro", (SRC,)),
           ("core/ + oracle/ + cli.py",
            (SRC / "core", SRC / "oracle", SRC / "cli.py")),
           ("oracle/explore.py", (SRC / "oracle" / "explore.py",)))

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(path: Path) -> int:
    """Code lines in ``path``, or in every ``*.py`` file under it."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(file.read_text()) for file in files)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    rows = ([(arg, (Path(arg),)) for arg in argv] if argv else DEFAULT)
    for label, paths in rows:
        print(f"{sum(count(path) for path in paths):>7,}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
