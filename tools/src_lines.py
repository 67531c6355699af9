"""Count the lines of ``src/nepsolve/*.py``, in all and code only.

Usage (from anywhere)::

    python3 tools/src_lines.py [SRC_DIR]

``SRC_DIR`` defaults to this checkout's ``src/nepsolve``. It prints, per file
and in total, the line count and the code-only count. A code-only line
carries at least one token that is not a comment and not part of a bare
string statement (a docstring); blank lines carry none. A token that spans
lines, such as a triple-quoted string inside an expression, counts on each
line it spans.
"""

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def count(source):
    """``(lines, code_lines)`` of one Python source text."""
    # the (row, col) spans of the bare string statements
    bare = [((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)]
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NON_CODE or any(a <= tok.start < b for a, b in bare):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(src):
    total = [0, 0]
    print(f"{'file':<16} {'lines':>6} {'code':>6}")
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as fh:
            lines, code = count(fh.read())
        print(f"{os.path.basename(path):<16} {lines:>6} {code:>6}")
        total[0] += lines
        total[1] += code
    print(f"{'total':<16} {total[0]:>6} {total[1]:>6}")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    main(sys.argv[1] if len(sys.argv) == 2 else os.path.join(ROOT, "src", "nepsolve"))
