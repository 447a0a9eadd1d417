"""Code lines of ``src/genmargin``: the figure the size gates cite.

A code line holds at least one token that is not a comment, not
whitespace and not part of a docstring statement (a string literal that
is a statement by itself).  Docstrings, comments and blank lines are
left out; a token that spans lines, such as a triple-quoted string inside
an expression, counts on every line it spans.

Run as a script, it prints each module's count and their total::

    python tests/code_lines.py
"""

import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "genmargin"

#: Token types that never make a line a code line.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    lines, statement = set(), []        # statement: the logical line's tokens so far
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def counts() -> dict:
    """``{module file name: code lines}`` over ``src/genmargin/*.py``."""
    return {path.name: code_lines(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


if __name__ == "__main__":
    per_file = counts()
    for name, n in per_file.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(per_file.values()):6d}  total")
