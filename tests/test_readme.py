"""The README shows what the package does.

Each `print(...)` line of the Library example ends in a comment whose
first word is the line it prints, digit for digit, and every name the
text calls or spells as a class is a public name of ringwave.
"""

import builtins
import contextlib
import io
import pathlib
import re

import ringwave

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_library_example_prints_what_its_comments_say():
    blocks = re.findall(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)
    assert len(blocks) == 1
    code = blocks[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    shown = [line.split("#", 1)[1].split()[0]
             for line in code.splitlines() if line.startswith("print(")]
    assert shown
    assert out.getvalue().splitlines() == shown


def test_every_function_and_class_the_text_names_is_public():
    # `name(...)` and `ClassName`: a deleted record or function fails here
    names = set(re.findall(r"`([a-z_]\w*)\(", TEXT))
    names |= set(re.findall(r"`([A-Z][a-z]\w*)[`(]", TEXT))
    stale = {n for n in names if n not in ringwave.__all__ and not hasattr(builtins, n)}
    assert len(names) > 20
    assert stale == set()
