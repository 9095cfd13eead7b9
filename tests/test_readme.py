"""The README's library quick start runs, and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"
# the literal a comment opens with: a set, a tuple or an integer
LEADING_LITERAL = re.compile(r"\{[^}]*\}|\([^)]*\)|-?\d+")


def quick_start() -> str:
    """The fenced python block under the README's "Library quick start" heading."""
    text = README.read_text("utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def commented_values(source: str) -> list[tuple[str, object, object]]:
    """Run source line by line; for each expression line with a comment, (its text,
    its value, the literal the comment opens with)."""
    namespace, out = {}, []
    tree = ast.parse(source)
    lines = source.splitlines()
    for stmt in tree.body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(code, namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if comment:
            out.append((code, value, ast.literal_eval(LEADING_LITERAL.match(comment).group())))
    return out


def test_the_quick_start_gives_the_values_in_its_comments():
    checked = commented_values(quick_start())
    assert [code for code, *_ in checked] == [
        "classify_structure(S1).tags", "classify_structure(S3).tags", "iso.weights",
        "curvature(S1).scalar"]
    for code, value, want in checked:
        assert value == want, code
    assert [want for *_, want in checked] == [
        {"AntiQuasiSasakian"}, {"QuasiSasakian"}, (2, 1), -20]
