"""The CLI transcripts and the dataset example in README.md are what the CLI
writes, byte for byte, and the values claimed in its Library block are what
the library returns."""

import ast
import io
import pathlib
import shlex
import tokenize

import pytest

from knotproj import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def transcripts():
    """Each ``$ knotproj ...`` line of README's CLI block, mapped to the
    output printed under it (up to the blank line that ends it)."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    out = {}
    for chunk in block.split("\n$ "):
        command, _, output = chunk.removeprefix("$ ").partition("\n")
        out[command] = output.split("\n\n", 1)[0].rstrip("\n") + "\n"
    return out


@pytest.mark.parametrize(
    "command",
    ['knotproj analyze "1 2 3 1 2 3" --arnold', 'knotproj reduce "1 1 2 2"'],
)
def test_readme_transcript_matches_cli(command, capsys):
    want = transcripts()[command]
    assert cli.main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == want


def test_readme_dataset_line_matches_enumerate(tmp_path, capsys):
    """README's "Dataset format" example is the ``1 1`` record that
    ``enumerate 1`` writes: its field order and compact separators."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Dataset format\n", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "ds.jsonl"
    assert cli.main(["enumerate", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text(encoding="utf-8") == '{"schema":1}\n' + example


def library_claims():
    """Run README's Library block statement by statement; yield each
    expression's source, the ``repr`` of its value and the value claimed in
    its comment: the inline ``# value``, or else the comment lines below it,
    joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string.removeprefix("# ")
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    lines = block.splitlines()
    namespace = {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            continue
        end = node.end_lineno
        claim = comments.get(end)
        if claim is None:
            below = []
            while end + 1 in comments and lines[end].lstrip().startswith("#"):
                end += 1
                below.append(comments[end])
            claim = "".join(below)
        yield source, repr(eval(source, namespace)), claim


def test_readme_library_claims_hold():
    claims = list(library_claims())
    assert len(claims) == 7
    for source, got, claim in claims:
        assert got == claim, source
