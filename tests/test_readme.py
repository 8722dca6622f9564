"""The CLI transcripts and the dataset example in README.md are what the CLI
writes, byte for byte."""

import pathlib
import shlex

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
