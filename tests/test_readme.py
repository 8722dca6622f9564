"""The CLI transcripts in README.md are what the CLI prints, byte for byte."""

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
