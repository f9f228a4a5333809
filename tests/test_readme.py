"""README's quoted results, checked against the program.

Each claim is read from README.md, found from this file's path, and run in
process: the CLI through `cli.main`, the library block by exec.  Nothing is
written.  A change on either side, the program or the README, fails here.
"""

import re
from pathlib import Path

from qecalg.cli import main

_README = Path(__file__).resolve().parent.parent / "README.md"


def _run(capsys, command):
    code = main(command.split()[1:])  # the words after "qecalg"
    out, err = capsys.readouterr()
    return code, out, err


def test_readme_quotes_what_the_program_prints(capsys):
    text = _README.read_text(encoding="utf-8")
    # the CLI block: a command, then the first line it prints
    block = re.search(r"## CLI\n\n```\n(.*?)```", text, re.S).group(1).splitlines()
    command = "qecalg analyze 513"
    code, out, _ = _run(capsys, command)
    assert code == 0 and out.splitlines()[0] == block[block.index(command) + 1]
    # the prose claims "`qecalg ...` ... exits N with `message`", read with
    # its lines joined
    prose = " ".join(text.split())
    claims = re.findall(r"`(qecalg [^`]*)`[^`.]* exits (\d) with `([^`]*)`", prose)
    assert len(claims) == 2, claims
    for command, status, message in claims:
        assert _run(capsys, command) == (int(status), "", message + "\n"), command
    # the library block runs, and its comment is the analysis it makes
    library = re.search(r"## Library entry points\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(library, namespace)
    comment = re.search(r"report = analyze\(.*#\s*(.*)", library).group(1)
    report = namespace["report"]
    assert comment == f"K={report.K}, d={report.d}, pure={report.pure}"
