"""The CLI contract in bytes: stdout of fixed catalog commands, pinned.

tests/golden/cli_stdout.json maps each command line to the exact stdout
it must produce.  The expected text was produced by the Fraction-based
exact core that the integer basis-pair arithmetic replaced, so this test
shows that compose, commute, height, nt-height, ramify and periodic
kept their output byte for byte.  Never regenerate the file from the code
under test.  The exceptions: the four periodic lines were re-pinned
when the root kernel changed, after every moved float was compared with
a 200-bit mpmath Newton polish of the same root, and the phi_sqrt-3 and
phi_2@E2 lines again when the catalog maps took their periodic points in
closed form, after every moved float was compared with a 60-digit mpmath
Newton polish and the multiplier there (both tables are in CHANGES.md).
"""

import json
import shlex
from pathlib import Path

import pytest

from p1dyn import cli

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "cli_stdout.json").read_text()
)


def test_golden_covers_the_pinned_subcommands():
    commands = {shlex.split(case)[0] for case in GOLDEN}
    assert commands == {
        "compose", "commute", "height", "nt-height", "ramify", "periodic",
    }
    tols = {a for case in GOLDEN for a in shlex.split(case) if "e-" in a}
    assert tols == {"1e-9", "1e-11"}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_bytes(case, capsys):
    rc = cli.main(shlex.split(case))
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode() == GOLDEN[case].encode()


@pytest.mark.parametrize(
    "case", sorted(c for c in GOLDEN if "--point=-" in c)
)
def test_negative_point_after_a_space(case, capsys):
    rc = cli.main(shlex.split(case.replace("--point=-", "--point -")))
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode() == GOLDEN[case].encode()
