"""Byte-identity of the CLI exports: the quotient in every format and the
cusp report on the census levels, and the amalgam JSON on the line levels.

Regenerate the golden with `PYTHONPATH=src python tests/test_exports.py`
only when an output changes on purpose.
"""

import contextlib
import io
import pathlib
import shlex

from btquot.cli import main
from btquot.selftest import CUSP_CASES

EXPORTS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "exports.txt"

# (p, s) for each q of the amalgam exports
_PS = {2: (2, 1), 3: (3, 1), 5: (5, 1), 9: (3, 2)}


def export_commands():
    cmds = []
    for q, level, depth, _ in CUSP_CASES:
        common = ["--p", str(q), "--level", level, "--depth", str(depth)]
        for fmt in ("json", "text", "dot"):
            cmds.append(["quotient"] + common + ["--format", fmt])
        cmds.append(["cusps"] + common)
    for q in (2, 3, 5, 9):
        p, s = _PS[q]
        cmds.append(["amalgam", "--p", str(p), "--s", str(s), "--level", "t",
                     "--depth", "8", "--format", "json"])
    return cmds


def export_text():
    """One '$ btquot ...' header line per command, then its stdout."""
    parts = []
    for args in export_commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(args)
        assert code == 0, args
        parts.append("$ btquot %s\n%s" % (shlex.join(args), buf.getvalue()))
    return "".join(parts)


def test_exports_golden():
    assert export_text() == EXPORTS_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    EXPORTS_GOLDEN.write_text(export_text(), encoding="utf-8")
