"""Byte-identity of the CLI exports: the quotient in every format and the
cusp report on the census levels, and the amalgam JSON on the line levels
and on levels with non-tree edges or edges of several strands.

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

# (q, level, depth) of the amalgam exports: the D = t lines, then levels
# whose graph of groups has non-tree edges or edges of several strands
AMALGAM_CASES = [(2, "t", 8), (3, "t", 8), (5, "t", 8), (9, "t", 8),
                 (2, "t^3", 12), (3, "t^3", 10), (3, "t^2;t+1", 10),
                 (2, "0", 8), (3, "0", 8)]


def export_commands():
    cmds = []
    for q, level, depth, _ in CUSP_CASES:
        common = ["--p", str(q), "--level", level, "--depth", str(depth)]
        for fmt in ("json", "text", "dot"):
            cmds.append(["quotient"] + common + ["--format", fmt])
        cmds.append(["cusps"] + common)
    for q, level, depth in AMALGAM_CASES:
        p, s = _PS[q]
        cmds.append(["amalgam", "--p", str(p), "--s", str(s), "--level",
                     level, "--depth", str(depth), "--format", "json"])
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
