"""Byte-identity of the command line on a fixed slice of the digest sweep
(`digest_sweep.py`): every third command of the sweep prints what it
printed when the golden was made.  `python tests/digest_sweep.py` checks
every command."""

import shlex

from digest_sweep import commands, digest_line, read_golden


def test_sweep_commands_are_the_golden_commands():
    golden = read_golden()
    assert len(golden) >= 1000
    assert [line.split(" ", 2)[2] for line in golden] == \
        [shlex.join(args) for args in commands()]


def test_digest_slice():
    golden, cmds = read_golden(), commands()
    changed = [(golden[k], line) for k in range(0, len(cmds), 3)
               for line in [digest_line(cmds[k])] if line != golden[k]]
    assert changed == []
