"""Byte-identity of the command line on a fixed slice of the digest sweep
(`digest_sweep.py`): every third command of the sweep, every `amalgam`
command (each edge group is built through one), and every command after
the `formula` block (the `orbit` pairs and the deep `amalgam`s, whose
witnesses go through `hecke.orbit_witness`), prints what it printed when
the golden was made.  `python tests/digest_sweep.py` checks every
command."""

import shlex

from digest_sweep import commands, digest_line, read_golden


def slice_indices(cmds):
    """Indices of every third command, of every `amalgam` command and of
    every command after the last `formula` one."""
    last = max(k for k, args in enumerate(cmds) if args[0] == "formula")
    return sorted(set(range(0, len(cmds), 3)) | set(range(last + 1, len(cmds)))
                  | {k for k, args in enumerate(cmds) if args[0] == "amalgam"})


def test_sweep_commands_are_the_golden_commands():
    golden = read_golden()
    assert len(golden) >= 1000
    assert [line.split(" ", 2)[2] for line in golden] == \
        [shlex.join(args) for args in commands()]


def test_slice_holds_the_witness_commands():
    """The slice runs all three deep `amalgam`s and all seven `orbit`
    pairs that follow the `formula` block."""
    cmds = commands()
    tail = [cmds[k] for k in slice_indices(cmds)][-10:]
    assert [args[0] for args in tail] == ["orbit"] * 7 + ["amalgam"] * 3


def test_slice_holds_every_amalgam_command():
    """Every edge group is built by an `amalgam` command, so the slice runs
    all of them: the sweep's 132."""
    cmds = commands()
    amalgams = [k for k, args in enumerate(cmds) if args[0] == "amalgam"]
    assert len(amalgams) == 132
    assert set(amalgams) <= set(slice_indices(cmds))


def test_digest_slice():
    golden, cmds = read_golden(), commands()
    changed = [(golden[k], line) for k in slice_indices(cmds)
               for line in [digest_line(cmds[k])] if line != golden[k]]
    assert changed == []
