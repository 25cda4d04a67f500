import json
import os
import pathlib
import shlex
import subprocess
import sys
import time

import pytest

from btquot.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCusps:
    def test_line_example(self, capsys):
        code, out, _ = run_cli(
            ["cusps", "--p", "2", "--level", "t", "--depth", "10"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "certified=2 formula=2 exact=true"

    def test_split_reporting(self, capsys):
        code, out, _ = run_cli(
            ["cusps", "--p", "3", "--level", "t", "--depth", "6"], capsys)
        assert code == 0
        assert "split=2 nonsplit=0 indeterminate=0" in out

    @pytest.mark.parametrize("p,lvl,certified", [(2, "t^2", 3),
                                                 (3, "t^2", 3),
                                                 (2, "t^3", 4)])
    def test_extension_field_repeated_factor(self, capsys, p, lvl,
                                             certified):
        """Over F_4 and F_9 a level factor of multiplicity >= 2 gives
        stabilizers whose torus ratios lie in F_p; their unipotent
        generators must still span over F_q, or the neighbor orbits come
        out too small and the build exits 3."""
        code, out, err = run_cli(
            ["cusps", "--p", str(p), "--s", "2", "--level", lvl,
             "--depth", "8"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[0].startswith("certified=%d " % certified)

    def test_shallow_depth_is_uncertified(self, capsys):
        """Depth 6 certifies 3 of the 4 cusps of D = 3(t) over F_2; the
        fourth is at a boundary class that ends no certified chain, so
        the run reports it as uncertified and exits 0."""
        code, out, err = run_cli(
            ["cusps", "--p", "2", "--level", "t^3", "--depth", "6"], capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "certified=3 formula=4 exact=true"
        assert lines[-1] == ("UNCERTIFIED: depth 6 certifies 3 of 4 cusps; "
                             "boundary classes ending no certified chain: 1")
        assert "MISMATCH" not in out

    @pytest.mark.parametrize("lvl", ["t^11", "t^5;(t+1)^5"])
    def test_many_cusps_beyond_open_classes_are_uncertified(self, capsys,
                                                            lvl):
        """At depth 6 one of the 64 cusps is certified, and the 63 others
        lie beyond fewer open boundary classes: a bound of the run, not a
        contradiction, so the run exits 0."""
        code, out, err = run_cli(
            ["cusps", "--p", "2", "--level", lvl, "--depth", "6"], capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "certified=1 formula=64 exact=true"
        assert lines[-1].startswith("UNCERTIFIED: depth 6 certifies 1 of 64 "
                                    "cusps; boundary classes ending no "
                                    "certified chain: ")
        assert "MISMATCH" not in out

    def test_level_zero_above_the_enumeration_cap(self, capsys):
        """D = 0 at q=19: the base vertex group GL2(F_19), 123,120
        elements, is described by its level-0 kernel, not walked, so the
        one cusp certifies."""
        code, out, err = run_cli(
            ["cusps", "--p", "19", "--level", "0", "--depth", "5"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "certified=1 formula=1 exact=true"

    @pytest.mark.parametrize("count", [2, 5])
    def test_contradicting_count_exits_3(self, capsys, monkeypatch, count):
        """An exact count below the certified 3 (depth 6), or above the
        certified 4 when every boundary class ends a certified chain
        (depth 8), is a contradiction."""
        import btquot.cli
        monkeypatch.setattr(btquot.cli, "cusp_count",
                            lambda level, q: (count, True))
        depth = {2: "6", 5: "8"}[count]
        code, out, _ = run_cli(
            ["cusps", "--p", "2", "--level", "t^3", "--depth", depth], capsys)
        assert code == 3
        assert out.splitlines()[-1] == ("MISMATCH: exact formula disagrees "
                                        "with certification")
        assert "UNCERTIFIED" not in out


class TestReduce:
    def test_documented_example(self, capsys):
        code, out, _ = run_cli(
            ["reduce", "--p", "2", "--vertex", "r=2;a=1*s^-1"], capsys)
        assert code == 0
        assert "level=2" in out
        assert "word=[tau[t], I]" in out

    @pytest.mark.parametrize("vertex,level", [
        ("r=99999999999;a=0", 99999999999),
        ("r=99999999999;a=1*s^1", 99999999997),
        ("r=99999999999;a=1*s^1+1*s^2", 99999999995),
    ])
    def test_huge_radius(self, vertex, level, capsys):
        """The inversions work on the exact center, never on t^r: a zero
        center goes to v_r, the monomial 1/t inverts exactly to t, and
        (t+1)/t^2 reduces by Euclid's algorithm in three inversions."""
        t0 = time.perf_counter()
        code, out, _ = run_cli(["reduce", "--p", "2", "--vertex", vertex],
                               capsys)
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        assert "level=%d" % level in out.splitlines()


# reduce, stab and orbit on the README examples, a deep q=3 reduction,
# two deep orbit pairs (w = x.v for x in H_D) at q=5 and q=9, and
# reductions over F_4 and F_9 from r <= 0 and from r > 0, whose last
# translation is cut by the radius, and one level-0 stabilizer at q=9 for
# each type of its F_q-algebra V: a Borel (D=t), the dual numbers (t^2),
# F_81 (t^2+4*t+1), the split torus (t;t+1) and all of M2 (D=0); then, at
# q=7 and q=8, the amalgam at D=t and one stabilizer with all of (F_q*)^2
# (q=7, D=t) or the scalar line (q=8, D=t^2) as its torus pairs
CLI_POINTS = [
    ["reduce", "--p", "2", "--vertex", "r=2;a=1*s^-1"],
    ["stab", "--p", "2", "--level", "t", "--vertex", "r=-1;a=0",
     "--brute-force"],
    ["orbit", "--p", "2", "--level", "t", "--vertex", "r=1;a=0",
     "--vertex2", "r=-1;a=0"],
    ["reduce", "--p", "3", "--vertex",
     "r=40;a=1*s^1+2*s^7+1*s^29+1*s^33+2*s^38"],
    ["orbit", "--p", "5", "--level", "t^2", "--vertex",
     "r=17;a=1*s^6+4*s^9+2*s^11+1*s^12+2*s^13+1*s^15+3*s^16",
     "--vertex2",
     "r=33;a=2*s^3+1*s^4+3*s^5+4*s^6+1*s^7+4*s^8+4*s^9+3*s^10+1*s^11"
     "+1*s^12+3*s^13+1*s^14+3*s^16+4*s^17+3*s^23+1*s^24+4*s^26+3*s^27"
     "+3*s^28+4*s^29+1*s^30+1*s^31"],
    ["orbit", "--p", "3", "--s", "2", "--level", "t", "--vertex",
     "r=16;a=6*s^1+8*s^3+2*s^5+6*s^6+1*s^8+7*s^10+3*s^11",
     "--vertex2",
     "r=32;a=1*s^2+4*s^3+6*s^4+7*s^5+1*s^6+2*s^7+6*s^8+1*s^9+3*s^10"
     "+8*s^11+4*s^12+3*s^13+5*s^14+2*s^15+4*s^17+1*s^18+8*s^19+8*s^20"
     "+6*s^22+3*s^23+8*s^24+4*s^25+7*s^26+4*s^27+4*s^28+4*s^29+6*s^30"
     "+3*s^31"],
    ["reduce", "--p", "2", "--s", "2", "--vertex", "r=-2;a=2*s^-5+3*s^-3"],
    ["reduce", "--p", "2", "--s", "2", "--vertex",
     "r=10;a=2*s^-4+2*s^-3+2*s^1+2*s^5+3*s^6"],
    ["reduce", "--p", "3", "--s", "2", "--vertex",
     "r=-1;a=5*s^-4+7*s^-2+1*s^-3"],
    ["reduce", "--p", "3", "--s", "2", "--vertex",
     "r=11;a=8*s^-4+6*s^-2+4*s^6+3*s^9"],
] + [["stab", "--p", "3", "--s", "2", "--level", lvl, "--vertex",
      "r=2;a=1*s^1", "--brute-force"]
     for lvl in ("t", "t^2", "t^2+4*t+1", "t;t+1", "0")] + [
    ["amalgam", "--p", "7", "--level", "t", "--depth", "6"],
    ["amalgam", "--p", "2", "--s", "3", "--level", "t", "--depth", "6"],
    ["stab", "--p", "7", "--level", "t", "--vertex", "r=2;a=1*s^1",
     "--brute-force"],
    ["stab", "--p", "2", "--s", "3", "--level", "t^2", "--vertex",
     "r=2;a=1*s^1", "--brute-force"],
]
CLI_POINTS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_points.txt"


def test_cli_points_golden(capsys):
    """One '$ btquot ...' header line per command, then its stdout."""
    parts = []
    for args in CLI_POINTS:
        code, out, _ = run_cli(args, capsys)
        assert code == 0, args
        parts.append("$ btquot %s\n%s" % (shlex.join(args), out))
    assert "".join(parts) == CLI_POINTS_GOLDEN.read_text(encoding="utf-8")


class TestFormula:
    def test_cubed_level(self, capsys):
        code, out, _ = run_cli(
            ["formula", "--p", "3", "--level", "t^3"], capsys)
        assert code == 0
        assert "c_HD=4 exact=true" in out
        assert "card_D=2 card_I=2" in out
        assert "verdict=infinite-Fp-part" in out

    def test_serre_case(self, capsys):
        code, out, _ = run_cli(["formula", "--p", "2", "--level", "0"],
                               capsys)
        assert code == 0
        assert "serre_case=true" in out

    def test_picard_inputs(self, capsys):
        code, out, _ = run_cli(
            ["formula", "--p", "2", "--level", "t", "--g2-order", "2"],
            capsys)
        assert code == 0
        assert "exact=false" in out


class TestQuotient:
    def test_json_export(self, capsys, tmp_path):
        out_path = tmp_path / "q.json"
        code, _, _ = run_cli(
            ["quotient", "--p", "2", "--level", "t", "--depth", "6",
             "--format", "json", "--out", str(out_path)], capsys)
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["classes"]) == 13

    def test_dot_export(self, capsys):
        code, out, _ = run_cli(
            ["quotient", "--p", "2", "--level", "t", "--depth", "6",
             "--format", "dot"], capsys)
        assert code == 0
        assert out.startswith("graph quotient {")

    def test_determinism(self, capsys):
        args = ["quotient", "--p", "3", "--level", "t", "--depth", "5",
                "--format", "json"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0 and out1 == out2

    def test_depth_one_exports_at_least_two_nodes(self, capsys):
        code, out, _ = run_cli(
            ["quotient", "--p", "2", "--level", "t", "--depth", "1",
             "--format", "json"], capsys)
        assert code == 0
        assert len(json.loads(out)["classes"]) >= 2

    def test_shallow_depth_notes_skipped_certification(self, capsys):
        code, out, err = run_cli(
            ["quotient", "--p", "2", "--level", "t", "--depth", "4"], capsys)
        assert code == 0
        assert "certified cusps: 0" in out
        assert err == ("note: depth 4 is below window + 2 = 5; cusps were "
                       "not certified\n")
        code, out, err = run_cli(
            ["quotient", "--p", "2", "--level", "t", "--depth", "5"], capsys)
        assert code == 0 and err == ""


class TestStabOrbit:
    def test_stab_with_oracle(self, capsys):
        code, out, _ = run_cli(
            ["stab", "--p", "2", "--level", "t", "--vertex", "r=-1;a=0",
             "--brute-force"], capsys)
        assert code == 0
        assert "order=4" in out and "agree=true" in out

    def test_stab_lists_a_small_generating_set(self, capsys):
        """The class-0 representative of q=9, D=t moved by [[1, 0], [t, 1]]
        has a Borel subgroup of GL2(F_9), of order 576, in its own frame:
        two torus lifts and one level-0 extra generate it, and its normal
        unipotent subgroup has order 9."""
        code, out, _ = run_cli(
            ["stab", "--p", "3", "--s", "2", "--level", "t", "--vertex",
             "r=2;a=1*s^1", "--brute-force"], capsys)
        lines = out.splitlines()
        assert code == 0 and "agree=true" in out
        assert "order=576" in lines and "unipotent_dim=1" in lines
        assert [ln.split("=")[0] for ln in lines if ln.startswith("gen")] \
            == ["gen0", "gen1", "gen2"]

    def test_orbit_negative(self, capsys):
        code, out, _ = run_cli(
            ["orbit", "--p", "2", "--level", "t", "--vertex", "r=1;a=0",
             "--vertex2", "r=-1;a=0"], capsys)
        assert code == 0
        assert "equivalent=false" in out

    def test_orbit_positive(self, capsys):
        code, out, _ = run_cli(
            ["orbit", "--p", "2", "--level", "0", "--vertex", "r=1;a=0",
             "--vertex2", "r=-1;a=0"], capsys)
        assert code == 0
        assert "equivalent=true" in out and "witness=" in out

    @pytest.mark.parametrize("args", [
        ["stab", "--vertex", "r=40;a=0"],
        ["orbit", "--vertex", "r=40;a=0", "--vertex2", "r=40;a=1*s^-3"],
    ])
    def test_brute_force_cap_exits_2(self, args, capsys):
        """The brute force would enumerate all 2^41 elements of Stab(v_40);
        above the enumeration cap it refuses at once, before the first
        candidate, with exit 2."""
        t0 = time.perf_counter()
        code, out, err = run_cli(args[:1] + ["--p", "2", "--level", "t"]
                                 + args[1:] + ["--brute-force"], capsys)
        assert time.perf_counter() - t0 < 5.0
        assert (code, out) == (2, "")
        assert err == ("error: brute force would enumerate %d elements of "
                       "Stab(v_40), above the cap 100000\n" % 2 ** 41)

    def test_level_zero_stabilizer_above_the_cap_answers(self, capsys):
        """At q=31 and D=0 the stabilizer of the base vertex is all of
        GL2(F_31), 892,800 elements, more than the enumeration cap.  Its
        order is a closed form in the type of the level-0 kernel, and the
        walk for generators stops once they reach it: four, at once."""
        t0 = time.perf_counter()
        code, out, err = run_cli(["stab", "--p", "31", "--level", "0",
                                  "--vertex", "r=0;a=0"], capsys)
        assert time.perf_counter() - t0 < 1.0
        lines = out.splitlines()
        assert (code, err) == (0, "") and "order=892800" in lines
        assert [ln.split("=")[0] for ln in lines if ln.startswith("gen")] \
            == ["gen0", "gen1", "gen2", "gen3"]

    @pytest.mark.parametrize("r", [-99999999, -4096])
    def test_deep_level_solve_cap_exits_2(self, r, capsys):
        """The congruence solve at level n takes n+1 unknowns and a kernel
        basis of O(n^2) entries; past the cap it refuses before it reads
        a torus map, with exit 2, where the reduction alone answers at
        once."""
        t0 = time.perf_counter()
        code, out, err = run_cli(["stab", "--p", "2", "--level", "t",
                                  "--vertex", "r=%d;a=0" % r], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert err == ("error: the congruence solve at level %d has %d "
                       "unknowns, above the cap 4096\n" % (-r, 1 - r))

    def test_deep_level_witness_cap_exits_2(self, capsys):
        """`orbit` refuses a pair past the cap as `stab` does, before it
        reads the points' torus map."""
        vertex = "r=-4096;a=0"
        code, out, err = run_cli(["orbit", "--p", "2", "--level", "t",
                                  "--vertex", vertex, "--vertex2", vertex],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == ("error: the congruence solve at level 4096 has 4097 "
                       "unknowns, above the cap 4096\n")

    def test_deep_level_below_the_cap_answers(self, capsys):
        code, out, err = run_cli(["stab", "--p", "2", "--level", "t",
                                  "--vertex", "r=-4000;a=0"], capsys)
        assert (code, err) == (0, "")
        assert "order=%d" % 2 ** 4001 in out.splitlines()


class TestAmalgam:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(
            ["amalgam", "--p", "3", "--level", "t", "--depth", "6"], capsys)
        assert code == 0
        assert out.startswith("PRESENTATION level=t q=3")
        assert "TAILS" in out

    def test_wrong_relation_exits_3(self, capsys, monkeypatch):
        """A relation word that does not evaluate to the identity is an
        internal contradiction: the first word found gets one more
        factor."""
        import btquot.presentation as presentation
        word_search = presentation._word_search
        calls = []

        def tampered(target, gens, names):
            word = word_search(target, gens, names)
            calls.append(word)
            if len(calls) == 1:
                name, k = word[-1]
                word = word[:-1] + ((name, k + 1),)
            return word

        monkeypatch.setattr(presentation, "_word_search", tampered)
        code, out, err = run_cli(
            ["amalgam", "--p", "3", "--level", "t", "--depth", "6"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: relation ")
        assert "does not evaluate to the identity" in err

    @pytest.mark.parametrize("p,s", [(2, 2), (3, 2)])
    def test_raised_order_exits_3(self, capsys, monkeypatch, p, s):
        """One more than the order of any one generator is caught by the
        relation check on packed rows, over F_4 and F_9, whose arithmetic
        runs on the extension-field tables."""
        from btquot.hecke import StabDescriptor
        frame_order = StabDescriptor.frame_order
        args = ["amalgam", "--p", str(p), "--s", str(s), "--level", "t",
                "--depth", "8"]
        assert run_cli(args, capsys)[0] == 0
        count = [0]

        def counted(self, frame):
            count[0] += 1
            return frame_order(self, frame)

        monkeypatch.setattr(StabDescriptor, "frame_order", counted)
        run_cli(args, capsys)
        assert count[0] >= 4
        for target in range(count[0]):
            seen = []

            def raised(self, frame):
                seen.append(frame)
                return frame_order(self, frame) + (len(seen) == target + 1)

            monkeypatch.setattr(StabDescriptor, "frame_order", raised)
            code, out, err = run_cli(args, capsys)
            assert (code, out) == (3, ""), target
            assert err.startswith("error: relation ")
            assert "does not evaluate to the identity" in err

    def test_vertex_group_cap_exits_2(self, capsys, monkeypatch):
        """A finite vertex group above VERTEX_GROUP_CAP is a size limit of
        the run, not a contradiction."""
        import btquot.presentation as presentation
        monkeypatch.setattr(presentation, "VERTEX_GROUP_CAP", 5)
        code, out, err = run_cli(
            ["amalgam", "--p", "2", "--level", "0", "--depth", "8"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: stabilizer order 6 exceeds cap 5\n"

    def test_level_zero_vertex_group_above_the_cap_exits_2(self, capsys):
        """At q=19 and D=0 the base vertex group GL2(F_19) has 123,120
        elements, above VERTEX_GROUP_CAP: exit 2, as at q=17."""
        code, out, err = run_cli(["amalgam", "--p", "19", "--level", "0"],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == "error: stabilizer order 123120 exceeds cap 20000\n"


class TestErrors:
    @pytest.mark.parametrize("command,bounds,message", [
        ("quotient", ("--depth", "12", "--window", "1"),
         "window must be >= 2"),
        ("quotient", ("--depth", "2", "--window", "1"),
         "window must be >= 2"),
        ("cusps", ("--depth", "12", "--window", "1"), "window must be >= 2"),
        ("cusps", ("--depth", "4"),
         "depth 4 too small for window 3 (need >= 5)"),
        ("cusps", ("--depth", "0", "--window", "1"), "depth must be >= 1"),
        ("amalgam", ("--depth", "12", "--window", "1"),
         "window must be >= 2"),
        ("amalgam", ("--depth", "4"),
         "depth 4 too small for window 3 (need >= 5)"),
    ])
    def test_window_is_refused_before_the_build(self, capsys, monkeypatch,
                                                command, bounds, message):
        """A window that certification would refuse exits 2 with its
        message before any quotient is built."""
        import btquot.cli

        def no_build(level, depth):
            raise AssertionError("the quotient was built")

        monkeypatch.setattr(btquot.cli, "build_quotient", no_build)
        code, out, err = run_cli([command, "--p", "3", "--level",
                                  "t^3;(t+1)^3", *bounds], capsys)
        assert (code, out, err) == (2, "", "error: %s\n" % message)

    def test_usage_error_exit_2(self, capsys):
        assert run_cli(["cusps", "--p", "2", "--level", "t^2+t"],
                       capsys)[0] == 2

    def test_bad_vertex_exit_2(self, capsys):
        assert run_cli(["reduce", "--p", "2", "--vertex", "nope"],
                       capsys)[0] == 2

    def test_bad_threads(self, capsys):
        assert run_cli(["cusps", "--p", "2", "--level", "t",
                        "--threads", "0"], capsys)[0] == 2

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["formula", "--p", "2", "--level", "t",
             "--out", str(tmp_path / "missing" / "x.txt")], capsys)
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["cusps", "--p", "2", "--level", "t", "--threads", "1"],
        ["selftest", "--fast", "--threads", "1"],
        ["amalgam", "--p", "2", "--level", "t", "--format", "dot"],
        ["cusps", "--p", "2", "--level", "t", "--format", "json"],
        ["formula", "--p", "2", "--level", "t", "--format", "json"],
        ["formula", "--p", "3", "--level", "t^3", "--index-component", "7"],
        ["cusps", "--p", "2", "--level", "t", "--brute-force"],
        ["quotient", "--p", "2", "--level", "t", "--brute-force"],
        ["amalgam", "--p", "2", "--level", "t", "--brute-force"],
    ])
    def test_unread_flags_rejected(self, args, capsys):
        assert run_cli(args, capsys)[0] == 2

    def test_internal_inconsistency_exit_3(self, capsys, monkeypatch):
        """A stabilizer whose torus pairs are the line alpha = 2*beta,
        which misses the identity, is caught by the neighbor orbits: exit
        3, not 2."""
        from btquot import quotient
        from btquot.hecke import StabDescriptor
        stabilizer = quotient.point_stabilizer

        def forged_torus(point, v, red):
            stab = stabilizer(point, v, red)
            return StabDescriptor(v, red,
                                  (2,) + stab.torus_map[1:] + (stab.m,),
                                  stab.kernel)

        monkeypatch.setattr(quotient, "point_stabilizer", forged_torus)
        code, out, err = run_cli(
            ["quotient", "--p", "3", "--level", "t", "--depth", "5"], capsys)
        assert code == 3 and out == ""
        assert err == ("error: the torus pairs alpha = 2*beta of a "
                       "stabilizer miss the pair (1, 1)\n")

    @pytest.mark.parametrize("vertex", ["r=0;a=1*s^-99999999",
                                        "r=99999999;a=1*s^99999990",
                                        "r=0;a=1*s^-4097"])
    def test_vertex_exponent_above_the_cap_exit_2(self, vertex, capsys):
        """A vertex term s^e with |e| above `MAX_DEGREE` is refused before
        its dense center is made: exit 2 within a second."""
        start = time.perf_counter()
        code, out, err = run_cli(["reduce", "--p", "2", "--vertex", vertex],
                                 capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "outside the degree cap 4096" in err

    def test_vertex_exponent_at_the_cap_answers(self, capsys):
        code, out, err = run_cli(["reduce", "--p", "2", "--vertex",
                                  "r=0;a=1*s^-4096"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["vertex=r=0;a=1*s^-4096", "level=0"]

    @pytest.mark.parametrize("args,message", [
        (["reduce", "--p", "2", "--vertex", "r=1;a=%s*s^0" % ("1" * 5000)],
         "coefficient"),
        (["formula", "--p", "2", "--level", "%s*t" % ("1" * 5000)],
         "coefficient"),
        (["formula", "--p", "2", "--level", "t^" + "9" * 5000],
         "multiplicity"),
        (["formula", "--p", "2", "--level", "t^%s+1" % ("9" * 5000)],
         "exponent"),
        (["formula", "--p", "2", "--level", "t^²"], "multiplicity"),
    ])
    def test_overlong_digit_strings_exit_2(self, args, message, capsys):
        """Digit strings longer than `int` reads are bad input, reported
        with the package's own message."""
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: %s is not a decimal number of at most "
                              % message)

    def test_pic_r_order_is_a_number_or_infinite(self, capsys):
        code, out, err = run_cli(["formula", "--p", "2", "--level", "t",
                                  "--pic-r-order", "abc"], capsys)
        assert (code, out) == (2, "")
        assert "argument --pic-r-order: invalid integer_or_infinite value: " \
            "'abc'" in err
        code, out, _ = run_cli(["formula", "--p", "2", "--level", "t",
                                "--pic-r-order", "infinite"], capsys)
        assert code == 0 and out.startswith("level=t q=2")

    def test_plain_value_error_is_internal(self, capsys, monkeypatch):
        """A ValueError that is none of the package's error classes is a
        fault of the program, not bad input: exit 3."""
        import btquot.cli

        def broken(v):
            raise ValueError("boom")

        monkeypatch.setattr(btquot.cli, "reduce_vertex", broken)
        assert run_cli(["reduce", "--p", "2", "--vertex", "r=0;a=0"],
                       capsys) == (3, "", "error: internal: boom\n")

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 2

    def test_extension_field_with_modulus(self, capsys):
        code, out, _ = run_cli(
            ["formula", "--p", "2", "--s", "2", "--modulus", "g^2+g+1",
             "--level", "t"], capsys)
        assert code == 0
        assert "c_HD=2" in out

    def test_prime_field_modulus_must_have_degree_one(self, capsys):
        code, out, err = run_cli(
            ["formula", "--p", "3", "--s", "1", "--modulus", "g^2+1",
             "--level", "t"], capsys)
        assert code == 2 and out == ""
        assert "monic of degree s=1" in err
        code, out, _ = run_cli(
            ["formula", "--p", "3", "--s", "1", "--modulus", "g+1",
             "--level", "t"], capsys)
        assert code == 0 and "c_HD=2" in out

    def test_large_prime_field(self, capsys):
        code, out, _ = run_cli(
            ["reduce", "--p", "1000003", "--vertex", "r=2;a=5*s^1"], capsys)
        assert code == 0 and "level=0" in out.splitlines()
        code, out, _ = run_cli(
            ["formula", "--p", "1000003", "--level", "t"], capsys)
        assert code == 0 and "c_HD=2" in out

    def test_large_characteristic_answers(self, capsys):
        """Primality of --p is decided by Miller-Rabin, so a characteristic
        of 19 digits answers at once, and one beyond the bound the bases
        decide exits 2."""
        t0 = time.perf_counter()
        code, out, _ = run_cli(
            ["formula", "--p", "1000000000000000003", "--level", "t"], capsys)
        assert code == 0
        assert out.splitlines()[:2] == ["level=t q=1000000000000000003",
                                        "alpha=1"]
        code, out, err = run_cli(
            ["formula", "--p", str(2 ** 89 - 1), "--level", "t"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: characteristic %d is too large"
                              % (2 ** 89 - 1))
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("level", [
        "t^99999999", "t^1000000000000+1", "t^10000000000000000000000+1"])
    def test_huge_level_exponent_exits_2(self, level, capsys):
        """An exponent or a level degree above the degree cap exits 2 with
        a message that names the cap, before any product is formed."""
        t0 = time.perf_counter()
        code, out, err = run_cli(["formula", "--p", "2", "--level", level],
                                 capsys)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "above the degree cap 4096" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("level,message", [
        ("(t+2)^2", "coefficient 2 out of range for q=2 at position 2 "
                    "in 't+2'"),
        ("(t^99999999+t)^2", "exponent 99999999 is above the degree cap "
                             "4096 at position 0 in 't^99999999+t'")])
    def test_factor_in_parentheses_names_its_own_error(self, level, message,
                                                       capsys):
        """A factor in parentheses with a multiplicity exits 2 with the
        parse error of the polynomial inside, as that polynomial alone
        does, not with an error of the whole factor."""
        inner = level[1:level.rindex(")")]
        for text in (level, inner):
            code, out, err = run_cli(["formula", "--p", "2", "--level", text],
                                     capsys)
            assert (code, out, err) == (2, "", "error: %s\n" % message)

    def test_extension_field_cap(self, capsys):
        code, out, _ = run_cli(
            ["formula", "--p", "2", "--s", "10", "--modulus", "g^10+g^3+1",
             "--level", "t"], capsys)
        assert code == 0 and "q=1024" in out and "c_HD=2" in out
        code, out, err = run_cli(
            ["formula", "--p", "101", "--s", "2", "--modulus", "g^2+99",
             "--level", "t"], capsys)
        assert code == 2 and out == "" and "q=10201" in err


def _run_module(module, *args):
    """`python -m module args` in a subprocess.  The subprocess does not
    inherit pytest's `pythonpath`, so it gets the sources on PYTHONPATH,
    as an installed package would have them."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", module, *args], env=env,
                          capture_output=True, text=True)


def test_console_script_entry_point():
    proc = _run_module("btquot.cli", "formula", "--p", "2", "--level", "t")
    assert proc.returncode == 0
    assert "c_HD=2" in proc.stdout


def test_package_runs_as_a_module():
    """`python -m btquot` is the command line, exit codes included."""
    proc = _run_module("btquot", "formula", "--p", "2", "--level", "t")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == _run_module(
        "btquot.cli", "formula", "--p", "2", "--level", "t").stdout
    proc = _run_module("btquot", "formula", "--p", "4", "--level", "t")
    assert proc.returncode == 2 and proc.stdout == ""
