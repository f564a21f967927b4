"""Command-line interface: exit codes, messages, output formats."""

import json
import time
import typing

import pytest

from braidkit import CanonicalBraid, braid_from_text, parse_nf
from braidkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestRootCommand:
    def test_root_found(self, capsys):
        code, out = run(capsys, "root", "-n", "3", "-k", "2", "1 1 1 1")
        assert code == 0
        assert out.strip() == "D^0 | 1 | 1"

    def test_no_root_message_and_exit_code(self, capsys):
        code, out = run(capsys, "root", "-n", "3", "-k", "3", "1 1 1 1")
        assert code == 2
        assert out.strip() == "A k-th root does not exist."

    def test_non_generic_exit_code(self, capsys):
        code, out = run(capsys, "root", "-n", "3", "-k", "3", "1 2 1 2 1 2")
        assert code == 3
        assert out.startswith("non-generic:")

    def test_json_outcome(self, capsys):
        code, out = run(capsys, "root", "--format", "json",
                        "-n", "3", "-k", "2", "1 1 1 1")
        assert code == 0
        assert json.loads(out) == {"outcome": "root", "root": "D^0 | 1 | 1"}

    def test_exit_codes_depend_only_on_outcome(self, capsys):
        for fmt in ("text", "json"):
            code, _ = run(capsys, "root", "--format", fmt,
                          "-n", "3", "-k", "3", "1 1 1 1")
            assert code == 2


class TestNormalFormCommand:
    def test_nf_fixture(self, capsys):
        # n = 70 exceeds one 64-bit word of crossings per row
        for n, word, expected in (("3", "2 1 1", "D^0 | 2 1 | 1"),
                                  ("70", "1 2", "D^0 | 1 2")):
            code, out = run(capsys, "nf", "-n", n, word)
            assert code == 0
            assert out.strip() == expected

    def test_nf_output_reparses_to_equal_braid(self, capsys):
        for word in ("", "1 2 -1", "-2 -2 1", "1 1 2 2 1"):
            code, out = run(capsys, "nf", "-n", "3", word)
            assert code == 0
            assert parse_nf(3, out.strip()) == braid_from_text(3, word)

    def test_invariants(self, capsys):
        for n, word, expected in (
            ("3", "2 1 1", ["inf=0", "sup=2", "canonicalLength=2", "exponentSum=3"]),
            ("70", "69 -1 2", ["inf=-1", "sup=1", "canonicalLength=2", "exponentSum=1"]),
        ):
            code, out = run(capsys, "invariants", "-n", n, word)
            assert code == 0
            assert out.splitlines() == expected

    def test_invariants_json(self, capsys):
        code, out = run(capsys, "invariants", "--format", "json",
                        "-n", "3", "2 1 1")
        assert json.loads(out) == {
            "inf": 0, "sup": 2, "canonicalLength": 2, "exponentSum": 3,
        }


class TestConjugacyCommands:
    def test_slide(self, capsys):
        code, out = run(capsys, "slide", "-n", "3", "2 1 1")
        assert code == 0
        assert out.splitlines() == [
            "target=D^1", "conjugator=D^0 | 2 1", "iterations=1",
        ]

    def test_rigid(self, capsys):
        assert run(capsys, "rigid", "-n", "3", "1 1") == (0, "true\n")
        assert run(capsys, "rigid", "-n", "3", "2 1 1") == (0, "false\n")

    def test_uss_minimal(self, capsys):
        assert run(capsys, "uss-minimal", "-n", "3", "1 1 1 1") == (0, "true\n")
        assert run(capsys, "uss-minimal", "-n", "4", "2 2") == (0, "false\n")

    def test_orbit_serialization(self, capsys):
        code, out = run(capsys, "orbit", "-n", "3", "1 2 2 1")
        assert code == 0
        assert out.strip() == "t=1, pc=D^0 | 1 2, self=true"

    def test_verify(self, capsys):
        assert run(capsys, "verify", "-n", "3", "-k", "2", "1 1 1 1", "1 1") \
            == (0, "true\n")
        code, out = run(capsys, "verify", "-n", "3", "-k", "2", "1 1 1 1", "2 2")
        assert code == 2 and out == "false\n"

    def test_parse_braid_annotation_resolves(self):
        import braidkit.cli as cli
        hints = typing.get_type_hints(cli._parse_braid)
        assert hints["return"] is CanonicalBraid

    def test_verify_refutes_large_degree_without_powering(self, capsys):
        for k, word, root_word in (
                # exponent sums alone refute it: 10**8 * 1 != 2
                ("100000000", "1", "1 1"),
                # the root's rigid conjugate D^-1 | 2 | 2 1 has length 2,
                # so a 2*10**6-th power has summit length 4*10**6 > 0
                ("2000000", "", "1 -2")):
            started = time.perf_counter()
            code, out = run(capsys, "verify", "-n", "3", "-k", k, word, root_word)
            assert time.perf_counter() - started < 1.0
            assert code == 2 and out == "false\n"

    def test_verify_refutes_a_root_whose_sliding_cycles(self, capsys):
        # the root slides to a repeat at D^-1 | 2 1 3 2 1 | 1, so every
        # power of it has inf < 0 < sup, and the identity is none of them
        started = time.perf_counter()
        code, out = run(capsys, "verify", "-n", "4", "-k", "100000000", "", "1 -3")
        assert time.perf_counter() - started < 1.0
        assert code == 2 and out == "false\n"


# subcommand, options, operands after the word, and the exit codes on a
# rigid word and on a word with no rigid conjugate within the sliding bound
BRAID_COMMANDS = (
    ("nf", (), (), 0, 0),
    ("invariants", (), (), 0, 0),
    ("slide", (), (), 0, 3),
    ("rigid", (), (), 0, 0),
    ("uss-minimal", (), (), 0, 3),
    ("orbit", (), (), 0, 3),
    ("root", ("-k", "2"), (), 0, 3),
    ("verify", ("-k", "2"), ("1 1",), 0, 2),
)


@pytest.mark.parametrize("rigid", (True, False), ids=("rigid", "non-rigid"))
@pytest.mark.parametrize("command, options, operands, rigid_code, non_rigid_code",
                         BRAID_COMMANDS, ids=[c[0] for c in BRAID_COMMANDS])
def test_braid_commands_print_json(capsys, rigid, command, options, operands,
                                   rigid_code, non_rigid_code):
    n, word = ("3", "1 1 1 1") if rigid else ("4", "-3 2 1 -3 1 -1")
    code, out = run(capsys, command, "--format", "json", "-n", n, *options,
                    word, *operands)
    assert code == (rigid_code if rigid else non_rigid_code)
    payload = json.loads(out)
    if code == 3 and command != "root":
        assert list(payload) == ["nonGeneric", "last", "conjugator", "iterations"]


class TestUsageErrors:
    def test_bad_word(self, capsys):
        assert main(["nf", "-n", "3", "4 1"]) == 1

    def test_bad_degree(self, capsys):
        assert main(["root", "-n", "3", "-k", "1", "1"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["nf", "1 2"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1


class TestInternalErrors:
    def test_failed_consistency_checks_exit_4(self, capsys, monkeypatch):
        import braidkit.cli as cli
        from braidkit import RootExtractionError

        def fail(exc):
            def raiser(*args):
                raise exc
            return raiser

        monkeypatch.setattr(cli, "extract_root",
                            fail(RootExtractionError("root failed verification")))
        monkeypatch.setattr(cli, "cycling_orbit",
                            fail(RuntimeError("cycling orbit failed to close")))
        for argv, message in (
                (("root", "-n", "3", "-k", "2", "1 1 1 1"), "root failed"),
                (("orbit", "-n", "3", "1 1"), "cycling orbit failed")):
            assert main(list(argv)) == cli.EXIT_INTERNAL == 4
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
            assert "Traceback" not in err


class TestLabCommands:
    def test_sample_deterministic(self, capsys):
        code, first = run(capsys, "sample", "-n", "3", "-r", "5",
                          "--seed", "9", "--count", "4")
        assert code == 0 and len(first.splitlines()) == 4
        code, second = run(capsys, "sample", "-n", "3", "-r", "5",
                           "--seed", "9", "--count", "4")
        assert first == second

    def test_experiment_csv_schema(self, capsys):
        code, out = run(capsys, "experiment", "-n", "3", "--lengths", "2,4",
                        "--count", "15", "--seed", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# sampling:")
        assert lines[1] == ("r,fractionRigidWithinBound,fractionUssMinimal,"
                            "meanSlidings,samples")
        assert len(lines) == 4

    def test_experiment_json_schema(self, capsys):
        code, out = run(capsys, "experiment", "-n", "3", "--lengths", "2",
                        "--count", "10", "--seed", "5", "--format", "json")
        payload = json.loads(out)
        assert list(payload["rows"][0]) == [
            "r", "fractionRigidWithinBound", "fractionUssMinimal",
            "meanSlidings", "samples",
        ]

    def test_bench_csv_schema(self, capsys):
        code, out = run(capsys, "bench", "--strands", "3", "--lengths", "2,4",
                        "--count", "2", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# planted roots; model=positive-simple-product"
        assert lines[1] == (
            "n,l,k,samples,generic,nonGeneric,meanSeconds,ratioToHalfL")

    def test_bench_on_twelve_strands_finishes_in_seconds(self, capsys):
        # building the 64-factor inputs alone took minutes when normalizing
        # was quadratic in the letters
        start = time.perf_counter()
        code, out = run(capsys, "bench", "--strands", "12", "--lengths", "64",
                        "--count", "1", "--seed", "80")
        assert time.perf_counter() - start < 15
        assert code == 0
        assert out.splitlines()[2].startswith("12,64,2,1,1,0,")
