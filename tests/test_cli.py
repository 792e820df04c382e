"""End-to-end command-line behavior, including generators and the bench harness."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import degkit
from degkit.cli import build_parser, main
from degkit.errors import InvalidInputError
from degkit.formats import parse_instance, parse_solution
from degkit.generators import gen_cubic, gen_random_dce

TRIPLE = "p dce 3 0 3 2\nt 1 2\nt 2 0 2\nt 3 0 2\n"
STAR = "p dsc 4 3 2 anon 2\ne 1 2\ne 1 3\ne 1 4\n"
# A valid command line for every subcommand, and the flags beyond `-o` each
# one reads; bench reads none of them.
VALID_ARGV = {
    "solve": ["solve", "x.dce"],
    "kernelize": ["kernelize", "x.dce"],
    "nce": ["nce", "x.dce"],
    "ffactor": ["ffactor", "x.dce", "--uniform", "1"],
    "reduce": ["reduce", "x.dce", "--from", "vc", "--size", "2"],
    "anonymize": ["anonymize", "x.dsc", "-k", "2", "-s", "1"],
    "gen": ["gen", "dce", "--n", "4"],
    "bench": ["bench", "corpus", "--records", "r.jsonl"],
}
READS = {
    "solve": ("-o", "--verify", "--limit"),
    "anonymize": ("-o", "--verify"),
    "gen": ("-o", "--seed"),
    "bench": (),
}
SRC = str(Path(degkit.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_python(*args):
    """Run a fresh interpreter that imports degkit from this source tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


class TestGenerators:
    def test_random_dce_deterministic(self):
        a = gen_random_dce(30, 0.2, 2, 3, 0.5, seed=7)
        b = gen_random_dce(30, 0.2, 2, 3, 0.5, seed=7)
        assert a == b
        assert a != gen_random_dce(30, 0.2, 2, 3, 0.5, seed=8)

    def test_cubic_is_three_regular(self):
        for n, seed in ((4, 0), (6, 1), (8, 2), (10, 3)):
            g = gen_cubic(n, seed)
            assert all(g.degree(v) == 3 for v in range(n))

    def test_cubic_four_vertices_is_complete(self):
        g = gen_cubic(4, 11)
        assert g.edge_count == 6

    def test_cubic_rejects_odd(self):
        with pytest.raises(InvalidInputError):
            gen_cubic(5, 0)

    def test_cubic_deterministic(self):
        assert gen_cubic(8, 5) == gen_cubic(8, 5)


class TestSolveCommand:
    def test_triple_yes_with_verify(self, tmp_path, capsys):
        path = write(tmp_path, "triple.dce", TRIPLE)
        assert main(["solve", path, "--verify"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("YES 3")
        assert "c verified" in out

    def test_no_instance(self, tmp_path, capsys):
        path = write(tmp_path, "no.dce", "p dce 1 0 1 1\n")
        # Empty degree list: trivially unsatisfiable under additions.
        assert main(["solve", path]) == 0
        assert capsys.readouterr().out == "NO\n"

    def test_parse_error_exit_code(self, tmp_path):
        path = write(tmp_path, "bad.dce", "p dce 3 1 1 1\ne 1 9\n")
        assert main(["solve", path]) == 1

    def test_resource_limit_exit_code(self, tmp_path):
        path = write(tmp_path, "triple.dce", TRIPLE)
        assert main(["solve", path, "--limit", "2"]) == 2

    def test_zero_limit_is_a_limit(self, tmp_path):
        path = write(tmp_path, "triple.dce", TRIPLE)
        assert main(["solve", path, "--limit", "0"]) == 2

    def test_zero_delta_prime_is_honoured(self, tmp_path, capsys):
        # The d line caps degrees at 0, and any added edge lifts a degree to
        # 1; without the line the cap is max degree + k = 1.
        capped = write(tmp_path, "h1-capped.dsc", "p dsc 2 0 1 hindex 1\nd 0\n")
        assert main(["solve", capped]) == 0
        assert capsys.readouterr().out == "NO\n"
        path = write(tmp_path, "h1.dsc", "p dsc 2 0 1 hindex 1\n")
        assert main(["solve", path]) == 0
        assert capsys.readouterr().out.startswith("YES 1")

    def test_bad_witness_fails_verify_under_optimization(self, tmp_path):
        path = write(tmp_path, "reg.dsc", "p dsc 3 0 1 regular\n")
        script = (
            "import sys\n"
            "import degkit.dsc\n"
            "degkit.dsc.dsc_solve = lambda *args, **kwargs: {(0, 1)}\n"
            "from degkit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = run_python("-O", "-c", script, "solve", path, "--verify")
        assert proc.returncode == 1
        assert "c verified" not in proc.stdout
        assert "InternalInvariantError" in proc.stderr

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_dsc_solve(self, tmp_path, capsys):
        path = write(tmp_path, "star.dsc", STAR)
        assert main(["solve", path, "--verify"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("YES 2")

    def test_vertex_deletion_instance(self, tmp_path, capsys):
        text = "p dce 3 3 2 0 v-\ne 1 2\ne 2 3\ne 1 3\nt 1 0\nt 2 0\nt 3 0\n"
        path = write(tmp_path, "vd.dce", text)
        assert main(["solve", path, "--verify"]) == 0
        assert capsys.readouterr().out.startswith("YES 2")


class TestKernelizeCommand:
    def test_kr_kernel_output_parses(self, tmp_path, capsys):
        lists = "".join(f"t {v} 0 1\n" for v in range(1, 101))
        path = write(tmp_path, "big.dce", "p dce 100 0 1 1\n" + lists)
        assert main(["kernelize", path, "--param", "kr"]) == 0
        out = capsys.readouterr().out
        kernel = parse_instance(out)
        assert kernel.graph.vertex_count == 2

    def test_r_param_trivial_yes(self, tmp_path, capsys):
        lists = "".join(f"t {v} 1\n" for v in range(1, 11))
        path = write(tmp_path, "ten.dce", "p dce 10 0 5 1\n" + lists)
        assert main(["kernelize", path, "--param", "r"]) == 0
        sol = parse_solution(capsys.readouterr().out)
        assert sol is not None and len(sol.edits) == 5

    def test_trivial_no(self, tmp_path, capsys):
        path = write(tmp_path, "no.dce", "p dce 1 0 1 1\n")
        assert main(["kernelize", path]) == 0
        assert capsys.readouterr().out == "NO\n"


class TestOtherCommands:
    def test_nce(self, tmp_path, capsys):
        path = write(tmp_path, "triple.dce", TRIPLE)
        assert main(["nce", path, "--target", "6"]) == 0
        assert capsys.readouterr().out == "YES 2 2 2\n"

    def test_nce_no(self, tmp_path, capsys):
        path = write(tmp_path, "triple.dce", TRIPLE)
        assert main(["nce", path, "--target", "1"]) == 0
        assert capsys.readouterr().out == "NO\n"

    def test_ffactor(self, tmp_path, capsys):
        c4 = "p dce 4 4 0 2\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"
        path = write(tmp_path, "c4.dce", c4)
        assert main(["ffactor", path, "--uniform", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("YES 2")

    def test_ffactor_no(self, tmp_path, capsys):
        k3 = "p dce 3 3 0 2\ne 1 2\ne 2 3\ne 1 3\n"
        path = write(tmp_path, "k3.dce", k3)
        assert main(["ffactor", path, "--uniform", "1"]) == 0
        assert capsys.readouterr().out == "NO\n"

    def test_reduce_then_solve(self, tmp_path, capsys):
        k3 = "p dce 3 3 2 2\ne 1 2\ne 2 3\ne 1 3\n"
        src = write(tmp_path, "k3.dce", k3)
        out_path = str(tmp_path / "reduced.dce")
        assert main(["reduce", src, "--from", "vc", "--size", "2", "-o", out_path]) == 0
        assert main(["solve", out_path]) == 0
        assert capsys.readouterr().out.startswith("YES")

    def test_reduce_with_explicit_cover(self, tmp_path, capsys):
        k4 = "p dce 4 6 0 3\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
        src = write(tmp_path, "k4.dce", k4)
        out_path = str(tmp_path / "cliq.dce")
        argv = [
            "reduce", src, "--from", "clique-e", "--size", "3",
            "--cover", "1,2,3", "-o", out_path,
        ]
        assert main(argv) == 0
        assert main(["solve", out_path]) == 0
        assert capsys.readouterr().out.startswith("YES")
        reduced = parse_instance((tmp_path / "cliq.dce").read_text())
        assert reduced.k == 6

    def test_anonymize(self, tmp_path, capsys):
        path = write(tmp_path, "star.dsc", STAR)
        assert main(["anonymize", path, "-k", "2", "-s", "2", "--verify"]) == 0
        assert capsys.readouterr().out.startswith("YES 2")
        assert main(["anonymize", path, "-k", "2", "-s", "1"]) == 0
        assert capsys.readouterr().out == "NO\n"

    def test_gen_deterministic(self, tmp_path, capsys):
        argv = ["gen", "dce", "--n", "12", "--k", "2", "--r", "3", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        parse_instance(first)

    def test_gen_cubic_odd_fails(self, capsys):
        assert main(["gen", "cubic", "--n", "5"]) == 1

    def test_gen_cubic(self, capsys):
        assert main(["gen", "cubic", "--n", "10", "--seed", "3"]) == 0
        g = parse_instance(capsys.readouterr().out).graph
        assert g.vertex_count == 10 and set(g.degrees()) == {3}

    def test_nce_rejects_a_negative_target(self, tmp_path, capsys):
        path = write(tmp_path, "triple.dce", TRIPLE)
        assert main(["nce", path, "--target", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "InvalidInputError" in captured.err

    def test_reduce_from_independent_set_on_a_cubic_graph(self, tmp_path, capsys):
        k4 = "p dce 4 6 0 3\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
        src = write(tmp_path, "k4.dce", k4)
        # K4 has an independent set of one vertex but none of two.
        for size, answer in (("1", "YES"), ("2", "NO")):
            out_path = str(tmp_path / f"is{size}.dce")
            assert main(["reduce", src, "--from", "is", "--size", size, "-o", out_path]) == 0
            assert main(["solve", out_path]) == 0
            assert capsys.readouterr().out.startswith(answer)

    @pytest.mark.parametrize("source", ["clique-e", "clique-v"])
    def test_reduce_from_the_empty_graph_is_the_canonical_no(self, tmp_path, capsys, source):
        src = write(tmp_path, "empty.dce", "p dce 0 0 0 0\n")
        assert main(["reduce", src, "--from", source, "--size", "1"]) == 0
        captured = capsys.readouterr()
        assert "c role 1 canonical-no" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("command", ["kernelize", "nce"])
    def test_dce_commands_reject_a_dsc_file(self, tmp_path, capsys, command):
        path = write(tmp_path, "star.dsc", STAR)
        assert main([command, path]) == 1
        assert "InvalidInputError" in capsys.readouterr().err

    def test_ffactor_demands(self, tmp_path, capsys):
        c4 = "p dce 4 4 0 2\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"
        path = write(tmp_path, "c4.dce", c4)
        assert main(["ffactor", path, "--demands", "2,1,2,1"]) == 0
        assert capsys.readouterr().out == "NO\n"
        assert main(["ffactor", path, "--demands", "1,1,1,1"]) == 0
        assert capsys.readouterr().out.startswith("YES 2")

    @pytest.mark.parametrize(
        "argv",
        [
            ["ffactor", "--demands", "1,x"],
            ["reduce", "--from", "vc", "--size", "1", "--cover", "1,y"],
        ],
    )
    def test_malformed_integer_list_is_a_usage_error(self, tmp_path, capsys, argv):
        path = write(tmp_path, "k3.dce", "p dce 3 3 0 2\ne 1 2\ne 2 3\ne 1 3\n")
        with pytest.raises(SystemExit) as err:
            main([argv[0], path, *argv[1:]])
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage: degkit " + argv[0])
        assert "expected comma-separated integers" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("cover", ["1,2,99", "1,2,0"])
    @pytest.mark.parametrize("source", ["clique-e", "clique-v"])
    def test_reduce_rejects_a_cover_vertex_out_of_range(self, tmp_path, capsys, cover, source):
        path = write(tmp_path, "k3.dce", "p dce 3 3 0 2\ne 1 2\ne 2 3\ne 1 3\n")
        argv = ["reduce", path, "--from", source, "--size", "2", "--cover", cover]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "InvalidInputError" in captured.err and "out of range" in captured.err


class TestBenchCommand:
    def test_records_and_error_continuation(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.dce").write_text(TRIPLE)
        (corpus / "b.dce").write_text("p dce broken\n")
        (corpus / "c.dsc").write_text(STAR)
        records_path = tmp_path / "records.jsonl"
        assert main(["bench", str(corpus), "--op", "solve", "--records", str(records_path)]) == 0
        lines = records_path.read_text().splitlines()
        assert len(lines) == 3
        by_name = {json.loads(line)["instance"]: json.loads(line) for line in lines}
        assert by_name["a.dce"]["result"] == "yes 3"
        assert by_name["b.dce"]["result"].startswith("error: ParseError: line 1: ")
        assert by_name["c.dsc"]["result"] == "yes 2"

    def test_kernel_records_vertex_counts(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        lists = "".join(f"t {v} 0 1\n" for v in range(1, 101))
        (corpus / "big.dce").write_text("p dce 100 0 1 1\n" + lists)
        records_path = tmp_path / "kr.jsonl"
        assert (
            main(["bench", str(corpus), "--op", "kernelize-kr", "--records", str(records_path)])
            == 0
        )
        record = json.loads(records_path.read_text().splitlines()[0])
        assert record["vertices_before"] == 100
        assert record["vertices_after"] == 2

    def test_r_kernel_records_trivial_answers(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        lists = "".join(f"t {v} 1\n" for v in range(1, 11))
        (corpus / "ten.dce").write_text("p dce 10 0 5 1\n" + lists)
        (corpus / "no.dce").write_text("p dce 1 0 1 1\n")
        records_path = tmp_path / "r.jsonl"
        argv = ["bench", str(corpus), "--op", "kernelize-r", "--records", str(records_path)]
        assert main(argv) == 0
        records = [json.loads(line) for line in records_path.read_text().splitlines()]
        by_name = {record["instance"]: record for record in records}
        assert by_name["ten.dce"]["result"] == "trivial-yes 5"
        assert by_name["no.dce"]["result"] == "trivial-no"
        assert by_name["no.dce"]["vertices_after"] == 0

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        records_path = tmp_path / "empty.jsonl"
        assert main(["bench", str(corpus), "--records", str(records_path)]) == 0
        assert records_path.read_text() == ""


def test_library_import_leaves_out_the_command_line():
    script = (
        "import sys\n"
        "import degkit\n"
        "print(sorted({'argparse', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "cmd, flag",
    [
        (cmd, flag)
        for cmd in VALID_ARGV
        for flag in ("--seed=1", "--verify", "--limit=1", "-o=out")
        if flag.split("=")[0] not in READS.get(cmd, ("-o",))
    ]
    + [("bench", "--jobs=2"), ("solve", "--delta-prime=0")],
)
def test_options_a_command_does_not_read_are_rejected(cmd, flag, capsys, tmp_path, monkeypatch):
    # solve takes no degree cap: an instance's d line sets it.
    monkeypatch.chdir(tmp_path)
    build_parser().parse_args(VALID_ARGV[cmd])
    with pytest.raises(SystemExit) as err:
        main(VALID_ARGV[cmd] + [flag])
    assert err.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_readme_library_sketch_runs():
    text = README.read_text().split("## Library sketch", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    names: dict = {}
    exec(block, names)
    assert len(names["two"].edits) == 2
    assert len(names["three"].edits) == 3
    assert isinstance(names["kernel"], degkit.Kernel)
    assert len(names["edges"]) == 2


def test_readme_command_line_block_matches_the_parser():
    # Every flag the README's synopsis shows is accepted by its subcommand,
    # and every option of every subcommand is shown in one of its spellings.
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    shown: dict[str, set[str]] = {}
    for line in block.splitlines():
        flags = re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", line)
        shown.setdefault(line.split()[1], set()).update(flags)
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(shown) == set(sub.choices)
    for cmd, parser in sub.choices.items():
        accepted = set(parser._option_string_actions)
        assert shown[cmd] <= accepted, (cmd, shown[cmd] - accepted)
        for action in parser._actions:
            if action.option_strings and action.dest != "help":
                assert shown[cmd] & set(action.option_strings), (cmd, action.option_strings)
