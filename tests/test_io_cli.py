import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys

import pytest

import sparse_outbranch
from sparse_outbranch import instance_io
from sparse_outbranch.cli import _write_json, main
from sparse_outbranch.digraph import RootedDigraph
from sparse_outbranch.generators import generate
from sparse_outbranch.instance_io import (
    ParseError,
    parse_instance,
    serialize_instance,
)
from sparse_outbranch.verify import linear_fit

from conftest import stack_headroom


class TestParse:
    def test_round_trip_identity(self):
        g = generate("planar", 40, 3, seed=9)
        text = serialize_instance("lob", g, 3, comments=["hello"])
        f = parse_instance(text)
        assert f.graph == g and f.k == 3 and f.kind == "lob"
        assert serialize_instance(f.kind, f.graph, f.k, ["hello"]) == text

    @pytest.mark.parametrize("brk", ["\n", *instance_io._OTHER_BREAKS])
    def test_comment_with_a_line_break_is_refused(self, tmp_path, brk):
        # the reader would take the text after the break for a line of its
        # own; an existing file is left as it was
        g = generate("planar", 40, 3, seed=9)
        comments = ["hello", f"reduced from a{brk}b.lob"]
        with pytest.raises(ValueError, match=re.escape(f"comment {comments[1]!r}")):
            serialize_instance("lob", g, 3, comments=comments)
        old = tmp_path / "old.lob"
        old.write_text("kept\n")
        with pytest.raises(ValueError):
            instance_io.save_instance(str(old), "lob", g, 3, comments=comments)
        assert old.read_text() == "kept\n"

    def test_iob_root_arc_dropped_with_warning(self):
        f = parse_instance("p iob 3 3 0 1\na 0 1\na 1 2\na 2 0\n")
        assert len(f.warnings) == 1
        assert f.graph.m == 2

    def test_lob_root_arc_is_error(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p lob 3 3 0 1\na 0 1\na 1 2\na 2 0\n")
        assert "line 4" in str(err.value)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_instance("p what 3 1 0 1\na 0 1\n")

    def test_arc_before_header(self):
        with pytest.raises(ParseError) as err:
            parse_instance("a 0 1\np lob 2 1 0 1\n")
        assert "line 1" in str(err.value)

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_instance("p lob 3 2 0 1\na 0 1\n")

    def test_out_of_range_arc(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p lob 2 1 0 1\na 0 5\n")
        assert "line 2" in str(err.value)

    # One file per fault kind, with the full message it must raise. Blank
    # and comment lines count towards the line number.
    FAULTS = [
        ("p lob 3 2 0 1\na 0 1\n\np iob 3 2 0 1\na 1 2\n", 4, "duplicate p line"),
        ("", 0, "missing p line"),
        ("c only a comment\n\n", 0, "missing p line"),
        ("c x\np what 3 1 0 1\na 0 1\n", 2, "unknown problem kind 'what'"),
        ("p lob 3 1 0\na 0 1\n", 1, "expected: p <lob|iob> <n> <m> <root> <k>"),
        ("p lob 3 1 0 1 7\na 0 1\n", 1, "expected: p <lob|iob> <n> <m> <root> <k>"),
        ("p lob 3 x 0 1\na 0 1\n", 1, "non-integer field in p line"),
        ("p lob 3 1 0 1.5\na 0 1\n", 1, "non-integer field in p line"),
        ("p lob 0 0 0 1\n", 1, "p line fields out of range"),
        ("p lob 3 -1 0 1\n", 1, "p line fields out of range"),
        ("p lob 3 1 3 1\na 0 1\n", 1, "p line fields out of range"),
        ("p lob 3 1 -1 1\na 0 1\n", 1, "p line fields out of range"),
        ("p lob 3 1 0 -1\na 0 1\n", 1, "p line fields out of range"),
        ("c x\na 0 1\np lob 2 1 0 1\n", 2, "a line before p line"),
        ("p lob 3 2 0 1\na 0 1\na 1\n", 3, "expected: a <u> <v>"),
        ("p lob 3 2 0 1\na 0 1\na 1 2 0\n", 3, "expected: a <u> <v>"),
        ("p lob 3 2 0 1\na 0 1\n\na 1 x\n", 4, "non-integer arc endpoint"),
        ("p lob 3 2 0 1\na 0 1\na 1.0 2\n", 3, "non-integer arc endpoint"),
        ("p lob 2 1 0 1\na 0 5\n", 2, "arc (0,5) out of range for n=2"),
        ("p lob 3 2 0 1\na 0 1\na -1 2\n", 3, "arc (-1,2) out of range for n=3"),
        ("p lob 3 2 0 1\nc x\na 0 1\na 2 2\n", 4, "self-loop at 2"),
        ("p lob 3 3 0 1\na 0 1\na 1 2\na 2 0\n", 4, "arc (2,0) enters the root of a lob instance"),
        ("p lob 3 3 0 1\na 0 1\na 1 2\na 0 1\n", 0, "duplicate arcs [(0, 1)]"),
        ("p lob 4 10 0 1\n" + "a 0 1\na 3 2\na 0 3\na 1 2\na 0 2\n" * 2, 0,
         "duplicate arcs [(0, 1), (0, 2), (0, 3)]"),
        ("p lob 3 2 0 1\na 0 1\n", 0, "p line declares 2 arcs, found 1"),
        ("p lob 3 1 0 1\na 0 1\na 1 2\n", 0, "p line declares 1 arcs, found 2"),
        ("p iob 3 3 0 1\na 0 1\na 2 0\n", 0, "p line declares 3 arcs, found 2"),
        ("p lob 3 2 0 1\na 0 1\nx 1 2\n", 3, "unknown line tag 'x'"),
        ("p lob 3 2 0 1\na 0 1\n1 2\n", 3, "unknown line tag '1'"),
        ("p lob 3 2 0 1\na 0 1\nab 1 2\n", 3, "unknown line tag 'ab'"),
        ("q\n", 1, "unknown line tag 'q'"),
    ]

    @pytest.mark.parametrize("text, lineno, message", FAULTS)
    def test_every_fault_has_its_message_and_line(self, text, lineno, message):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == f"line {lineno}: {message}"
        assert err.value.lineno == lineno

    def test_one_repeated_arc_among_fifty_thousand(self):
        lines = ["p lob 50001 50001 0 1"] + [f"a {i} {i + 1}" for i in range(50000)]
        with pytest.raises(ParseError) as err:
            parse_instance("\n".join(lines + ["a 0 1"]) + "\n")
        assert str(err.value) == "line 0: duplicate arcs [(0, 1)]"


def _fields(f):
    g = f.graph
    return (f.kind, f.k, f.comments, f.warnings, g.n, g.root, g.out_adj, g.in_adj)


class TestBulkRead:
    """``parse_instance`` reads the common shape in bulk and hands every
    other text to the line scan ``_scan``, which stays the reference: on
    every text both give the same instance, or the same ParseError."""

    @staticmethod
    def check(text):
        """Whether the bulk path read `text`; either way, the result of
        ``parse_instance`` equals the scan's."""
        try:
            want = _fields(instance_io._scan(text))
        except ParseError as err:
            want = (str(err), err.lineno)
        try:
            got = _fields(parse_instance(text))
        except ParseError as err:
            got = (str(err), err.lineno)
        assert got == want, text
        try:
            bulk = instance_io._read_bulk(text)
        except ParseError:
            raise AssertionError(f"the bulk path raised a ParseError on {text!r}")
        except ValueError:
            return False
        assert _fields(bulk) == want, text
        return True

    @staticmethod
    def family_graphs(rng, max_n):
        for family, kwargs in (("path", {}), ("star", {}), ("bipath-chain", {}),
                               ("planar", {"keep_prob": 0.5}), ("degenerate", {"d": 3}),
                               ("iob-twins", {"d": 3, "twin_factor": 3}), ("random", {})):
            for _ in range(4):
                n, k = rng.randint(3, max_n), rng.randint(2, 12)
                # iob-twins sizes itself from k and refuses an n
                yield generate(family, None if family == "iob-twins" else n, k,
                               rng.randrange(1 << 30), **kwargs), k

    def test_generator_families_original_and_shuffled(self):
        rng = random.Random(4040)
        for g, k in self.family_graphs(rng, 120):
            for kind in ("lob", "iob"):
                assert self.check(serialize_instance(kind, g, k, ["family graph"]))
                perm = list(range(g.n))
                rng.shuffle(perm)
                arcs = [(perm[u], perm[v]) for u, v in g.arcs()]
                rng.shuffle(arcs)
                lines = [f"p {kind} {g.n} {len(arcs)} {perm[g.root]} {k}"]
                lines += [f"a {u} {v}" for u, v in arcs]
                assert self.check("\n".join(lines) + "\n")

    def test_reduced_cores_and_kernel_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        written = []
        for seed in range(4):
            main(["gen", "planar", "--n", "300", "--k", "30", "--seed", str(seed),
                  "--keep-prob", "0.25", "--out", f"p{seed}.lob"])
            main(["reduce-lob", f"p{seed}.lob", "--solve-max-n", "0"])
            main(["gen", "iob-twins", "--k", "16", "--d", "3", "--seed", str(seed),
                  "--out", f"t{seed}.iob"])
            main(["kernelize-iob", f"t{seed}.iob"])
            written += [name for name in (f"p{seed}.lob.reduced", f"t{seed}.iob.kernel")
                        if os.path.exists(name)]
        capsys.readouterr()
        assert any(w.endswith(".reduced") for w in written)
        assert any(w.endswith(".kernel") for w in written)
        for name in written:
            with open(name, encoding="utf-8") as fh:
                text = fh.read()
            assert self.check(text), name
            if name.endswith(".kernel"):
                assert instance_io._read_bulk(text).comments[1].startswith("map ")

    READ_IN_BULK = [
        "p lob 3 2 0 1\na 0 1\na 1 2\n",
        "p lob 3 2 0 1\na 0 1\na 1 2",  # no final newline
        "p lob 3 2 0 1\na\t0\t1\na 1  2 \t\n",  # tabs, runs of blanks
        "c\n\nc two words\n  c indented\nc\tafter a tab\n\np  lob 3 2 0 1 \na 0 1\na 1 2\n",
        "p iob 3 2 0 1\na 0 1\na 1 2\n",
        "p lob 3 2 0 1\na 0 1\na 1 +2\n",  # spellings that int() reads
        "p lob 11 2 0 1\na 0 1\na 1_0 2\n",
    ]
    SCANNED = [
        "p lob 3 2 0 1\r\na 0 1\r\na 1 2\r\n",  # CRLF endings
        "p lob 3 2 0 1\na 0 1\n\na 1 2\n",  # a blank line among the arcs
        "p lob 3 2 0 1\nc after the p line\na 0 1\na 1 2\n",
        "p lob 3 2 0 1\na 0 1\nc\na 1 2\n",  # a bare c
        "p lob 3 2 0 1\n a 0 1\na 1 2\n",  # an indented a line
        "p iob 3 3 0 1\na 0 1\na 1 2\na 2 0\n",  # an iob root arc, dropped
        "p iob 3 4 0 1\na 2 0\na 0 1\na 1 0\na 1 2\n",
        "p lob 3 2 0 1\na 0 1\x1ea 1 2\n",  # a line break of str.splitlines only
        "p lob 3 2 0 1\na 0\x0b1\na 1 2\n",
        "p lob 3 2 0 1\na 0 1\na 1 2\u2028\n",
        "p lob 3 2 0 1\na 0 1\na 1 2\n\n",  # a trailing blank line
        "p lob 3 1 0 1\n",  # m = 1, no a line
        "p lob 1 0 0 0\n",  # m = 0
        "c only\np lob 2 0 0 1",
        "p lob 3 2 0 1\na 0 1 a\n1 2\n",  # three tokens a line, but not a u v
        "p lob 3 2 0 1\n\na 0 1 a 1 2\n",  # two lines, two arcs on one
        "p lob 3 2 0 1\na 0 1\naa 1 2\n",
    ]

    @pytest.mark.parametrize("text", READ_IN_BULK)
    def test_layouts_read_in_bulk(self, text):
        assert self.check(text)

    @pytest.mark.parametrize("text", SCANNED + [t for t, _, _ in TestParse.FAULTS])
    def test_layouts_and_faults_left_to_the_scan(self, text):
        assert not self.check(text)

    def test_seeded_mutants(self):
        rng = random.Random(5050)
        bases = []
        for g, k in self.family_graphs(rng, 12):
            kind = rng.choice(("lob", "iob"))
            bases.append(serialize_instance(kind, g, k, ["mutant base"] * rng.randint(0, 2)))
        read = 0
        for _ in range(4000):
            pieces = re.split(r"(\s+)", rng.choice(bases))
            i = rng.randrange(len(pieces))
            if pieces[i].isspace():
                pieces[i] = rng.choice([" ", "\t", "\n", "\n\n", " \n ", "\r\n",
                                        "\r", "\x1e", "\x0c", "\u2028"])
            else:
                token = rng.choice(["a", "aa", "ab", "c", "p", "x", "0", "1", "2", "-1",
                                    "01", "1.5", "+2", "1_0", "lob", "iob", "99"])
                op = rng.randrange(3)
                pieces[i] = ("" if op == 0 else f"{pieces[i]} {token}" if op == 1
                             else token)
            read += self.check("".join(pieces))
        assert 100 < read < 3900  # both paths meet mutants


def test_generate_rejects_a_disconnected_result(monkeypatch):
    from sparse_outbranch import generators
    monkeypatch.setitem(generators.FAMILIES, "path",
                        lambda n: RootedDigraph(3, 0, [(0, 1)]))
    with pytest.raises(RuntimeError, match="disconnected"):
        generate("path", 3, 1, seed=0)


def _run_python(argv, **env):
    """Run a fresh interpreter that imports the package under test."""
    src = os.path.dirname(os.path.dirname(sparse_outbranch.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env})


def test_readme_quick_start_runs(capsys):
    # the README's library example is the documented API; it must run as is
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        block = re.search(r"## Library quick start\n\n```python\n(.*?)```", fh.read(), re.S)
    exec(block.group(1), {})
    assert capsys.readouterr().out.splitlines()[0].startswith("reduced RULE 2")


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    # every command of the README's CLI walkthrough runs as written, in
    # order, and ends with an exit code the README documents
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        block = re.search(r"## CLI walkthrough\n\n```sh\n(.*?)```", fh.read(), re.S)
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in block.group(1).splitlines()
                if line.startswith("sparse-outbranch ")]
    assert len(commands) == 7
    for argv in commands:
        code = main(argv[1:])
        # 10 = YES, 20 = NO, 0 = reduced; gen, verify and bench exit 0
        allowed = {0, 10, 20} if argv[1] in ("reduce-lob", "kernelize-iob", "solve") else {0}
        assert code in allowed, (argv, code, capsys.readouterr())


class TestLinearFit:
    def test_line_slope_intercept_r2(self):
        # Sxy = 9 and Sxx = 5 about the means (1.5, 4): slope 9/5, intercept
        # 4 - 1.8 * 1.5; residuals (-0.3, 0.9, -0.9, 0.3) give ss_res 1.8
        # against ss_tot 18
        slope, intercept, r2 = linear_fit([0, 1, 2, 3], [1, 4, 4, 7])
        assert slope == pytest.approx(1.8)
        assert intercept == pytest.approx(1.3)
        assert r2 == pytest.approx(0.9)

    def test_constant_ys_have_r2_one(self):
        assert linear_fit([1, 2, 3], [5, 5, 5]) == pytest.approx((0.0, 5.0, 1.0))

    def test_through_origin(self):
        # c = (1*2 + 2*3 + 3*7) / (1 + 4 + 9) = 29/14
        c, intercept, r2 = linear_fit([1, 2, 3], [2, 3, 7], through_origin=True)
        assert intercept == 0.0
        assert c == pytest.approx(29 / 14)
        ss_res = sum((y - 29 / 14 * x) ** 2 for x, y in [(1, 2), (2, 3), (3, 7)])
        assert r2 == pytest.approx(1 - ss_res / 14.0)


_ODD_STRINGS = ["", "plain", "naïve ümlaut", "日本語", "emoji \U0001f600", 'quote " back \\',
                "tab\tnew\nline\r", "nul \x00 bell \x07", "\u2028\u2029", "</script>",
                '\n  "vertex_map": {}']
_ODD_NUMBERS = [0, -1, 2 ** 64 + 1, -(2 ** 70), 10 ** 30, 0.0, -0.0, 1.5, 1e300, -2.5e-300,
                float("nan"), float("inf"), float("-inf"), True, False, None]


def _random_value(rng, depth):
    """A random JSON value: scalars from the odd lists above, and below
    `depth` also dicts and lists, some of them empty."""
    kind = rng.random()
    if depth == 0 or kind < 0.5:
        return rng.choice(_ODD_NUMBERS + _ODD_STRINGS + [rng.randrange(-10 ** 6, 10 ** 6)])
    size = rng.choice((0, 1, 2, 3, 5))
    if kind < 0.75:
        return [_random_value(rng, depth - 1) for _ in range(size)]
    return {rng.choice(_ODD_STRINGS) + str(i): _random_value(rng, depth - 1)
            for i in range(size)}


def _random_vertex_map(rng, n):
    """A kernelize-iob ``vertex_map`` of n entries: str(x) -> kernel id or None."""
    kept = iter(range(n))
    return {str(x): None if rng.random() < 0.4 else next(kept) for x in range(n)}


class TestWriteJson:
    """``_write_json`` writes ``json.dumps(indent=2, sort_keys=True)`` and a
    newline; a top-level ``vertex_map`` of scalars goes through the C
    encoder and is spliced in, anything else takes ``json.dumps`` whole."""

    @staticmethod
    def expected(payload):
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_randomized_payloads(self, tmp_path, rng):
        spliced = 0
        for i in range(400):
            payload = {rng.choice(_ODD_STRINGS) + str(j): _random_value(rng, 4)
                       for j in range(rng.randint(0, 6))}
            shape = i % 5
            if shape == 0:
                payload["vertex_map"] = _random_vertex_map(rng, rng.choice((1, 2, 1600)))
            elif shape == 1:
                payload["vertex_map"] = {rng.choice(_ODD_STRINGS) + str(j):
                                         rng.choice(_ODD_NUMBERS + _ODD_STRINGS)
                                         for j in range(rng.randint(1, 30))}
            elif shape == 2:  # nested or empty: the whole payload takes json.dumps
                payload["vertex_map"] = _random_value(rng, 3)
            elif shape == 3:
                payload = {"vertex_map": _random_vertex_map(rng, rng.randint(1, 50)),
                           **{key: value for key, value in payload.items()
                              if key < "vertex_map"}}
            spliced += shape in (0, 1, 3)
            path = tmp_path / f"{i}.json"
            _write_json(str(path), payload)
            assert path.read_text(encoding="utf-8") == self.expected(payload), payload
        assert spliced >= 200

    def test_vertex_maps_of_one_and_1600_entries(self, tmp_path, capsys, rng):
        for n in (1, 1600):
            payload = {"command": "kernelize-iob", "kernel": {"n": 1, "empty": {}},
                       "timing": {"kernelize_s": 0.0}, "vertex_map": _random_vertex_map(rng, n),
                       "warnings": []}
            _write_json(str(tmp_path / "r.json"), payload)
            assert (tmp_path / "r.json").read_text(encoding="utf-8") == self.expected(payload)
            capsys.readouterr()
            _write_json("-", payload)
            assert capsys.readouterr().out == self.expected(payload)
        _write_json(None, payload)
        assert capsys.readouterr().out == ""

    def test_kernelize_report_to_stdout(self, tmp_path, capsys):
        inst = tmp_path / "big.iob"
        assert main(["gen", "iob-twins", "--k", "128", "--d", "3", "--seed", "5",
                     "--out", str(inst)]) == 0
        capsys.readouterr()
        assert main(["kernelize-iob", str(inst), "--json", "-"]) == 0
        out = capsys.readouterr().out
        text, verdict = out.rsplit("\n}\n", 1)
        report = json.loads(text + "\n}")
        assert len(report["vertex_map"]) == 1600
        assert text + "\n}\n" == self.expected(report)
        assert verdict.startswith("REDUCED: 1600 -> 296 vertices")


class TestCliPipelines:
    def run(self, *argv):
        return main(list(argv))

    def test_reduce_path_yes(self, tmp_path):
        inst = tmp_path / "p.lob"
        assert self.run("gen", "path", "--n", "6", "--k", "1",
                        "--out", str(inst)) == 0
        code = self.run("reduce-lob", str(inst), "--json", str(tmp_path / "r.json"))
        assert code == 10
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["outcome"] == "yes"

    def test_reduce_no_instance(self, tmp_path):
        inst = tmp_path / "bad.lob"
        inst.write_text("p lob 3 1 0 1\na 0 1\n")
        assert self.run("reduce-lob", str(inst)) == 20

    def test_reduce_emits_reparseable_file(self, tmp_path):
        inst = tmp_path / "g.lob"
        assert self.run("gen", "planar", "--n", "80", "--k", "40", "--seed", "4",
                        "--keep-prob", "0.3", "--out", str(inst)) == 0
        out = tmp_path / "g.reduced"
        code = self.run("reduce-lob", str(inst), "--out", str(out),
                        "--solve-max-n", "0")
        assert code == 0
        f = parse_instance(out.read_text())
        assert f.kind == "lob" and f.k == 40
        # round trip: serialize -> parse -> identical graph
        f2 = parse_instance(serialize_instance("lob", f.graph, f.k))
        assert f2.graph == f.graph

    @pytest.mark.parametrize("brk", ["\n", "\r", "\u2028"])
    def test_input_name_with_a_line_break_is_one_error_line(self, tmp_path, capsys, brk):
        inst = tmp_path / f"a{brk}b.lob"
        assert self.run("gen", "planar", "--n", "80", "--k", "40", "--seed", "4",
                        "--keep-prob", "0.3", "--out", str(inst)) == 0
        capsys.readouterr()
        assert self.run("reduce-lob", str(inst), "--solve-max-n", "0") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: comment ")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [inst]

    def test_kernelize_roundtrip(self, tmp_path):
        inst = tmp_path / "t.iob"
        assert self.run("gen", "iob-twins", "--k", "6", "--d", "3",
                        "--seed", "7", "--out", str(inst)) == 0
        rep = tmp_path / "k.json"
        code = self.run("kernelize-iob", str(inst), "--json", str(rep),
                        "--out", str(tmp_path / "t.kernel"))
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["outcome"] == "reduced"
        assert report["kernel"]["cover_size"] <= 2 * 6 - 1
        f = parse_instance((tmp_path / "t.kernel").read_text())
        assert f.kind == "iob"

    def test_kernelize_yes_exit(self, tmp_path):
        inst = tmp_path / "y.iob"
        inst.write_text("p iob 4 3 0 3\na 0 1\na 1 2\na 2 3\n")
        assert self.run("kernelize-iob", str(inst)) == 10

    def test_solve_star_leaf(self, tmp_path):
        inst = tmp_path / "s.lob"
        assert self.run("gen", "star", "--n", "4", "--k", "3",
                        "--out", str(inst)) == 0
        rep = tmp_path / "s.json"
        assert self.run("solve", str(inst), "--mode", "leaf",
                        "--json", str(rep)) == 10
        report = json.loads(rep.read_text())
        assert report["best_value"] == 3 and report["exact"]
        assert report["stats"]["nodes"] >= 1

    def test_solve_path_internal(self, tmp_path):
        inst = tmp_path / "pi.iob"
        inst.write_text("p iob 5 4 0 4\na 0 1\na 1 2\na 2 3\na 3 4\n")
        assert self.run("solve", str(inst), "--mode", "internal") == 10

    def test_solve_no(self, tmp_path):
        inst = tmp_path / "n.lob"
        assert self.run("gen", "path", "--n", "5", "--k", "3",
                        "--out", str(inst)) == 0
        assert self.run("solve", str(inst), "--mode", "leaf") == 20

    def test_kernel_then_solve_equals_solve_alone(self, tmp_path):
        # on small random instances the kernelized answer matches the
        # direct oracle decision
        import random
        from sparse_outbranch.iob_kernel import IobInstance, kernelize_iob
        from sparse_outbranch.oracle import enumerate_out_branchings
        from sparse_outbranch.outcomes import ReducedOutcome, YesOutcome
        from sparse_outbranch.generators import gen_iob_twins
        def max_internal(d):
            return max(t.internal_count() for t in enumerate_out_branchings(d))
        rng = random.Random(3)
        agree = 0
        for _ in range(200):
            g = gen_iob_twins(rng.randint(2, 4), rng.randint(1, 3),
                              rng.randrange(1 << 30), twin_factor=2)
            if g.n > 9:
                continue
            k = rng.randint(1, 5)
            out, _ = kernelize_iob(IobInstance(g, k))
            truth = max_internal(g) >= k
            if isinstance(out, YesOutcome):
                assert truth
            else:
                assert isinstance(out, ReducedOutcome)
                assert (max_internal(out.instance.graph) >= k) == truth
            agree += 1
        assert agree >= 100

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.lob", tmp_path / "b.lob"
        for path in (a, b):
            assert self.run("gen", "planar", "--n", "50", "--k", "4",
                            "--seed", "123", "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dot_export(self, tmp_path):
        inst = tmp_path / "d.lob"
        assert self.run("gen", "planar", "--n", "40", "--k", "2", "--seed", "2",
                        "--keep-prob", "0.3", "--out", str(inst)) == 0
        dot = tmp_path / "d.dot"
        self.run("reduce-lob", str(inst), "--dot", str(dot), "--solve-max-n", "0")
        text = dot.read_text()
        assert text.startswith("digraph") and "->" in text

    def test_bench_schema(self, tmp_path, capsys):
        csv_path = tmp_path / "b.csv"
        assert self.run("bench", "--family", "iob-twins", "--k-min", "3",
                        "--k-max", "5", "--reps", "1", "--csv", str(csv_path)) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ("family,kind,k,rep,seed,n_input,m_input,outcome,"
                            "n_out,m_out,cover_size,elapsed_s")
        assert len(lines) == 4
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "iob-twins" and fields[7] == "reduced"
            assert int(fields[10]) <= 2 * int(fields[2]) - 1
        assert "fit: kernel_size ~" in capsys.readouterr().err

    def test_bench_single_k_prints_no_fit(self, tmp_path, capsys):
        # a line through three points at one k is undetermined
        assert self.run("bench", "--family", "iob-twins", "--k-min", "3",
                        "--k-max", "3", "--reps", "3",
                        "--csv", str(tmp_path / "b.csv")) == 0
        assert "fit:" not in capsys.readouterr().err

    def test_bench_degenerate_runs_its_own_generator(self, tmp_path):
        rows = {}
        for family in ("degenerate", "iob-twins"):
            csv_path = tmp_path / f"{family}.csv"
            assert self.run("bench", "--family", family, "--k-min", "3",
                            "--k-max", "4", "--reps", "1", "--seed", "5",
                            "--csv", str(csv_path)) == 0
            lines = csv_path.read_text().splitlines()[1:]
            assert all(line.split(",")[0] == family for line in lines)
            # the input sizes, which the generator alone decides
            rows[family] = [line.split(",")[5:7] for line in lines]
        assert rows["degenerate"] != rows["iob-twins"]

    def test_invalid_env_seed_is_an_error(self, monkeypatch, capsys):
        monkeypatch.setenv("SPARSE_OUTBRANCH_SEED", "seven")
        assert self.run("gen", "path", "--n", "4") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "SPARSE_OUTBRANCH_SEED" in err

    @pytest.mark.parametrize("command", ["reduce-lob", "kernelize-iob", "solve"])
    def test_malformed_file_is_one_error_line(self, tmp_path, capsys, command):
        inst = tmp_path / "bad.txt"
        inst.write_text("p lob 3 2 0 1\na 0 1\na 1 x\n")
        assert self.run(command, str(inst)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 3: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["reduce-lob", "solve"])
    @pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
    def test_budget_must_be_finite_and_nonnegative(self, tmp_path, capsys, command, budget):
        # a NaN or infinite deadline is never reached, so it meant no budget
        inst = tmp_path / "p.lob"
        inst.write_text("p lob 2 1 0 1\na 0 1\n")
        with pytest.raises(SystemExit) as exc:
            self.run(command, str(inst), "--budget", budget)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument --budget: expected a finite number of seconds >= 0, got '{budget}'" in err

    @pytest.mark.parametrize("value", ["1", "0", "-1", "2.5", "x"])
    def test_threshold_must_be_an_integer_of_at_least_two(self, tmp_path, capsys, value):
        # at 1 or below every W vertex is heavy and no crown ever fires
        inst = tmp_path / "t.iob"
        inst.write_text("p iob 2 1 0 1\na 0 1\n")
        with pytest.raises(SystemExit) as exc:
            self.run("kernelize-iob", str(inst), "--threshold", value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument --threshold: expected an integer >= 2, got '{value}'" in err

    @pytest.mark.parametrize("option, value, low", [
        ("--trials", "0", 1), ("--trials", "-3", 1), ("--trials", "2.5", 1),
        ("--trials", "x", 1), ("--max-n", "1", 2), ("--max-n", "0", 2),
        ("--max-n", "-1", 2), ("--max-n", "x", 2),
    ])
    def test_verify_counts_must_be_integers_of_at_least_their_floor(
            self, capsys, option, value, low):
        # at --trials 0 every suite checked nothing and still passed, and
        # --max-n 1 left the local search an empty range of sizes
        with pytest.raises(SystemExit) as exc:
            self.run("verify", "--suite", "rules,crown", option, value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument {option}: expected an integer >= {low}, got '{value}'" in err

    def test_threshold_two_is_accepted(self, tmp_path):
        inst = tmp_path / "t.iob"
        assert self.run("gen", "iob-twins", "--k", "8", "--seed", "3",
                        "--out", str(inst)) == 0
        rep = tmp_path / "r.json"
        assert self.run("kernelize-iob", str(inst), "--threshold", "2",
                        "--json", str(rep)) == 0
        assert json.loads(rep.read_text())["kernel"]["threshold"] == 2

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf", "x"])
    def test_accept_constant_must_be_finite_and_positive(self, tmp_path, capsys, value):
        # at -1 every reduced instance read YES, and at NaN none ever did
        inst = tmp_path / "p.lob"
        inst.write_text("p lob 2 1 0 1\na 0 1\n")
        with pytest.raises(SystemExit) as exc:
            self.run("reduce-lob", str(inst), f"--accept-constant={value}")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument --accept-constant: expected a finite number > 0, got '{value}'" in err

    @pytest.mark.parametrize("argv, message", [
        (["degenerate", "--d", "0"], "d must be at least 1, got 0"),
        (["degenerate", "--d", "-1"], "d must be at least 1, got -1"),
        (["iob-twins", "--d", "0"], "d must be at least 1, got 0"),
        (["planar", "--n", "10", "--k", "-1"], "k must be at least 0, got -1"),
        (["planar", "--n", "0"], "n must be at least 1, got 0"),
        (["random", "--n", "10", "--m", "-1"], "m must be at least 0, got -1"),
    ])
    def test_gen_bad_family_parameter_is_one_error_line(self, capsys, argv, message):
        assert self.run("gen", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: family {argv[0]!r}: {message}\n"

    def test_gen_random_keeps_m_zero(self, capsys):
        # m = 0 once read as unset and wrote 2n arcs; now only the
        # spanning overlay's n - 1 tree arcs are left
        assert self.run("gen", "random", "--n", "10", "--m", "0", "--seed", "1") == 0
        out = capsys.readouterr().out
        assert "m=0" in out
        assert "p lob 10 9 0 " in out

    def test_bench_d_zero_is_one_error_line(self, tmp_path, capsys):
        # d = 0 once read as unset and ran d = 3
        csv_path = tmp_path / "b.csv"
        assert self.run("bench", "--family", "degenerate", "--d", "0", "--k-min", "3",
                        "--k-max", "3", "--reps", "1", "--csv", str(csv_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: family 'degenerate': d must be at least 1, got 0\n"
        assert not csv_path.exists()

    @pytest.mark.parametrize("option, value", [
        ("--reps", "0"), ("--reps", "-1"), ("--scale", "0"), ("--scale", "-3"),
        ("--scale", "x"),
    ])
    def test_bench_run_sizes_must_be_at_least_one(self, tmp_path, capsys, option, value):
        # --reps 0 wrote only the header, and --scale -3 clamped every n to 8
        csv_path = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as exc:
            self.run("bench", "--family", "iob-twins", option, value, "--csv", str(csv_path))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument {option}: expected an integer >= 1, got '{value}'" in err
        assert not csv_path.exists()

    def test_bench_k_max_below_k_min_is_one_error_line(self, tmp_path, capsys):
        # it once wrote a CSV of only its header and exited 0
        csv_path = tmp_path / "b.csv"
        assert self.run("bench", "--family", "iob-twins", "--k-min", "5", "--k-max", "4",
                        "--csv", str(csv_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --k-max 4 is below --k-min 5\n"
        assert not csv_path.exists()

    def test_kernelize_rejects_a_lob_file(self, tmp_path, capsys):
        inst = tmp_path / "p.lob"
        inst.write_text("p lob 2 1 0 1\na 0 1\n")
        assert self.run("kernelize-iob", str(inst)) == 1
        assert capsys.readouterr().err == "error: expected a iob instance, got lob\n"

    def _reduce_with(self, tmp_path, monkeypatch, name, exc):
        from sparse_outbranch import cli

        def broken(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, name, broken)
        inst = tmp_path / "s.lob"
        assert self.run("gen", "planar", "--n", "30", "--k", "2", "--seed", "1",
                        "--out", str(inst)) == 0
        return self.run("reduce-lob", str(inst), "--solve-max-n", "0")

    def test_structure_error_exits_cleanly(self, tmp_path, monkeypatch, capsys):
        from sparse_outbranch.lob_analyzer import StructureError
        code = self._reduce_with(tmp_path, monkeypatch, "analyze",
                                 StructureError("bags overlap"))
        assert code == 1
        assert capsys.readouterr().err == "error: bags overlap\n"

    def test_missing_fixpoint_exits_cleanly(self, tmp_path, monkeypatch, capsys):
        msg = "reduction did not reach a fixpoint within n+m steps"
        code = self._reduce_with(tmp_path, monkeypatch, "reduce_to_fixpoint",
                                 RuntimeError(msg))
        assert code == 1
        assert capsys.readouterr().err == f"error: {msg}\n"

    def test_recursion_error_not_masked(self, tmp_path, monkeypatch, capsys):
        # the package has no recursion, so a RecursionError is reported
        # like any other RuntimeError, not hidden and not a traceback
        msg = "maximum recursion depth exceeded"
        code = self._reduce_with(tmp_path, monkeypatch, "reduce_to_fixpoint",
                                 RecursionError(msg))
        assert code == 1
        assert capsys.readouterr().err == f"error: {msg}\n"

    def test_solve_large_input_returns_a_lower_bound(self, tmp_path, capsys):
        inst = tmp_path / "big.lob"
        assert self.run("gen", "planar", "--n", "1500", "--seed", "3",
                        "--keep-prob", "0.6", "--both-prob", "0.3",
                        "--out", str(inst)) == 0
        capsys.readouterr()
        with stack_headroom():
            assert self.run("solve", str(inst), "--budget", "0.5") == 0
        out = capsys.readouterr().out
        assert "leaf optimum (lower bound: timed out): " in out

    def test_verify_cli(self):
        assert self.run("verify", "--suite", "oracle", "--trials", "20") == 0

    @pytest.mark.parametrize("suites", ["nosuch", "rules,nosuch"])
    def test_verify_unknown_suite_is_one_error_line(self, capsys, suites):
        # checked before any suite runs, so nothing reaches stdout
        from sparse_outbranch.verify import SUITES
        assert self.run("verify", "--suite", suites) == 1
        assert capsys.readouterr() == (
            "", f"error: unknown suite 'nosuch'; available: {', '.join(SUITES)}\n")

    @pytest.fixture
    def suite_calls(self, monkeypatch):
        """Each verify suite replaced by one that records the keywords it is
        called with, after checking that they bind to the real suite."""
        import inspect
        from sparse_outbranch import verify
        calls = []

        def recorder(name, fn):
            def run(**kwargs):
                inspect.signature(fn).bind(**kwargs)
                calls.append((name, kwargs))
                return verify.SuiteResult(name, True)
            return run
        for name, (fn, *reads) in list(verify.SUITES.items()):
            monkeypatch.setitem(verify.SUITES, name, (recorder(name, fn), *reads))
        return calls

    @pytest.mark.parametrize("suite, argv, expected", [
        ("rules", ["--trials", "90", "--max-n", "7"], {"trials": 90, "max_n": 7}),
        ("oracle", ["--trials", "90"], {"trials": 30}),
        ("oracle", ["--trials", "12"], {"trials": 10}),
        ("bounds", ["--trials", "90"], {"instances": 90}),
        ("structure", ["--trials", "90"], {"instances": 90}),
        ("local-search", ["--trials", "90", "--max-n", "7"], {"trials": 90, "max_n": 7}),
        ("crown", ["--trials", "90", "--max-n", "7"], {"firings": 90, "max_n": 7}),
        ("counting", ["--trials", "300"], {"graphs": 10}),
        ("counting", ["--trials", "90"], {"graphs": 5}),
        ("iob-kernel-size", [], {}),
        ("lob-kernel-size", [], {}),
    ])
    def test_verify_options_reach_their_parameters(self, suite_calls, suite, argv, expected):
        assert self.run("verify", "--suite", suite, "--seed", "4", *argv) == 0
        assert suite_calls == [(suite, {"seed": 4, **expected})]

    @pytest.mark.parametrize("suites, argv, refused", [
        ("iob-kernel-size", ["--trials", "12"], "iob-kernel-size' does not read --trials"),
        ("lob-kernel-size", ["--trials", "12"], "lob-kernel-size' does not read --trials"),
        ("oracle", ["--max-n", "5"], "oracle' does not read --max-n"),
        ("bounds", ["--max-n", "5"], "bounds' does not read --max-n"),
        ("structure", ["--max-n", "5"], "structure' does not read --max-n"),
        ("iob-kernel-size", ["--max-n", "5"], "iob-kernel-size' does not read --max-n"),
        ("lob-kernel-size", ["--max-n", "5"], "lob-kernel-size' does not read --max-n"),
        ("counting", ["--max-n", "5"], "counting' does not read --max-n"),
        ("all", ["--trials", "12"], "iob-kernel-size' does not read --trials"),
        ("all", ["--max-n", "5"], "oracle' does not read --max-n"),
        ("oracle,bounds", ["--trials", "12", "--max-n", "2"], "oracle' does not read --max-n"),
        ("rules,crown,counting", ["--max-n", "5"], "counting' does not read --max-n"),
    ])
    def test_verify_refuses_an_option_a_suite_does_not_read(
            self, capsys, suite_calls, suites, argv, refused):
        # checked for every suite before any runs, so nothing reaches stdout
        assert self.run("verify", "--suite", suites, *argv) == 1
        assert capsys.readouterr() == ("", f"error: suite '{refused}\n")
        assert suite_calls == []

    def test_verify_keeps_the_lines_of_suites_before_one_that_raises(
            self, capsys, monkeypatch):
        # each result line is printed when its suite finishes; the suite
        # that raises ends verify with one error line, and no later suite runs
        from sparse_outbranch import verify
        ran = []

        def passing(name):
            def run(**kwargs):
                ran.append(name)
                return verify.SuiteResult(name, True, {"checked": 3})
            return run

        def raising(**kwargs):
            ran.append("crown")
            raise RuntimeError("oracle budget exceeded in crown check")

        for name, fn in (("rules", passing("rules")), ("crown", raising),
                         ("oracle", passing("oracle"))):
            monkeypatch.setitem(verify.SUITES, name, (fn, *verify.SUITES[name][1:]))
        assert self.run("verify", "--suite", "rules,crown,oracle") == 1
        assert capsys.readouterr() == (
            "[PASS] rules: checked=3\n",
            "error: oracle budget exceeded in crown check\n")
        assert ran == ["rules", "crown"]

    def test_accept_constant_rule(self, tmp_path):
        inst = tmp_path / "big.lob"
        assert self.run("gen", "planar", "--n", "80", "--k", "1", "--seed", "6",
                        "--keep-prob", "0.3", "--out", str(inst)) == 0
        # with a tiny acceptance constant, any sizable core is a YES
        code = self.run("reduce-lob", str(inst), "--accept-constant", "2",
                        "--solve-max-n", "0")
        assert code == 10

    def test_solve_disconnected_no(self, tmp_path):
        inst = tmp_path / "disc.lob"
        inst.write_text("p lob 3 1 0 1\na 0 1\n")
        assert self.run("solve", str(inst)) == 20

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        argv = ["gen", "planar", "--n", "30", "--k", "2", "--out"]
        monkeypatch.setenv("SPARSE_OUTBRANCH_SEED", "77")
        assert self.run(*argv, str(tmp_path / "env.lob")) == 0
        monkeypatch.delenv("SPARSE_OUTBRANCH_SEED")
        assert self.run(*argv, str(tmp_path / "arg.lob"), "--seed", "77") == 0
        assert (tmp_path / "env.lob").read_bytes() == (tmp_path / "arg.lob").read_bytes()

    def test_gen_identical_across_hash_seeds(self):
        # the README's contract: same seed, byte-identical artifact, in
        # fresh interpreters whose set iteration orders differ
        outs = []
        for hash_seed in ("1", "2"):
            proc = _run_python(["-m", "sparse_outbranch.cli", "gen", "planar",
                                "--n", "60", "--k", "3", "--seed", "11",
                                "--keep-prob", "0.5"], PYTHONHASHSEED=hash_seed)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0].startswith("c family=planar")

    def test_kernel_and_reduction_identical_across_hash_seeds(self, tmp_path):
        # both pipelines gather vertices in sets; neither artifact nor
        # report (timing aside) may follow the interpreter's hash order
        from sparse_outbranch.generators import gen_iob_twins, gen_planar
        cases = [("kernelize-iob", "iob", gen_iob_twins(16, 3, seed=3), 16),
                 ("kernelize-iob", "iob", gen_iob_twins(24, 2, seed=8), 24),
                 ("reduce-lob", "lob", gen_planar(120, 7, both_prob=0.1, keep_prob=0.25), 12),
                 ("reduce-lob", "lob", gen_planar(160, 8, both_prob=0.1, keep_prob=0.3), 16)]
        for i, (command, kind, g, k) in enumerate(cases):
            path = tmp_path / f"in{i}.{kind}"
            path.write_text(serialize_instance(kind, g, k))
            runs = []
            for hash_seed in ("1", "2"):
                out, rep = tmp_path / f"out{i}", tmp_path / f"rep{i}.json"
                argv = ["-m", "sparse_outbranch.cli", command, str(path),
                        "--out", str(out), "--json", str(rep)]
                if command == "reduce-lob":
                    argv += ["--solve-max-n", "0"]
                proc = _run_python(argv, PYTHONHASHSEED=hash_seed)
                assert proc.returncode == 0, proc.stderr
                report = json.loads(rep.read_text())
                assert report["outcome"] == "reduced"
                report.pop("timing")
                runs.append((proc.stdout, out.read_bytes(), report))
            assert runs[0] == runs[1], command

    def test_cli_imports_no_numeric_stack(self):
        # verify (and statistics with it) loads only for `verify` and `bench`
        proc = _run_python(["-c", "import sys, sparse_outbranch.cli; "
                            "print(sorted({'numpy', 'scipy', 'sparse_outbranch.verify'}"
                            " & set(sys.modules)))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_script(self):
        proc = subprocess.run([sys.executable, "-m", "sparse_outbranch.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 2  # argparse usage error: no command


class TestParserReuse:
    """``main`` builds one parser per process and reads
    SPARSE_OUTBRANCH_SEED on every call."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        from sparse_outbranch import cli
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_one_build_per_env_value(self, tmp_path, monkeypatch):
        from sparse_outbranch import cli
        build, builds = cli.build_parser, []

        def counted():
            builds.append(os.environ.get("SPARSE_OUTBRANCH_SEED"))
            return build()
        monkeypatch.setattr(cli, "build_parser", counted)
        out = str(tmp_path / "g.lob")
        for value in ("5", "5", "5", "6", "5", "6"):
            monkeypatch.setenv("SPARSE_OUTBRANCH_SEED", value)
            assert main(["gen", "path", "--n", "4", "--out", out]) == 0
        assert builds == ["5"]

    def test_env_seed_change_between_calls(self, tmp_path, monkeypatch):
        outs = {}
        for seed in ("77", "78"):
            monkeypatch.setenv("SPARSE_OUTBRANCH_SEED", seed)
            assert main(["gen", "planar", "--n", "30", "--k", "2",
                         "--out", str(tmp_path / f"env{seed}.lob")]) == 0
        monkeypatch.delenv("SPARSE_OUTBRANCH_SEED")
        for seed in ("77", "78"):
            assert main(["gen", "planar", "--n", "30", "--k", "2", "--seed", seed,
                         "--out", str(tmp_path / f"arg{seed}.lob")]) == 0
            outs[seed] = (tmp_path / f"env{seed}.lob").read_bytes()
            assert outs[seed] == (tmp_path / f"arg{seed}.lob").read_bytes()
        assert outs["77"] != outs["78"]

    def test_invalid_env_seed_after_a_cached_parser(self, tmp_path, monkeypatch, capsys):
        inst = tmp_path / "p.lob"
        monkeypatch.setenv("SPARSE_OUTBRANCH_SEED", "5")
        assert main(["gen", "path", "--n", "6", "--k", "1", "--out", str(inst)]) == 0
        assert main(["reduce-lob", str(inst)]) == 10
        capsys.readouterr()
        monkeypatch.setenv("SPARSE_OUTBRANCH_SEED", "seven")
        for argv in (["reduce-lob", str(inst)], ["gen", "path", "--n", "4"]):
            assert main(argv) == 1
            assert capsys.readouterr() == (
                "", "error: SPARSE_OUTBRANCH_SEED must be an integer, got 'seven'\n")


# Every ending of every command: (input file name, its text or the `gen`
# arguments that write it, the command's arguments, then the SHA-256 of
# what the command left behind; see _ending_digest). {tmp} is the test's
# directory, {inp} the input file.
ENDINGS = {
    "reduce-lob-rule1-no": (
        "u.lob", "p lob 3 1 0 1\na 0 1\n",
        ["reduce-lob", "{inp}", "--json", "{tmp}/r.json"],
        "7590d69f5d94544e48a4fc1541015d392e592906b7f53ff2a9859b463631c674"),
    "reduce-lob-certificate-yes": (
        "c.lob", ["planar", "--n", "150", "--k", "1", "--seed", "3",
                  "--both-prob", "0.15", "--keep-prob", "0.95"],
        ["reduce-lob", "{inp}", "--json", "{tmp}/r.json"],
        "524db0499a480c0f099769ca8c5b973f9ebf7b7d99c28e303bf9629eb5f7cdb6"),
    "reduce-lob-accept-constant-yes": (
        "a.lob", ["planar", "--n", "80", "--k", "1", "--seed", "6", "--keep-prob", "0.3"],
        ["reduce-lob", "{inp}", "--json", "{tmp}/r.json", "--accept-constant", "2",
         "--solve-max-n", "0"],
        "e3cdf05a7646a9adac4a507679dc70dc6bac9b524fe1ca1e584a84127cadc8d4"),
    "reduce-lob-exact-solve-yes": (
        "y.lob", ["star", "--n", "6", "--k", "3"],
        ["reduce-lob", "{inp}", "--json", "{tmp}/r.json"],
        "a5f446e10018d42d1adc281b80aaa0f794cf1a58ac515cd01783e1cb8bf8cc5a"),
    "reduce-lob-exact-solve-no": (
        "n.lob", ["path", "--n", "6", "--k", "4"],
        ["reduce-lob", "{inp}", "--json", "{tmp}/r.json"],
        "d96b7e49e627f3dc1d665bb80aaa6d601aa145acfa92e98688c853431b84cc8e"),
    "reduce-lob-reduced-dot": (
        "d.lob", ["planar", "--n", "40", "--k", "8", "--seed", "2", "--keep-prob", "0.3"],
        ["reduce-lob", "{inp}", "--json", "{tmp}/r.json", "--dot", "{tmp}/d.dot"],
        "6caa2021a84add49439836ad01cd9e0d268b968afee77f076bc984df8e48cf99"),
    "kernelize-iob-yes": (
        "y.iob", "p iob 4 3 0 3\na 0 1\na 1 2\na 2 3\n",
        ["kernelize-iob", "{inp}", "--json", "{tmp}/k.json"],
        "d533cbd1ca930af428c82e2d73cea7417e27c92790298c090ccc2ab1b7eac4dc"),
    "kernelize-iob-no": (
        "n.iob", "p iob 3 1 0 1\na 0 1\n",
        ["kernelize-iob", "{inp}", "--json", "{tmp}/k.json"],
        "14dcb3d791bd0afdfe6916cb39fc8e3fd5141dfd29465388aa7cc2951fa3106e"),
    "kernelize-iob-reduced": (
        "t.iob", ["iob-twins", "--k", "6", "--d", "3", "--seed", "7"],
        ["kernelize-iob", "{inp}", "--json", "{tmp}/k.json"],
        "858a9440f6a0bbe96fcf4185af0b0af8b29579b05b5c08364d035fad0720066e"),
    "kernelize-iob-lob-file": (
        "p.lob", "p lob 2 1 0 1\na 0 1\n",
        ["kernelize-iob", "{inp}", "--json", "{tmp}/k.json"],
        "669a427189e21cf6cb9528be2ad660f9125caa24b4ea4849f233f322edb50b02"),
    "solve-leaf": (
        "s.lob", ["star", "--n", "4", "--k", "3"],
        ["solve", "{inp}", "--mode", "leaf", "--json", "{tmp}/s.json"],
        "c8c1d6fcdd5cb027c138df4fb4d66be39582ca7d1f2ea358aed50b2580c4b418"),
    "solve-internal": (
        "p.iob", "p iob 5 4 0 4\na 0 1\na 1 2\na 2 3\na 3 4\n",
        ["solve", "{inp}", "--mode", "internal", "--json", "{tmp}/s.json"],
        "8e4a5040fa5e12809f13ae89ca115b7de61a0e06c5d4e65ae1461b85de7feb43"),
    "solve-unreachable-no": (
        "u.lob", "p lob 3 1 0 1\na 0 1\n",
        ["solve", "{inp}", "--json", "{tmp}/s.json"],
        "94f3df0954738df69e42bcae6c794c3c1ec35294335e94183761a0cea1b11601"),
    "solve-iob-dropped-root-arc": (
        "r.iob", "p iob 4 4 0 3\na 0 1\na 1 2\na 2 3\na 3 0\n",
        ["solve", "{inp}", "--json", "{tmp}/s.json"],
        "00bc3b9ae1ad2a6526388819c523b6515efdb2e203cd4cb4ca2a7e0a2e25ee00"),
    "bench-planar": (
        None, None, ["bench", "--k-min", "2", "--k-max", "4", "--reps", "1"],
        "7bd45db794dd2e48aa8aad208cbae7f0af5c9b0fda9d870339668e71eda0fa8d"),
    "bench-bipath-chain": (
        None, None, ["bench", "--family", "bipath-chain", "--k-min", "2", "--k-max", "4",
                     "--reps", "1", "--csv", "{tmp}/b.csv"],
        "20e92783aeb64543bfb08faed589b38706816ce5bc2d8ffee996dc0d2328cf40"),
    "bench-degenerate": (
        None, None, ["bench", "--family", "degenerate", "--k-min", "3", "--k-max", "4",
                     "--reps", "2", "--seed", "5", "--csv", "{tmp}/b.csv"],
        "0ce505adc4a03dffbf315bafe6799806a55ece1f9b18d448aca50a514646a52e"),
    "bench-iob-twins": (
        None, None, ["bench", "--family", "iob-twins", "--k-min", "3", "--k-max", "5",
                     "--reps", "1", "--csv", "{tmp}/b.csv"],
        "952f0805b3192fa55300dd6d55015f53ca2c87c627e23c2142086582792f9f54"),
    "bench-unwritable-csv": (
        None, None, ["bench", "--family", "iob-twins", "--k-min", "3", "--k-max", "3",
                     "--reps", "1", "--csv", "{tmp}/missing/b.csv"],
        "19b9844aa795bf1bbf3b6a1dd47ee8f50c1a60ee37f4d307e1bd9c18bb805b6b"),
}


def _drop_elapsed(text: str) -> str:
    """Bench CSV without its last column, the wall-clock ``elapsed_s``."""
    if not text.startswith("family,"):
        return text
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


def _ending_digest(tmp_path, capsys, case) -> str:
    """Run one ENDINGS case in ``tmp_path``; SHA-256 of its exit code,
    stdout, stderr and every file it wrote (JSON reports, whose layout is
    checked first, without timing), with the directory's path replaced by
    ``<tmp>``."""
    name, source, argv, _ = case
    inp = str(tmp_path / name) if name else None
    if isinstance(source, list):
        assert main(["gen", *source, "--out", inp]) == 0
    elif source is not None:
        (tmp_path / name).write_text(source)
    capsys.readouterr()
    code = main([a.format(tmp=tmp_path, inp=inp) for a in argv])
    out, err = capsys.readouterr()
    files = {}
    for path in sorted(tmp_path.rglob("*")):
        if path.is_dir() or str(path) == inp:
            continue
        text = path.read_text()
        if path.suffix == ".csv":
            text = _drop_elapsed(text)
        elif path.suffix == ".json":
            report = json.loads(text)
            assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
            report.pop("timing", None)
            text = json.dumps(report, sort_keys=True)
        files[path.name] = text
    tmp = str(tmp_path)
    payload = json.dumps([code, _drop_elapsed(out), err, files], sort_keys=True)
    return hashlib.sha256(payload.replace(tmp, "<tmp>").encode()).hexdigest()


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_every_cli_ending_is_pinned(tmp_path, capsys, ending):
    assert _ending_digest(tmp_path, capsys, ENDINGS[ending]) == ENDINGS[ending][3]
