import hashlib

import pytest

from sparse_outbranch.cli import main
from sparse_outbranch.digraph import is_connected
from sparse_outbranch.generators import gen_planar

from conftest import euler_bound_holds


@pytest.mark.parametrize("n, seed, both_prob, keep_prob", [
    (1, 0, 0.25, 1.0), (2, 1, 0.25, 1.0), (7, 2, 0.5, 1.0), (49, 3, 0.1, 0.25),
    (50, 4, 0.3, 0.6), (150, 5, 0.15, 0.95), (400, 6, 0.1, 0.25),
])
def test_planar_lives_on_a_grid_triangulation(n, seed, both_prob, keep_prob):
    # every edge joins row-major grid neighbours, each cell has at most one
    # diagonal, and the spanning overlay makes every vertex reachable
    g = gen_planar(n, seed, both_prob=both_prob, keep_prob=keep_prob)
    side = next(s for s in range(1, n + 1) if s * s >= n)  # row length
    diagonals: dict[tuple[int, int], int] = {}
    for u, v in {(min(a), max(a)) for a in g.arcs()}:
        (ur, uc), (vr, vc) = divmod(u, side), divmod(v, side)
        dr, dc = abs(ur - vr), abs(uc - vc)
        assert (dr, dc) in ((0, 1), (1, 0), (1, 1)), (u, v)
        if (dr, dc) == (1, 1):
            cell = (min(ur, vr), min(uc, vc))
            diagonals[cell] = diagonals.get(cell, 0) + 1
    assert all(count == 1 for count in diagonals.values())
    assert euler_bound_holds(g)
    assert is_connected(g)


# the parameters each family reads besides k and seed, and one in-range
# value of each as the option takes it
READS = {"path": ["n"], "star": ["n"], "bipath-chain": ["n"],
         "planar": ["n", "both_prob", "keep_prob"], "degenerate": ["n", "d", "both_prob"],
         "iob-twins": ["d", "twin_factor"], "random": ["n", "m"]}
VALUES = {"n": "7", "d": "2", "m": "13", "both_prob": "0.6", "keep_prob": "0.5",
          "twin_factor": "3"}
OUT_OF_RANGE = {"n": ["0", "-1"], "k": ["-1"], "d": ["0", "-3"], "m": ["-1"],
                "twin_factor": ["0", "-2"], "both_prob": ["-0.1", "1.5", "nan"],
                "keep_prob": ["-0.1", "1.5", "nan"]}
BOUNDS = {"n": "at least 1", "k": "at least 0", "d": "at least 1", "m": "at least 0",
          "twin_factor": "at least 1", "both_prob": "between 0 and 1",
          "keep_prob": "between 0 and 1"}
# a family's own range: a bipath chain needs the root and two more
FAMILY_OUT_OF_RANGE = {("bipath-chain", "n"): ["1", "2"]}
FAMILY_BOUNDS = {("bipath-chain", "n"): "at least 3"}


def _option(name):
    return "--" + name.replace("_", "-")


def _unread():
    return [(family, name) for family in READS for name in VALUES
            if name not in READS[family]]


def _out_of_range():
    return [(family, name, value) for family in READS
            for name in ["k", *READS[family]]
            for value in OUT_OF_RANGE[name] + FAMILY_OUT_OF_RANGE.get((family, name), [])]


@pytest.fixture
def refused(tmp_path, monkeypatch, capsys):
    """Run ``argv`` once to stdout and once to a file in an empty directory;
    assert exit 1, no stdout, no file and one ``error:`` line, and return it."""
    monkeypatch.chdir(tmp_path)

    def run(*argv, out="--out"):
        lines = []
        for extra in ([], [out, str(tmp_path / "g.txt")]):
            assert main([*argv, *extra]) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert list(tmp_path.iterdir()) == [], argv
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
            assert "gen_" not in captured.err and "()" not in captured.err
            lines.append(captured.err)
        assert lines[0] == lines[1]
        return lines[0]
    return run


@pytest.mark.parametrize("family, name", _unread())
def test_gen_refuses_a_parameter_its_family_does_not_read(refused, family, name):
    err = refused("gen", family, _option(name), VALUES[name])
    assert err == f"error: family {family!r} does not read {name}\n"


@pytest.mark.parametrize("family, name, value", _out_of_range())
def test_gen_refuses_a_value_out_of_range(refused, family, name, value):
    err = refused("gen", family, _option(name), value)
    bound = FAMILY_BOUNDS.get((family, name), BOUNDS[name])
    assert err == f"error: family {family!r}: {name} must be {bound}, got {value}\n"


@pytest.mark.parametrize("argv, message", [
    (["gen", "star", "--d", "0"], "family 'star' does not read d"),
    (["gen", "bipath-chain", "--d", "9"], "family 'bipath-chain' does not read d"),
    (["gen", "random", "--both-prob", "0.5"], "family 'random' does not read both_prob"),
    (["gen", "iob-twins", "--n", "99999"], "family 'iob-twins' does not read n"),
    (["gen", "iob-twins", "--n", "20"], "family 'iob-twins' does not read n"),
    (["gen", "iob-twins", "--twin-factor", "-2"],
     "family 'iob-twins': twin_factor must be at least 1, got -2"),
    (["gen", "planar", "--keep-prob", "nan"],
     "family 'planar': keep_prob must be between 0 and 1, got nan"),
    (["bench", "--family", "planar", "--d", "5"], "family 'planar' does not read d"),
    (["bench", "--family", "bipath-chain", "--d", "5"],
     "family 'bipath-chain' does not read d"),
    (["bench", "--family", "iob-twins", "--scale", "6"], "family 'iob-twins' does not read scale"),
    (["bench", "--family", "iob-twins", "--scale", "10"], "family 'iob-twins' does not read scale"),
])
def test_gen_and_bench_refuse_what_a_family_does_not_take(refused, argv, message):
    out = "--out" if argv[0] == "gen" else "--csv"
    assert refused(*argv, out=out) == f"error: {message}\n"


# Frozen SHA-256 of the stdout of `gen ARGS`: each family at its defaults
# and at one value of each parameter it reads
GEN_DIGESTS = [
    ("path", "44051b2b07813f9f78fe3e0d90eea1e9724c1f9745a21299b4773395bf212314"),
    ("path --k 5", "8a894061fd72e97bdf6c844066b068431c8c6c1a3564fc15fc7fe55e903a8e37"),
    ("path --seed 4", "55f78f1f7d8ed95d313f85ea4e51c2a6ac6bf9180f4aa56c9863e01ddfd0ceba"),
    ("path --n 7", "f4684d96049a1ae4824435045f55bdb013ba38f4c5d20ad1e73172c832e02804"),
    ("star", "4b3fb1c683ce963ce552d7b99f5496fd3f077d653cc8cb4455ab2f579abe7a6f"),
    ("star --k 5", "247469d8244bcc46108df4d712af90f16df814b6d7219b9aadec342e66cd4e77"),
    ("star --seed 4", "bff64ccf351f2c7193897cb6fbc1a7175fe0302f83657517838e8067b0d1f082"),
    ("star --n 7", "b5eddac45eb378da92866209aab5bc850df4e4a2931cb7478323c96f8429d1ad"),
    ("bipath-chain", "e4aea8e030ff2a060b142893877dcf15a73fdd9daae352b92201944beca848a3"),
    ("bipath-chain --k 5", "c28d033787d35f1e36206f4b4f09060c51ddb1e5ab666ba72161ab5059d15461"),
    ("bipath-chain --seed 4", "8d43b564ca9aafe46b0090149a1e8b3ee0233e224176bc861a18f57778517512"),
    ("bipath-chain --n 7", "90e2ba735528e14e64342cec883597f3f14b43262f9dc9fc3554d728c63c4424"),
    ("planar", "d38b35c6594ba34830a805353f995f52955f4d951d189a06a6ebbb5bd735951f"),
    ("planar --k 5", "0e418b7625103fdedbfcb7460c96678368f3fff085e982dcd3f208c73a7c36f7"),
    ("planar --seed 4", "927c1caf2343362d3d2e157803f0e47a96bb4e278485dfb5846ae49f01275bcb"),
    ("planar --n 7", "b3c785b3e4ff884164410cf5d6c3cd86a4682d4824132f1e97d744be3ccb4ca8"),
    ("planar --both-prob 0.6", "0a7a857128c908b03a80a576639a0675ebcdf5a052500409b28dddca91b3df30"),
    ("planar --keep-prob 0.5", "bfbc0035abe8a4055ea25b1c63dd4eb1f82aa25f1fff2c95285cffe0a20a1859"),
    ("degenerate", "62b0d9f96392eabec6fcf423a64a7823384b2dc4cf6426458b619283b50fcd71"),
    ("degenerate --k 5", "e3769ce259891758f09128d2972823e1821b95c72668d86963f988a859fb9455"),
    ("degenerate --seed 4", "9546a92b321b025e23a244497d2dc98b17867e1e010de10d2525dc5910e376cc"),
    ("degenerate --n 7", "7e2290638f31f36b4ae00656d840c8996c6784b993ff928aebab78f56e3f1357"),
    ("degenerate --d 2", "b5618418c9f8949e63878b3c9ff589578256c34cb62bc11140eca9b7c0668b47"),
    ("degenerate --both-prob 0.6", "299d714253e453ee174789501918d3b3e3f070afce6fe841f0092663021f50c4"),
    ("random", "a3be6666479d5d9fcf328e70e5aaa95095264401a229b09f45141db0ee6f2c40"),
    ("random --k 5", "034512c377aa3419de07f1246737616e6f7efda2fdeb4009eb111c9d519b4deb"),
    ("random --seed 4", "d47a2af8d5abab833b4052ca2b80235348c945e785ed4558dc1985e042010b8f"),
    ("random --n 7", "6e93cd638c9d0c0603d64a833ba71fcca1f67cd0e5a9e1c06f027601a5e0fe84"),
    ("random --m 13", "4dd2f3d509dca872209883ff590da09340896ea7389951a8479a4e7344e2062e"),
]

# iob-twins does not read n, so its comment line names none: the comment,
# then SHA-256 of every line after it
IOB_TWINS_DIGESTS = [
    ("iob-twins", "c family=iob-twins k=3 seed=0",
     "c7779af8c63665bd84da66b53b3029947889176d8b6d4bc8b1e07c1bc0aa11d2"),
    ("iob-twins --k 5", "c family=iob-twins k=5 seed=0",
     "4f4f4c41a89acb53874b5e9319b26f252bc7490ceacf12c810742164db501633"),
    ("iob-twins --seed 4", "c family=iob-twins k=3 seed=4",
     "67031cbb26afdc1215845611d5abbbd922e53d6db200a62b6fecc7600eea5a62"),
    ("iob-twins --k 12", "c family=iob-twins k=12 seed=0",
     "96e4b9614d5b7a282b0635e05dc57dabad12999c08ff2746af80793cda064347"),
    ("iob-twins --k 12 --d 1", "c family=iob-twins k=12 seed=0 d=1",
     "311eb80ea723ebeba862cd00a07a0caf1d1341fc67a21a1fd85fcb39b80fb6af"),
    ("iob-twins --twin-factor 3", "c family=iob-twins k=3 seed=0 twin_factor=3",
     "ba17a0f814ae82284f1a1ad3826e8d3f591e22b9efb4b2466ad5d05ad9f3a2d0"),
]

# SHA-256 of the stdout of `bench ARGS` without its elapsed_s column; the
# iob-twins run with --seed 4 was recorded with --scale 6, which bench then
# ignored for that family and now refuses
BENCH_DIGESTS = [
    ("--family planar",
     "99bbf01177dbadc0e3c2f5112d707e10c2764391a7df8f9646c561be40edc3be"),
    ("--family planar --scale 6 --seed 4 --k-min 3 --k-max 6 --reps 2",
     "7e1442fd7b5f41d247ed7ca9a91060032ac828e49bfd7fe139b09a77e82e6f36"),
    ("--family bipath-chain",
     "c4d5558a0c8532482a3fe6a13f7a48ed1fe3772197b1b902e95ab6c132b1cf82"),
    ("--family bipath-chain --scale 6 --seed 4 --k-min 3 --k-max 6 --reps 2",
     "7837cd60518e410344ff8c41b1a993fb1a5fed1c6d910e46910af75dca8e55f6"),
    ("--family degenerate",
     "b5f4701768b0c61e6775ccd3c3c0e835aa345ed0dd3b643fb56fb68ee2480aad"),
    ("--family degenerate --d 2",
     "cac59c745ebd9f46b05c145289b6a4bfdf4417044b045032309f0cb8bf6b27c4"),
    ("--family degenerate --scale 6 --seed 4 --k-min 3 --k-max 6 --reps 2",
     "14339b7e7db5d67d9b102aae340af7d7cfff1552cd2a2aa8c0d256a011a08e93"),
    ("--family iob-twins",
     "e94035c7d11047d36e266b7805f19aa4b5f56c9067a70f19b1d11ace5794bda7"),
    ("--family iob-twins --d 2",
     "bf94f2df40dd25923dcb1de7f4355e270adad092ad8c404033ba657c9157f5d7"),
    ("--family iob-twins --seed 4 --k-min 3 --k-max 6 --reps 2",
     "a5738ebd88a16aca671dd1e745ff23bbda9e12491e8201c7989f3803cb79974c"),
]


def _stdout(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 0, argv
    return capsys.readouterr().out


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def unseeded(monkeypatch):
    monkeypatch.delenv("SPARSE_OUTBRANCH_SEED", raising=False)


@pytest.mark.parametrize("args, digest", GEN_DIGESTS)
def test_gen_keeps_its_bytes(unseeded, capsys, args, digest):
    assert _sha256(_stdout(capsys, ["gen", *args.split()])) == digest


@pytest.mark.parametrize("args, comment, digest", IOB_TWINS_DIGESTS)
def test_gen_iob_twins_keeps_its_graph_bytes(unseeded, capsys, args, comment, digest):
    first, rest = _stdout(capsys, ["gen", *args.split()]).split("\n", 1)
    assert (first, _sha256(rest)) == (comment, digest)


@pytest.mark.parametrize("args, digest", BENCH_DIGESTS)
def test_bench_keeps_its_bytes(unseeded, capsys, args, digest):
    text = _stdout(capsys, ["bench", *args.split()])
    assert _sha256("\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())) == digest
