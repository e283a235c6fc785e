"""The CLI contract on argument lists built from the data files, the
subcommands, their options, random tokens and odd strings: exit 0, 1 or
2; no exception out of `main`; exit 1 only with a printed verdict; exit 2
with a message on stderr; the same exit code and the same `--json`
bytes on a second run; `--json` output in the layout of
`json.dumps(..., indent=2)` with one trailing newline."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from ualg.cli import main
from ualg.fileformat import parse_algebra_file

from conftest import DATA

ALGEBRAS = {str(p): parse_algebra_file(p.read_text()) for p in sorted(DATA.glob("*.alg"))}
EQ_FILES = [str(p) for p in sorted(DATA.glob("presets/*.eq"))]
INTEGERS = ["-1", "0", "1", "2", "3"]  # small enough that no case builds large tables
# per command: its positional arguments and, per option, values that fit
# it: literal strings, None for a flag, or names from the algebra file
COMMANDS = {
    "check": (["file"], {}),
    "eval": (["file"], {"--algebra": "algebra",
                        "--term": ["and(x, y)", "not(x)", "mul(x, inv(x))", "x", "f(", "and(x,"],
                        "--bind": ["x=o2,y=o4", "x=b1", "x=g1", "x=", "x=o2,x=o3", "y"]}),
    "satisfies": (["file", "equations"], {"--algebra": "algebra"}),
    "gen": (["file"], {"--algebra": "algebra", "--elements": "elements"}),
    "clone": (["file"], {"--algebra": "algebra", "--arity": INTEGERS}),
    "homs": (["file"], {"--algebras": "algebras", "--count": None}),
    "iso": (["file"], {"--algebras": "algebras"}),
    "retracts": (["file"], {"--algebra": "algebra", "--image": "elements"}),
    "reduct": (["file"], {"--algebra": "algebra", "--keep": ["and", "not,or", "zero,one", "x"],
                          "--name": ["P", "bad name", "9"]}),
    "product": (["file"], {"--algebras": "algebras", "--prefix": ["p", "q1", "9", ""],
                           "--elements": ["a,b,c,d", "a,a"], "--name": ["P", "bad name"]}),
    "free-retract": ([], {"--gens": INTEGERS, "--bound": INTEGERS + ["8"],
                          "--image-bound": INTEGERS + ["8"]}),
    "rp adjoin": (["file"], {"--algebra": "algebra",
                             "--gen": ["per b1 b2", "pre b1 | per b2 b1", "per o1 o2", "per"]}),
    "rp retract": (["file"], {"--algebra": "algebra", "--gen": ["per b1 b2", "pre b2 | per b1"],
                              "--index": INTEGERS}),
    "rp preserve": (["file", "equations"], {"--algebra": "algebra", "--gen": ["per b1 b2"]}),
    "nope": ([], {}),
}
POSITIONAL = {
    "file": list(ALGEBRAS) * 4 + [str(DATA), str(DATA / "missing.alg"), "a\x00b"],
    "equations": EQ_FILES + ["preset:group", "preset:boolean-algebra", "preset:nope",
                             "preset:vector-space(2)", "a\x00b"],
}
OPTIONS = ["--json", "--budget", "--help", "--nope"] + sorted(
    {o for _, options in COMMANDS.values() for o in options})
ODD = ["", "-", "--", "\x00", "a\x00b", "\udcff", "é", " ", "\n", "=", "|", ",", "1e3", "0x1"]
# random text without decimal digits, so that it never parses as a large integer
TEXT = st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=6)
NOISE = st.one_of(st.sampled_from(OPTIONS + ODD + INTEGERS), TEXT)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def one_in(data, k):
    return data.draw(st.sampled_from([False] * (k - 1) + [True]))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_cli_keeps_its_contract_on_any_argv(data):
    # mostly the command's own arguments in their places, so that most
    # cases get past argument parsing, with odd and random tokens mixed in
    argv = ["--json"] * data.draw(st.booleans())
    if one_in(data, 6):
        argv += ["--budget", data.draw(st.sampled_from(INTEGERS + ["x"]))]
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    positional, options = COMMANDS[command]
    argv += command.split()
    drawn = {slot: data.draw(NOISE if one_in(data, 6) else st.sampled_from(POSITIONAL[slot]))
             for slot in positional}
    argv += drawn.values()
    algs = ALGEBRAS.get(drawn.get("file"), [a for file in ALGEBRAS.values() for a in file])
    names = st.sampled_from([a.name for a in algs])
    fitting = {
        "algebra": names,
        "algebras": st.lists(names, min_size=1, max_size=3).map(",".join),
        "elements": st.lists(st.sampled_from([e for a in algs for e in a.carrier]),
                             max_size=4).map(",".join),
    }
    for option, values in options.items():
        if one_in(data, 6):
            continue
        argv.append(option)
        if values is not None:
            argv.append(data.draw(NOISE if one_in(data, 6) else
                                  fitting[values] if isinstance(values, str) else
                                  st.sampled_from(values)))
    if one_in(data, 6):
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(NOISE))
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 1:
        assert out.strip(), argv
    if code == 2:
        assert err.strip(), argv
    again = run(argv)
    assert again[0] == code
    if "--json" in argv:
        assert again[1] == out, argv
        # a verdict or a result, not the help text that --help prints
        if code in (0, 1) and not out.startswith("usage:"):
            assert json.dumps(json.loads(out), indent=2) + "\n" == out, argv
