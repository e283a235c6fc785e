import hashlib
import json
import os
import random
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ualg
from ualg import generation
from ualg.catalog import boolean_2, cyclic_group, sheffer, vector_space_gf
from ualg.cli import main
from ualg.fileformat import parse_algebra_file, serialize_algebra
from ualg.products import direct_product

from test_kernel_oracles import oracle_close
from test_search_oracles import make_algebra, relabelled

BO = "data/paper_BO.alg"
SMALL = "data/small.alg"


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch, data_dir):
    monkeypatch.chdir(data_dir.parent)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_limited(*argv, seconds=10, memory=1 << 30):
    """`python -m ualg.cli` in a child process whose address space is
    capped at `memory` bytes (RLIMIT_AS, set in the child only) and which
    is killed after `seconds`, so a size check that lets a huge
    allocation or computation through fails the test instead of stalling
    the suite: (exit code, stdout, stderr, wall seconds)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    env = dict(os.environ, PYTHONPATH=str(Path(ualg.__file__).resolve().parent.parent))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ualg.cli", *argv], capture_output=True,
                          text=True, timeout=seconds, preexec_fn=limit, env=env)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def test_check(capsys):
    code, out, _ = run(capsys, "check", BO)
    assert code == 0
    assert "B: 2 elements, 5 operations" in out
    assert "O: 4 elements, 5 operations" in out


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "nonexistent.alg")
    assert code == 2
    assert "file not found" in err


def test_check_path_with_nul_byte(capsys):
    code, _, err = run(capsys, "check", "a\x00b")
    assert code == 2
    assert err.startswith("cannot read 'a\\x00b'")


def test_check_parse_error(tmp_path, capsys, data_dir):
    bad = data_dir.parent / "bad_tmp.alg"
    bad.write_text("algebra A\nelements a\nop f/2 = a a a\nend\n")
    try:
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "line 3" in err
    finally:
        bad.unlink()


def test_eval(capsys):
    code, out, _ = run(
        capsys, "eval", BO, "--algebra", "O",
        "--term", "not(and(x, y))", "--bind", "x=o2,y=o4",
    )
    assert code == 0
    assert out.strip() == "o3"


def test_satisfies_pass_and_fail(capsys):
    code, out, _ = run(capsys, "satisfies", BO, "preset:boolean-algebra", "--algebra", "O")
    assert code == 0
    assert "variety member" in out
    code, out, _ = run(capsys, "satisfies", BO, "preset:group", "--algebra", "Z2")
    assert code == 2  # wrong signature: usage-class error, not a verdict
    code, out, _ = run(capsys, "satisfies", "data/small.alg", "preset:group",
                       "--algebra", "Z2")
    assert code == 0


def test_satisfies_false_verdict(capsys, data_dir):
    code, out, _ = run(capsys, "satisfies", "data/small.alg", "preset:lattice",
                       "--algebra", "L2")
    assert code == 0
    # missing symbols are a usage-class error (2); a genuine equation
    # failure on a well-typed algebra is a false verdict (1)
    code, _, _ = run(capsys, "satisfies", "data/small.alg", "preset:boolean-algebra",
                     "--algebra", "L2")
    assert code == 2
    bad = data_dir.parent / "bad_lattice_tmp.alg"
    bad.write_text(
        "algebra N2\nelements d0 d1\n"
        "op and/2 = d0 d0 d0 d1\nop or/2 = d0 d0 d1 d1\nend\n"
    )
    try:
        code, out, _ = run(capsys, "satisfies", str(bad), "preset:lattice")
        assert code == 1
        assert "not a member" in out
    finally:
        bad.unlink()


def test_satisfies_equation_file(capsys):
    code, out, _ = run(capsys, "satisfies", BO, "data/presets/boolean.eq",
                       "--algebra", "B")
    assert code == 0


def test_gen(capsys):
    code, out, _ = run(capsys, "gen", BO, "--algebra", "O", "--elements", "o2")
    assert code == 0
    assert "generated: o1 o2 o3 o4" in out


def test_clone(capsys):
    code, out, _ = run(capsys, "--json", "clone", "data/small.alg",
                       "--algebra", "L2", "--arity", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["members"]) == 4
    assert payload["complete"]


# rp generators over B whose windows have 3, 5 and 12 positions, with the
# sha256 of `rp adjoin --json`; every `rp preserve` prints the same verdicts
RP_WINDOWS = [
    (["per b1 b2 b2"], "9542b804f9e94552a705358162af4becb5d308b67e39830dc394dc63e73200f5"),
    (["pre b2 b2 | per b1 b2 b1"],
     "6648a7678841fa159ecb8c7e9d14c45bad143938c9da58e1cb1d2192168f42cd"),
    (["per b1 b2 b2", "per b2 b1 b1 b2"],
     "9b2e2b9a3a6636cc3b45f998f27526165cfcda86ce35c4a74c3d602e4347ecf3"),
]
PRESERVE_B = "71c0c0b917dcc37088e2da92bd84a959ba7bafa58a062737b8051c60604c7063"


def test_closure_commands_print_pinned_bytes(capsys, tmp_path):
    # exit code and sha256 of the --json stdout of every command that runs
    # `core.close`, as the run-by-run closure printed them: gen at widths 1
    # on 2, 4, 256 and 300 elements, clone tables of widths 4, 8 and 16, rp
    # windows above; as one index per byte printed them, clone tables of Z3
    # (two indices to a digit, width 9 fills one cell) and of V2_2 (four
    # elements, two to a digit), and an rp window over Z3; and as the
    # closure that planned run by run printed them, the L2 fragment of
    # arity 3 cut at 3 attempts (the end of the first run) and at 36 (the
    # end of a run of the second round), and the refusals of gen, rp adjoin
    # and rp preserve, which print nothing; and as the closure that composed
    # after its members held every vector printed them, the B fragment of
    # arity 3 cut at 32,191 attempts, at 32,192 (the 256th member) and at
    # 66,047 of 66,048, and the fragments and rp extensions of Webb's
    # Sheffer operations on 2 and 3 elements, which hold every vector
    z300, v2_8, z3 = tmp_path / "z300.alg", tmp_path / "v2_8.alg", tmp_path / "z3.alg"
    z300.write_text(serialize_algebra(cyclic_group(300)))
    v2_8.write_text(serialize_algebra(vector_space_gf(2, 8)))
    z3.write_text(serialize_algebra(cyclic_group(3)))
    w2, w3 = tmp_path / "w2.alg", tmp_path / "w3.alg"
    w2.write_text(serialize_algebra(sheffer(2)))
    w3.write_text(serialize_algebra(sheffer(3)))
    n2 = tmp_path / "n2.alg"  # no lattice: and/or fail or-commutativity at (d0, d1)
    n2.write_text("algebra N2\nelements d0 d1\n"
                  "op and/2 = d0 d0 d0 d1\nop or/2 = d0 d0 d1 d1\nend\n")
    refused = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # no output
    cases = [
        (("gen", BO, "--algebra", "O", "--elements", "o2"),
         0, "2d949eedbf3238487d0b96e4e1d5cd9472ec02dee788299ec2c78483c0da7e8f"),
        (("gen", str(n2), "--elements", "d1"),
         0, "6e420c46f01fdb5bdb71429ccdc71d11bfc0c8e84fe737d11dbf9ecb40a3feb1"),
        (("gen", BO, "--algebra", "O", "--elements", "o9"), 2, refused),
        (("gen", str(z300), "--elements", "g2"),
         0, "a06fb0f93492fb768f84abadbf103a1607d1bead7b789e144a8ba31723099842"),
        (("gen", str(v2_8), "--elements", ",".join(f"v{1 << i}" for i in range(8))),
         0, "6f823b868fb8db4f879377b8dd1834e88f6e6d7f1c7b9ab0e8ab2301471c644a"),
        (("clone", BO, "--algebra", "B", "--arity", "2"),
         0, "adfbd70d6fa4450dab86878a3dda0e6da9914dd90341875a3a0d7e5f3c8aab20"),
        (("clone", BO, "--algebra", "B", "--arity", "3"),
         0, "110d8d4d8ad4ba5ecbafd7a2d45b249e26a624add3caa8bd839348bd71f6fa40"),
        (("clone", SMALL, "--algebra", "L2", "--arity", "2"),
         0, "3f689ab91184acbb5f91fab48dc5ea19425f04dc32d06f7104e7f4b65f502660"),
        (("clone", SMALL, "--algebra", "L2", "--arity", "3"),
         0, "91497722f9aa23a37097efe74e2f4e0718a139cbe24f54f2d5e6189ed602e6a9"),
        (("--budget", "3", "clone", SMALL, "--algebra", "L2", "--arity", "3"),
         0, "03a6693a658077a119beee653d79c885b26034c43a8b2b36e7da923e9a3a0ec5"),
        (("--budget", "36", "clone", SMALL, "--algebra", "L2", "--arity", "3"),
         0, "6f8dfd89c191e9ba1e126f40ec47441ded36d7be14252aa023e54213ce662c23"),
        (("clone", SMALL, "--algebra", "L2", "--arity", "4"),
         0, "312459420380eb497fd9cb4d68af1c23feb7617c80ccf4e0bfab658806df69af"),
        (("clone", str(z3), "--arity", "2"),
         0, "5222e38e1f567fa3c1d3ffcdaaf2a06de9211957cf5487f46204a85764f35749"),
        (("clone", SMALL, "--algebra", "V2_2", "--arity", "3"),
         0, "83c08cd16052a987de95c74ac461951c82e837e4bddc1c3ce9da47f991197b9c"),
        (("rp", "adjoin", str(z3), "--gen", "per g0 g1"),
         0, "684578b6419fef98ca772d4724bf9a9112eaec87e95fc2e00755702ef1025035"),
        (("rp", "adjoin", str(n2), "--gen", "per d0 d1"),
         0, "a7a544a0164033bec174f6938b0be234113c8c483c75f0a3cf12fd3f4e82e29e"),
        (("--budget", "7", "rp", "adjoin", BO, "--algebra", "B", "--gen", "per b1 b2 b2"),
         2, refused),
        (("rp", "preserve", str(n2), "preset:lattice", "--gen", "per d0 d1"), 2, refused),
        (("--budget", "32191", "clone", BO, "--algebra", "B", "--arity", "3"),
         0, "413cc7db111a47a8f608acd96835eb696a077c9894d11d71070b506febd51def"),
        (("--budget", "32192", "clone", BO, "--algebra", "B", "--arity", "3"),
         0, "6dc39a76c461c53207836078ff3aebc257595796b8401f2156d6a9216417cdcd"),
        (("--budget", "66047", "clone", BO, "--algebra", "B", "--arity", "3"),
         0, "6dc39a76c461c53207836078ff3aebc257595796b8401f2156d6a9216417cdcd"),
        (("clone", str(w2), "--arity", "2"),
         0, "b34e3ca85c90d846fd2f5ce4cb446874856579c3bc4eb6b01bb4ea313c0df87d"),
        (("clone", str(w2), "--arity", "3"),
         0, "a2dfcc54a16acb8e6f30b7c7aa242e8be796aa07ab3c7666b9d92423b5630f2f"),
        (("--budget", "100", "clone", str(w2), "--arity", "3"),
         0, "816fe1cf08a3249cebb87bb1d77d22db1afe113904c12a6328ac17c40d849f98"),
        (("clone", str(w3), "--arity", "1"),
         0, "e8f924c3eded26a42480d1687b78d962f5581c231b79035b983f70014ed2efa5"),
        (("rp", "adjoin", str(w2), "--gen", "per a0 a1", "--gen", "per a0 a0 a1 a1"),
         0, "bd090e6ff9ca7f52ae065f935f764192cc107bae72efd307d12468b7277fcc44"),
        (("rp", "adjoin", str(w3), "--gen", "per a0 a1 a2"),
         0, "a89abf2f5ba8e2e60dc36e2c2deb47cad685ea90d84ce0be0f0dbf8ed17abe9c"),
    ]
    for gens, adjoined in RP_WINDOWS:
        args = [arg for g in gens for arg in ("--gen", g)]
        cases.append((("rp", "adjoin", BO, "--algebra", "B", *args), 0, adjoined))
        cases.append((("rp", "preserve", BO, "preset:boolean-algebra", "--algebra", "B", *args),
                      0, PRESERVE_B))
    for argv, expected_code, digest in cases:
        code, out, _ = run(capsys, "--json", *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (expected_code, digest), argv


def test_other_commands_print_pinned_bytes(capsys, tmp_path):
    # exit code and sha256 of the --json stdout of the commands that do not
    # close, as printed through json.dumps(payload, indent=2)
    n2 = tmp_path / "n2.alg"  # and/or fail or-commutativity at (d0, d1)
    n2.write_text("algebra N2\nelements d0 d1\n"
                  "op and/2 = d0 d0 d0 d1\nop or/2 = d0 d0 d1 d1\nend\n")
    cases = [
        (("check", BO), 0, "c5d49a8eac8b2eb8d7cb79efb47e37ed476086b7ec3d5a8ee0d4b720e36e9ee0"),
        (("check", SMALL), 0, "c114680628ce08197da7d9301a099d24b8bfa786476cd8523fd5a2110c7d25e0"),
        (("eval", BO, "--algebra", "O", "--term", "not(and(x, y))", "--bind", "x=o2,y=o4"),
         0, "7dc97df92b20db8b520eaaa9f2b155b3d545d5b40e615cdec7426287e3c5619f"),
        (("satisfies", BO, "preset:boolean-algebra", "--algebra", "O"),
         0, "59839ec9b941a8545d3cff4a41a7b9c9d1f3553014e08bccce528664a8f87b8c"),
        (("satisfies", str(n2), "preset:lattice"),
         1, "770d9b7affb73711c9f43567f680341511b1c702fc617d6acc3865b8b4ee57a4"),
        (("homs", BO, "--algebras", "O,O"),
         0, "887ea459d87f748a7c98c7fb039bfe96a14cc64499a73f22adbb2931457c4220"),
        (("homs", BO, "--algebras", "O,B"),
         0, "c3523dbde3c43b1a558973fa40321600ea82ae783a60468c2edde4f519dde97e"),
        (("homs", BO, "--algebras", "O,O", "--count"),
         0, "19c2b9b9817283f0c31744f2c2318f5e9c868b37fd631434c125dbe18b86103f"),
        (("iso", BO, "--algebras", "B,B"),
         0, "5cb51e572955e4f83f44ef2e48e6f5c7c74b1793b4fd7e42f1b228736dc57704"),
        (("iso", BO, "--algebras", "B,O"),
         1, "57665c534b9538778777d76fcd142ab16cee908a6e2936491108dbf9bffed54b"),
        (("retracts", BO, "--algebra", "O", "--image", "o1,o4"),
         0, "c8608ce4a2ec094ba90738bc092b17f56ead08096534a4ba73e47bdac0cbc270"),
        (("retracts", SMALL, "--algebra", "V2_2", "--image", "v0,v1"),
         0, "398c58e3affc1598a5ccfcb7659bb6eba6c0e30e08a7b233b7a9cf836e62f560"),
        (("reduct", BO, "--algebra", "O", "--keep", "and,or", "--name", "Olat"),
         0, "2d7e1cebf0e11ae344dfed7b0791bc7bd895cb2160ec128e5956093804e86fe7"),
        (("product", BO, "--algebras", "B,O", "--elements", "s,t,u,v,w,x,y,z"),
         0, "ae5bafde5497977760874ecb0e26ece334c90738a4194fa50c7782dec0bf2c55"),
        (("free-retract", "--gens", "1", "--bound", "8", "--image-bound", "3"),
         1, "c2bb4d0f8d1b5f87c4dc986affca015ac9da5e60514c23bf1cabb47ae72f2016"),
        (("free-retract", "--gens", "2", "--bound", "3", "--image-bound", "3"),
         0, "00c8e0c29ad2407d0124aa8733738a260d0db84bb9366573ad2b7fcc52bbcb58"),
        (("rp", "retract", BO, "--algebra", "B", "--gen", "per b1 b2", "--index", "2"),
         0, "6eac3859207aeb265ed9bb9e58a717f4b9465b47b69e1f4772e7801496cb2c38"),
    ]
    for argv, expected_code, digest in cases:
        code, out, _ = run(capsys, "--json", *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (expected_code, digest), argv


def test_clone_budget_cuts_match_run_by_run_close(capsys, monkeypatch):
    # every budget up to the 342 attempts of the complete L2 fragment of
    # arity 3, and budgets on both sides of the 32,192nd attempt, which
    # adds the last of the B fragment's 256 tables, and of its 66,048
    # attempts in all, against the closure that composes and tests one
    # run at a time
    cases = [(SMALL, "L2", range(343), 342),
             (BO, "B", (0, 1, 32191, 32192, 32193, 50000, 66047, 66048, 66049, 10_000_000),
              66048)]
    for path, name, budgets, total in cases:
        args = ("--json", "clone", path, "--algebra", name, "--arity", "3")
        for budget in budgets:
            code, out, _ = run(capsys, "--budget", str(budget), *args)
            with monkeypatch.context() as patch:
                patch.setattr(generation, "close", oracle_close)
                assert run(capsys, "--budget", str(budget), *args) == (code, out, "")
            assert code == 0 and json.loads(out)["complete"] == (budget >= total)


def test_homs_and_counts(capsys):
    code, out, _ = run(capsys, "--json", "homs", BO, "--algebras", "B,O")
    assert code == 0
    assert json.loads(out)["homomorphisms"] == [{"b1": "o1", "b2": "o4"}]
    code, out, _ = run(capsys, "homs", BO, "--algebras", "B,O", "--count")
    assert code == 0 and out.strip() == "1"


def test_iso_verdicts(capsys):
    code, _, _ = run(capsys, "iso", BO, "--algebras", "B,B")
    assert code == 0
    code, out, _ = run(capsys, "iso", BO, "--algebras", "B,O")
    assert code == 1
    assert "not isomorphic" in out


def test_retracts(capsys):
    code, out, _ = run(capsys, "retracts", "data/small.alg", "--algebra", "L2",
                       "--image", "d0")
    assert code == 0
    code, out, _ = run(capsys, "retracts", BO, "--algebra", "O",
                       "--image", "o1,o4")
    assert code in (0, 1)


def test_reduct(capsys):
    code, out, _ = run(capsys, "reduct", BO, "--algebra", "O", "--keep", "and,or",
                       "--name", "Olat")
    assert code == 0
    assert out.startswith("algebra Olat")
    assert "op not/1" not in out


def test_product_bytes_match_golden_layout(capsys):
    code, out, _ = run(capsys, "--json", "product", BO, "--algebras", "B,O",
                       "--elements", "s,t,u,v,w,x,y,z")
    assert code == 0
    payload = json.loads(out)
    assert "elements s t u v w x y z" in payload["algebra"]
    assert payload["relabel"]["x"] == ["b2", "o2"]
    assert payload["projections"][0]["map"]["v"] == "b1"
    assert payload["projections"][1]["map"]["v"] == "o4"


def test_product_prints_pinned_bytes(capsys, tmp_path):
    # exit code and sha256 of the --json stdout of `product` as the tables
    # built one argument prefix at a time printed them: 128 elements, 255
    # (the most held as bytes), 289 (held as tuples), and factors of 2 and
    # 3 elements with a nullary and a ternary symbol
    cyclic = tmp_path / "z.alg"
    cyclic.write_text("".join(serialize_algebra(cyclic_group(n)) + "\n" for n in (3, 5, 17)))
    small = tmp_path / "t.alg"
    small.write_text(
        "algebra P2\nelements a0 a1\nop c/0 = a1\nop t/3 = a0 a0 a0 a1 a0 a1 a1 a1\n"
        "op m/2 = a0 a1 a1 a1\nend\n\nalgebra P3\nelements b0 b1 b2\nop c/0 = b2\nop t/3 = "
        + " ".join(f"b{(x + 2 * y + z) % 3}" for x in range(3) for y in range(3) for z in range(3))
        + "\nop m/2 = " + " ".join(f"b{max(x, y)}" for x in range(3) for y in range(3))
        + "\nend\n")
    cases = [
        ((BO, "B,O,O,O"), "7996061f6c9148eed63661920c28ab69ab9e6000de31382cc9c2bcb5989599c1"),
        ((str(cyclic), "Z3,Z5,Z17"),
         "aa3f784e56ad56c2a17456c5789db5d0c1a6063c3dd8c5da647b27d29b5be80e"),
        ((str(cyclic), "Z17,Z17"),
         "90b21214b87d69f043de254bb0e83b5c97c8feee1c1fb015fbbc08516aa3bb98"),
        ((str(small), "P2,P3"), "01b1a492ebd5234e530353bf7fb4b9addda6cadfb9aefba0958892ad2aa8ce06"),
        ((str(small), "P3,P2,P3"),
         "e0cfda7ca95ed0d81cb736caae105d1ee4bfa89f3af6b83828159c10679f1a7c"),
    ]
    for (path, names), digest in cases:
        code, out, _ = run(capsys, "--json", "product", path, "--algebras", names)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), names


@pytest.mark.parametrize("unbuffered", [False, True])
def test_refused_output_is_one_line_exit_2(unbuffered):
    # stdout on a full device, and on a pipe whose read end is closed: one
    # stderr line and exit 2, with no traceback at the write or at exit
    env = dict(os.environ, PYTHONPATH=str(Path(ualg.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with open("/dev/full", "w") as full:
            for argv, sink in ((("check", SMALL), full),
                               (("product", BO, "--algebras", "B,O,O,O,O"), write_end),
                               (("--help",), full)):
                proc = subprocess.run([sys.executable, "-m", "ualg.cli", "--json", *argv],
                                      stdout=sink, stderr=subprocess.PIPE, text=True,
                                      env=env, timeout=60)
                assert proc.returncode == 2, argv
                assert proc.stderr.startswith("cannot write output: "), proc.stderr
                assert proc.stderr.count("\n") == 1, proc.stderr
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_refused_stderr_is_exit_2(unbuffered):
    # a refusal whose one stderr line cannot be written, and a help text
    # that neither stream takes: exit 2, with no traceback at exit
    env = dict(os.environ, PYTHONPATH=str(Path(ualg.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        for argv, sink in ((("check", "nonexistent.alg"), subprocess.PIPE),
                           (("--bogus",), subprocess.PIPE),
                           (("--help",), full)):
            proc = subprocess.run([sys.executable, "-m", "ualg.cli", *argv], stdout=sink,
                                  stderr=full, text=True, env=env, timeout=60)
            assert proc.returncode == 2, argv
            assert not proc.stdout, argv


def test_preset_with_a_huge_field_size_is_one_line_exit_2(capsys):
    # q is refused before int() reads it, which refuses thousands of digits
    q = "9" * 5000
    code, out, err = run(capsys, "satisfies", BO, f"preset:vector-space({q})", "--algebra", "B")
    assert (code, out, err) == (2, "", f"not a supported prime power: {q}\n")


def test_free_retract(capsys):
    code, out, _ = run(capsys, "--json", "free-retract", "--gens", "1",
                       "--bound", "8", "--image-bound", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["found"] is None
    assert payload["transcript"]
    code, _, _ = run(capsys, "free-retract", "--gens", "1", "--bound", "3",
                     "--image-bound", "3")
    assert code == 0


def test_rp_commands(capsys):
    code, out, _ = run(capsys, "--json", "rp", "adjoin", BO, "--algebra", "B",
                       "--gen", "per b1 b2")
    assert code == 0
    assert len(json.loads(out)["members"]) == 4
    code, _, _ = run(capsys, "rp", "retract", BO, "--algebra", "B",
                     "--gen", "per b1 b2", "--index", "2")
    assert code == 0
    code, out, _ = run(capsys, "rp", "preserve", BO, "preset:boolean-algebra",
                       "--algebra", "B", "--gen", "per b1 b2")
    assert code == 0


def test_usage_error_exit_code(capsys):
    assert main(["homs", BO, "--algebras", "B"]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_json_byte_stability_across_runs_and_workers(capsys):
    outputs = set()
    for workers in ("1", "2", "8"):
        for _ in range(2):
            code, out, _ = run(capsys, "--json", "--workers", workers,
                               "satisfies", BO, "preset:boolean-algebra",
                               "--algebra", "O")
            assert code == 0
            outputs.add(out)
    assert len(outputs) == 1


def assert_one_line_input_error(code, out, err, message):
    assert code == 2
    assert out == ""
    assert err == message + "\n"


def test_clone_arity_past_the_projection_limit(capsys):
    # 30 projections of 2**30 cells each are refused before any is built,
    # as the closure members they would be
    code, out, err = run(capsys, "--budget", "10", "clone", BO, "--algebra", "B",
                         "--arity", "30")
    assert_one_line_input_error(code, out, err,
                                "closure members would hold more than 8388608 cells")


def test_clone_past_the_member_limit():
    # 16 projections of 2**16 cells pass the projection limit, and the
    # closure stops before its members pass core.MAX_MEMBER_CELLS = 2**23
    code, out, err, seconds = run_limited("clone", BO, "--algebra", "B", "--arity", "16")
    assert seconds < 5
    assert_one_line_input_error(code, out, err,
                                "closure members would hold more than 8388608 cells")


def test_product_past_the_table_limit(capsys, tmp_path):
    # Z64^3 has 262144 elements, so its mul/2 table would hold 6.9e10 cells
    path = tmp_path / "z64.alg"
    path.write_text(serialize_algebra(cyclic_group(64)))
    start = time.perf_counter()
    code, out, err = run(capsys, "product", str(path), "--algebras", "Z64,Z64,Z64")
    assert time.perf_counter() - start < 0.5
    assert_one_line_input_error(code, out, err, "product table of mul/2 over 262144 "
                                "elements would hold more than 4194304 cells")


def test_check_arity_past_any_table(capsys, tmp_path):
    # 2**20000 has 6021 digits, past the interpreter's limit for printing an int
    path = tmp_path / "wide.alg"
    path.write_text("algebra A\nelements a b\nop f/20000 = a\nend\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(path))
    assert time.perf_counter() - start < 0.5
    assert_one_line_input_error(code, out, err, f"{path}: line 3, column 1: expected 2^20000 "
                                "values, found 1 for f/20000")
    path.write_text(f"algebra A\nelements a b\nop f/{'9' * 5000} = a\nend\n")
    code, out, err = run(capsys, "check", str(path))
    assert_one_line_input_error(code, out, err, f"{path}: line 3, column 1: bad operation header: "
                                "arity of f has 5000 digits")
    path.write_text("algebra A\nelements a b\nop f/3 = a\nend\n")  # a size that fits
    code, out, err = run(capsys, "check", str(path))
    assert_one_line_input_error(code, out, err, f"{path}: line 3, column 1: expected 8 values, "
                                "found 1 for f/3")


def test_check_arity_at_the_printed_size_limit(capsys, tmp_path):
    # a cell count up to 2**64 is printed in digits, a larger one as k^arity
    path = tmp_path / "wide.alg"
    path.write_text("algebra A\nelements a b\nop f/64 = a\nend\n")
    code, out, err = run(capsys, "check", str(path))
    assert_one_line_input_error(code, out, err, f"{path}: line 3, column 1: expected "
                                "18446744073709551616 values, found 1 for f/64")
    path.write_text("algebra A\nelements a b\nop f/65 = a\nend\n")
    code, out, err = run(capsys, "check", str(path))
    assert_one_line_input_error(code, out, err, f"{path}: line 3, column 1: expected 2^65 "
                                "values, found 1 for f/65")


def test_rp_window_past_the_budget_without_the_power(tmp_path):
    # periods 101, 103, 107 and 109 make windows of 121330189 positions,
    # so the 3 + 4 starts alone would hold 849311323 cells, refused
    # without building them
    path = tmp_path / "z3.alg"
    path.write_text(serialize_algebra(cyclic_group(3)))
    gens = [arg for p in (101, 103, 107, 109) for arg in ("--gen", "per g1" + " g0" * (p - 1))]
    code, out, err, seconds = run_limited("rp", "adjoin", str(path), *gens)
    assert seconds < 1
    assert_one_line_input_error(code, out, err,
                                "closure members would hold more than 8388608 cells")


def webb_generators(columns):
    """Four period-16 generators over W2 whose windows hold `columns`
    distinct columns (a0/a1 bits of 0 .. columns-1), so that the extension
    they generate is all of W2**columns."""
    where = list(range(columns)) + list(range(16 - columns))
    return [arg for bit in range(4)
            for arg in ("--gen", "per " + " ".join(f"a{(c >> bit) & 1}" for c in where))]


def test_rp_closure_past_the_budget(tmp_path):
    # 2**16 members, every vector of W2**16: the closure is cut at the
    # default budget of attempts, long before its tables would be built
    path = tmp_path / "w2.alg"
    path.write_text(serialize_algebra(sheffer(2)))
    code, out, err, seconds = run_limited("rp", "adjoin", str(path), *webb_generators(16))
    assert seconds < 5
    assert_one_line_input_error(code, out, err, "generated extension closure exceeds budget")


def test_rp_out_of_memory_is_one_line_exit_2(tmp_path):
    # 2**12 members pass a raised budget; their table of 2**24 cells does
    # not fit in 200 MB of address space
    path = tmp_path / "w2.alg"
    path.write_text(serialize_algebra(sheffer(2)))
    code, out, err, _ = run_limited("--budget", "100000000", "rp", "adjoin", str(path),
                                    *webb_generators(12), seconds=60, memory=200 << 20)
    assert_one_line_input_error(code, out, err, "out of memory")


def test_rp_window_wider_than_its_columns(capsys):
    # periods 8 and 9 make windows of 72 positions: the constants, the
    # two generators, their meet and their join, 6 members
    code, out, err = run(capsys, "rp", "adjoin", SMALL, "--algebra", "L2",
                         "--gen", "per" + " d0" * 7 + " d1", "--gen", "per" + " d0" * 8 + " d1")
    assert (code, err) == (0, "")
    assert out.endswith("\n6 members\n")


def test_eval_unknown_element(capsys):
    code, out, err = run(capsys, "eval", BO, "--algebra", "O",
                         "--term", "and(x,y)", "--bind", "x=zz,y=b1")
    assert_one_line_input_error(code, out, err, "unknown element: zz")
    code, out, err = run(capsys, "eval", BO, "--algebra", "O", "--term", "x",
                         "--bind", "x=zz")
    assert_one_line_input_error(code, out, err, "unknown element: zz")


def test_gen_unknown_element(capsys):
    code, out, err = run(capsys, "gen", BO, "--algebra", "O", "--elements", "zz")
    assert_one_line_input_error(code, out, err, "unknown seed element: zz")


def test_clone_arity_zero(capsys):
    code, out, err = run(capsys, "clone", BO, "--algebra", "B", "--arity", "0")
    assert_one_line_input_error(code, out, err, "clone arity must be >= 1")


def test_retracts_unknown_image_element(capsys):
    code, out, err = run(capsys, "retracts", BO, "--algebra", "O", "--image", "zz")
    assert_one_line_input_error(code, out, err, "unknown element: zz")
    code, out, err = run(capsys, "retracts", BO, "--algebra", "O", "--image", "o1,zz")
    assert_one_line_input_error(code, out, err, "unknown element: zz")


def test_retracts_image_not_a_subuniverse(capsys):
    # the first escaping application, in term syntax
    for argv, application in [
        ((BO, "--algebra", "O", "--image", "o1,o2"), "one() = o4"),
        ((BO, "--algebra", "O", "--image", "o1,o2,o4"), "not(o2) = o3"),
        ((SMALL, "--algebra", "V2_2", "--image", "v0,v1,v2"), "add(v1, v2) = v3"),
    ]:
        code, out, err = run(capsys, "retracts", *argv)
        assert_one_line_input_error(code, out, err,
                                    f"not a subuniverse, escaping application: {application}")


def test_reduct_unknown_symbol(capsys):
    code, out, err = run(capsys, "reduct", BO, "--algebra", "O", "--keep", "nope")
    assert_one_line_input_error(code, out, err, "unknown symbols in reduct: ['nope']")


def test_eval_repeated_variable(capsys):
    code, out, err = run(capsys, "eval", BO, "--algebra", "O", "--term", "and(x,x)",
                         "--bind", "x=o1,x=o2")
    assert_one_line_input_error(code, out, err, "repeated variable in --bind: x")


@pytest.mark.parametrize("depth", [256, 257])
def test_eval_nested_term(capsys, depth):
    term = "not(" * depth + "x" + ")" * depth
    code, out, err = run(capsys, "eval", BO, "--algebra", "O", "--term", term, "--bind", "x=o2")
    if depth == 256:
        assert (code, out, err) == (0, "o2\n", "")
    else:
        assert_one_line_input_error(code, out, err,
                                    "term nested more than 256 applications deep")


@pytest.mark.parametrize("depth", [256, 257])
def test_satisfies_nested_equation(capsys, tmp_path, depth):
    eqs = tmp_path / "deep.eq"
    eqs.write_text("vars x\neq " + "not(" * depth + "x" + ")" * depth + " = x\n")
    code, out, err = run(capsys, "satisfies", BO, str(eqs), "--algebra", "B")
    if depth == 256:
        assert code == 0 and "variety member" in out and err == ""
    else:
        assert_one_line_input_error(
            code, out, err,
            f"{eqs}: line 2, column 1: term nested more than 256 applications deep")


def test_parser_is_built_once(capsys, monkeypatch):
    import ualg.cli as cli

    run(capsys, "check", BO)
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    code, out, _ = run(capsys, "check", BO)
    assert code == 0 and "O: 4 elements" in out


def cycle_algebra(name, m):
    elements = [f"c{i}" for i in range(m)]
    succ = [elements[(i + 1) % m] for i in range(m)]
    return f"algebra {name}\nelements {' '.join(elements)}\nop s/1 = {' '.join(succ)}\nend\n"


def test_homs_count_long_cycle(capsys, tmp_path):
    # the search assigns 1500 source elements one below the other; it
    # must not recurse once per element
    path = tmp_path / "cycles.alg"
    path.write_text(cycle_algebra("C1500", 1500) + "\n" + cycle_algebra("C3", 3))
    code, out, err = run(capsys, "homs", str(path), "--algebras", "C1500,C3", "--count")
    assert (code, out, err) == (0, "3\n", "")


def test_homs_count_between_cycles(capsys, tmp_path):
    # Cn -> Cm has m homomorphisms when m divides n, else none: each
    # level derives all of a cycle but the cell that wraps around to its
    # first element, and only that cell rules out m not dividing n
    path = tmp_path / "cycles.alg"
    sizes = (1, 2, 3, 4, 5, 6, 7, 12, 30, 257, 300)
    path.write_text("\n".join(cycle_algebra(f"C{n}", n) for n in sizes))
    for n in sizes:
        for m in sizes[:8]:
            expected = m if n % m == 0 else 0
            code, out, _ = run(capsys, "homs", str(path), "--algebras", f"C{n},C{m}", "--count")
            assert (code, out) == (0 if expected else 1, f"{expected}\n"), (n, m)


def test_readme_cli_examples_run(capsys, data_dir):
    # every `ualg` line of the README's CLI block must still parse and run
    readme = (data_dir.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("ualg ")]
    assert len(lines) >= 10
    for line in lines:
        code, _, err = run(capsys, *shlex.split(line)[1:])
        assert code in (0, 1), (line, err)


def test_search_jobs_pinned_budgets_and_bytes(capsys, tmp_path):
    # the smallest --budget at which each search finishes, and the sha256
    # of its --json stdout, as earlier versions of the search printed
    # them; one node less is refused.  R is random over
    # mul/2, u/1, c/0 and S a shuffled copy: the closure of R's constant
    # is all of R, so the iso derives every image and branches on none.
    # Q is Z4xZ4 and T a shuffled Z16: the searches into Z16 have levels
    # with elements derived from two elements of their own level
    powers = [direct_product([boolean_2()] * n, name=f"B{n}").product for n in (3, 4, 6)]
    z3z20 = direct_product([cyclic_group(3), cyclic_group(20)], name="P").product
    z4z4 = direct_product([cyclic_group(4), cyclic_group(4)], name="Q").product
    rng = random.Random(23)
    symbols = [("mul", 2), ("u", 1), ("c", 0)]
    r = make_algebra("R", [f"r{i}" for i in range(23)], symbols,
                     [[rng.randrange(23) for _ in range(23 ** a)] for _, a in symbols])
    path = tmp_path / "search.alg"
    path.write_text(cycle_algebra("C30", 30) + cycle_algebra("C3", 3)
                    + cycle_algebra("C1500", 1500) + "".join(
        serialize_algebra(a) for a in (*powers, cyclic_group(24), cyclic_group(36),
                                       cyclic_group(60), z3z20, r, relabelled(rng, r, "S"),
                                       cyclic_group(8), cyclic_group(16), z4z4,
                                       relabelled(rng, cyclic_group(16), "T"))))
    cases = [
        (("homs", "--algebras", "C30,C3"), 3, "homomorphism",
         "4d30e80deb4c4d366581294e6203123dc576b95a838b4ba1907f61497bf5aeab"),
        (("homs", "--algebras", "B4,B3", "--count"), 288, "homomorphism",
         "fc7befe171af3d553b21d8c1ff5b9401d94989b810f61fc9650e67cad966fa40"),
        (("homs", "--algebras", "Z24,Z36", "--count"), 36, "homomorphism",
         "6f236426bf110934fe982a336578a0c4943ecfeec8affec6ad2a4a7db1db3a59"),
        (("retracts", "--algebra", "B6", "--image", "p0,p63"), 30, "homomorphism",
         "d8adf8f41fb0616cdc47f622b96ee8f638f453ea9fa16af866253829bc965986"),
        (("iso", "--algebras", "P,Z60"), 3, "isomorphism",
         "524b2187d20044251c165ba379c85aa95d0f2c8fd1f4d4e4f09674ed491375f4"),
        (("homs", "--algebras", "C1500,C3", "--count"), 3, "homomorphism",
         "7dc24029c919d7d6fbcc60c9ef21d0b4285bf9a1677dbca85723f4fd1cb4dcb3"),
        (("homs", "--algebras", "B3,B4", "--count"), 272, "homomorphism",
         "8e8e3eb6b807b67e9197b9ca99df797bd223c18316ec8fadc5d1b23be52b17a7"),
        (("iso", "--algebras", "R,S"), 0, "isomorphism",
         "0b5386c85b51ddd7f3b458a6b60f9a6b4c7b009e5bc1378856dd52694b03ad2c"),
        (("homs", "--algebras", "Z8,Z16", "--count"), 16, "homomorphism",
         "f10bb511262e8d78cba930859da356cb0200391ae0c6cd253b05ffa03a67e8e7"),
        (("homs", "--algebras", "Q,Z16", "--count"), 80, "homomorphism",
         "01cab192aa389aece6028a1d0a569bf80318c2c682c51bdec02ebeccdc34a7be"),
        (("homs", "--algebras", "Z16,Z16"), 16, "homomorphism",
         "d9ccd2eb036b2c512af0dcb085558594860d1fc30b308173f8edd17070faf888"),
        (("iso", "--algebras", "Z16,T"), 1, "isomorphism",
         "1ce2e51d3b05c97d01fdc41d88b3dc6bc251715dc0292795ca6a35062c4b02b7"),
    ]
    for (command, *rest), budget, what, digest in cases:
        argv = (command, str(path), *rest)
        code, out, _ = run(capsys, "--budget", str(budget), "--json", *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), argv
        if budget:
            code, out, err = run(capsys, "--budget", str(budget - 1), "--json", *argv)
            assert_one_line_input_error(code, out, err, f"{what} search node budget exceeded")


def test_retracts_honours_budget(capsys):
    args = ("retracts", BO, "--algebra", "O", "--image", "o1,o4")
    code, out, err = run(capsys, "--budget", "1", *args)
    assert_one_line_input_error(code, out, err, "homomorphism search node budget exceeded")
    code, out, _ = run(capsys, "--budget", "2", *args)
    assert code == 0 and out.count("->") == 8


def test_rp_honours_budget(capsys):
    # --budget caps the composition attempts of the closure, as for clone:
    # the closure of `per b1 b2 b2 b1` completes at its 24th attempt
    args = (BO, "--algebra", "B", "--gen", "per b1 b2 b2 b1")
    for command in (("adjoin",), ("retract", "--index", "1"),
                    ("preserve", "preset:boolean-algebra")):
        code, out, err = run(capsys, "--budget", "23", "rp", command[0], *args, *command[1:])
        assert_one_line_input_error(code, out, err,
                                    "generated extension closure exceeds budget")
    code, out, _ = run(capsys, "--budget", "24", "rp", "adjoin", *args)
    assert code == 0 and out.endswith("\n4 members\n")


def test_free_retract_below_bound_lists_no_words(capsys):
    # 265,719 words up to length 11 would exceed the 100,000-word budget,
    # but below the bound the first word of length 3 decides
    code, out, err = run(capsys, "free-retract", "--gens", "3", "--bound", "11",
                         "--image-bound", "2")
    assert (code, err) == (1, "")
    assert out == "no bounded retraction\nr(aaa) = r(aa)r(a) = aaa has length 3 > 2\n"
    code, out, err = run(capsys, "free-retract", "--gens", "3", "--bound", "11",
                         "--image-bound", "11")
    assert_one_line_input_error(code, out, err,
                                "265719 words exceeds the 100000 element budget")


def test_free_retract_huge_bound(capsys):
    # the word count up to length 20000 has more digits than Python turns
    # into a string; the count stops once it passes the budget
    code, out, err = run(capsys, "free-retract", "--gens", "2", "--bound", "20000",
                         "--image-bound", "20000")
    assert_one_line_input_error(code, out, err,
                                "more than 100000 words exceeds the 100000 element budget")


def test_negative_budget(capsys):
    code, out, err = run(capsys, "--budget", "-5", "homs", BO, "--algebras", "B,O")
    assert_one_line_input_error(code, out, err, "--budget must be >= 0, got -5")


def test_non_utf8_file(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_bytes(b"\xff\xfe")
    for argv in (("check", str(bad)), ("gen", str(bad), "--elements", "a"),
                 ("satisfies", BO, str(bad), "--algebra", "O")):
        code, out, err = run(capsys, *argv)
        assert_one_line_input_error(code, out, err, f"{bad}: not UTF-8 text (byte 0)")


def test_free_retract_gens_past_z(capsys):
    # generators are named a..z, so 27 has no name for its last one
    for gens in ("27", "1200000"):
        code, out, err = run(capsys, "free-retract", "--gens", gens, "--bound", "2",
                             "--image-bound", "1")
        assert_one_line_input_error(code, out, err,
                                    f"--gens must be at most 26 (generators a..z), got {gens}")
    code, out, err = run(capsys, "free-retract", "--gens", "0", "--bound", "2",
                         "--image-bound", "1")
    assert_one_line_input_error(code, out, err, "need at least one generator")


@pytest.mark.parametrize("argv, message", [
    (("product", BO, "--algebras", "B,B", "--prefix", "1"), "bad element name: '10'"),
    (("product", BO, "--algebras", "B,B", "--name", "bad name"), "bad algebra name: 'bad name'"),
    (("product", BO, "--algebras", "B,O", "--elements", "a,b,c,d,e,f,g,h h"),
     "bad element name: 'h h'"),
    (("reduct", BO, "--algebra", "O", "--keep", "and", "--name", "1x"),
     "bad algebra name: '1x'"),
])
def test_names_that_do_not_parse_back(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert_one_line_input_error(code, out, err, message)


def test_product_and_reduct_output_parse_back(capsys):
    code, out, _ = run(capsys, "--json", "product", BO, "--algebras", "B,O",
                       "--prefix", "pq", "--name", "B_O")
    assert code == 0
    (prod,) = parse_algebra_file(json.loads(out)["algebra"])
    assert (prod.name, prod.carrier) == ("B_O", tuple(f"pq{i}" for i in range(8)))
    code, out, _ = run(capsys, "--json", "reduct", BO, "--algebra", "O", "--keep", "and",
                       "--name", "Oand")
    assert code == 0
    (red,) = parse_algebra_file(json.loads(out)["algebra"])
    assert (red.name, red.signature.names()) == ("Oand", ("and",))
