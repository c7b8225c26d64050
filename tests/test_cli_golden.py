"""End-to-end pins of the CLI: each case runs cli.main on fixed arguments and
compares the SHA-256 of (argv, exit code, stdout, stderr) with a digest
recorded from a known-good build. A deliberate change of any printed output
or exit code has to update the digest of each case it touches."""

import contextlib
import hashlib
import io
import json

import pytest

from fotensor import Alphabet, build_tree_model, dump_structure
from fotensor.cli import main
from fotensor.languages import DISS_TEXT, ONE_B_TEXT

ONE_B = ["--expr", ONE_B_TEXT, "--alphabet", "ab", "--model", "succ"]
DISS = ["--expr", DISS_TEXT, "--alphabet", "lra", "--model", "prec"]
FORMATS = {"text": [], "json": ["--format", "json"], "trace": ["--trace", "--format", "json"]}
WORDS = {
    "one-b": (ONE_B, ["", "b", "aabaa", "a" * 63 + "b" + "a" * 64]),
    "diss": (DISS, ["", "l", "laral", "lral" * 32]),
}
TREE = [("", "a"), ("0", "b"), ("1", "a"), ("00", "b"), ("01", "a"), ("10", "b")]
TREE_FORMULA = "forall x. (b(x) -> exists y. (dom(y, x) & (a(y) | (exists z. leftof(x, z)))))"

CASES = {
    **{
        f"eval-{lang}-{fmt}-{len(word)}": ["eval", *flags, "--word", word, *FORMATS[fmt]]
        for lang, (flags, words) in WORDS.items()
        for word in words
        for fmt in FORMATS
    },
    "eval-structure-text": ["eval", "--expr", TREE_FORMULA, "--structure", "tree.json"],
    "eval-structure-json": ["eval", "--expr", TREE_FORMULA, "--structure", "tree.json", "--format", "json"],
    **{
        f"enumerate-{lang}-{fmt}": ["enumerate", *flags, "--max-len", max_len, *extra]
        for lang, flags, max_len in (("one-b", ONE_B, "12"), ("diss", DISS, "6"))
        for fmt, extra in (("text", []), ("json", ["--format", "json"]), ("count", ["--count"]))
    },
    # Letters JSON escapes or encodes as non-ASCII, and a language with no word.
    **{
        f"enumerate-{lang}-{fmt}": ["enumerate", "--expr", text, "--alphabet", alphabet, "--max-len", "3", *extra]
        for lang, text, alphabet in (
            ("escapes", "forall x. forall y. (succ(x, y) -> !(a(x) & a(y)))", 'a"\\\u00e9'),
            ("empty", "exists x. (a(x) & !a(x))", "ab"),
        )
        for fmt, extra in (("text", []), ("json", ["--format", "json"]))
    },
    **{
        f"compile-{lang}-{fmt}": ["compile", "--expr", text, "--optimized", *extra]
        for lang, text in (("one-b", ONE_B_TEXT), ("diss", DISS_TEXT))
        for fmt, extra in (("text", []), ("json", ["--format", "json"]))
    },
    "check-seed-0": ["check", "--random", "300", "--format", "json", "--seed", "0"],
    "check-seed-42": ["check", "--random", "300", "--format", "json", "--seed", "42"],
    "error-foreign-letter": ["eval", *ONE_B, "--word", "abc"],
    "error-long-word": ["eval", *ONE_B, "--word", "ab" * 2500],
    "error-free-variable": ["eval", "--expr", "exists x. succ(x, y)", "--word", "ab"],
    # Argument errors, each printed by argparse with a usage line.
    "error-unknown-option": ["eval", *ONE_B, "--word", "ab", "--bogus"],
    "error-extra-argument": ["eval", *ONE_B, "--word", "ab", "extra"],
    "error-unknown-command": ["evaluate", *ONE_B, "--word", "ab"],
    "error-no-arguments": [],
    "error-bad-format": ["eval", *ONE_B, "--word", "ab", "--format", "xml"],
}

# argparse wraps its usage lines to the terminal width.
FIXED_TERMINAL = {"COLUMNS": "80", "LINES": "24"}

DIGESTS = {
    "check-seed-0": "2128c06526e18ab5167f14e33a5bd8913004cd10b153d07bcde56a1b43853e72",
    "check-seed-42": "2c2af6e0cff74dbc288c065b77e57740b65ea484b2507f7eb333cabeb842e72c",
    "compile-diss-json": "02c11cdbd0eb7781afa9e1c588fc7f5b089c26a62accb61d1f2cc19ca5ca8f5e",
    "compile-diss-text": "c41bf4e3b43a79fa10e3c81b7cb64e90a55077f20a65f7488ba3e5b19d3275e6",
    "compile-one-b-json": "e1ee833675f27aebb12dde430a3467310cdf5649db36dba0b003eb37c691bf03",
    "compile-one-b-text": "a3fc9954dabcf026b03393bb1407a822354cf1f2721297f1890608bb7fbe8cbb",
    "enumerate-diss-count": "a858ebcc23f929eee77e10dc7871cd0f35832c244bbd08109da4d84064b6d63c",
    "enumerate-diss-json": "3b56fe1a6e5d0ef839aa97d2561975d7881d3dbb61db62a9c3e42cd9e5f26d17",
    "enumerate-diss-text": "308e49c2a7ab8061057f5b57b5f55f6cd4bba7bd92090fece5734ea5656ad373",
    "enumerate-empty-json": "fddf648f55853b0205765efbb3c7653c438f4555c67c4809f74170764b76ae0a",
    "enumerate-empty-text": "93d9da2cc6e8ad103dd5660886f6ddb942b6d7a9c8434a6881759a02f2364f63",
    "enumerate-escapes-json": "47ac8d62b5882451acfa7838f71e9d687344d8ec1ea9522c754b5874165b034d",
    "enumerate-escapes-text": "9a7c5064179ab6864a19ea379e28c655354406e3270e1d94eafff826eb4b8820",
    "enumerate-one-b-count": "c5b9ac57712b9f5978d91488d0034a1d57e51a2c0402ded573ca9207ab354881",
    "enumerate-one-b-json": "a11dcf0fe169e7a16af915a50807cfecfa0fcd4b5deb9d6c929bc75ebb5e431d",
    "enumerate-one-b-text": "3a8da68a871a3b1723518aad100075bb98a1d21ed55491b42b926cfe7b458f27",
    "error-bad-format": "943012563bec8f4fe9c423659600323e5f5c2c0b421d94dccf8616463b0fe5d1",
    "error-extra-argument": "7f581543ea6eb423ae6cdaa8ee8f961dda105be81bd2fd03cef90ccebad52c33",
    "error-foreign-letter": "5ee2a9f5b2480f1e8f0614ef7872951c77a261cff15b875bb362c2530a1dec97",
    "error-free-variable": "1a0bab9d65cba6ee47b6e24f2a2444384817e3c01a9f1660c51a366fcc10afaf",
    "error-long-word": "38cb5c48f84150746f589e87e00b51e966274ee6f939d7e8aec681e1ab02ba9e",
    "error-no-arguments": "ff54bc83039c1ea2cb36b1f71761cb6255f00fdd701f62dd0012b95dccf05d7e",
    "error-unknown-command": "13adbfa1dc36bc2263c02b39386f0d1a6a2b1ba97889de386caca82bb0eba89e",
    "error-unknown-option": "c5c4075de8b8bf32df79b46bad3e4f74e7061e359b7458ae87f0bdd974335abd",
    "eval-diss-json-0": "aaa784ad440a3069d46eb93e9ed2bc13ea1ac624bce7c46390353a56550dbdf7",
    "eval-diss-json-1": "cdd13471761d71bfa5ecd1b845b38c41440b8e3cf28ae8c5ec659f7f49716446",
    "eval-diss-json-128": "f9f05523eae5ddabc4ceb48c22e4cfe80b3cac59562322bbb22dccf216d996fa",
    "eval-diss-json-5": "994c817c5e46c6bb387f24004b2c22752f68c308b0be773941643f12fc18ccbf",
    "eval-diss-text-0": "79b819b20697f4561ebed3fa6b43cf62eb44f4718645261d3093408c65ae9a22",
    "eval-diss-text-1": "c2c2d704728a49421143bbdbd2b0c5759ca16fbc0f573c408d08cb573f7fab88",
    "eval-diss-text-128": "a0d02f9ae351c66a37fdbfcc11e1a421fa7cfe65759b8a70907f025bd5791546",
    "eval-diss-text-5": "319c6a225ae84e92b828915bec8be5d9dea6453070fd4bd06b9d2a2b38afe708",
    "eval-diss-trace-0": "3fa581fc40838c469b5216399bf75739d509e8c730273bfaa0229ea1c4a6dd23",
    "eval-diss-trace-1": "cb34d8b300bca44d4fc15cc00a77a910da2cbbe5d25beeedc6656c55895e262a",
    "eval-diss-trace-128": "56a9c0bca18c7699746797277f1963acd54fb335c18e519e09a178eba0d54c88",
    "eval-diss-trace-5": "fafb2a962192a8af1db0babc1e1c90ab7e26a8891eba3f308b3ec11e9e053dfd",
    "eval-one-b-json-0": "7c96fdb80e7cfa5f3a5e935b50f9e3bb2ac0479a7f10677640b7a1138cf5dcb2",
    "eval-one-b-json-1": "27364d38410b84a8799cd61d34b7e84bc69f2ab6a947f87696831a0f48df6a02",
    "eval-one-b-json-128": "bdc1a4ff190fe0a238dc22ef6f7a6f25beb40cf8fcf49de071e85c05876caead",
    "eval-one-b-json-5": "76756d7601db2e2fe98dc2df82cd4772b832ff1f2d0386f5376b2dc6b4b01146",
    "eval-one-b-text-0": "fa1f8b61049dcbc2e58531b10c3fd40f3b04835685fbc7ac93f936ef441dd955",
    "eval-one-b-text-1": "a39ea117328313727d0731c17e1d566c12e0c208df560ba158b15684dc4266b6",
    "eval-one-b-text-128": "b4935087c3ee0aa9e44e59b42cd4ff8b228fe4022aebe7943a72ac5d0e953010",
    "eval-one-b-text-5": "e75e08de2cd9b3bdfb715d272ce96e2eeb21bfbaac56cdd7ac7b1856e2a732bf",
    "eval-one-b-trace-0": "b86bb41a8f6e309f8808cbef850eefbc8d8badf40fb826711644826ad0e07cb9",
    "eval-one-b-trace-1": "97ccf7f3ac6d47559b8a0a0d56da97e6614ade0da85dd2da363e45c6852e8567",
    "eval-one-b-trace-128": "f119236b4f08797c945551090b1fde8748b199ff57a8f8768f20035cd9c4f12e",
    "eval-one-b-trace-5": "3bd7b3129dee60eabe661c0df9f46597207f5e693ff67374a22639c610712493",
    "eval-structure-json": "1a11528c153bec27ac609efcf10f369e1261e5b66d01c5ef6c51125b56dca371",
    "eval-structure-text": "1baa4616f4d0fd38febc363b2e329aa5b5f4a3889029d8803393802c00196f08",
}

def _digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    doc = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.fixture(autouse=True)
def _tree_document(tmp_path, monkeypatch):
    # A relative path, so that argv, and with it the digest, is the same in every run.
    (tmp_path / "tree.json").write_text(dump_structure(build_tree_model(TREE, Alphabet("ab"))))
    monkeypatch.chdir(tmp_path)
    for name, value in FIXED_TERMINAL.items():
        monkeypatch.setenv(name, value)


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_pinned(case):
    assert _digest(CASES[case]) == DIGESTS[case]
