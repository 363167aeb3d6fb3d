"""The exit-code contract of the command line under generated input.

Every call of ``cli.main`` exits 0, 1 or 2 and never with a traceback;
exit 1 only for a failed check (a FAIL in a ``verify`` report, or a failed
certification inside ``compute``), and exit 2 with exactly one stderr line
and nothing on stdout.  Argument vectors are drawn from the commands'
vocabulary with bad degrees and ranks mixed in, and fixture files from
small valid modules with one defect mixed in.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usteen import cli, fixtures, harness
from usteen.fulu import extend_scalars
from usteen.unstable import (
    free_unstable,
    polynomial_module,
    suspend,
    tensor,
    truncate,
    unit_module,
)

D = 4
BASES = [free_unstable(1, D), polynomial_module(1, D), suspend(unit_module(D - 1)),
         tensor(free_unstable(1, D), free_unstable(1, D)), extend_scalars(unit_module(D))]
# values of --max-degree, --rank, --max-rank and --seed; the valid ones are
# kept small, so that the catalog runs in milliseconds
DEGREES = ["-1", "0", "1", "2", "3", "4", "x", "2.5", "", "1e1"]
RANKS = ["-1", "0", "1", "2", "x", "1.0", ""]
NOT_A_NUMBER = st.text(st.characters(blacklist_categories=("Nd",)), max_size=3)
MODULES = ["F0", "F1", "F3", "HZ2", "HV2", "PhiF1", "SigmaF", "F1xF1", "nonsense", "HV"]
REALMS = ["HV0", "HV1", "HV2", "S1HV1", "S2HV0", "HVx", "S1"]
CHECKS = [cid for cid, *_ in harness.CATALOG] + ["T0", "T99", "t1"]
NON_INTS = ["4", 4.5, None, "x", [4], float("inf"), -1, True, 10 ** 30]


def run_cli(argv):
    """(exit code, stdout, stderr) of one call; an argparse exit counts as
    its code, and any other exception escapes as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv, code, out, err):
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        assert err == "", (argv, err)
    elif code == 1:
        failed = "FAIL" in out if argv[0] == "verify" else err.startswith("check failed: ")
        assert failed and err.count("\n") <= 1, (argv, out, err)
    else:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, out, err)


def options(draw, names):
    """--max-degree and some of the rank options ``names``, each with a
    drawn value."""
    argv = ["--max-degree", draw(st.sampled_from(DEGREES) | NOT_A_NUMBER)]
    for flag in names:
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(RANKS) | NOT_A_NUMBER)]
    return argv


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["compute", "verify"]))
    if command == "compute":
        what = draw(st.sampled_from(["basis", "module", "r1", "rtilde", "invariants", "fix", "x"]))
        names = REALMS if what in ("rtilde", "fix") else MODULES
        argv = [command, what, "--module", draw(st.sampled_from(names))]
        argv += options(draw, ["--rank"])
        fmt = ["--format", draw(st.sampled_from(["text", "json", "xml"]))]
    else:
        target = draw(st.sampled_from(["--check", "--all", None]))
        argv = [command] + ([] if target is None else [target])
        if target == "--check":
            argv.append(draw(st.sampled_from(CHECKS)))
        argv += options(draw, ["--max-rank", "--seed"])
        fmt = ["--format", draw(st.sampled_from(["text", "json"]))]
    return argv + (fmt if draw(st.booleans()) else [])


@settings(max_examples=60, deadline=None)
@given(argvs())
def test_every_generated_argument_vector_keeps_the_exit_contract(argv):
    assert_contract(argv, *run_cli(argv))


@st.composite
def fixture_docs(draw):
    """A small module's fixture document with at most one defect: a flipped
    bit, a row too wide or too narrow, a degree missing from or added to
    dims, a field of the wrong type, or an action key past the top."""
    doc = fixtures.module_to_dict(draw(st.sampled_from(BASES)))
    entries = doc["action"] + doc.get("u_action", [])
    defects = ["none", "missing", "extra", "non_int_D", "beyond", "no_field"]
    if entries:  # the suspended unit module stores no matrix
        defects += ["flip", "wide", "narrow", "non_int_key"]
        entry = draw(st.sampled_from(entries))
    defect = draw(st.sampled_from(defects))
    if defect == "flip":
        k = draw(st.integers(0, len(entry["rows"]) - 1))
        row = entry["rows"][k]
        if row:
            j = draw(st.integers(0, len(row) - 1))
            entry["rows"][k] = row[:j] + "10"[int(row[j])] + row[j + 1:]
    elif defect in ("wide", "narrow"):
        k = draw(st.integers(0, len(entry["rows"]) - 1))
        entry["rows"][k] = entry["rows"][k] + "0" if defect == "wide" else entry["rows"][k][:-1]
    elif defect == "missing":
        doc["dims"] = doc["dims"][:-1]
    elif defect == "extra":
        doc["dims"] = doc["dims"] + [draw(st.integers(0, 2))]
    elif defect == "non_int_D":
        doc["D"] = draw(st.sampled_from(NON_INTS))
    elif defect == "non_int_key":
        entry["n"] = draw(st.sampled_from(NON_INTS))
    elif defect == "beyond":
        doc["action"].append({"i": 1, "n": doc["D"], "rows": []})
    elif defect == "no_field":
        del doc[draw(st.sampled_from(["D", "dims"]))]
    return defect, doc


@settings(max_examples=60, deadline=None)
@given(fixture_docs(), st.sampled_from(["module", "r1"]), st.sampled_from(["2", "4"]))
def test_generated_fixtures_keep_the_exit_contract_and_t9_reads_them(tmp_path_factory, case,
                                                                      what, degree):
    """``compute module`` and ``compute r1`` on every fixture, and T9 (the
    loop functor of the loaded module, through the cokernel projection) on
    each one that loads: it passes exactly when the module is valid.  A
    degree, dimension or key that is not a JSON integer is refused: exit 2."""
    defect, doc = case
    path = tmp_path_factory.mktemp("fixture") / "m.json"
    path.write_text(json.dumps(doc))
    argv = ["compute", what, "--module", str(path), "--max-degree", degree]
    code, out, err = run_cli(argv)
    assert_contract(argv, code, out, err)
    if defect in ("non_int_D", "non_int_key"):
        assert code == 2, (doc, out)
    try:
        module = fixtures.load(path)
    except (ValueError, KeyError, TypeError, OverflowError):
        assert code == 2 and err.startswith("error: cannot build module"), (doc, err)
        return
    spec = harness.make_spec("T9", D=D, fixture_file=str(path))
    if module.D < 2:
        try:
            harness.run_check(spec)
        except ValueError as exc:
            assert "T9 needs a fixture through degree 2" in str(exc)
        return
    result = harness.run_check(spec)
    assert result.passed == module.validate().ok, (doc, result.witness)


# -- inputs the generated tests found -----------------------------------------------


@pytest.mark.parametrize("argv", [
    ["compute", "basis", "--max-degree", "-1"],
    ["verify", "--all", "--max-rank", "x"],
    ["verify", "--max-rank", "0"],
    ["verify", "--all", "a\nb"],
    [],
])
def test_a_usage_error_is_one_stderr_line(argv):
    """argparse prints its usage before the error; the parser prints the
    error alone, on one line, and exits 2."""
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "") and err.count("\n") == 1 and ": error: " in err


def test_a_fixture_with_an_infinite_degree_exits_2(tmp_path):
    """JSON's Infinity loads as a float, which is refused as a degree."""
    path = tmp_path / "inf.json"
    path.write_text('{"name": "x", "D": Infinity, "dims": [1]}')
    argv = ["compute", "module", "--module", str(path)]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot build module") and "'D' must be an integer, got inf" in err


@pytest.mark.parametrize("field, value", [
    ("D", 4.5), ("D", "4"), ("D", True), ("dims", 1.0), ("i", "1"), ("n", True),
])
def test_a_fixture_field_that_is_not_an_integer_is_refused(field, value):
    doc = fixtures.module_to_dict(free_unstable(1, 4))
    if field in ("i", "n"):
        doc["action"][0][field] = value
    elif field == "dims":
        doc["dims"][1] = value
    else:
        doc["D"] = value
    with pytest.raises(ValueError, match=f"'{field}' must be an integer, got {value!r}"):
        fixtures.module_from_dict(doc)


def test_t9_refuses_a_fixture_below_degree_2(tmp_path):
    """The loop functor needs degree 2; T9 refuses a shorter fixture as
    make_spec refuses a D below a check's minimum."""
    path = tmp_path / "short.json"
    fixtures.save(truncate(free_unstable(1, 4), 1), path)
    with pytest.raises(ValueError, match="T9 needs a fixture through degree 2 at least, got 1"):
        harness.run_check(harness.make_spec("T9", D=4, fixture_file=str(path)))
