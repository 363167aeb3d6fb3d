import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from usteen import cli, fixtures, fulu, harness, lannes, singer, unstable
from usteen.cli import main as cli_main
from usteen.f2core import BitMatrix
from usteen.fulu import extend_scalars
from usteen.harness import (
    CATALOG,
    make_spec,
    poincare_coeffs,
    report,
    run_all,
    run_check,
)
from usteen.lannes import RealmCalculus, hv
from usteen.unstable import TruncatedModule, Verdict, free_unstable, polynomial_module

from reference import mutant_tau


def test_poincare_coeffs():
    assert poincare_coeffs(0, 5) == [1, 1, 1, 1, 1, 1]
    assert poincare_coeffs(1, 8) == [n // 2 + 1 for n in range(9)]
    # rank 2: coefficient of s^n in 1/((1-s)(1-s^2)^2)
    assert poincare_coeffs(2, 6) == [1, 1, 3, 3, 6, 6, 10]


def test_catalog_ids_unique_and_complete():
    ids = [cid for cid, *_ in CATALOG]
    assert ids == [f"T{k}" for k in range(1, 18)]
    assert len(set(ids)) == 17
    anchors = [anchor for _, anchor, *_ in CATALOG]
    assert len(set(anchors)) == 17


def test_run_all_small_degree_passes():
    results = run_all(D=6, max_rank=1)
    assert all(r.passed for r in results), [
        (r.id, r.witness) for r in results if not r.passed
    ]
    assert all(r.certified_degree >= 1 for r in results)


SHARED_CALCULUS = ["T1", "T2", "T3", "T8"]


def test_shared_calculus_reports_match_a_fresh_one():
    alone = {}
    for cid in SHARED_CALCULUS:
        harness._hv_calculus.cache_clear()
        alone[cid] = run_check(make_spec(cid, D=6, max_rank=2)).to_dict()
    harness._hv_calculus.cache_clear()
    run_all(D=6, max_rank=2, only=SHARED_CALCULUS)
    # every check again, now after all the others have filled the calculi
    after = run_all(D=6, max_rank=2, only=SHARED_CALCULUS)
    assert {r.id: r.to_dict() for r in after} == alone
    assert all(doc["pass"] for doc in alone.values())


def test_one_calculus_per_rank_and_degree(monkeypatch):
    built = []
    init = RealmCalculus.__init__

    def counting_init(self, X):
        built.append((X.summands, X.D))
        init(self, X)

    monkeypatch.setattr(RealmCalculus, "__init__", counting_init)
    harness._hv_calculus.cache_clear()
    results = run_all(D=6, max_rank=3, only=SHARED_CALCULUS)
    assert all(r.passed for r in results)
    assert len(built) == len(set(built)) == 3
    assert harness._hv_calculus.cache_info().misses == 3


@pytest.mark.parametrize("D", [6, 7])
def test_t8_compares_the_division_term_through_degree_D(D, monkeypatch):
    """A division term one dimension too large in its top degree makes the
    cokernel's indecomposables disagree with it only in degree D."""
    real = harness.division_u2

    def grown(ar):
        dv = real(ar)
        dims = list(dv.div.dims)
        dims[-1] += 1
        return dataclasses.replace(dv, div=TruncatedModule(dv.div.name, dv.div.D, dims, {}))

    monkeypatch.setattr(harness, "division_u2", grown)
    result = run_check(make_spec("T8", D=D, max_rank=1))
    assert not result.passed
    assert result.witness == f"rank 1: division term wrong in degree {D}"


def test_unknown_check_id():
    with pytest.raises(KeyError):
        make_spec("T99")


def test_every_check_passes_at_its_minimum_degree_and_refuses_below():
    for cid, _, _, min_d, _ in CATALOG:
        res = run_check(make_spec(cid, D=min_d, max_rank=1))
        assert res.passed, (cid, min_d, res.witness)
        if min_d:
            message = f"{cid} needs a truncation degree of at least {min_d}"
            with pytest.raises(ValueError, match=message):
                make_spec(cid, D=min_d - 1)


def test_reports_are_deterministic():
    a = report(run_all(D=6, max_rank=1), "text")
    b = report(run_all(D=6, max_rank=1), "text")
    assert a == b
    ja = report(run_all(D=6, max_rank=1), "json")
    jb = report(run_all(D=6, max_rank=1), "json")
    assert ja == jb


def test_json_report_schema():
    results = run_all(D=6, max_rank=1, only=["T1", "T9"])
    doc = json.loads(report(results, "json"))
    assert doc["summary"] == {"total": 2, "passed": 2, "failed": 0}
    for rec in doc["checks"]:
        assert set(rec).issuperset({"check_id", "anchor", "statement", "params", "pass", "certified_degree"})
        assert "millis" not in rec  # timings only on request
    timed = json.loads(report(results, "json", include_timings=True))
    assert all("millis" in rec for rec in timed["checks"])


def test_empty_report():
    assert report([], "json").startswith("{")
    assert "0/0" in report([], "text")


def test_fixture_round_trip(tmp_path):
    M = free_unstable(2, 9)
    path = tmp_path / "f2.json"
    fixtures.save(M, path)
    back = fixtures.load(path)
    assert back == M
    assert back.labels == M.labels
    # a second dump is byte-identical
    path2 = tmp_path / "f2b.json"
    fixtures.save(back, path2)
    assert path.read_text() == path2.read_text()


def test_fulu_fixture_round_trip(tmp_path):
    N = extend_scalars(free_unstable(1, 8))
    path = tmp_path / "ext.json"
    fixtures.save(N, path)
    back = fixtures.load(path)
    assert back == N  # dims, Sq and u
    assert back.labels == N.labels and back.name == N.name


def test_a_u_fixture_with_a_broken_u_fails_t9(tmp_path):
    """T9 validates a loaded u-module with its u."""
    path = tmp_path / "ext.json"
    fixtures.save(extend_scalars(polynomial_module(1, 6)), path)
    assert run_check(make_spec("T9", D=6, fixture_file=str(path))).passed
    doc = json.loads(path.read_text())
    doc["u_action"] = [entry for entry in doc["u_action"] if entry["n"] != 1]  # u = 0 on degree 1
    path.write_text(json.dumps(doc))
    res = run_check(make_spec("T9", D=6, fixture_file=str(path)))
    assert not res.passed
    assert res.witness.endswith("u-multiplication not Cartan-compatible at (i=1, n=0)")


def test_corrupted_fixture_fails_t9(tmp_path):
    H = polynomial_module(1, 6)
    path = tmp_path / "h.json"
    fixtures.save(H, path)
    doc = json.loads(path.read_text())
    # flip the squaring row on the degree-2 class: Sq^1(t^2) becomes t^3
    doc["action"].append({"i": 1, "n": 2, "rows": ["1"]})
    path.write_text(json.dumps(doc))
    spec = make_spec("T9", D=6, fixture_file=str(path))
    res = run_check(spec)
    assert not res.passed
    assert res.witness and "Adem" in res.witness


def test_cli_verify_single(capsys):
    code = cli_main(["verify", "--check", "T3", "--max-degree", "6", "--max-rank", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "T3" in out and "PASS" in out


def test_cli_verify_json(capsys):
    code = cli_main([
        "verify", "--check", "T9", "--max-degree", "6", "--format", "json"
    ])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["check_id"] == "T9"


DATA = Path(__file__).parent / "data"


def test_verify_all_report_matches_the_committed_oracle(capsys):
    """The regression oracle: a change to the catalog's output must update
    ``tests/data/verify_all.json`` and say why."""
    assert cli_main(["verify", "--all", "--format", "json"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_all.json").read_text()


RANK3_CHECKS = ["T1", "T2", "T3", "T8", "T11"]


def test_rank3_catalog_report_matches_the_committed_oracle():
    results = run_all(D=8, max_rank=3, only=RANK3_CHECKS)
    assert report(results, "json") == (DATA / "catalog_d8_r3.json").read_text()


def test_d14_catalog_report_matches_the_committed_oracle():
    """The catalog at D=14, rank 2: the grid of the benchmark's catalog-r2 workload."""
    assert report(run_all(D=14, max_rank=2), "json") == (DATA / "catalog_d14_r2.json").read_text()


REALM_REQUESTS = [
    *(["compute", what, "--module", realm, "--max-degree", str(D)]
      for what in ("rtilde", "fix") for D in (6, 10)
      for realm in ("HV0", "HV1", "HV2", "S1HV1", "S2HV1")),
    *(["compute", "invariants", "--rank", str(r), "--max-degree", "10"] for r in range(4)),
]


def compute_realm_outputs(capsys):
    """The JSON output of every realm request, keyed by its command line."""
    out = {}
    for argv in REALM_REQUESTS:
        assert cli_main(argv + ["--format", "json"]) == 0
        out[" ".join(argv)] = capsys.readouterr().out
    return out


def test_realm_compute_outputs_match_the_committed_oracle(capsys):
    """``compute rtilde``, ``fix`` and ``invariants`` print what
    ``tests/data/compute_realm.json`` holds, byte for byte."""
    committed = json.loads((DATA / "compute_realm.json").read_text())
    assert compute_realm_outputs(capsys) == committed


def clear_caches():
    """Forget the shared calculi and the shared H(V_r) modules."""
    harness._hv_calculus.cache_clear()
    lannes.hv_module.cache_clear()


@pytest.fixture
def fresh_caches():
    """Nothing cached before the test, and nothing it cached left after it."""
    clear_caches()
    yield
    clear_caches()


def check_docs(results):
    return {doc["check_id"]: doc for doc in json.loads(report(results, "json"))["checks"]}


@pytest.fixture(scope="module")
def catalogs():
    """(params, the committed report, run_all's report) for each oracle file."""
    clear_caches()
    out = []
    for D, max_rank, only, name in [(10, 2, None, "verify_all.json"),
                                    (8, 3, RANK3_CHECKS, "catalog_d8_r3.json"),
                                    (14, 2, None, "catalog_d14_r2.json")]:
        committed = {doc["check_id"]: doc
                     for doc in json.loads((DATA / name).read_text())["checks"]}
        out.append(((D, max_rank), committed, check_docs(run_all(D, max_rank, only=only))))
    return out


@pytest.mark.parametrize("cid", [cid for cid, *_ in CATALOG])
def test_each_check_alone_matches_its_entry_in_run_all_and_the_oracle(cid, catalogs):
    """A check run alone, with nothing cached, reports what it reports after
    the checks before it have filled the shared calculi and modules."""
    for (D, max_rank), committed, together in catalogs:
        if cid not in committed:
            continue
        clear_caches()
        alone = check_docs([run_check(make_spec(cid, D=D, max_rank=max_rank))])[cid]
        assert alone == together[cid] == committed[cid]


def record_calls(monkeypatch, fn, key):
    """Count the calls of ``fn`` by ``key(*args)``, wherever usteen bound it."""
    calls = Counter()

    def recording(*args, **kwargs):
        calls[key(*args, **kwargs)] += 1
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "usteen" and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, recording)
    return calls


def test_rank3_catalog_does_each_piece_of_realm_work_once(monkeypatch, fresh_caches):
    equalizers = Counter()
    check = RealmCalculus.equalizer_matches_taubar_kernel

    def counting(self):
        equalizers[self.X.name] += 1
        return check(self)

    monkeypatch.setattr(RealmCalculus, "equalizer_matches_taubar_kernel", counting)
    polys = record_calls(monkeypatch, unstable.polynomial_module, lambda r, D, *a, **k: (r, D))
    extended = record_calls(monkeypatch, fulu.extend_scalars, lambda M: M.name)
    assert all(r.passed for r in run_all(D=8, max_rank=3, only=RANK3_CHECKS))
    ranks = range(1, 4)
    assert equalizers == {f"H(V{r})": 1 for r in ranks}
    assert polys == {(r, 8): 1 for r in ranks}
    # each H(V_r) once, shared by taubar, the invariants and the squaring
    # span; each expansion once, for sigma and tau
    assert extended == {name: 1 for r in ranks for name in (f"H(V{r})", f"T[1](H(V{r}))")}


@pytest.mark.parametrize("order", [["T1", "T2", "T3"], ["T3", "T2", "T1"]])
def test_a_failing_equalizer_verdict_fails_every_check_that_reads_it(order, monkeypatch,
                                                                     fresh_caches):
    """The verdict is certified once per shared calculus; a failing one is
    read, not recomputed, by the later checks, and fails each of them."""
    calls = []

    def failing(self):
        calls.append(self.X.name)
        return Verdict(False, self.D, "forced mismatch")

    monkeypatch.setattr(RealmCalculus, "equalizer_matches_taubar_kernel", failing)
    results = [run_check(make_spec(cid, D=6, max_rank=1)) for cid in order]
    assert [(r.id, r.passed, r.witness) for r in results] == [
        (cid, False, "structural violation: forced mismatch") for cid in order]
    assert calls == ["H(V1)"]


def test_t16_certifies_the_equalizer_of_the_sum_it_reads(monkeypatch):
    """A tau that drops the u^0 copy of the unit in component 0 leaves taubar,
    and so the kernel dims T16 compares, unchanged; only the equalizer
    verdict of the sum's calculus sees it."""
    real = harness.RealmCalculus

    def broken_on_sums(X):
        calc = real(X)
        if len(X.summands) > 1:
            calc.tau = mutant_tau(calc, [calc.TX.comp_pos[(0, 0)]])
        return calc

    monkeypatch.setattr(harness, "RealmCalculus", broken_on_sums)
    res = run_check(make_spec("T16", D=6, max_rank=1))
    assert (res.passed, res.witness) == (
        False, "structural violation: equalizer differs from the kernel in degree 0")


@pytest.mark.parametrize("run", ["T3", "T7", "compute fix"])
def test_fix_part_dims_are_read_on_their_layouts(run, monkeypatch, capsys):
    """T3, T7 and ``compute fix`` read the dims of the parts of Fix(taubar)
    off their block layouts, so none of them builds a part's module."""
    calcs = []

    class Recording(RealmCalculus):
        def __init__(self, X):
            super().__init__(X)
            calcs.append(self)

    monkeypatch.setattr(harness, "_hv_calculus", lambda r, D: Recording(hv(r, D)))
    monkeypatch.setattr(cli, "RealmCalculus", Recording)
    if run == "compute fix":
        assert cli_main(["compute", "fix", "--module", "S1HV2", "--max-degree", "6"]) == 0
        assert "matches the module: True" in capsys.readouterr().out
    else:
        assert run_check(make_spec(run, D=6, max_rank=2)).passed
    assert calcs and all("fix_parts" in vars(calc) for calc in calcs)
    assert [part.name for calc in calcs for part in calc.fix_parts.values()
            if "module" in vars(part)] == []


def test_cli_unknown_check(capsys):
    code = cli_main(["verify", "--check", "T99"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown" in err


def test_cli_verify_requires_target(capsys):
    assert cli_main(["verify"]) == 2


def test_cli_compute_basis(capsys):
    code = cli_main(["compute", "basis", "--max-degree", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "counts: 1,1,1,2,2,2,3,4" in out


def test_cli_compute_r1_table(capsys):
    code = cli_main(["compute", "r1", "--module", "HZ2", "--max-degree", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1,1,2,2,3,3,4,4,5" in out


def test_cli_compute_module_fixture_file(tmp_path, capsys):
    M = free_unstable(1, 8)
    path = tmp_path / "f1.json"
    fixtures.save(M, path)
    code = cli_main(["compute", "module", "--module", str(path), "--max-degree", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1,1,0,1,0,0,0,1" in out.replace("0,1,1,0,1", "0,1,1,0,1")
    assert "validation: ok" in out


def test_cli_compute_unknown_module(capsys):
    code = cli_main(["compute", "module", "--module", "nonsense", "--max-degree", "4"])
    assert code == 2
    assert "unknown module" in capsys.readouterr().err


def test_cli_compute_invariants_needs_rank(capsys):
    assert cli_main(["compute", "invariants", "--max-degree", "4"]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["compute", "r1", "--max-degree", "-1"], "--max-degree"),
    (["verify", "--all", "--max-degree", "-3"], "--max-degree"),
    (["compute", "invariants", "--rank", "-1"], "--rank"),
    (["verify", "--check", "T1", "--max-rank", "0"], "--max-rank"),
])
def test_cli_rejects_out_of_range_degree_and_rank(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err


def _cli_outcome(argv, capsys):
    """Exit code (or the code argparse exits with), stdout and stderr of one call."""
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


PARSER_REUSE_CALLS = [
    ["compute", "invariants", "--rank", "2"],
    ["compute", "invariants"],  # no --rank may leak from the call before
    ["verify", "--check", "T3", "--max-degree", "6"],
    ["verify", "--check", "T3", "--max-degree", "-1"],
]


def test_cli_builds_its_parser_once_and_reuses_it(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    shared = [_cli_outcome(argv, capsys) for argv in PARSER_REUSE_CALLS]
    assert len(built) == 1
    fresh = []
    for argv in PARSER_REUSE_CALLS:
        cli._parser.cache_clear()
        fresh.append(_cli_outcome(argv, capsys))
    cli._parser.cache_clear()
    assert len(built) == 1 + len(PARSER_REUSE_CALLS)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, ("SystemExit", 2)]
    assert "requires --rank" in shared[1][2]
    assert "argument --max-degree: must be at least 0" in shared[3][2]


@pytest.mark.parametrize("argv", [
    ["verify", "--check", "T3", "--max-rank", "5"],
    ["verify", "--all", "--max-degree", "4"],
    ["compute", "fix", "--module", "HV5"],
])
def test_cli_out_of_memory_exits_2(argv, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    anchor, statement, minimum, _ = harness._RUNNERS["T3"]
    monkeypatch.setitem(harness._RUNNERS, "T3", (anchor, statement, minimum, exhausted))
    monkeypatch.setattr(RealmCalculus, "rtilde", property(exhausted))
    code = cli_main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_cli_module_construction_error_exits_2(capsys):
    code = cli_main(["compute", "module", "--module", "SigmaF", "--max-degree", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot build module 'SigmaF'") and err.count("\n") == 1


def test_cli_malformed_fixture_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "D": ')
    assert cli_main(["compute", "module", "--module", str(path)]) == 2
    assert "cannot build module" in capsys.readouterr().err


def test_cli_fixture_missing_field_exits_2(tmp_path, capsys):
    path = tmp_path / "nodims.json"
    path.write_text('{"name": "x", "D": 2}')
    assert cli_main(["compute", "module", "--module", str(path)]) == 2
    assert "missing or mistyped field" in capsys.readouterr().err


def test_cli_fixture_with_wrong_dims_length_exits_2(tmp_path, capsys):
    path = tmp_path / "short.json"
    fixtures.save(free_unstable(1, 4), path)
    doc = json.loads(path.read_text())
    doc["dims"] = doc["dims"][:-1]
    path.write_text(json.dumps(doc))
    assert cli_main(["compute", "r1", "--module", str(path)]) == 2
    assert "dims must list degrees" in capsys.readouterr().err


@pytest.mark.parametrize("module, field, entry, message", [
    (free_unstable(1, 4), "action", {"i": 3, "n": 4, "rows": []}, "action key (3, 4) outside range"),
    (extend_scalars(free_unstable(1, 4)), "u_action", {"n": 4, "rows": []},
     "u-action key 4 outside range"),
])
def test_cli_fixture_key_beyond_its_degree_exits_2(module, field, entry, message, tmp_path, capsys):
    path = tmp_path / "beyond.json"
    fixtures.save(module, path)
    doc = json.loads(path.read_text())
    doc[field].append(entry)
    path.write_text(json.dumps(doc))
    assert cli_main(["compute", "module", "--module", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_cli_deterministic_output(capsys):
    argv = ["verify", "--check", "T14", "--max-degree", "6", "--seed", "5"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "'seed': 5" in first or "seed" in first


def test_cli_failing_check_exit_code(tmp_path, capsys):
    # drive a failure through the public surface: a corrupted fixture file
    H = polynomial_module(1, 5)
    path = tmp_path / "h.json"
    fixtures.save(H, path)
    doc = json.loads(path.read_text())
    doc["action"].append({"i": 1, "n": 2, "rows": ["1"]})
    path.write_text(json.dumps(doc))
    res = run_check(make_spec("T9", D=5, fixture_file=str(path)))
    text = report([res], "text")
    assert "FAIL" in text and "witness:" in text


@pytest.mark.parametrize("argv, code", [
    (["verify", "--all", "--max-degree", "1"], 2),
    (["verify", "--check", "T7", "--max-degree", "1"], 2),
    (["verify", "--check", "T1", "--max-degree", "1"], 0),
])
def test_cli_degree_below_a_checks_minimum_exits_2(argv, code, capsys):
    assert cli_main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err == "error: T7 needs a truncation degree of at least 2, got 1\n"
    else:
        assert "1/1 checks passed" in captured.out


def test_cli_t14_starts_at_degree_2(capsys):
    """At D = 1 nearly every random u-submodule is saturated, too few of
    them unsaturated for T14's agreement to show anything."""
    assert cli_main(["verify", "--check", "T14", "--max-degree", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: T14 needs a truncation degree of at least 2, got 1\n"


@pytest.mark.parametrize("what", ["rtilde", "fix"])
def test_cli_failing_equalizer_exits_1_with_one_line(what, monkeypatch, capsys):
    failed = Verdict(False, 4, "equalizer differs from the kernel in degree 0")
    monkeypatch.setattr(RealmCalculus, "equalizer_verdict", property(lambda self: failed))
    code = cli_main(["compute", what, "--module", "HV1", "--max-degree", "4"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"check failed: structural violation: {failed.witness}\n"


def test_t14_fails_when_every_trial_is_saturated(monkeypatch):
    """Agreement on one verdict only shows nothing: T14 needs both."""
    def saturated(X):
        return Verdict(True, X.ambient.D)

    monkeypatch.setattr(harness, "saturation_check", saturated)
    monkeypatch.setattr(harness, "generator_space",
                        lambda X: fulu.GeneratorSpace({}, saturated(X)))
    res = run_check(make_spec("T14", D=6))
    assert not res.passed
    assert res.witness == "only 100 of 100 trials saturated; need at least 5 of each"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_flipped_bit_in_sq1_of_hxh_fails_t6(n, monkeypatch):
    """T6 compares the image of the product map with the span R1(H (x) H),
    which reads Sq^1 of H (x) H on degree n for 2n <= D.  A copy with the
    first bit of Sq^1 on degree n flipped gives another span there."""
    real = singer.tensor_with_layout

    def flipped(M, N):
        T, layout = real(M, N)
        act = dict(T.action_items())
        rows = act[(1, n)].row_ints()
        rows[0] ^= 1
        act[(1, n)] = BitMatrix.from_row_ints(rows, T.dims[n + 1])
        return TruncatedModule(T.name, T.D, T.dims, act, T.labels), layout

    monkeypatch.setattr(singer, "tensor_with_layout", flipped)
    res = run_check(make_spec("T6", D=8))
    assert not res.passed
    assert res.witness == f"image: image differs from the span in degree {2 * n}"


def test_a_saturation_check_that_passes_an_unsaturated_trial_fails_t15(monkeypatch):
    """An unsaturated X has some y outside X with u y in X, so u kills the
    class of y in the quotient: T15 sees the torsion of the one trial that
    the check reports saturated although it is not."""
    real = harness.saturation_check
    calls, lied = [], []

    def lenient(X):
        calls.append(X)
        verdict = real(X)
        if verdict.ok or lied:
            return verdict
        lied.append(len(calls) - 1)
        return Verdict(True, verdict.certified_degree)

    monkeypatch.setattr(harness, "saturation_check", lenient)
    res = run_check(make_spec("T15", D=8))
    assert not res.passed and lied
    assert res.witness.startswith(
        f"trial {lied[0]}: saturated subspace with torsion quotient: u kills ")


def test_t14_and_t15_read_no_cokernel_projection_and_no_augmentation_matrix(monkeypatch):
    """On scalar extensions saturation counts shifted pivot rows, the spans
    shift their unseeded degrees and the augmentation is a column selection.
    Neither T14 nor T15 takes a dense cokernel projection: the quotients of
    T15's saturated trials project by the operator ``SubspaceProjection``."""
    counts = Counter()
    real = unstable._coker_data

    def counting(*args):
        counts["coker"] += 1
        return real(*args)

    def refuse(self, n):
        raise AssertionError("eps_mat read")

    for mod in (unstable, fulu):
        monkeypatch.setattr(mod, "_coker_data", counting)
    monkeypatch.setattr(fulu.ExtendedModule, "eps_mat", refuse)
    D = 10
    assert run_check(make_spec("T14", D=D)).passed
    assert counts["coker"] == 0
    res = run_check(make_spec("T15", D=D))
    assert res.passed and res.tables["saturated"][0] > 0
    assert counts["coker"] == 0


def test_t13_witnesses_the_first_violation_of_a_map_that_is_not_a_module_map(monkeypatch):
    """A comparison from the free module that kills its generator fails T13,
    and the witness is the first violation, not a list of them."""
    real = harness.sym_lambda

    def broken(D):
        sl = real(D)
        f = sl.from_free
        mats = {n: f.mat(n) for n in range(f.D + 1)}
        mats[2] = BitMatrix.zeros(mats[2].nrows, mats[2].ncols)
        return dataclasses.replace(sl, from_free=unstable.ModuleMap(f.source, f.target, mats, D=f.D))

    monkeypatch.setattr(harness, "sym_lambda", broken)
    res = run_check(make_spec("T13", D=6))
    assert not res.passed
    assert res.witness == "comparison from the free module: not A-linear at (i=1, n=2)"


def test_cli_r1_refuses_an_unstable_fixture(tmp_path, capsys):
    path = tmp_path / "unstable.json"
    fixtures.save(polynomial_module(1, 5), path)
    doc = json.loads(path.read_text())
    doc["action"].append({"i": 2, "n": 1, "rows": ["1"]})  # Sq^2 on a degree-one class
    path.write_text(json.dumps(doc))
    argv = ["--module", str(path), "--max-degree", "5"]
    assert cli_main(["compute", "r1"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "instability violated at (i=2, n=1)" in captured.err
    # compute module still reports the violation as data
    assert cli_main(["compute", "module"] + argv) == 0
    assert "instability violated at (i=2, n=1)" in capsys.readouterr().out
