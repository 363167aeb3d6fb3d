import json

import pytest

from usteen import fixtures, harness
from usteen.cli import main as cli_main
from usteen.fulu import extend_scalars, fulu_algebra
from usteen.harness import (
    CATALOG,
    make_spec,
    poincare_coeffs,
    report,
    run_all,
    run_check,
)
from usteen.lannes import RealmCalculus
from usteen.unstable import free_unstable, polynomial_module


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
    assert back.underlying == N.underlying
    for n in range(8):
        assert back.u_mat(n) == N.u_mat(n)


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
