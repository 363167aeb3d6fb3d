import dataclasses
import json
import random
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from usteen import _gf2py, cli, fixtures, fulu, harness, lannes, singer, unstable
from usteen.cli import main as cli_main
from usteen.f2core import BitMatrix, Subspace
from usteen.fulu import GradedSubspace, extend_scalars
from usteen.harness import (
    CATALOG,
    make_spec,
    poincare_coeffs,
    report,
    run_all,
    run_check,
)
from usteen.lannes import RealmCalculus
from usteen.unstable import TruncatedModule, Verdict, free_unstable, polynomial_module

from reference import clear_memos, drop_u0_copies, flip_bit


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
        clear_memos()
        alone[cid] = run_check(make_spec(cid, D=6, max_rank=2)).to_dict()
    clear_memos()
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
    results = run_all(D=6, max_rank=3, only=SHARED_CALCULUS)
    assert all(r.passed for r in results)
    assert len(built) == len(set(built)) == 3
    assert lannes._calculus.cache_info().misses == 3


@pytest.mark.parametrize("D", [6, 7])
def test_t8_compares_the_division_term_through_degree_D(D, monkeypatch):
    """A division term one dimension too large in its top degree makes the
    cokernel's indecomposables disagree with it only in degree D."""
    real = lannes.AlphaResult.div_dims.func

    def grown(ar):
        dims = real(ar)
        return dims[:-1] + (dims[-1] + 1,)

    monkeypatch.setattr(lannes.AlphaResult, "div_dims", property(grown))
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


RANK_LOOPING = ["T1", "T2", "T3", "T8", "T11"]


@pytest.mark.parametrize("cid", RANK_LOOPING)
def test_a_rank_looping_check_refuses_a_maximal_rank_below_one(cid):
    """At max_rank 0 the check's loop over ranks 1..max_rank runs no rank,
    and it would pass with empty tables: make_spec refuses it, and so does
    run_all, as the CLI's parser refuses --max-rank 0."""
    for max_rank in (0, -1):
        with pytest.raises(ValueError, match=f"max_rank must be at least 1, got {max_rank}"):
            make_spec(cid, D=6, max_rank=max_rank)
        with pytest.raises(ValueError, match="max_rank must be at least 1"):
            run_all(D=6, max_rank=max_rank, only=[cid])
    assert run_check(make_spec(cid, D=6, max_rank=1)).passed


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


@pytest.mark.parametrize("row", ["0a1", "1_0", " 10", "10\n", "01", "0101", ["1", "0", "1"]])
def test_a_fixture_row_that_is_not_three_binary_digits_is_refused(row, tmp_path, capsys):
    """Rows are 0/1 strings of the target's width: int(row, 2) alone would
    take "1_0", " 10" and "10\\n".  The CLI refuses each with exit 2."""
    doc = {"name": "x", "D": 2, "dims": [0, 1, 3], "action": [{"i": 1, "n": 1, "rows": ["101"]}]}
    assert fixtures.module_from_dict(doc).sq(1, 1) == BitMatrix.from_rows([[1, 0, 1]])
    doc["action"][0]["rows"] = [row]
    with pytest.raises(ValueError, match=r"^bad bit row .* \(expected 3 binary digits\)$"):
        fixtures.module_from_dict(doc)
    path = tmp_path / "row.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["compute", "module", "--module", str(path), "--max-degree", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot build module") and "bad bit row" in err


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


NAMED_MODULES = ["F0", "F1", "F2", "F3", "HV1", "HV2", "PhiF1", "SigmaF", "F1xF1"]
FLIPPED_FIXTURE = "hv2_sq1_flipped.json"  # H(V2) at D=6, one bit of Sq^1 on degree 2 flipped


def test_module_compute_outputs_match_the_committed_oracle(capsys):
    """``compute module`` and ``compute r1`` on the named modules at D=6 and
    12, and ``compute module`` on a fixture with a flipped Adem bit, print
    what ``tests/data/compute_module.json`` holds, byte for byte."""
    committed = json.loads((DATA / "compute_module.json").read_text())
    out = {}
    for what in ("module", "r1"):
        for D in (6, 12):
            for name in NAMED_MODULES:
                argv = ["compute", what, "--module", name, "--max-degree", str(D)]
                assert cli_main(argv + ["--format", "json"]) == 0
                out[" ".join(argv)] = capsys.readouterr().out
    argv = ["compute", "module", "--module", str(DATA / FLIPPED_FIXTURE), "--max-degree", "6"]
    assert cli_main(argv + ["--format", "json"]) == 0
    out[f"compute module --module {FLIPPED_FIXTURE} --max-degree 6"] = capsys.readouterr().out
    assert out == committed
    flipped = json.loads(out[f"compute module --module {FLIPPED_FIXTURE} --max-degree 6"])
    assert flipped["valid"] is False and flipped["violations"] == [
        "Adem coherence fails for Sq^1Sq^1 on degree 1",
        "Adem coherence fails for Sq^1Sq^1 on degree 2",
        "Adem coherence fails for Sq^2Sq^2 on degree 2",
    ]
    # compute r1 refuses the fixture, naming its first violation
    assert cli_main(["compute", "r1"] + argv[2:]) == 2
    assert capsys.readouterr().err.endswith("Adem coherence fails for Sq^1Sq^1 on degree 1\n")


def oracle_requests():
    """(argv, committed output) of every request of ``compute_realm.json``
    and ``compute_module.json``, in the files' order."""
    out = []
    for name in ("compute_realm.json", "compute_module.json"):
        for line, text in json.loads((DATA / name).read_text()).items():
            argv = line.split()
            if argv[3] == FLIPPED_FIXTURE:
                argv[3] = str(DATA / FLIPPED_FIXTURE)
            out.append((argv + ["--format", "json"], text))
    return out


@pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
def test_compute_outputs_match_the_oracles_in_any_order_in_one_process(order, capsys):
    """Each request prints its committed output byte for byte whichever
    requests filled the shared calculi and modules before it, and so does
    ``verify --all`` after the whole grid."""
    requests = oracle_requests()
    if order == "reversed":
        requests.reverse()
    elif order == "shuffled":
        random.Random(3).shuffle(requests)
    for argv, text in requests:
        assert cli_main(argv) == 0, argv
        assert capsys.readouterr().out == text, argv
    assert cli_main(["verify", "--all", "--format", "json"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_all.json").read_text()


def check_docs(results):
    return {doc["check_id"]: doc for doc in json.loads(report(results, "json"))["checks"]}


@pytest.fixture(scope="module")
def catalogs():
    """(params, the committed report, run_all's report) for each oracle file."""
    clear_memos()
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
        clear_memos()
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


def equalizer_verdict_by(fn):
    """``fn`` as ``RealmCalculus.equalizer_verdict``, cached per calculus
    like the property it replaces."""
    prop = cached_property(fn)
    prop.__set_name__(RealmCalculus, "equalizer_verdict")
    return prop


def test_rank3_catalog_does_each_piece_of_realm_work_once(monkeypatch):
    equalizers = Counter()
    check = RealmCalculus.equalizer_verdict.func

    def counting(self):
        equalizers[self.X.name] += 1
        return check(self)

    monkeypatch.setattr(RealmCalculus, "equalizer_verdict", equalizer_verdict_by(counting))
    polys = record_calls(monkeypatch, unstable.polynomial_module,
                         lambda r, D, *a, name=None, **k: name or (r, D))
    extended = record_calls(monkeypatch, fulu.extend_scalars, lambda M: M.name)
    assert all(r.passed for r in run_all(D=8, max_rank=3, only=RANK3_CHECKS))
    ranks = range(1, 4)
    assert equalizers == {f"H(V{r})": 1 for r in ranks}
    # F[u], the left factor of every scalar extension, is built only when an
    # extension's action or labels are read, and none of these checks reads them
    assert polys == {(r, 8): 1 for r in ranks}
    # each H(V_r) once, shared by taubar, the invariants and the squaring
    # span; no expansion: taubar and the equalizer are read off the Lucas
    # terms, with no sigma or tau into F[u] (x) TX
    assert extended == {f"H(V{r})": 1 for r in ranks}


def test_t8_builds_no_kernel_of_alpha_and_no_div_and_t12_one_kernel(monkeypatch):
    """T8 reads the division term's dims off alpha's ranks (``div_dims``);
    the kernel of alpha and its cokernel module ``div`` are built only when
    read, and T12 reads the kernel once.  A whole catalog, where T13 reads
    it too, takes it once: T12 and T13 share the division data."""
    kernels = record_calls(monkeypatch, unstable.kernel_of, lambda f: f.name)
    quotients = record_calls(monkeypatch, unstable.quotient, lambda M, bases, name: name)
    assert all(r.passed for r in run_all(D=8, max_rank=2, only=["T8"]))
    assert kernels["alpha"] == 0 and quotients["coker(alpha)"] == 0
    assert kernels  # the loop modules' kernels of Sq0 were counted
    assert run_check(make_spec("T12", D=8)).passed
    assert kernels["alpha"] == 1 and quotients["coker(alpha)"] == 0
    kernels.clear()
    assert all(r.passed for r in run_all(D=14, max_rank=2))
    assert kernels["alpha"] == 1


def test_t8_certifies_the_linearity_of_taubar_once_per_calculus(monkeypatch):
    """The linearity verdict of taubar is a property of the shared calculus:
    two runs of T8 read one verdict per rank."""
    verdicts = record_calls(monkeypatch, fulu.u_linear_verdict, lambda f: f.name)
    for _ in range(2):
        assert run_check(make_spec("T8", D=6, max_rank=2)).passed
    assert verdicts == {"taubar": 2}


def test_t7_and_t8_read_taubar_on_its_layer_and_take_exactness_only_of_q(monkeypatch):
    """T7 and T8 read the exactness of taubar's sequence off one verdict on
    its u^0 layer: no matrix of taubar is placed, T8 takes no quotient of
    bar, and ``exact_sequence`` runs only on the sequences of
    indecomposables."""
    placed = Counter()
    mat = fulu.ULinearMap.mat

    def counting(self, n):
        placed[self.name] += 1
        return mat(self, n)

    monkeypatch.setattr(fulu.ULinearMap, "mat", counting)
    quotients = record_calls(monkeypatch, unstable.quotient, lambda M, bases, name: M.name)
    sequences = record_calls(monkeypatch, unstable.exact_sequence, lambda maps, names: names)
    assert all(r.passed for r in run_all(D=8, max_rank=2, only=["T7", "T8"]))
    assert placed["taubar"] == 0
    assert quotients and not [name for name in quotients if name.startswith("bar(")]
    assert sequences == {
        ("doubled base", "base", "suspended loop module"): 1,
        ("doubled base", "base", "suspended reduced part", "division term"): 2,
    }


def test_t7_t8_and_t11_build_one_loop_module_per_rank(monkeypatch):
    """The loop-functor data of H(V_r) is the shared calculus's ``omega``."""
    built = record_calls(monkeypatch, unstable.omega, lambda M: M.name)
    monkeypatch.setattr(lannes, "omega_of", harness.omega)  # the calculus's binding
    assert all(r.passed for r in run_all(D=8, max_rank=2, only=["T7", "T8", "T11"]))
    assert built == {"H(V1)": 1, "H(V2)": 1}


@pytest.mark.parametrize("order", [["T1", "T2", "T3"], ["T3", "T2", "T1"]])
def test_a_failing_equalizer_verdict_fails_every_check_that_reads_it(order, monkeypatch):
    """The verdict is certified once per shared calculus; a failing one is
    read, not recomputed, by the later checks, and fails each of them."""
    calls = []

    def failing(self):
        calls.append(self.X.name)
        return Verdict(False, self.D, "forced mismatch")

    monkeypatch.setattr(RealmCalculus, "equalizer_verdict", equalizer_verdict_by(failing))
    results = [run_check(make_spec(cid, D=6, max_rank=1)) for cid in order]
    assert [(r.id, r.passed, r.witness) for r in results] == [
        (cid, False, "structural violation: forced mismatch") for cid in order]
    assert calls == ["H(V1)"]


def test_a_failing_certificate_fails_every_compute_request_that_reads_it(monkeypatch, capsys):
    """``compute`` reads the process's one calculus: its equalizer verdict
    is certified once, and a failing one fails each request after it with
    the same stderr line, whichever target reads it."""
    calls = []

    def failing(self):
        calls.append(self.X.name)
        return Verdict(False, self.D, "forced mismatch")

    monkeypatch.setattr(RealmCalculus, "equalizer_verdict", equalizer_verdict_by(failing))
    outcomes = []
    for what in ("rtilde", "rtilde", "fix"):
        code = cli_main(["compute", what, "--module", "HV2", "--max-degree", "6"])
        out, err = capsys.readouterr()
        outcomes.append((code, out, err))
    assert outcomes == [(1, "", "check failed: structural violation: forced mismatch\n")] * 3
    assert calls == ["H(V2)"]


def test_compute_module_validates_a_shared_module_on_every_request(monkeypatch, capsys):
    """A built-in module is built once per process, and ``compute module``
    checks its axioms on every request: a failing report is printed by each."""
    reports = []

    def failing(M, sq):
        reports.append(M.name)
        return unstable.ValidationReport(["forced violation"])

    monkeypatch.setattr(unstable, "_axiom_report", failing)
    argv = ["compute", "module", "--module", "HV2", "--max-degree", "6", "--format", "json"]
    docs = []
    for _ in range(2):
        assert cli_main(argv) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert [(doc["valid"], doc["violations"]) for doc in docs] == [(False, ["forced violation"])] * 2
    assert reports == ["H(V2)", "H(V2)"]
    assert cli._builtin_module.cache_info().misses == 1


REALM_GRID = [["compute", what, "--module", realm, "--max-degree", str(D)]
              for D in (6, 8, 10) for realm in ("HV1", "HV2", "S1HV1", "S2HV1")
              for what in ("rtilde", "fix")]
REALM_GRID += [["compute", "invariants", "--rank", str(r), "--max-degree", str(D)]
               for D in (6, 8, 10) for r in (1, 2)]


def test_a_compute_grid_builds_one_calculus_per_realm_and_degree(capsys):
    """rtilde, fix and invariants over four realms at three degrees read
    one calculus per (realm, degree); the invariants of rank r share the
    calculus of HV<r>."""
    for argv in REALM_GRID:
        assert cli_main(argv) == 0
    capsys.readouterr()
    info = lannes._calculus.cache_info()
    assert (info.misses, info.hits) == (12, len(REALM_GRID) - 12)


def test_compute_and_verify_share_one_calculus(capsys):
    """T16 reads H(V1), its suspension and a sum with a locally finite
    module; ``compute`` reads the first two from the same memo."""
    assert cli_main(["compute", "fix", "--module", "S1HV1", "--max-degree", "6"]) == 0
    assert cli_main(["verify", "--check", "T16", "--max-degree", "6"]) == 0
    assert cli_main(["compute", "rtilde", "--module", "HV1", "--max-degree", "6"]) == 0
    capsys.readouterr()
    info = lannes._calculus.cache_info()
    assert (info.misses, info.hits) == (3, 2)


def test_a_realm_and_its_zero_fold_suspension_keep_their_own_calculi(capsys):
    """The memo's key holds the realm's name, which reaches the output:
    ``HV1`` and ``S0HV1`` have one summand each, the same, and two calculi."""
    names = []
    for realm in ("HV1", "S0HV1", "HV1"):
        argv = ["compute", "rtilde", "--module", realm, "--max-degree", "4", "--format", "json"]
        assert cli_main(argv) == 0
        names.append(json.loads(capsys.readouterr().out)["name"])
    assert names == ["Rtilde(H(V1))", "Rtilde(S^0(H(V1)))", "Rtilde(H(V1))"]
    info = lannes._calculus.cache_info()
    assert (info.misses, info.hits) == (2, 1)
    with pytest.raises(TypeError, match="plain realm object, not a TExpansion"):
        lannes.calculus(lannes.t_apply(lannes.hv(1, 4)))


def test_a_named_module_is_built_once_and_a_fixture_loaded_on_every_request(monkeypatch,
                                                                           tmp_path, capsys):
    """``compute module`` and ``compute r1`` on a built-in name build its
    module once; a fixture file is read on every request, so a file
    rewritten between two requests gives the second its new module."""
    for what in ("module", "r1"):
        assert cli_main(["compute", what, "--module", "F1xF1", "--max-degree", "8"]) == 0
    info = cli._builtin_module.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    loads = record_calls(monkeypatch, fixtures.load, lambda path: Path(path).name)
    path = tmp_path / "m.json"
    dims = []
    for degree in (1, 2):
        fixtures.save(free_unstable(degree, 4), path)
        for what in ("module", "r1"):
            capsys.readouterr()
            assert cli_main(["compute", what, "--module", str(path), "--max-degree", "4",
                             "--format", "json"]) == 0
            dims.append(json.loads(capsys.readouterr().out)["dims"])
    assert dims[0::2] == [[0, 1, 1, 0, 1], [0, 0, 1, 1, 1]]
    assert loads == {"m.json": 4}
    assert cli._builtin_module.cache_info().misses == 1


@pytest.mark.parametrize("run", ["T3", "T7", "compute fix"])
def test_fix_part_dims_are_read_on_their_layouts(run, monkeypatch, capsys):
    """T3, T7 and ``compute fix`` read the dims of the parts of Fix(taubar)
    off their block layouts, so none of them builds a part's module."""
    calcs = []

    class Recording(RealmCalculus):
        def __init__(self, X):
            super().__init__(X)
            calcs.append(self)

    monkeypatch.setattr(lannes, "RealmCalculus", Recording)
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


def test_t14_and_t15_read_no_cokernel_projection_and_no_augmentation_matrix(monkeypatch):
    """On scalar extensions saturation counts shifted pivot rows, the spans
    shift their unseeded degrees and the augmentation is a mask.
    Neither T14 nor T15 reads a cokernel projection as a matrix: T14 builds
    no quotient, and the quotients of T15's saturated trials project by the
    operator of ``unstable.quotient``."""
    counts = Counter()
    real_quotient, real_mat = unstable.quotient, unstable.Quotient.mat

    def counting_quotient(*args):
        counts["quotient"] += 1
        return real_quotient(*args)

    def counting_mat(self, n):
        counts["mat"] += 1
        return real_mat(self, n)

    def refuse(self, n):
        raise AssertionError("eps_mat read")

    for mod in (harness, fulu):
        monkeypatch.setattr(mod, "quotient", counting_quotient)
    monkeypatch.setattr(unstable.Quotient, "mat", counting_mat)
    monkeypatch.setattr(fulu.ExtendedModule, "eps_mat", refuse)
    D = 10
    assert run_check(make_spec("T14", D=D)).passed
    assert counts == {}
    res = run_check(make_spec("T15", D=D))
    assert res.passed and res.tables["saturated"][0] > 0
    assert counts == {"quotient": res.tables["saturated"][0]}


def test_t14_eliminates_once_per_seeded_degree_and_generator_space_never(monkeypatch):
    """Every elimination goes through the kernel's ``rref_inplace``.  T14's
    subspaces, style 2 included, are one ``from_vectors`` each, which
    eliminates each seeded degree once and shifts the others; saturation
    counts shifted pivots and ``generator_space`` files rows in a lead
    table, so neither eliminates."""
    counts = Counter()
    real_rref, real_from_vectors = _gf2py.rref_inplace, GradedSubspace.from_vectors.__func__
    real_generators = harness.generator_space

    def counting_rref(*args):
        counts["rref"] += 1
        return real_rref(*args)

    def counting_from_vectors(cls, ambient, seeds):
        counts["trials"] += 1
        counts["seeded"] += sum(1 for rows in seeds.values() if rows)
        return real_from_vectors(cls, ambient, seeds)

    def counting_generators(X):
        before = counts["rref"]
        gs = real_generators(X)
        counts["rref in generator_space"] += counts["rref"] - before
        return gs

    monkeypatch.setattr(_gf2py, "rref_inplace", counting_rref)
    monkeypatch.setattr(GradedSubspace, "from_vectors", classmethod(counting_from_vectors))
    monkeypatch.setattr(harness, "generator_space", counting_generators)
    assert run_check(make_spec("T14", D=10)).passed
    assert counts["trials"] == 100 and counts["seeded"] > 100
    assert counts["rref"] == counts["seeded"]
    assert counts["rref in generator_space"] == 0


def with_a_flipped_square(M):
    """M with bit 0 of row 0 of its first stored Sq matrix flipped; M itself
    when it stores none."""
    act = dict(M.action_items())
    if not act:
        return M
    key = min(act)
    act[key] = flip_bit(act[key], 0, 0)
    return TruncatedModule(M.name, M.D, M.dims, act, M.labels)


@pytest.mark.parametrize("cid, where, witness", [
    ("T5", singer, "F(1): projection linearity: not A-linear at (i=2, n=2)"),
    ("T13", unstable, "diagonal extraction linearity: not A-linear at (i=2, n=2)"),
    ("T17", singer, "F(1) projection linearity: not A-linear at (i=2, n=2)"),
])
def test_a_flipped_bit_in_the_doubled_module_fails_its_linearity_check(cid, where, witness,
                                                                        monkeypatch):
    """T5 and T17 map R1(M) onto Ph(M) (``rho1``), T13 maps the symmetric
    invariants onto Ph(F(1)) (``sym_lambda``'s ``diag``).  With the first
    stored Sq matrix of Ph(M) off by one bit, the map's ``validate_linear``
    fails, and the check names its first violation."""
    real = unstable.phi
    monkeypatch.setattr(where, "phi", lambda M: with_a_flipped_square(real(M)))
    res = run_check(make_spec(cid, D=8))
    assert not res.passed
    assert res.witness == witness


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


# -- named mutations: each drives its check to FAIL through its own comparison ------


def image_of_taubar_gains_a_top_vector(monkeypatch):
    """T7, the rank leg of the image verdict: the image of taubar gains the
    first unit vector of bar outside it in the top degree.  Nothing leaves
    the top degree, so the span is still a u-submodule over A, and taubar
    still lies in it, but its dimension exceeds taubar's rank."""
    real = lannes.RealmCalculus.taubar_image.func

    def gained(calc):
        X, top = real(calc), calc.D
        width = calc.bar.dim(top)
        extra = next(1 << c for c in range(width) if not X.subspace(top).contains_vector(1 << c))
        rows = BitMatrix.from_row_ints(X.bases[top].row_ints() + [extra], width)
        Y = GradedSubspace.__new__(GradedSubspace)
        Y.ambient, Y.bases = X.ambient, {**X.bases, top: Subspace.from_rows(rows).basis}
        return Y

    monkeypatch.setattr(lannes.RealmCalculus, "taubar_image", property(gained))


def image_of_taubar_swaps_two_components(monkeypatch):
    """T8, the image leg of the image verdict: the image of taubar is moved
    by the u-linear automorphism of bar that swaps the copies of H(V_r) at
    the first two nonzero v, for r >= 2.  It is a u-submodule of bar of the
    same dimension in every degree, so the rank leg passes, but taubar's
    value on t1*t2 lies outside it."""
    real = lannes.RealmCalculus.taubar_image.func

    def swapped(calc):
        X = real(calc)
        if len(calc.tbar.components) < 2:
            return X
        bases = {}
        for n, basis in X.bases.items():
            moves = []
            for a, off, _ in calc.bar.blocks(n):
                (p, w), (q, _) = calc.tbar.table.block(n - a, 0), calc.tbar.table.block(n - a, 1)
                moves.append((off + p, off + q, (1 << w) - 1))
            rows = []
            for r in basis.row_ints():
                for p, q, mask in moves:
                    x = (r >> p ^ r >> q) & mask
                    r ^= x << p | x << q
                rows.append(r)
            bases[n] = Subspace.from_rows(BitMatrix.from_row_ints(rows, basis.ncols)).basis
        Y = GradedSubspace.__new__(GradedSubspace)
        Y.ambient, Y.bases = X.ambient, bases
        return Y

    monkeypatch.setattr(lannes.RealmCalculus, "taubar_image", property(swapped))


def squaring_span_doubles_a_row(monkeypatch):
    """T2: in the first degree where the squaring span has two rows, its
    second row is a copy of its first.  The row count still equals the
    kernel's, but the span is smaller."""
    real = singer.SingerModule.gen_matrix

    def doubled(S, n):
        m = real(S, n)
        if m.nrows >= 2 and all(real(S, k).nrows < 2 for k in range(n)):
            rows = m.row_ints()
            return BitMatrix.from_row_ints([rows[0], rows[0]] + rows[2:], m.ncols)
        return m

    monkeypatch.setattr(singer.SingerModule, "gen_matrix", doubled)


def fixed_kernel_loses_a_summand(monkeypatch):
    """T3: the kernel part of Fix(taubar) loses its last summand, so its
    block layout no longer has the module's dims; the fixed-point verdicts,
    read on the component matrices, still pass."""
    real = lannes.RealmCalculus.fix_parts.func

    def lost(calc):
        parts = dict(real(calc))
        k = parts["kernel"]
        parts["kernel"] = lannes.RealmObject(k.summands[:-1], k.D, name=k.name)
        return parts

    monkeypatch.setattr(lannes.RealmCalculus, "fix_parts", property(lost))


def sq0_cokernel_of_the_square_loses_a_class(monkeypatch):
    """T10: the cokernel of Sq0 on H(Z/2) (x) H(Z/2) is taken modulo its
    image and the first unit vector of degree 5 outside it, so the loop
    module of the square is one too small in degree 4.  The image of Sq0
    lies in even degrees, and the desuspension reads only top squares, which
    land there, so it still passes."""
    real = unstable.quotient

    def lost(M, bases, name):
        if name == "coker(Sq0_H(Z/2)(x)H(Z/2))":
            space = Subspace(M.dims[5], bases[5])
            extra = next(1 << c for c in range(M.dims[5]) if not space.contains_vector(1 << c))
            rows = BitMatrix.from_row_ints(bases[5].row_ints() + [extra], M.dims[5])
            bases = [Subspace.from_rows(rows).basis if n == 5 else b for n, b in enumerate(bases)]
        return real(M, bases, name)

    monkeypatch.setattr(unstable, "quotient", lost)


def loop_module_sq0_loses_a_bit(monkeypatch):
    """T11: one bit of Sq0 on the loop module, the lowest set bit of the
    first nonzero row of the lowest stored Sq^n on degree n, is cleared."""
    real = lannes.omega_of

    def flipped(M):
        ft = real(M)
        act = dict(ft.omega.action_items())
        n = min(n for i, n in act if i == n)
        rows = act[(n, n)].row_ints()
        row = next(j for j, r in enumerate(rows) if r)
        act[(n, n)] = flip_bit(act[(n, n)], row, (rows[row] & -rows[row]).bit_length() - 1)
        om = ft.omega
        return dataclasses.replace(ft, omega=TruncatedModule(om.name, om.D, om.dims, act, om.labels))

    monkeypatch.setattr(lannes, "omega_of", flipped)


def _with_generators(monkeypatch, change):
    """Patch ``lannes._st1_generators`` so that the generator rows of the
    first degree with at least two of them go through ``change``."""
    real = lannes._st1_generators

    def changed(X, E, d):
        rows = real(X, E, d)
        if len(rows) >= 2 and not any(len(real(X, E, k)) >= 2 for k in range(d)):
            rows = change(rows)
        return rows

    monkeypatch.setattr(lannes, "_st1_generators", changed)


def kernel_rows_share_a_lowest_bit(monkeypatch):
    """T1, leg (a): the second generator gains the lowest bit of the first,
    which lies below its own, so two rows of the closed basis lead with one
    bit."""
    _with_generators(monkeypatch, lambda rows: [rows[0], rows[1] ^ (rows[0] & -rows[0])] + rows[2:])


def kernel_generator_loses_a_bit(monkeypatch):
    """T1, leg (b): the highest bit of the first St1 generator of rank 1,
    [u|t] of St1(t) = t^2 + u t, is cleared, so taubar no longer kills it
    though its lowest bit is unchanged."""
    real = lannes._st1_generators

    def flipped(X, E, d):
        rows = real(X, E, d)
        if d == 2 and rows:
            rows[0] ^= 1 << (rows[0].bit_length() - 1)
        return rows

    monkeypatch.setattr(lannes, "_st1_generators", flipped)


def taubar_layer_loses_a_row(monkeypatch):
    """T1, leg (c): taubar's u^0 row of the last monomial of degree D - 1,
    t^7 at rank 1, is zeroed.  No generator reads that row, so taubar still
    kills the closed basis, but its rank in degree 7 falls short."""
    real = lannes.RealmCalculus.taubar.func

    def zeroed(calc):
        f = real(calc)
        layer = [list(rows) for rows in f.layer]
        layer[calc.D - 1][-1] = 0
        return fulu.ULinearMap(f.source, f.target, layer, name="taubar")

    monkeypatch.setattr(lannes.RealmCalculus, "taubar", property(zeroed))


def twist_gains_a_term(monkeypatch):
    """T1, the invariants' leg (b): g_1 + id on t^2 gains u t, as if C(2, 1)
    were odd, so it no longer kills St1(t) = t^2 + u t.  t^2 is the lowest
    bit of a row in every degree, so the rank leg never reads its row;
    taubar, read through the Lucas terms, still kills St1(t)."""
    real = lannes._twist_plus_id

    def gained(mono, i):
        terms = real(mono, i)
        return terms + [(1, (1,))] if (mono, i) == ((2,), 0) else terms

    monkeypatch.setattr(lannes, "_twist_plus_id", gained)


def twist_loses_a_term(monkeypatch):
    """T1, the invariants' rank leg: g_1 + id on t loses its u term, so it
    kills t, which is no row's lowest bit."""
    real = lannes._twist_plus_id

    def lost(mono, i):
        return [] if (mono, i) == ((1,), 0) else real(mono, i)

    monkeypatch.setattr(lannes, "_twist_plus_id", lost)


def _with_patterns(monkeypatch, change):
    """Patch ``RealmCalculus._support_pattern``, which places each Lucas
    term of tau on every component it reaches, so that its patterns go
    through ``change(pattern, support, width)``."""
    real = lannes.RealmCalculus._support_pattern

    def changed(r, support, width):
        return change(real(r, support, width), support, width)

    monkeypatch.setattr(lannes.RealmCalculus, "_support_pattern", staticmethod(changed))


def tau_u0_term_misses_a_component(monkeypatch):
    """T2, the equalizer's first leg: every u^0 term of tau misses its copy
    in component 1, so it no longer equals sigma's row there.  The u^0
    block lies outside bar, so taubar and its kernel are unchanged."""
    _with_patterns(monkeypatch, lambda p, support, width: p if support else p & ~(1 << width))


def tau_term_reaches_component_0(monkeypatch):
    """T2, the equalizer's second leg: every positive-u term of tau lands
    on component 0 too, which no twist by a v containing its support is.
    Component 0 lies outside bar, so taubar and its kernel are unchanged."""
    _with_patterns(monkeypatch, lambda p, support, width: p | 1 if support else p)


def squaring_span_repeats_a_generator(monkeypatch):
    """T4: st1 of the second basis vector of the first degree with two of
    them is st1 of the first, so the distinguished generators of that
    fixture's squaring span are dependent."""
    real = singer.st1

    def repeated(M, ambient=None):
        mats = real(M, ambient)
        d = next((d for d in sorted(mats) if mats[d].nrows >= 2), None)
        if d is not None:
            rows = mats[d].row_ints()
            mats[d] = BitMatrix.from_row_ints([rows[0], rows[0]] + rows[2:], mats[d].ncols)
        return mats

    monkeypatch.setattr(singer, "st1", repeated)


def r1_u_drops_a_bit(monkeypatch):
    """T4: R1's closed-form u, the index map of u^k st1(b) onto
    u^(k+1) st1(b), drops the bit of its first row in its first nonzero
    degree, so u kills that generator.  Nothing compares this u with the
    ambient's shift; T4's torsion check sees it."""
    real = singer.FuluModule

    def dropped(*args, u):
        n = min(n for n, m in u.items() if m.nrows)
        rows = u[n].row_ints()
        return real(*args, u={**u, n: BitMatrix.from_row_ints([0] + rows[1:], u[n].ncols)})

    monkeypatch.setattr(singer, "FuluModule", dropped)


def taubar_u0_layer_gains_a_bit(monkeypatch):
    """T8: one bit of taubar's degree-1 u^0 layer is flipped.  The map is
    still u-linear, as every ``ULinearMap`` is, but no longer commutes with
    Sq^1 on the u^0 layer."""
    real = lannes.RealmCalculus.taubar.func

    def flipped(calc):
        f = real(calc)
        layer = [list(rows) for rows in f.layer]
        layer[1][0] ^= 1
        return fulu.ULinearMap(f.source, f.target, layer, name="taubar")

    monkeypatch.setattr(lannes.RealmCalculus, "taubar", property(flipped))


def division_kernel_loses_its_class(monkeypatch):
    """T12: the kernel of alpha, the first derived division term, is taken
    as zero, so the suspended unit it should be is lost."""
    def emptied(f):
        zero = {n: BitMatrix.zeros(0, f.source.dims[n]) for n in range(f.D + 1)}
        return unstable.submodule(f.source, zero, "ker(alpha)", f.D)

    monkeypatch.setattr(lannes, "kernel_of", emptied)


def every_trial_reads_saturated(monkeypatch):
    """T14: saturation and the generator criterion both call every trial
    saturated.  They agree, but agreement on one verdict only shows
    nothing: T14 needs both verdicts."""
    def saturated(X):
        return Verdict(True, X.ambient.D)

    monkeypatch.setattr(harness, "saturation_check", saturated)
    monkeypatch.setattr(harness, "generator_space",
                        lambda X: fulu.GeneratorSpace({}, saturated(X)))


def augmentation_mask_loses_a_column(monkeypatch):
    """T14, the generator criterion: the u^0 block of a scalar extension
    reads one column narrower, so the augmentation mask of
    ``generator_space`` drops the top column of M in every degree.  The
    generator rows of a saturated trial that differ only there fall to a
    lower rank, while saturation, which reads no block, still holds."""
    real = fulu.ExtendedModule.block

    def narrowed(E, n, a):
        off, width = real(E, n, a)
        return (off, width - 1) if a == 0 and width else (off, width)

    monkeypatch.setattr(fulu.ExtendedModule, "block", narrowed)


def saturation_passes_an_unsaturated_trial(monkeypatch):
    """T15: the first unsaturated trial is reported saturated.  It has some
    y outside X with u y in X, so u kills the class of y in the quotient,
    and T15 sees the torsion."""
    real = harness.saturation_check
    lied = []

    def lenient(X):
        verdict = real(X)
        if verdict.ok or lied:
            return verdict
        lied.append(X)
        return Verdict(True, verdict.certified_degree)

    monkeypatch.setattr(harness, "saturation_check", lenient)


def sum_calculus_misses_a_u0_copy(monkeypatch):
    """T16: a tau whose u^0 terms miss component 0, on the calculus of a sum
    only, leaves taubar, and so the kernel dims T16 compares, unchanged;
    only the equalizer verdict of the sum's calculus sees it."""
    real = lannes.RealmCalculus

    def broken_on_sums(X):
        calc = real(X)
        if len(X.summands) > 1:
            drop_u0_copies(calc, [0])
        return calc

    monkeypatch.setattr(lannes, "RealmCalculus", broken_on_sums)


# keyed by check id, then by the name of the mutation when a check has several
MUTATIONS = {
    "T1": (kernel_rows_share_a_lowest_bit, "structural violation: ker(taubar): row 1 of degree 2 "
           "shares its lowest bit [1|t2^2] with row 0"),
    "T1-generator-leaves-kernel": (kernel_generator_loses_a_bit,
                                   "structural violation: ker(taubar): taubar does not kill the "
                                   "u-generator [1|t^2] in degree 2"),
    "T1-rank-falls-short": (taubar_layer_loses_a_row,
                            "structural violation: ker(taubar): taubar falls short of rank "
                            "dim E - #rows in degree 7: its row at [1|t^7] is zero"),
    "T1-generator-not-invariant": (twist_gains_a_term,
                                   "structural violation: Inv(G,H(V1)): g_1 + id does not kill "
                                   "the u-generator [1|t^2]+[u|t] in degree 2"),
    "T1-invariant-rank-falls-short": (twist_loses_a_term,
                                      "structural violation: Inv(G,H(V1)): the stacked g_v + id "
                                      "falls short of rank dim E - #rows in degree 1: its row at "
                                      "[1|t] is zero"),
    "T2-equalizer-u0-term-misses-a-component": (
        tau_u0_term_misses_a_component, "structural violation: sigma + tau is not taubar in "
        "degree 0: its value on 1 has [1|<0:1>1] outside bar"),
    "T2-equalizer-term-reaches-component-0": (
        tau_term_reaches_component_0, "structural violation: sigma + tau is not taubar in "
        "degree 1: its value on t has [u|<0:0>1] outside bar"),
    "T2-squaring-span-row-doubled": (squaring_span_doubles_a_row, "rank 1: squaring span "
                                     "differs from the kernel in degree 2"),
    "T3": (fixed_kernel_loses_a_summand, "rank 1: fixed points of the kernel have wrong dims"),
    "T4": (squaring_span_repeats_a_generator, "structural violation: distinguished generators "
           "dependent in degree 6"),
    "T4-u-not-the-shift": (r1_u_drops_a_bit, "F(1): torsion: u kills st1(i1) in degree 2"),
    "T7": (image_of_taubar_gains_a_top_vector, "u-module sequence: its image has dimension 5, "
           "not taubar's rank 4, in degree 8"),
    "T8": (taubar_u0_layer_gains_a_bit,
           "rank 1: linearity of taubar: not A-linear at (i=1, n=1) on the u^0 layer"),
    "T8-image-span-differs": (image_of_taubar_swaps_two_components,
                              "rank 2: u-module sequence: taubar's value on t1*t2 lies outside "
                              "its image in degree 2"),
    "T10": (sq0_cokernel_of_the_square_loses_a_class,
            "loop alternating sum is -1 in degree 4"),
    "T11": (loop_module_sq0_loses_a_bit,
            "rank 1: loop module reducedness: Sq0 kills ds(t^3) in degree 2"),
    "T12": (division_kernel_loses_its_class, "first derived division term has dims "
            "[0, 0, 0, 0, 0, 0, 0], expected the suspended unit"),
    "T14": (every_trial_reads_saturated,
            "only 100 of 100 trials saturated; need at least 5 of each"),
    "T14-generator-criterion": (augmentation_mask_loses_a_column,
                                "trial 0: saturation=True but generator criterion=False "
                                "(augmentation image drops rank in degree 1)"),
    "T15": (saturation_passes_an_unsaturated_trial,
            "trial 2: saturated subspace with torsion quotient: u kills [1|t] in degree 1"),
    "T16": (sum_calculus_misses_a_u0_copy,
            "structural violation: sigma + tau is not taubar in degree 0: its value on [0]1 has "
            "[1|<0:0>1] outside bar"),
}


@pytest.mark.parametrize("check", sorted(MUTATIONS))
def test_a_named_mutation_fails_its_check_with_its_witness(check, monkeypatch):
    mutate, witness = MUTATIONS[check]
    spec = make_spec(check.split("-")[0], D=8, max_rank=2)
    assert run_check(spec).passed
    clear_memos()  # the mutated run builds and certifies everything again
    mutate(monkeypatch)
    res = run_check(spec)
    assert not res.passed
    assert res.witness == witness
