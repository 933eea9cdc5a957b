import json
import subprocess
import sys

import pytest

from childenv import child_env
from hallforge.cli import main


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text()


def test_enumerate(tmp_path):
    code, text = run_cli(["enumerate", "--quiver", "kronecker", "--p", "2",
                          "--grade", "1,1"], tmp_path)
    assert code == 0
    lines = [json.loads(x) for x in text.strip().split("\n")]
    assert len(lines) == 4
    assert sum(1 for rec in lines if rec["indec"]) == 3
    assert all(rec["dim"] == [1, 1] for rec in lines)
    # regular simples got a tube id from the tube pass
    assert sorted(rec["tube_id"] for rec in lines if rec["indec"]) == [0, 1, 2]


def test_enumerate_fills_tubes_from_defect_zero_grades(tmp_path):
    # Kronecker over GF(4): (1,4) and (4,1) hold no regular indecomposable, so
    # they ask for no tube up to 4 delta, whose censuses exceed the subspace
    # cap; beside (1,1) the tube ids of (1,1) are those it gets alone
    alone = run_cli(["enumerate", "--quiver", "kronecker", "--p", "2", "--k", "2",
                     "--grade", "1,1"], tmp_path)[1]
    for grade in ("1,4", "4,1"):
        code, text = run_cli(["enumerate", "--quiver", "kronecker", "--p", "2", "--k", "2",
                              "--grade", grade], tmp_path)
        lines = [json.loads(x) for x in text.strip().split("\n")]
        assert code == 0 and lines and all(rec["tube_id"] is None for rec in lines)
        assert {rec["pri_class"] for rec in lines if rec["indec"]} <= {
            "preprojective", "preinjective"}
        code, text = run_cli(["enumerate", "--quiver", "kronecker", "--p", "2", "--k", "2",
                              "--grade", "1,1", "--grade", grade], tmp_path)
        assert code == 0 and text.startswith(alone)


def test_enumerate_jordan(tmp_path):
    code, text = run_cli(["enumerate", "--quiver", "jordan", "--p", "2",
                          "--grade", "2"], tmp_path)
    assert code == 0
    assert len(text.strip().split("\n")) == 6
    code, text = run_cli(["enumerate", "--quiver", "kronecker", "--p", "2",
                          "--grade", "0,0"], tmp_path)
    assert len(text.strip().split("\n")) == 1  # the zero representation


def test_determinism(tmp_path):
    args = ["verify", "noyau", "--quiver", "kronecker", "--p", "2", "--r", "1,2"]
    _, a = run_cli(args, tmp_path, "a.json")
    _, b = run_cli(args, tmp_path, "b.json")
    assert a == b


def test_verify_suites_pass(tmp_path):
    cases = [
        ["verify", "noyau", "--quiver", "kronecker", "--p", "2", "--r", "1,2"],
        ["verify", "conj1", "--quiver", "kronecker", "--p", "2", "--r", "1,2"],
        ["verify", "conj2", "--quiver", "kronecker", "--p", "2", "--r", "1,2"],
        ["verify", "cancellation", "--quiver", "kronecker", "--p", "2", "--r", "1,2"],
        ["verify", "sigma", "--quiver", "kronecker", "--p", "2", "--r", "1"],
        ["verify", "hopf", "--quiver", "kronecker", "--p", "2",
         "--grade", "1,1", "--grade", "0,1", "--grade", "1,0"],
        ["verify", "pbw", "--quiver", "kronecker", "--p", "2", "--grade", "1,1"],
        ["verify", "pbw", "--quiver", "kronecker", "--p", "2", "--r", "1"],
        ["verify", "isotropic", "--quiver", "jordan", "--p", "2", "--grade", "1"],
        ["verify", "cuspCycl", "--quiver", "cyclic2", "--p", "2",
         "--nilpotent", "--grade", "1,1"],
        ["verify", "jordanClosedForm", "--quiver", "jordan", "--p", "2",
         "--grade", "1", "--grade", "2"],
    ]
    for args in cases:
        code, text = run_cli(args, tmp_path)
        reports = json.loads(text)
        assert code == 0, (args, text)
        assert reports and all(r["status"] == "pass" for r in reports), args


def test_delta_multiples_select_grades(tmp_path):
    base = ["enumerate", "--quiver", "kronecker", "--p", "2"]
    _, by_r = run_cli(base + ["--r", "1,2"], tmp_path, "r.json")
    _, by_grade = run_cli(base + ["--grade", "1,1", "--grade", "2,2"], tmp_path, "g.json")
    assert by_r == by_grade


def test_verify_reports_schema(tmp_path):
    code, text = run_cli(["verify", "noyau", "--quiver", "kronecker",
                          "--p", "2", "--r", "1"], tmp_path)
    rep = json.loads(text)[0]
    assert rep["check"] == "noyau"
    assert rep["q"] == 2
    assert rep["grade"] == [1, 1]
    assert "dims" in rep and "status" in rep


def test_xi_and_tubes(tmp_path):
    code, text = run_cli(["xi", "1", "2", "--p", "2"], tmp_path)
    rows = json.loads(text)
    assert code == 0
    assert rows[0]["xi"] == "1" and rows[1]["xi"] == "1/3"
    code, text = run_cli(["tubes", "--quiver", "kronecker", "--p", "2", "--r", "2"],
                         tmp_path)
    rows = json.loads(text)
    assert sorted(r["degree"] for r in rows) == [1, 1, 1, 2]


def test_kac(tmp_path):
    code, text = run_cli(["kac", "--quiver", "kronecker", "--r", "1"], tmp_path)
    rows = json.loads(text)
    assert code == 0
    assert rows[0]["kac_polynomial"] == "t + 1"


def test_kac_samples_read_nilpotent(tmp_path):
    # the nilpotent indecomposables of dimension delta of the cyclic quiver
    # on 3 vertices are its 3 segments of length 3 at every q; over all
    # representations the count is q + 2
    args = ["kac", "--quiver", "cyclic3", "--r", "1"]
    for extra, want in (([], "t + 2"), (["--nilpotent"], "3")):
        code, text = run_cli(args + extra, tmp_path)
        assert code == 0 and json.loads(text)[0]["kac_polynomial"] == want, extra
    code, text = run_cli(["kac", "--quiver", "kronecker", "--r", "1", "--nilpotent"], tmp_path)
    assert code == 2 and json.loads(text)["error"] == "HallforgeError"


def test_quiver_file_round_trip(tmp_path):
    qfile = tmp_path / "quiver.json"
    qfile.write_text(json.dumps(
        {"vertices": ["1", "2"], "arrows": [[0, 1], [0, 1]]}))
    code, text = run_cli(["enumerate", "--quiver", str(qfile), "--p", "2",
                          "--grade", "1,1"], tmp_path)
    assert code == 0
    assert len(text.strip().split("\n")) == 4


def test_csv_format(tmp_path):
    code, text = run_cli(["xi", "1", "--p", "2", "--format", "csv"], tmp_path,
                         "out.csv")
    assert text.splitlines()[0] == "d;q;xi"


def test_format_is_an_option_of_the_table_commands_only(tmp_path, capsys):
    # kac, xi and tubes write tables and read --format; enumerate and verify
    # write JSON only, so --format there is an unknown option
    for argv in (["verify", "pbw", "--quiver", "kronecker", "--p", "2", "--grade", "1,1"],
                 ["enumerate", "--quiver", "kronecker", "--p", "2", "--grade", "1,1"]):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--format", "csv"])
        assert err.value.code == 2, argv
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err, argv
    code, text = run_cli(["tubes", "--quiver", "kronecker", "--p", "2", "--r", "1",
                          "--format", "csv"], tmp_path, "out.csv")
    assert code == 0 and text.splitlines()[0] == "tube;degree;period"
    code, text = run_cli(["kac", "--quiver", "kronecker", "--r", "1", "--format", "csv"],
                         tmp_path, "out.csv")
    assert code == 0 and text.splitlines() == ["grade;kac_polynomial", "1,1;t + 1"]


def test_xi_rejects_negative_levels(tmp_path):
    code, text = run_cli(["xi", "--p", "2", "-1"], tmp_path)
    assert (code, json.loads(text)) == (2, {"error": "HallforgeError",
                                            "message": "xi needs levels >= 0, got -1"})
    code, text = run_cli(["xi", "--p", "2", "0", "1"], tmp_path)
    assert code == 0 and [r["d"] for r in json.loads(text)] == [0, 1]


def test_isotropic_rejects_the_zero_grade(tmp_path):
    # the theorem is about positive grades; the zero grade's piece is the unit
    for pick in (["--grade", "0,0"], ["--r", "0"]):
        code, text = run_cli(["verify", "isotropic", "--quiver", "kronecker", "--p", "2"]
                             + pick, tmp_path)
        assert (code, json.loads(text)) == (2, {
            "error": "HallforgeError",
            "message": "the isotropic support check needs a nonzero grade"}), pick


def test_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "hallforge.cli", "xi", "1", "--p", "3"],
        capture_output=True, text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["xi"] == "1/2"


def test_grade_suites_without_grades_are_errors(tmp_path):
    # hopf, pbw and isotropic check nothing without a grade: a structured
    # error, not a traceback or an empty pass
    for suite in ("hopf", "pbw", "isotropic"):
        code, text = run_cli(["verify", suite, "--quiver", "kronecker", "--p", "2"], tmp_path)
        assert code == 2, suite
        assert json.loads(text) == {"error": "HallforgeError",
                                    "message": f"verify {suite} needs --grade or --r"}
    # isotropic reads --r like the other suites: delta is checked
    code, text = run_cli(["verify", "isotropic", "--quiver", "kronecker", "--p", "2",
                          "--r", "1"], tmp_path)
    reports = json.loads(text)
    assert code == 0
    assert [(r["grade"], r["status"]) for r in reports] == [([1, 1], "pass")]


def test_hopf_draws_only_triples_that_pair(tmp_path, monkeypatch):
    # a triple pairs to 0 on both sides unless grade(h) = grade(f) + grade(g)
    from hallforge.hall import HallAlgebra
    seen = []
    check = HallAlgebra.hopf_pairing_check

    def recorded(self, f, g, h):
        seen.append((f.grade(), g.grade(), h.grade()))
        return check(self, f, g, h)

    monkeypatch.setattr(HallAlgebra, "hopf_pairing_check", recorded)
    for argv in (["--p", "2", "--grade", "1,1", "--grade", "0,1", "--grade", "1,0"],
                 ["--p", "3", "--r", "1,2"]):
        for seed in range(3):
            seen.clear()
            code, text = run_cli(["verify", "hopf", "--quiver", "kronecker", *argv,
                                  "--seed", str(seed)], tmp_path)
            assert code == 0 and json.loads(text)[0]["status"] == "pass"
            assert len(seen) == 20
            assert all(tuple(a + b for a, b in zip(f, g)) == h for f, g, h in seen)
    # no two grades summing to a third leave nothing to check
    code, text = run_cli(["verify", "hopf", "--quiver", "kronecker", "--p", "2",
                          "--r", "1"], tmp_path)
    assert code == 2
    assert json.loads(text) == {"error": "HallforgeError", "message":
                                "verify hopf needs two of its grades to sum to a third"}


def test_bad_input_is_a_structured_error(tmp_path):
    code, text = run_cli(["verify", "noyau", "--quiver", "kronecker", "--p", "2",
                          "--grade", "1,2"], tmp_path)
    assert code == 2
    assert json.loads(text) == {"error": "HallforgeError",
                                "message": "grade (1, 2) is not a multiple of delta (1, 1)"}
    # a disconnected quiver has no type, a wild one has no delta
    for name, arrows in (("two_points", []), ("wild", [[0, 1]] * 3)):
        qfile = tmp_path / f"{name}.json"
        qfile.write_text(json.dumps({"vertices": ["1", "2"], "arrows": arrows}))
        for cmd in (["verify", "noyau"], ["tubes"], ["kac"]):
            code, text = run_cli(cmd + ["--quiver", str(qfile), "--r", "1"], tmp_path)
            assert code == 2, (name, cmd)
            assert json.loads(text)["error"] == "HallforgeError"
    # unknown names, unreadable or invalid quiver files, bad grades, no quiver
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    out_of_range = tmp_path / "range.json"
    out_of_range.write_text(json.dumps({"vertices": ["1"], "arrows": [[0, 1]]}))
    cases = [
        ["--quiver", "nosuch", "--grade", "1,1"],
        ["--quiver", str(tmp_path / "missing.json"), "--grade", "1,1"],
        ["--quiver", str(bad_json), "--grade", "1,1"],
        ["--quiver", str(out_of_range), "--grade", "1"],
        ["--quiver", "cyclicx", "--grade", "1"],
        ["--quiver", "kronecker", "--grade", "1,x"],
        ["--quiver", "kronecker", "--grade", "1,-1"],
        ["--quiver", "kronecker", "--r", "-1"],
        ["--grade", "1,1"],
    ]
    for args in cases:
        code, text = run_cli(["enumerate", "--p", "2"] + args, tmp_path)
        assert code == 2, args
        record = json.loads(text)
        assert record["error"] == "HallforgeError" and record["message"], args
    code, text = run_cli(["verify", "noyau", "--p", "2", "--r", "1"], tmp_path)
    assert (code, json.loads(text)) == (2, {"error": "HallforgeError",
                                            "message": "this command requires --quiver"})
    # no such field, --nilpotent on a quiver that is not cyclic, level 0
    for args, message in (
        (["enumerate", "--quiver", "kronecker", "--p", "4", "--grade", "1,1"],
         "4 is not prime"),
        (["enumerate", "--quiver", "kronecker", "--nilpotent", "--grade", "1,1"],
         "nilpotent-only registries are for cyclic/one-loop quivers"),
        (["verify", "noyau", "--quiver", "kronecker", "--p", "2", "--r", "0"],
         "this command needs positive multiples of delta, got 0"),
    ):
        code, text = run_cli(args, tmp_path)
        assert (code, json.loads(text)) == (2, {"error": "HallforgeError",
                                                "message": message}), args


def test_grade_of_the_wrong_length_is_a_structured_error(tmp_path):
    for grade in ("1", "1,2,3"):
        code, text = run_cli(["enumerate", "--quiver", "kronecker", "--p", "2",
                              "--grade", grade], tmp_path)
        dims = tuple(int(x) for x in grade.split(","))
        assert (code, json.loads(text)) == (2, {
            "error": "SizeMismatch",
            "message": f"dimension vector {dims} does not fit 2 vertices"}), grade


def test_bad_memory_cap_variable_is_a_structured_error(tmp_path, monkeypatch):
    monkeypatch.setenv("HALLFORGE_CAP_MB", "abc")
    code, text = run_cli(["enumerate", "--quiver", "kronecker", "--p", "2",
                          "--grade", "1,1"], tmp_path)
    assert (code, json.loads(text)) == (2, {
        "error": "HallforgeError",
        "message": "HALLFORGE_CAP_MB must be a whole number of megabytes, got 'abc'"})


def test_xi_rejects_what_is_not_a_field(tmp_path):
    # xi builds no registry but checks the field as every other command does
    for args, record in (
        (["--p", "6", "1", "2"], {"error": "HallforgeError", "message": "6 is not prime"}),
        (["--p", "2", "--k", "7", "1"],
         {"error": "CapExceeded", "message": "field_size: estimated 128 exceeds cap 64"}),
    ):
        code, text = run_cli(["xi"] + args, tmp_path)
        assert (code, json.loads(text)) == (2, record), args
    code, text = run_cli(["xi", "--p", "2", "--k", "2", "1"], tmp_path)
    assert code == 0 and json.loads(text) == [{"d": 1, "q": 4, "xi": "1/3"}]


def test_xi_rejects_a_large_extension_degree_before_forming_q(tmp_path):
    # p^k is not formed above MAX_DEGREE: 2^20000 has more digits than an
    # int may print, and 2^1000000000 would take 125 MB
    for k in ("65", "20000", "1000000000"):
        code, text = run_cli(["xi", "--p", "2", "--k", k, "1"], tmp_path)
        assert (code, json.loads(text)) == (2, {
            "error": "CapExceeded",
            "message": f"field_size: estimated 2^{k} exceeds cap 64"}), k
    # nor above PRIME_BOUND: (10^3000 - 1)^2 has more digits than an int may print
    nines = "9" * 3000
    code, text = run_cli(["xi", "--p", nines, "--k", "2", "1"], tmp_path)
    assert (code, json.loads(text)) == (2, {
        "error": "CapExceeded",
        "message": f"field_size: estimated {nines}^2 exceeds cap 64"})
    # up to MAX_DEGREE the message still shows q itself
    code, text = run_cli(["xi", "--p", "2", "--k", "64", "1"], tmp_path)
    assert (code, json.loads(text)) == (2, {
        "error": "CapExceeded",
        "message": "field_size: estimated 18446744073709551616 exceeds cap 64"})


def test_candidate_cap_is_a_structured_error(tmp_path):
    code, text = run_cli(["enumerate", "--quiver", "kronecker", "--p", "2", "--grade", "3,3",
                          "--cap-tuples", "3", "--cap-candidates", "10"], tmp_path)
    assert (code, json.loads(text)) == (2, {"error": "CapExceeded", "message":
                                            "candidates: estimated 11 exceeds cap 10"})


def test_total_candidate_budget_ends_a_long_request():
    # tube_decomposition up to 9 delta builds every grade <= (9,9), each level
    # under the per-level cap; the budget over all levels ends the request
    proc = subprocess.run(
        [sys.executable, "-m", "hallforge.cli", "enumerate", "--quiver", "kronecker",
         "--p", "2", "--grade", "9,9", "--cap-tuples", "10", "--cap-candidates-total", "300"],
        capture_output=True, text=True, timeout=30,
        env=child_env(),
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    record = json.loads(proc.stdout)
    assert record["error"] == "CapExceeded"
    assert record["message"].startswith("total_candidates: ") and "cap 300" in record["message"]


def test_structured_error_survives_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "hallforge.cli", "verify", "noyau",
         "--quiver", "kronecker", "--p", "2", "--grade", "1,2"],
        capture_output=True, text=True,
        env=child_env(),
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"] == "HallforgeError"
    assert "Traceback" not in proc.stderr
