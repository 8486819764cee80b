import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

import pytest

from latcensus.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_both_matches_example(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--n", "2", "--V", "4", "--mode", "cyclic", "--method", "both"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == "14" and doc["oracle_count"] == "14"
    assert "prediction" in doc and "ratio" in doc


def test_count_all_trivial(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--V", "1", "--mode", "all")
    assert code == 0
    assert json.loads(out)["count"] == "1"


def test_count_rank_mode_both(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--n", "2", "--V", "4", "--mode", "rank", "--rank", "2",
        "--method", "both",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == "1" and doc["oracle_count"] == "1"


def test_count_usage_errors(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "1", "--V", "4", "--mode", "cyclic")
    assert code == 64 and "--mode" in err
    code, _, err = run_cli(capsys, "count", "--n", "2", "--V", "4", "--mode", "rank")
    assert code == 64 and "--rank" in err
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "2"])  # missing --V
    assert exc.value.code == 64


def test_count_usage_error_names_only_the_flags_given(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "1", "--V", "4", "--mode", "squarefree")
    assert (code, out) == (64, "")
    assert err == "usage error: --mode squarefree: the squarefree census requires n >= 2\n"
    code, out, err = run_cli(capsys, "count", "--n", "2", "--V", "4", "--mode", "rank", "--rank", "-1")
    assert (code, out, err) == (64, "", "usage error: --mode rank, --rank -1: rank must be >= 0\n")
    code, out, err = run_cli(capsys, "count", "--n", "2", "--V", "4", "--mode", "rank")
    assert (code, out, err) == (64, "", "usage error: --mode rank requires --rank\n")


@pytest.mark.parametrize("mode, n", [("cyclic", 1), ("squarefree", 1), ("all", 0), ("rank", 0)])
def test_count_refuses_a_dimension_below_the_mode(capsys, mode, n):
    # census() states the least dimension; the CLI names --mode around it
    rank = ["--rank", "0"] if mode == "rank" else []
    code, out, err = run_cli(capsys, "count", "--n", str(n), "--V", "5", "--mode", mode, *rank)
    assert code == 64 and out == "" and "--mode" in err


def test_count_csv_ladder(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--n", "2", "--V", "40", "--format", "csv", "--ladder", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "V,count,prediction,ratio"
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "10"


def test_count_csv_ladder_prints_each_bound_once(capsys):
    # ten rungs over V = 5: V*i//10 repeats every bound, and 0 is no bound
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--V", "5", "--format", "csv", "--ladder", "10")
    assert code == 0
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [
        ["1", "1"], ["2", "4"], ["3", "8"], ["4", "14"], ["5", "20"]
    ]


def test_count_csv_honours_method(capsys, monkeypatch):
    from latcensus import counting

    monkeypatch.setattr(counting.Census, "oracle", lambda self, V: 0)
    argv = ("count", "--n", "2", "--V", "10", "--format", "csv", "--ladder", "2", "--method")
    code, out, err = run_cli(capsys, *argv, "both")
    assert code == 1 and out == "" and "mismatch at V=5" in err
    code, out, _ = run_cli(capsys, *argv, "bruteforce")
    assert code == 0 and [row.split(",")[1] for row in out.splitlines()[1:]] == ["0", "0"]


def test_count_rank_runs_the_shared_loop(capsys, monkeypatch):
    from latcensus import counting

    code, out, _ = run_cli(capsys, "count", "--n", "3", "--V", "30", "--mode", "rank",
                           "--rank", "2", "--format", "csv", "--ladder", "3", "--method", "both")
    assert code == 0
    assert out == "V,count,prediction,ratio\n10,62,nan,nan\n20,657,nan,nan\n30,1789,nan,nan\n"
    monkeypatch.setattr(counting.Census, "oracle", lambda self, V: 0)
    code, out, err = run_cli(capsys, "count", "--n", "2", "--V", "10", "--mode", "rank", "--rank",
                             "1", "--method", "both")
    assert code == 1 and "mismatch at V=10" in err
    doc = json.loads(out)
    assert doc["rank"] == 1 and doc["count"] == "81" and doc["oracle_count"] == "0"


@pytest.mark.parametrize(
    "extra",
    [
        ("--format", "csv", "--ladder", "0"),
        ("--format", "csv", "--ladder", "-3"),
        ("--ladder", "3"),
        ("--rank", "1"),  # without --mode rank
    ],
)
def test_count_refuses_ignored_flags(capsys, extra):
    code, out, err = run_cli(capsys, "count", "--n", "2", "--V", "10", *extra)
    assert code == 64 and out == "" and "usage error" in err


@pytest.mark.parametrize(
    "argv",
    [
        "count --n 2 --V 10 --mode rank --rank 1 --tol 1e-5",  # rank prints no prediction
        "count --n 1 --V 10 --mode all --tol 1e-5",  # nor does n = 1
        "count --n 2 --V 10 --enum-cap 5",  # the enumeration cap is fixed: no such flag
        "enumerate --n 2 --q 4 --cap 5 --count-only",  # nor this one
    ],
)
def test_ignored_flags_exit_64(capsys, argv):
    try:
        code = main(argv.split())
    except SystemExit as exc:  # refused by the parser
        code = exc.code
    captured = capsys.readouterr()
    assert code == 64 and captured.out == "" and "error" in captured.err


def test_flags_in_use_are_accepted(capsys):
    # 6.6e11 lattices of index <= 10^4 in Z^3: refused at once at the fixed enumeration cap
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--V", "10000", "--method", "bruteforce")
    assert code == 2 and out == ""  # the cap is honoured
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--V", "10", "--tol", "1e-5")
    assert code == 0 and float(json.loads(out)["prediction"]["err"]) <= 1e-5


@pytest.mark.parametrize(
    "argv, expected",
    [
        ("count --n 2 --V 4 --method both",
         '{"n": 2, "V": 4, "mode": "cyclic", "method": "both", "count": "14", "oracle_count": "14", '
         '"prediction": {"value": "12.1585420370833298742", "err": "1.039e-11"}, '
         '"prediction_kind": "leading-order", '
         '"ratio": {"value": "1.15145384679349359195", "err": "9.84e-13"}}\n'),
        ("count --n 2 --V 1000 --mode squarefree --format csv --ladder 3",
         "V,count,prediction,ratio\n333,46528,46124.6883191,1.00874394377\n"
         "666,185352,184498.753276,1.00462467474\n1000,415304,415953.68629,0.998438080219\n"),
        ("count --n 3 --V 100000000 --mode rank --rank 2",
         '{"n": 3, "V": 100000000, "mode": "rank", "rank": 2, "method": "formula", '
         '"count": "74802708362767100537574"}\n'),
        ("groups --V 48",
         '{"V": 48, "classes": "82", "cyclic_classes": "48", "cyclic_fraction": "0.585365853659"}\n'),
    ],
)
def test_pinned_stdout(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0 and out == expected


def test_groups_class_count_at_ten_to_the_nine(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "groups", "--V", str(10**9))
    assert code == 0 and json.loads(out)["classes"] == "2294454056"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "2", "--q", str(2**61 - 1)),
        ("enumerate", "--n", "2", "--q", str(2**61 - 1), "--count-only"),
        ("constants", "--name", "rank-prob", "--p", str(2**61 - 1), "--r", "0"),
    ],
)
def test_huge_prime_factorization_exits_2_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "cap" in err
    assert time.perf_counter() - start < 2.0


def test_constants_theta(capsys):
    code, out, _ = run_cli(capsys, "constants", "--name", "theta")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "theta"
    assert doc["value"].startswith("1.94359")
    assert float(doc["err"]) <= 1e-10
    assert doc["prime_cutoff"] is None


def test_constants_underscore_alias(capsys):
    code, out, _ = run_cli(capsys, "constants", "--name", "rho_n", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "rho-n"
    assert doc["prime_cutoff"] is not None


def test_constants_density(capsys):
    code, out, _ = run_cli(capsys, "constants", "--name", "density-cocyclic")
    assert code == 0
    assert json.loads(out)["value"].startswith("0.8469")


def test_constants_xi_to_3000_returns(capsys):
    # the zeta factors with 2^-k below their tol are bracketed, not summed term by term
    code, out, _ = run_cli(capsys, "constants", "--name", "xi", "--m", "2", "--n", "3000")
    assert code == 0 and float(json.loads(out)["err"]) <= 1e-10


def test_constants_unknown_name(capsys):
    code, _, err = run_cli(capsys, "constants", "--name", "bogus")
    assert code == 64 and "unknown constant" in err


def test_an_internal_key_error_is_not_a_usage_error(monkeypatch):
    # only cmd_constants turns a KeyError (an unknown name) into a usage error
    from latcensus import cli

    def broken(args):
        raise KeyError("x")

    monkeypatch.setattr(cli, "cmd_groups", broken)
    with pytest.raises(KeyError):
        main(["groups", "--V", "10"])


def test_sample_deterministic_and_valid(capsys):
    code, out1, _ = run_cli(
        capsys, "sample", "--n", "2", "--q", "2", "--seed", "1", "--count", "3"
    )
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "sample", "--n", "2", "--q", "2", "--seed", "1", "--count", "3"
    )
    assert out1 == out2
    allowed = {((1, 0), (0, 2)), ((1, 1), (0, 2)), ((2, 0), (0, 1))}
    for line in out1.strip().splitlines():
        doc = json.loads(line)
        assert tuple(map(tuple, doc["rows"])) in allowed


def test_sample_identity_for_q1(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "4", "--q", "1", "--count", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_sample_random_seed_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "sample", "--n", "2", "--q", "3", "--count", "1")
    assert code == 0
    assert "seed:" in err
    json.loads(out)


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--q", "2")
    assert code == 0
    rows = [json.loads(line)["rows"] for line in out.strip().splitlines()]
    assert rows == [[[1, 0], [0, 2]], [[1, 1], [0, 2]], [[2, 0], [0, 1]]]
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--q", "4", "--count-only")
    assert code == 0
    assert json.loads(out)["count"] == "35"


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("--n 3 --q 720720 --seed 5 --count 200", "abc60cb5f37804d42bfee3d58fe52618a2838e51784b773448c7fdfef04f46f4"),
        ("--n 2 --q 18446744073709551629 --seed 4 --count 20",
         "a8114de960b26bed2629f4ca6b6156fa5a1c9785718615420f9e17e218b8bbbd"),
        ("--n 1 --q 41 --seed 2 --count 5", "c247563ac329cb2e37344f350d56b675a52183a89913a3ba73c4e0cf1ff7cbfe"),
    ],
)
def test_sample_stdout_is_pinned(capsys, argv, digest):
    # recorded before the one-word draw was inlined and samples went through _congruence_basis
    code, out, _ = run_cli(capsys, "sample", *argv.split())
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_stdout_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--q", "61")
    assert code == 0 and len(out.splitlines()) == 3783
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7514909ccaa2df6ee1a7544dc15cdf5ec2e54e1dc54ba2162f44f49a6bbce9e7"
    )


def test_enumerate_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "4", "--q", "10000")  # 3.8e12 lattices
    assert code == 2 and "cap" in err.lower()


def test_clmass_exact(capsys):
    code, out, _ = run_cli(capsys, "clmass", "--V", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_mass"] == {
        "value": "2.5", "err": "0", "exact": True, "fraction": "5/2",
    }
    code, out, _ = run_cli(capsys, "clmass", "--V", "4", "--predicate", "cyclic")
    doc = json.loads(out)
    assert doc["predicate_mass"]["fraction"] == "3/1"  # 1 + 1 + 1/2 + 1/2


@pytest.mark.parametrize(
    "argv",
    [("clmass", "--V", "10", "--r", "2"), ("constants", "--name", "theta", "--n", "7")],
)
def test_ignored_parameters_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == "" and "usage error" in err


def test_clmass_rank_at_most_without_r_says_r_is_required(capsys):
    code, out, err = run_cli(capsys, "clmass", "--V", "100", "--predicate", "rank-at-most")
    assert (code, out) == (64, "")
    assert err.startswith("usage error: --predicate rank-at-most requires --r")


def test_groups_dump(capsys):
    code, out, _ = run_cli(capsys, "groups", "--V", "4", "--dump")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "order,decomposition,aut_order,rank"
    assert len(lines) == 6  # header + 5 census rows
    assert lines[-1] == "4,2*2,6,2"


def test_groups_summary(capsys):
    code, out, _ = run_cli(capsys, "groups", "--V", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == "11" and doc["cyclic_classes"] == "8"


def test_json_outputs_round_trip(capsys):
    for argv in (
        ["count", "--n", "2", "--V", "6"],
        ["constants", "--name", "rho"],
        ["clmass", "--V", "5"],
        ["groups", "--V", "6"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        line = out.strip()
        assert json.dumps(json.loads(line)) == line


def test_verify_sampler_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "sampler")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert "lattice.sampler-uniformity" in doc["passed"]
    assert "running" in err


def test_chi2_survival_matches_mpmath():
    # the sampler's p-value in closed form, against the regularized upper
    # incomplete gamma function Q(df/2, x/2)
    from mpmath import gammainc

    from latcensus.verifysuite import _chi2_survival

    for df in range(1, 61):
        for x in (1e-3, 0.5, 1.0, df / 2, df, df + 7.3, 2 * df, 3 * df + 10, 150.0):
            expected = float(gammainc(df / 2, a=x / 2, regularized=True))
            assert _chi2_survival(x, df) == pytest.approx(expected, rel=1e-12, abs=0), (df, x)


def test_verify_failure_exits_one_with_identifier(capsys, monkeypatch):
    import latcensus.verifysuite as vs

    def boom():
        vs._fail("demo.failing-check", "synthetic failure")

    monkeypatch.setitem(vs.CHECKS, "demo.failing-check", ("sampler", boom))
    code, out, _ = run_cli(capsys, "verify", "--suite", "sampler")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["failed"] == "demo.failing-check"


def test_verify_names_the_smith_order_check(capsys, monkeypatch):
    from types import SimpleNamespace

    from latcensus import lattice

    real = lattice.smith_invariants
    monkeypatch.setattr(lattice, "smith_invariants", lambda b: SimpleNamespace(order=real(b).order + 1))
    code, out, _ = run_cli(capsys, "verify", "--suite", "bijection")
    assert code == 1
    doc = json.loads(out)
    assert doc["failed"] == "lattice.smith-order-equals-index"
    assert doc["message"].startswith("lattice.smith-order-equals-index: B=")


def _census_suite_fails_at(capsys, check_id):
    code, out, _ = run_cli(capsys, "verify", "--suite", "census")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["failed"] == check_id
    return doc["message"]


def test_verify_sees_a_wrong_rank_factor_above_dimension_three(capsys, monkeypatch):
    # one extra lattice at p^3 in the rank <= 2 local factor, n >= 4 only:
    # the sieve route reads the same factor, so only the enumeration sees it
    from latcensus import counting

    real = counting._rank_factor

    def rank_factor(n, m):
        local = real(n, m)
        return (lambda p, e: local(p, e) + (e == 3)) if n >= 4 and m == 2 else local

    monkeypatch.setattr(counting, "_rank_factor", rank_factor)
    message = _census_suite_fails_at(capsys, "counting.census-equality")
    assert " n=4 V=8: " in message


def test_verify_sees_a_rank_two_quotient_at_squarefree_index(capsys, monkeypatch):
    # the invariant of the former counting.squarefree-implies-cocyclic check
    from latcensus import counting

    real = counting._rank_counts

    def rank_counts(n, q):
        c = real(n, q)
        return (c[0], c[1] - 1, c[2] + 1) + c[3:] if (n, q) == (3, 30) else c

    monkeypatch.setattr(counting, "_rank_counts", rank_counts)
    _census_suite_fails_at(capsys, "counting.census-equality")


def test_verify_sees_a_census_that_dips(capsys, monkeypatch):
    # the invariant of the former counting.monotonicity check
    from latcensus import counting

    real = counting.Census.count

    def count(record, V):
        if (record.mode, record.n, V) == ("cyclic", 2, 100):
            return real(record, 99) - 1  # below the count at V = 99
        return real(record, V)

    monkeypatch.setattr(counting.Census, "count", count)
    assert " n=2 V=100: " in _census_suite_fails_at(capsys, "counting.census-equality")


def test_no_check_takes_a_parameter():
    # each check holds its one scale; verify and the acceptance tests call it bare
    import inspect

    import latcensus.verifysuite as vs

    assert [cid for cid, (_, fn) in vs.CHECKS.items() if inspect.signature(fn).parameters] == []
    assert list(inspect.signature(vs._random_unimodular).parameters) == ["rng", "n"]


def test_verify_sees_a_wrong_aut_order_of_a_power_of_a_cyclic(capsys, monkeypatch):
    from latcensus import groups

    real = groups.aut_order_qm
    monkeypatch.setattr(groups, "aut_order_qm", lambda q, m: real(q, m) + ((q, m) == (4, 2)))
    code, out, _ = run_cli(capsys, "verify", "--suite", "groups")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["failed"] == "groups.aut-qm"
    assert "q=4 m=2" in doc["message"]


def test_verify_sees_cyclic_groups_that_generate_too_rarely(capsys, monkeypatch):
    # 10% fewer generating tuples for cyclic groups of order > 30: the other
    # groups checks stop at order 30, so only pak-direction (q up to 50) sees it
    from latcensus import groups

    real = groups.generating_tuples_count

    def undercount(G, n):
        count = real(G, n)
        return count - count // 10 if G.rank == 1 and G.order > 30 else count

    monkeypatch.setattr(groups, "generating_tuples_count", undercount)
    code, out, _ = run_cli(capsys, "verify", "--suite", "groups")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["failed"] == "groups.pak-direction"
    assert doc["message"] == "groups.pak-direction: q=31 n=12"


def test_verify_sees_a_wrong_divisor_mobius_sum(capsys, monkeypatch):
    from latcensus import arith

    real = arith.divisor_mobius_sum
    monkeypatch.setattr(arith, "divisor_mobius_sum", lambda q, n: real(q, n) + (int(q) == 12))
    code, out, _ = run_cli(capsys, "verify", "--suite", "formulas")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["failed"] == "arith.mobius-divisor-identity"
    assert doc["message"].startswith("arith.mobius-divisor-identity: q=12 n=2: ")


def test_count_cap_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "count", "--n", "2", "--V", "100000", "--mode", "cyclic",
        "--method", "bruteforce",
    )
    assert code == 2 and "cap" in err


def test_count_huge_v_hits_cap_quickly(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "count", "--n", "2", "--V", str(10**30))
    assert code == 2 and "cap" in err
    assert time.perf_counter() - start < 1.0


def test_bruteforce_cap_checked_without_a_table(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "count", "--n", "2", "--V", "1000000", "--method", "bruteforce")
    assert code == 2 and "cap" in err
    assert time.perf_counter() - start < 1.0


def test_sample_index_above_two_to_the_64(capsys):
    q = 10**20
    code, out, _ = run_cli(capsys, "sample", "--n", "2", "--q", str(q), "--seed", "4", "--count", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        (a, b), (z, c) = json.loads(line)["rows"]
        assert z == 0 and a * c == q and 0 <= b < c and math.gcd(a, b, c) == 1


def test_determinism_across_runs(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "count", "--n", "3", "--V", "50", "--method", "both")
        outs.add(out)
    assert len(outs) == 1


def test_constants_tol_is_met_or_refused(capsys):
    code, out, _ = run_cli(capsys, "constants", "--name", "theta", "--tol", "1e-20")
    assert code == 0 and float(json.loads(out)["err"]) <= 1e-20
    code, out, err = run_cli(capsys, "constants", "--name", "landau-prime-sum", "--tol", "1e-20")
    assert code == 2 and out == "" and "reachable" in err
    code, out, err = run_cli(capsys, "constants", "--name", "gamma", "--tol", "1e-20")
    assert code == 2 and out == "" and "1e-19" in err


@pytest.mark.parametrize("command", ["clmass", "groups"])
def test_mass_and_class_counts_hit_caps_quickly(capsys, command):
    V = {"clmass": 10**9, "groups": 10**15}[command]  # each above its command's cap
    start = time.perf_counter()
    code, _, err = run_cli(capsys, command, "--V", str(V))
    assert code == 2 and "cap" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    ["count", "--n", "2", "--V", "10", "--tol", "inf"],
    ["count", "--n", "2", "--V", "10", "--tol", "nan"],
    ["count", "--n", "2", "--V", "10", "--tol", "0"],
    ["constants", "--name", "zeta", "--k", "2", "--tol", "nan"],
    ["constants", "--name", "zeta", "--k", "2", "--tol", "inf"],
    ["constants", "--name", "rank-prob", "--p", "2", "--r", "1", "--tol", "nan"],
    ["constants", "--name", "gamma", "--tol=-inf"],
], ids=" ".join)
def test_a_tol_that_is_not_positive_and_finite_exits_64(capsys, argv):
    # inf died in an OverflowError traceback (exit 1) or, capped, printed a value;
    # NaN passed `tol <= 0` and exited 2 with a PrecisionError
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (64, "", "usage error: tol must be a positive finite number\n")


# ---------------------------------------------------------------------------
# verify's forked workers
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@needs_fork
@pytest.mark.parametrize("suite", ["bijection", "sampler", "census"])
def test_verify_output_does_not_depend_on_the_cpus(capsys, monkeypatch, suite):
    every = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    runs = []
    for count in (1, max(2, every)):  # at least two, so one-CPU hosts run the workers too
        _cpus(monkeypatch, count)
        runs.append(run_cli(capsys, "verify", "--suite", suite))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][2].count("running ") == len(json.loads(runs[0][1])["passed"])


def _stub_suite(monkeypatch, tmp_path, failing, nap=0.0):
    """Replace the bijection suite's four checks by stubs that log their pid
    to tmp_path, sleep nap seconds, and fail (the later failure first) when
    their index is in failing; returns the check ids in CHECKS order."""
    import latcensus.verifysuite as vs

    ids = [check_id for check_id, (suite, _) in vs.CHECKS.items() if suite == "bijection"]
    for i, check_id in enumerate(ids):
        def stub(i=i, check_id=check_id):
            (tmp_path / f"{i}.pid").write_text(str(os.getpid()))
            time.sleep(nap)
            if i in failing:
                time.sleep(0.2 * (max(failing) - i))  # the later id reaches the pipe first
                vs._fail(check_id, f"stub {i}")

        monkeypatch.setitem(vs.CHECKS, check_id, ("bijection", stub))
    return ids


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_verify_reports_the_first_failure_in_check_order(capsys, monkeypatch, tmp_path, cpus):
    ids = _stub_suite(monkeypatch, tmp_path, failing={1, 2})
    _cpus(monkeypatch, cpus)
    code, out, err = run_cli(capsys, "verify", "--suite", "bijection")
    assert code == 1 and json.loads(out) == {"ok": False, "failed": ids[1], "message": f"{ids[1]}: stub 1"}
    assert err == f"running {ids[0]}\nrunning {ids[1]}\n"
    pid = {int(path.stem): int(path.read_text()) for path in tmp_path.glob("*.pid")}
    if cpus > 1:  # ids[j::cpus] go to worker j, so the two failures ran in different workers
        assert pid[1] != pid[2] and os.getpid() not in pid.values()
    else:  # in-process, stopping at the first failure
        assert pid == {0: os.getpid(), 1: os.getpid()}


@needs_fork
@pytest.mark.parametrize("case", ["passing", "failing", "report raises", "interrupted while reading"])
def test_verify_leaves_no_worker_behind(monkeypatch, tmp_path, case):
    import latcensus.verifysuite as vs

    forked, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    _stub_suite(monkeypatch, tmp_path, failing={2} if case == "failing" else set(),
                nap=30.0 if case == "interrupted while reading" else 0.0)
    _cpus(monkeypatch, 2)

    def interrupt(*_):
        raise KeyboardInterrupt

    expected = {"passing": None, "failing": vs.CheckFailure}.get(case, KeyboardInterrupt)
    report = interrupt if case == "report raises" else None
    start, handler = time.monotonic(), signal.signal(signal.SIGALRM, interrupt)
    try:
        if case == "interrupted while reading":  # Ctrl-C while the workers sleep: the parent kills them
            signal.setitimer(signal.ITIMER_REAL, 0.5)  # a forked child inherits no timer
        if expected is None:
            vs.run_suite("bijection", report=report)
        else:  # excinfo, a local to the end, keeps run_suite's frame and its generator alive
            with pytest.raises(expected) as excinfo:
                vs.run_suite("bijection", report=report)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert len(forked) == 2 and time.monotonic() - start < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv, code", [
    ("count --n 2000 --V 1000", 2),  # the Faulhaber setup, ~n^3, was not charged
    ("count --n 100000 --V 2", 2),
    ("constants --name delta-rank-le --r 200", 0),  # a degree-40200 factor, now the tail bound
])
def test_former_hang_inputs_finish(argv, code):
    # each ran past 15 s; a child with a timeout fails fast if one hangs again
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "latcensus.cli", *argv.split()], capture_output=True,
                          text=True, env=env, timeout=5)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert float(json.loads(proc.stdout)["err"]) <= 1e-10
