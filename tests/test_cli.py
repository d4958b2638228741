import argparse
import hashlib
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from helpers import run_in_child
from sweepcvrp.cli import build_parser, main
from sweepcvrp.closedform import g_all
from sweepcvrp.experiments import ALGOS, read_csv
from sweepcvrp.geometry import load_instance
from sweepcvrp.netverify import net_size, read_report
from sweepcvrp.tsp import TSP_MODES


def test_gen_solve_bounds_pipeline(tmp_path, capsys):
    instance_file = tmp_path / "inst.txt"
    solution_file = tmp_path / "sol.json"

    assert main(["gen", "--n", "12", "--k", "3", "--seed", "4",
                 "--output", str(instance_file)]) == 0
    inst = load_instance(str(instance_file))
    assert inst.n == 12 and inst.capacity == 3

    assert main(["solve", "--algo", "sweep", "--m", "1",
                 "--input", str(instance_file),
                 "--output", str(solution_file)]) == 0
    payload = json.loads(solution_file.read_text())
    assert payload["algo"] == "sweep"
    assert payload["num_tours"] == len(payload["tours"])
    covered = sorted(i for t in payload["tours"] for i in t["indices"])
    assert covered == list(range(12))
    assert all(len(t["indices"]) <= 3 for t in payload["tours"])

    assert main(["solve", "--algo", "itp", "--input", str(instance_file)]) == 0

    assert main(["bounds", "--input", str(instance_file), "--r", "auto",
                 "--m", "2"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["lower"] <= report["upper"] + 1e-9
    assert report["local_certified"] is True

    assert main(["bounds", "--input", str(instance_file), "--r", "inf",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-2].startswith("R,rad_R")
    assert out[-1].startswith("inf,")


# sha256 of the `solve --output` JSON on the `gen --n 200 --k 14 --seed 7`
# instance, re-recorded with the neighbour-list local search, which changed
# the heuristic group and ITP tours: sweep cost 21.765739474984564 with 17
# tours became 21.40458307167746 with 15, ITP 21.55781292564512 with 15
# tours became 21.25167772959708 with 16. Re-recorded again when every tour
# length became the fsum of its edges: the same tours, some lengths an ulp or
# a few apart, and ITP cost 21.251677729597084. The sweep entry was
# re-recorded when every heuristic sweep group's routes gained
# group_cvrp.depot_two_opt: sweep cost 21.40458307167746 with 15 tours became
# 20.81254446645275 with 15; ITP carries no pass and kept its digest.
GOLDEN_SOLVE_SHA256 = {
    ("--algo", "sweep", "--m", "2"):
        "3b9abfb7e13e1b9a57a46d6ac3d2ce198b3a61e68c0d6fa4864c459f83619544",
    ("--algo", "itp"):
        "f61a3a8d22540923a41056ecb594f00344c5ed63b6da94d6a1487f488cd457c5",
}


@pytest.mark.parametrize("algo_args", list(GOLDEN_SOLVE_SHA256))
def test_solve_output_golden(tmp_path, capsys, algo_args):
    instance_file = tmp_path / "inst.txt"
    solution_file = tmp_path / "sol.json"
    assert main(["gen", "--n", "200", "--k", "14", "--seed", "7",
                 "--output", str(instance_file)]) == 0
    assert main(["solve", *algo_args, "--input", str(instance_file),
                 "--output", str(solution_file)]) == 0
    digest = hashlib.sha256(solution_file.read_bytes()).hexdigest()
    assert digest == GOLDEN_SOLVE_SHA256[algo_args]


# sha256 of the `solve --output` JSON on the `gen --n 200 --k 6 --seed 7`
# instance with `--algo sweep --m 2`: every sweep group holds 12 terminals,
# so every group is solved by the exact set-partition DP over Held-Karp.
# Recorded before the Held-Karp and partition tables were cached per size;
# re-recorded when each tour length became the fsum of its edges, not the
# DP's path sum (the same tours and the same cost, 35.10412075992645).
GOLDEN_SOLVE_EXACT_SHA256 = "49b5e859f80a78758e8124f09d70da71173a2177c0736fa18fdc84b04ee2f43c"


def test_solve_output_golden_exact_groups(tmp_path):
    instance_file = tmp_path / "inst.txt"
    solution_file = tmp_path / "sol.json"
    assert main(["gen", "--n", "200", "--k", "6", "--seed", "7",
                 "--output", str(instance_file)]) == 0
    assert main(["solve", "--algo", "sweep", "--m", "2", "--input", str(instance_file),
                 "--output", str(solution_file)]) == 0
    solution = json.loads(solution_file.read_text())
    assert all(len(tour["indices"]) <= 6 for tour in solution["tours"])
    digest = hashlib.sha256(solution_file.read_bytes()).hexdigest()
    assert digest == GOLDEN_SOLVE_EXACT_SHA256


def test_eval_g_matches_library(capsys):
    assert main(["eval-g", "--a", "0.31", "--b", "0.77"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    got = {line.split()[0]: float(line.split()[1]) for line in lines}
    v1, v2, v3, R = g_all(0.31, 0.77)
    assert got["g1"] == v1 and got["g2"] == v2 and got["g3"] == v3 and got["R"] == R


def test_far_depot_radius(tmp_path, capsys):
    # g1 lost everything to cancellation here: eval-g printed g1 0.0 and
    # `bounds --r auto` exited 2 with "R must be > 0"
    assert main(["eval-g", "--a", "1e100", "--b", "0.5"]) == 0
    got = {k: float(v) for k, v in
           (line.split() for line in capsys.readouterr().out.splitlines())}
    assert got["g1"] == pytest.approx(1e100, rel=1e-12)
    assert got["R"] == 0.75 * got["g1"] and got["g3"] == 1.0
    instance_file = tmp_path / "far_depot.txt"
    instance_file.write_text("3 2 1e100 0.5\n0.1 0.2\n0.5 0.9\n0.8 0.4\n")
    assert main(["bounds", "--input", str(instance_file), "--r", "auto"]) == 0
    R = json.loads(capsys.readouterr().out)["R"]
    assert math.isfinite(R) and R == pytest.approx(0.75e100, rel=1e-12)


@pytest.mark.parametrize("flag", ["--a", "--b"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_eval_g_rejects_non_finite(flag, value, capsys):
    values = {"--a": "0.5", "--b": "0.5", flag: value}
    assert main(["eval-g", *(f"{k}={v}" for k, v in values.items())]) == 2
    err = capsys.readouterr().err
    assert "error: non-finite depot: Point" in err


def test_verify_net_cli(tmp_path, capsys):
    report_file = tmp_path / "report.txt"
    code = main(["verify-net", "--stride", "300", "--report", str(report_file)])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out
    with open(report_file, encoding="utf-8") as fp:
        header, failures = read_report(fp)
    assert header["pass"] is True
    assert header["points_checked"] == net_size(300)
    assert failures == []


def test_verify_net_threads_match(tmp_path):
    r1 = tmp_path / "a.txt"
    r2 = tmp_path / "b.txt"
    assert main(["verify-net", "--stride", "400", "--report", str(r1)]) == 0
    assert main(["verify-net", "--stride", "400", "--threads", "2",
                 "--report", str(r2)]) == 0
    with open(r1, encoding="utf-8") as fp:
        h1, f1 = read_report(fp)
    with open(r2, encoding="utf-8") as fp:
        h2, f2 = read_report(fp)
    h1.pop("runtime_seconds")
    h2.pop("runtime_seconds")
    assert h1 == h2 and f1 == f2


def test_experiment_cli(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code = main([
        "experiment", "--n", "9", "--k", "3", "--m", "1",
        "--seeds", "0:3",
        "--small-instance-mode", "--output", str(out_file),
    ])
    assert code == 0
    with open(out_file, encoding="utf-8") as fp:
        rows = read_csv(fp)
    assert len(rows) == 6  # 3 seeds x 2 algos
    assert all(r.ratio >= 1.0 - 1e-9 for r in rows)
    assert "mean cost / best-certified-lower-bound" in capsys.readouterr().out


def test_experiment_k_alpha(tmp_path):
    out_file = tmp_path / "rows.csv"
    assert main(["experiment", "--n", "16", "--k-alpha", "0.5",
                 "--seeds", "1", "--output", str(out_file)]) == 0
    with open(out_file, encoding="utf-8") as fp:
        rows = read_csv(fp)
    assert all(r.k == 4 for r in rows)


def test_experiment_rejects_m0(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    assert main(["experiment", "--n", "20", "--k", "4", "--m", "0",
                 "--algos", "itp", "--output", str(out_file)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize("algo", ALGOS)
def test_solve_rejects_nonpositive_m(tmp_path, capsys, algo):
    # `solve --algo itp --m -5` exited 0, while the sweep exited 2
    instance_file = tmp_path / "inst.txt"
    out_file = tmp_path / "sol.json"
    assert main(["gen", "--n", "10", "--k", "3", "--output", str(instance_file)]) == 0
    assert main(["solve", "--algo", algo, "--m", "-5", "--input", str(instance_file),
                 "--output", str(out_file)]) == 2
    assert "M must be >= 1" in capsys.readouterr().err
    assert not out_file.exists()


def test_experiment_small_instance_mode_rejects_large_n(tmp_path, capsys):
    # the limit is the group DP's cap, 12 terminals at any k: n = 12 and
    # n = 10 at k = 10 were refused while the brute force gave the optimum
    out_file = tmp_path / "rows.csv"
    assert main(["experiment", "--n", "13", "--k", "3", "--small-instance-mode",
                 "--output", str(out_file)]) == 2
    assert ("small-instance mode takes at most 12 terminals, got n = 13"
            in capsys.readouterr().err)
    assert not out_file.exists()
    for n, k in (("12", "3"), ("10", "10")):
        assert main(["experiment", "--n", n, "--k", k, "--small-instance-mode",
                     "--output", str(out_file)]) == 0
        with open(out_file, encoding="utf-8") as fp:
            rows = read_csv(fp)
        assert len(rows) == 2 and all(r.ratio >= 1.0 - 1e-9 for r in rows)


def test_experiment_rejects_negative_n(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    assert main(["experiment", "--n", "-3", "--k", "1", "--output", str(out_file)]) == 2
    assert "n must be >= 0, got -3" in capsys.readouterr().err
    assert not out_file.exists()


def test_experiment_rejects_empty_algos(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    assert main(["experiment", "--n", "20", "--k", "4", "--algos", ",",
                 "--output", str(out_file)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_file.exists()


def test_experiment_rejects_repeated_seeds(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    assert main(["experiment", "--n", "5", "--k", "2", "--seeds", "0,0",
                 "--output", str(out_file)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_file.exists()


def test_tsp_mode_choices_come_from_tsp_modes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--n", "2", "--k", "1", "--tsp-mode", "bogus",
              "--output", str(tmp_path / "rows.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert all(mode in err for mode in TSP_MODES)


def test_exact_is_not_a_tsp_mode(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--n", "9", "--k", "3", "--tsp-mode", "exact",
              "--output", str(tmp_path / "rows.csv")])
    assert exc.value.code == 2
    assert "invalid choice: 'exact'" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("computed before the output path was checked")


@pytest.mark.parametrize("command, computes", [
    (["experiment", "--n", "2000", "--k", "45", "--seeds", "0:2", "--output"],
     "sweepcvrp.cli.run_ratio_experiment"),
    (["verify-net", "--stride", "1", "--report"], "sweepcvrp.netverify._scan_rows"),
    (["solve", "--input", "INSTANCE", "--output"], "sweepcvrp.cli.solve"),
    (["gen", "--n", "5", "--k", "2", "--output"], "sweepcvrp.cli.gen_instance"),
])
def test_unwritable_output_fails_before_computing(tmp_path, monkeypatch, capsys,
                                                  command, computes):
    instance_file = tmp_path / "inst.txt"
    assert main(["gen", "--n", "5", "--k", "2", "--output", str(instance_file)]) == 0
    monkeypatch.setattr(computes, _never)
    argv = [str(instance_file) if w == "INSTANCE" else w for w in command]
    assert main([*argv, str(tmp_path / "missing" / "out.txt")]) == 2
    assert "No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    (["solve", "--m", "0", "--input", "INSTANCE"], "--output"),
    (["verify-net", "--stride", "0"], "--report"),
    (["verify-net", "--threads", "0"], "--report"),
])
def test_failed_command_leaves_no_output(tmp_path, capsys, command, flag):
    instance_file = tmp_path / "inst.txt"
    assert main(["gen", "--n", "5", "--k", "2", "--output", str(instance_file)]) == 0
    out_file = tmp_path / "out.txt"
    argv = [str(instance_file) if w == "INSTANCE" else w for w in command]
    assert main([*argv, flag, str(out_file)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_file.exists()


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


@pytest.mark.parametrize("command, flag, patch", [
    (["solve", "--m", "0", "--input", "INSTANCE"], "--output", None),
    (["solve", "--input", "INSTANCE"], "--output", "sweepcvrp.cli.solve"),
    (["verify-net", "--stride", "0"], "--report", None),
    (["verify-net", "--stride", "200"], "--report", "sweepcvrp.netverify._scan_rows"),
    (["experiment", "--n", "20", "--k", "4", "--m", "0"], "--output", None),
    (["experiment", "--n", "20", "--k", "4"], "--output",
     "sweepcvrp.cli.run_ratio_experiment"),
], ids=["solve-invalid", "solve-interrupted", "verify-net-invalid",
        "verify-net-interrupted", "experiment-invalid", "experiment-interrupted"])
def test_failed_command_keeps_existing_output(tmp_path, monkeypatch, capsys,
                                              command, flag, patch):
    instance_file = tmp_path / "inst.txt"
    assert main(["gen", "--n", "5", "--k", "2", "--output", str(instance_file)]) == 0
    out_file = tmp_path / "out.txt"
    old = b"results of an earlier run\n\x00\xff\n"
    out_file.write_bytes(old)
    argv = [str(instance_file) if w == "INSTANCE" else w for w in command]
    if patch is None:
        assert main([*argv, flag, str(out_file)]) == 2
    else:  # interrupted while computing
        monkeypatch.setattr(patch, _interrupt)
        with pytest.raises(KeyboardInterrupt):
            main([*argv, flag, str(out_file)])
    assert out_file.read_bytes() == old


def test_solve_replaces_existing_output(tmp_path, capsys):
    instance_file = tmp_path / "inst.txt"
    assert main(["gen", "--n", "9", "--k", "3", "--output", str(instance_file)]) == 0
    fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
    reused.write_text("x" * 100_000)
    for out_file in (fresh, reused):
        assert main(["solve", "--input", str(instance_file),
                     "--output", str(out_file)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()


def _option(command: str, flag: str) -> argparse.Action:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if flag in a.option_strings)


def test_algo_choices_come_from_algos(tmp_path, capsys):
    assert tuple(_option("solve", "--algo").choices) == ALGOS
    algos = _option("experiment", "--algos")
    assert algos.default == ",".join(ALGOS)
    assert ",".join(ALGOS) in algos.help
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--algo", "bogus", "--input", str(tmp_path / "x.txt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert all(algo in err for algo in ALGOS)


def test_bounds_rejects_nan_radius(tmp_path, capsys):
    # the instance file is read before R is checked
    instance_file = tmp_path / "inst.txt"
    instance_file.write_text("3 2 0.5 0.5\n0.1 0.2\n0.5 0.9\n0.8 0.4\n")
    assert main(["bounds", "--input", str(instance_file), "--r", "nan"]) == 2
    assert "error: R must be >= 0 or inf, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["-inf", "-1e400"])
def test_bounds_rejects_negative_radius(tmp_path, capsys, r):
    instance_file = tmp_path / "inst.txt"
    instance_file.write_text("3 2 0.5 0.5\n0.1 0.2\n0.5 0.9\n0.8 0.4\n")
    assert main(["bounds", "--input", str(instance_file), f"--r={r}"]) == 2
    assert "error: R must be >= 0 or inf, got -inf" in capsys.readouterr().err


def test_bounds_radius_beyond_float_range_is_inf(tmp_path, capsys):
    instance_file = tmp_path / "inst.txt"
    instance_file.write_text("3 2 0.5 0.5\n0.1 0.2\n0.5 0.9\n0.8 0.4\n")
    out = {}
    for r in ("inf", "1e400"):
        for fmt in ("json", "csv"):
            assert main(["bounds", "--input", str(instance_file), "--r", r,
                         "--format", fmt]) == 0
            out[r, fmt] = capsys.readouterr().out
    assert out["1e400", "json"] == out["inf", "json"]
    assert out["1e400", "csv"] == out["inf", "csv"]
    assert json.loads(out["1e400", "json"])["R"] == "inf"


@pytest.mark.parametrize("flag", ["--a", "--b"])
@pytest.mark.parametrize("value", ["1e160", "-1e160", "1e200"])
def test_eval_g_rejects_out_of_range_depot(flag, value, capsys):
    # iv_g refuses these depots, so eval-g does not print values for them
    values = {"--a": "0.5", "--b": "0.5", flag: value}
    assert main(["eval-g", *(f"{k}={v}" for k, v in values.items())]) == 2
    captured = capsys.readouterr()
    assert "error: too large depot: Point" in captured.err and captured.out == ""


def test_eval_g_accepts_the_coordinate_bound(capsys):
    assert main(["eval-g", "--a=1e150", "--b=-1e150"]) == 0
    got = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert got == {k: repr(v) for k, v in zip(("g1", "g2", "g3", "R"),
                                               g_all(1e150, -1e150))}


@pytest.mark.parametrize("value", ["nan", "-inf", "1e160"])
@pytest.mark.parametrize("command", [
    ["gen", "--n", "3", "--k", "1"],
    ["experiment", "--n", "3", "--k", "1"],
])
@pytest.mark.parametrize("flag", ["--depot-x", "--depot-y"])
def test_depot_rejects_out_of_range(tmp_path, capsys, command, flag, value):
    assert main([*command, f"{flag}={value}", "--output", str(tmp_path / "out")]) == 2
    assert " depot: Point" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_rejects_negative_seed(tmp_path, capsys):
    assert main(["gen", "--n", "3", "--k", "1", "--seed", "-1",
                 "--output", str(tmp_path / "out")]) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_rejects_seed_beyond_philox_keys(tmp_path, capsys):
    # numpy's "key must be positive and less than 2**128." before
    assert main(["gen", "--n", "3", "--k", "1", "--seed", str(2 ** 128),
                 "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: seed must be < 2**128, got {2 ** 128}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["gen", "--n", "3", "--k", "1"],
    ["experiment", "--n", "3", "--k", "1"],
])
@pytest.mark.parametrize("flag", ["--depot-x", "--depot-y"])
def test_depot_rejects_non_finite(tmp_path, capsys, command, flag):
    assert main([*command, f"{flag}=inf", "--output", str(tmp_path / "out")]) == 2
    assert "error: non-finite depot: Point" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds", ["0,1,2,-1", "0:2,340282366920938463463374607431768211456"])
def test_out_of_range_seed_fails_before_any_instance(tmp_path, monkeypatch, capsys, seeds):
    monkeypatch.setattr("sweepcvrp.experiments.gen_instance", _never)
    out_file = tmp_path / "rows.csv"
    assert main(["experiment", "--n", "2000", "--k", "45", f"--seeds={seeds}",
                 "--output", str(out_file)]) == 2
    assert "seeds must be in 0 .. 2**128 - 1" in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize("seeds", ["3:1", "0:2,3:1", "2:2"])
def test_seeds_reject_empty_range(tmp_path, capsys, seeds):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--n", "20", "--k", "4", f"--seeds={seeds}",
              "--output", str(tmp_path / "rows.csv")])
    assert exc.value.code == 2
    assert "empty seed range" in capsys.readouterr().err


def test_far_coordinate_instance_exits_2(tmp_path):
    # a terminal at x = 1e160 hung `solve` and `bounds` in the heuristic TSP
    # (20 terminals), or printed an infinite diameter (10 terminals)
    pts = np.random.default_rng(0).random((20, 2)).tolist()
    pts[5][0] = 1e160
    paths = []
    for n in (20, 10):
        paths.append(str(tmp_path / f"far{n}.txt"))
        Path(paths[-1]).write_text(f"{n} 4 0.5 0.5\n"
                                   + "".join(f"{x!r} {y!r}\n" for x, y in pts[:n]))
    code = (
        "import contextlib, io\n"
        "from sweepcvrp.cli import main\n"
        f"for path in {paths!r}:\n"
        "    for argv in (['solve', '--algo', 'itp', '--input', path],\n"
        "                 ['bounds', '--input', path, '--r', '0']):\n"
        "        err = io.StringIO()\n"
        "        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert main(argv) == 2, argv\n"
        "        assert 'too large coordinate' in err.getvalue(), err.getvalue()\n"
    )
    run_in_child(code, timeout=20)


def test_verify_net_failure_exits_1(monkeypatch, capsys):
    import sweepcvrp.cli as cli_mod
    from sweepcvrp.netverify import NetCertificate

    failed = NetCertificate(
        points_checked=10, min_margin_g2=-0.1, min_margin_g3=0.2,
        min_margin_g2_at=(0, 3), min_margin_g3_at=(1, 1),
        threshold_g2=0.0025, threshold_g3=0.0096,
        lipschitz_slack_g2=1e-4, lipschitz_slack_g3=3e-3,
        passed=False, stride=1, runtime_seconds=0.1,
    )
    monkeypatch.setattr(cli_mod, "verify_all", lambda **kwargs: failed)
    assert main(["verify-net", "--stride", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing --input
    assert exc.value.code == 2
    # a bad value is the package's ValueError, which main turns into exit 2
    instance_file = tmp_path / "inst.txt"
    instance_file.write_text("3 2 0.5 0.5\n0.1 0.2\n0.5 0.9\n0.8 0.4\n")
    assert main(["bounds", "--input", str(instance_file), "--r", "-3"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    # runtime errors (missing file) are also usage-class failures
    assert main(["solve", "--input", str(tmp_path / "missing.txt")]) == 2


@pytest.mark.parametrize("flag", ["--stride", "--threads"])
def test_verify_net_rejects_nonpositive(flag, capsys):
    assert main(["verify-net", flag, "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_rejects_bad_capacity(tmp_path):
    assert main(["gen", "--n", "3", "--k", "9",
                 "--output", str(tmp_path / "x.txt")]) == 2


def _readme_commands() -> list[list[str]]:
    """The arguments of every `sweepcvrp ...` line in the README's sh blocks,
    with backslash continuations joined and `#` comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in text.split("```sh\n")[1:]:
        body = block.split("```")[0].replace("\\\n", " ")
        for line in body.splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "sweepcvrp":
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) == 9
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: sweepcvrp {shlex.join(argv)}")
