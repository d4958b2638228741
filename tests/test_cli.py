import argparse
import hashlib
import json
import shlex
from pathlib import Path

import pytest

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
# instance, recorded before the solver calls moved behind experiments.solve
GOLDEN_SOLVE_SHA256 = {
    ("--algo", "sweep", "--m", "2"):
        "c66ccd0ca31790689e65be1f375c8d8fb749c44b9decbb3c03d06a5d395991e9",
    ("--algo", "itp"):
        "55055e6642e957195bf8a1f6dc99fe6aed5a127faff86674a9d6d82cea4a6b1d",
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


def test_eval_g_matches_library(capsys):
    assert main(["eval-g", "--a", "0.31", "--b", "0.77"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    got = {line.split()[0]: float(line.split()[1]) for line in lines}
    v1, v2, v3, R = g_all(0.31, 0.77)
    assert got["g1"] == v1 and got["g2"] == v2 and got["g3"] == v3 and got["R"] == R


@pytest.mark.parametrize("flag", ["--a", "--b"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_eval_g_rejects_non_finite(flag, value, capsys):
    values = {"--a": "0.5", "--b": "0.5", flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["eval-g", *(f"{k}={v}" for k, v in values.items())])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: must be a finite number" in err


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
        "--seeds", "0:3", "--tsp-mode", "exact",
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


def test_bounds_rejects_nan_radius(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--input", "x", "--r", "nan"])
    assert exc.value.code == 2
    assert "error: argument --r: --r must be >= 0, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["gen", "--n", "3", "--k", "1"],
    ["experiment", "--n", "3", "--k", "1"],
])
@pytest.mark.parametrize("flag", ["--depot-x", "--depot-y"])
def test_depot_rejects_non_finite(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([*command, f"{flag}=inf", "--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"error: argument {flag}: must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_net_failure_exits_1(monkeypatch, capsys):
    import sweepcvrp.cli as cli_mod
    from sweepcvrp.netverify import NetCertificate

    failed = NetCertificate(
        points_checked=10, min_margin_g2=-0.1, min_margin_g3=0.2,
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
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--input", "x", "--r", "-3"])
    assert exc.value.code == 2
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
