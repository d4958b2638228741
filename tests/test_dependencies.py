from helpers import run_in_child


def test_solver_and_verifier_run_without_scipy():
    # numpy is the only runtime dependency; scipy may be installed but must
    # not be imported by any module or by a solve or a net check
    code = (
        "import sys\n"
        "import sweepcvrp, sweepcvrp.bruteforce, sweepcvrp.cli\n"
        "from sweepcvrp import ExperimentConfig, Point, run_ratio_experiment, verify_all\n"
        "cfg = ExperimentConfig(n=30, depot=Point(0.5, 0.5), M=2, seeds=(0,), k_fixed=5)\n"
        "assert len(run_ratio_experiment(cfg).rows) == 2\n"
        "assert verify_all(stride=400).passed\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        # a pool is imported only when verify-net runs one, and v_ratio
        # decides exactness without fractions (or the decimal it loads)
        "loaded = [m for m in ('multiprocessing', 'fractions') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    run_in_child(code, timeout=120)


def test_commands_run_without_the_brute_force_oracle():
    # bruteforce vouches for the exact solvers in the tests and in perfbench
    # only: small-instance mode reads its optimum from the group DP, and no
    # command imports the oracle
    code = (
        "import os, sys, tempfile\n"
        "from sweepcvrp.cli import main\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    inst, out = os.path.join(tmp, 'inst.txt'), os.path.join(tmp, 'out')\n"
        "    assert main(['gen', '--n', '9', '--k', '3', '--output', inst]) == 0\n"
        "    assert main(['solve', '--input', inst, '--output', out]) == 0\n"
        "    assert main(['bounds', '--input', inst]) == 0\n"
        "    assert main(['experiment', '--n', '9', '--k', '3', '--seeds', '0:2',\n"
        "                 '--small-instance-mode', '--output', out]) == 0\n"
        "assert 'sweepcvrp.bruteforce' not in sys.modules\n"
    )
    run_in_child(code, timeout=120)
