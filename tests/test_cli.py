"""Command-line interface: subcommand output, exit codes, file handling."""
import csv
import io
import os
import pathlib
import resource
import subprocess
import sys
import tracemalloc

import pytest

import causalbandit
from causalbandit import sweep
from causalbandit.cli import main
from causalbandit.model import uncertain_rows

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_tree_summary(capsys):
    code, out, _ = run_cli(["gen", "--tree-height", "4", "--budgets", "2,4,8"],
                           capsys)
    assert code == 0
    assert "N=31" in out
    assert "C=60" in out
    assert "|A|=120/1820/12870" in out


def test_gen_bundled_network(capsys):
    code, out, _ = run_cli(["gen", "--bif", "alarm", "--budgets", "2,4,8"], capsys)
    assert code == 0
    assert "instance: alarm" in out
    assert "N=37" in out
    assert "C=116" in out
    assert "|A|=78/793/3796" in out


def test_gen_counts_the_arms_without_building_them(capsys):
    """tree-h6 at budget 4 has 635,376 arms x 127 nodes, an 80 MB int8
    matrix, of which `gen` prints only the size."""
    tracemalloc.start()
    try:
        code, out, _ = run_cli(["gen", "--tree-height", "6", "--budgets", "4"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.endswith("N=127\nC=252\n|A|=635376\nb=4: |A|=635376\n")
    assert peak < 635376 * 127 // 100


GEN_SOURCES = [["--tree-height", str(h)] for h in (1, 2, 3, 4)] + [
    ["--bif", "alarm"], ["--bif", "water"], ["--bif", str(FIXTURES / "chain.bif")]]


@pytest.mark.parametrize("source", GEN_SOURCES, ids=[*(f"tree-h{h}" for h in (1, 2, 3, 4)),
                                                     "alarm", "water", "chain.bif"])
def test_gen_counts_match_the_built_arm_sets(source, capsys):
    """`gen` counts C and |A| in closed form; both equal those of the arm
    sets `build_arms` makes, at every budget up to 4 (chain.bif has one root)."""
    config = (sweep.ExperimentConfig(source="tree", tree_height=int(source[1]))
              if source[0] == "--tree-height" else
              sweep.ExperimentConfig(source="bif", bif=source[1]))
    _, dag, targets = sweep.load_structure(config)
    budgets = range(1, min(4, len(targets)) + 1)
    code, out, _ = run_cli(["gen", *source, "--budgets", ",".join(map(str, budgets))], capsys)
    assert code == 0
    built = [sweep.build_arms(config, dag, targets, b) for b in budgets]
    lines = out.splitlines()
    assert lines[2:] == [f"C={uncertain_rows(dag, built[0])}",
                         "|A|=" + "/".join(str(len(arms)) for arms in built)] + [
        f"b={b}: |A|={len(arms)}" for b, arms in zip(budgets, built)]
    assert all(uncertain_rows(dag, arms) == uncertain_rows(dag, built[0]) for arms in built)


@pytest.mark.parametrize("argv", [
    ["gen", "--bif", "water", "--budgets", "2"],
    ["run", "--set", "source=bif", "--set", "bif=water", "--set", "strategies=uniform"]],
    ids=["gen", "run"])
def test_a_directory_does_not_hide_a_bundled_network(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    want = run_cli(argv, capsys)
    (tmp_path / "water").mkdir()
    assert run_cli(argv, capsys) == want
    assert want[0] == 0 and want[2] == "" and "water" in want[1]


def test_gen_rejects_bad_budget_list(capsys):
    code, _, err = run_cli(["gen", "--budgets", "2,x"], capsys)
    assert code == 1
    assert "comma-separated integers" in err


def test_gamma_singleton_arm_prints_node_count_minus_fixed(capsys):
    code, out, _ = run_cli(["gamma", "--tree-height", "2", "--arms", "1******",
                            "--alpha-seed", "3"], capsys)
    assert code == 0
    assert "gamma=6\n" in out
    assert "converged=true" in out


def test_gamma_all_clamped_arm_is_zero_and_converged(capsys):
    # the arm frees no node: no term, no vote, and no extra solver start
    code, out, _ = run_cli(["gamma", "--tree-height", "2", "--arms", "1111111"], capsys)
    assert code == 0
    assert "gamma=0\n" in out
    assert "converged=true" in out
    assert "terms=0" in out


def test_gamma_rejects_malformed_arm(capsys):
    code, _, err = run_cli(["gamma", "--tree-height", "2", "--arms", "12*"],
                           capsys)
    assert code == 1
    assert "characters" in err


def test_gamma_checks_an_arm_length_before_building_the_tree(capsys, monkeypatch):
    """A tree of height 25 has 67,108,863 nodes: a one-character arm exits 1
    on the node count alone, and the tree is never built."""
    def unbuilt(height):
        raise AssertionError(f"a tree of height {height} was built")

    monkeypatch.setattr(sweep, "_tree_dag", unbuilt)
    code, out, err = run_cli(["gamma", "--tree-height", "25", "--arms", "0"], capsys)
    assert code == 1 and out == ""
    assert err == "error: arm '0' has 1 characters, instance has 67108863 nodes\n"


def test_gamma_enumerated_budget(capsys):
    code, out, _ = run_cli(["gamma", "--tree-height", "2", "--budget", "1",
                            "--alpha-seed", "1"], capsys)
    assert code == 0
    assert "arms=4" in out
    line = next(l for l in out.splitlines() if l.startswith("gamma="))
    assert float(line.split("=")[1]) > 0.0


@pytest.mark.parametrize("flags, message", [
    (["--max-iters", "0"], "max_iters"),
    (["--max-iters=-3"], "max_iters"),
    (["--alpha-seed=-1"], "--alpha-seed"),
    (["--tolerance=-1"], "tolerance"),
    (["--tolerance", "nan"], "tolerance"),
])
def test_gamma_rejects_out_of_range_flags(flags, message, capsys):
    code, out, err = run_cli(["gamma", "--tree-height", "2", *flags], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_parse_bif_prints_structure(capsys):
    code, out, _ = run_cli(["parse-bif", str(FIXTURES / "diamond.bif")], capsys)
    assert code == 0
    assert "name: diamond" in out
    assert "variables: 4" in out
    assert "edges: 4" in out
    assert "roots: 1 (A)" in out
    assert "binary rows: 9" in out


def test_parse_bif_missing_file_is_data_error(capsys):
    code, _, err = run_cli(["parse-bif", "/no/such/file.bif"], capsys)
    assert code == 2
    assert "data error" in err


@pytest.mark.parametrize("argv", [
    ["run", "--set", "source=bif", "--set", "bif=alarmx"],
    ["gamma", "--bif", "alarmx"],
    ["gen", "--bif", "alarmx"],
])
def test_unknown_network_name_is_data_error(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err == ("data error: 'alarmx' is neither a file nor a bundled network "
                   "(alarm, water)\n")


def test_parse_bif_malformed_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.bif"
    bad.write_text("network broken { unclosed")
    code, _, err = run_cli(["parse-bif", str(bad)], capsys)
    assert code == 2
    assert "data error" in err
    assert "line" in err


def test_run_writes_csv_to_stdout(capsys):
    code, out, err = run_cli(["run", "--set", "tree_height=2",
                              "--set", "budgets=1", "--set", "multipliers=3",
                              "--set", "trials=1",
                              "--set", "strategies=uniform,successive-rejects"],
                             capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,strategy,budget,horizon,trials,mean_regret,std_err,runtime_ms"
    assert len(lines) == 3
    assert err == ""


def test_run_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# tiny sweep\ntree_height=2\nbudgets=1\nmultipliers=3\n"
                   "trials=2\nseed=5\nstrategies=uniform\n")
    code, out, _ = run_cli(["run", "--config", str(cfg),
                            "--set", "budgets=1,2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert ",1,36," in lines[1] and ",2,36," in lines[2]


def test_run_out_flag_reruns_byte_identical(tmp_path, capsys):
    argv = ["run", "--set", "tree_height=2", "--set", "budgets=1",
            "--set", "multipliers=3", "--set", "trials=2", "--set", "seed=9",
            "--set", "strategies=proposed-practical,uniform"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(b"instance,strategy,")


def test_run_rejects_unknown_strategy(capsys):
    code, _, err = run_cli(["run", "--set", "strategies=warp-drive"], capsys)
    assert code == 1
    assert "warp-drive" in err


def test_run_rejects_malformed_set(capsys):
    code, _, err = run_cli(["run", "--set", "trials"], capsys)
    assert code == 1
    assert "KEY=VALUE" in err


def test_run_fix_alpha_flag_changes_report(capsys):
    argv = ["run", "--set", "tree_height=2", "--set", "budgets=1",
            "--set", "multipliers=3", "--set", "trials=3", "--set", "seed=2",
            "--set", "strategies=uniform"]
    code, varying, _ = run_cli(argv, capsys)
    assert code == 0
    code, fixed, _ = run_cli(argv + ["--set", "fix_alpha=true"], capsys)
    assert code == 0
    assert varying != fixed


def test_run_rejects_non_integer_worker_count(capsys, monkeypatch):
    monkeypatch.setenv("CAUSALBANDIT_WORKERS", "two")
    code, out, err = run_cli(["run", "--set", "tree_height=2", "--set", "budgets=1",
                              "--set", "strategies=uniform"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: CAUSALBANDIT_WORKERS expects an integer, got 'two'\n"


@pytest.mark.parametrize("text", ["0", "-2"])
def test_run_rejects_a_worker_count_below_one(text, capsys, monkeypatch):
    monkeypatch.setenv("CAUSALBANDIT_WORKERS", text)
    code, out, err = run_cli(["run", "--set", "tree_height=2", "--set", "budgets=1",
                              "--set", "strategies=uniform"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: CAUSALBANDIT_WORKERS must be at least 1, got {text}\n"


def test_run_quotes_a_label_with_a_comma(tmp_path, capsys):
    bundled = pathlib.Path(causalbandit.__file__).parent / "data" / "water.bif"
    path = tmp_path / "a,b.bif"
    path.write_text(bundled.read_text(encoding="utf-8"), encoding="utf-8")
    code, out, _ = run_cli(["run", "--set", "source=bif", "--set", f"bif={path}",
                            "--set", "strategies=uniform"], capsys)
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert len(header) == len(row) == 8
    assert row[:2] == ["a,b", "uniform"]


def test_run_reports_failed_cells_on_stderr(capsys):
    code, out, err = run_cli(["run", "--set", "tree_height=2",
                              "--set", "budgets=4", "--set", "multipliers=3",
                              "--set", "trials=1",
                              "--set", "strategies=successive-rejects,uniform"],
                             capsys)
    assert code == 0
    assert "warning:" in err and "successive-rejects" in err
    assert len(out.strip().splitlines()) == 2


def test_run_warns_when_successive_rejects_cannot_pull(capsys):
    argv = ["run", "--set", "tree_height=4", "--set", "budgets=4",
            "--set", "multipliers=3", "--set", "trials=1",
            "--set", "strategies=successive-rejects,uniform"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert err == ("warning: budget=4 multiplier=3 strategy=successive-rejects: "
                   "horizon 180 is at most the arm count 1820, so successive "
                   "rejects spent no experiments\n")
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("tree-h4,successive-rejects,4,180,1,")


def test_run_errors_when_every_cell_fails(capsys):
    code, _, err = run_cli(["run", "--set", "tree_height=2",
                            "--set", "budgets=4", "--set", "multipliers=3",
                            "--set", "trials=1",
                            "--set", "strategies=successive-rejects"], capsys)
    assert code == 1
    assert "every sweep cell failed" in err


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1


def test_module_entry_point_runs_in_subprocess():
    # the child imports the same package as this process, installed or not
    package_root = pathlib.Path(causalbandit.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "causalbandit.cli", "gen", "--tree-height", "2",
         "--budgets", "1"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)})
    assert proc.returncode == 0
    assert "N=7" in proc.stdout


# Runs the CLI in a child and prints how long `main` took, so start-up is not
# counted against the second the arm guard has.
TIMED_MAIN = """
import sys, time
from causalbandit.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(f"main_s={time.perf_counter() - start:.3f}")
sys.exit(code)
"""


def _cap_address_space():
    # a regression then fails with MemoryError instead of filling the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv, message", [
    # tree-h7 at budget 4: C(128, 4) arms
    (["gen", "--tree-height", "7", "--budgets", "4"], "10668000 arms x 255 nodes"),
    (["gamma", "--tree-height", "7", "--budget", "4"], "10668000 arms x 255 nodes"),
    (["gamma", "--tree-height", "30", "--budget", "1"], "height 30 has 2^31 - 1 nodes"),
    # C(2^25, 1) and C(2^20, 2) arms; the trees alone used to fill the memory
    (["gamma", "--tree-height", "25", "--budget", "1"], "33554432 arms x 67108863 nodes"),
    (["gen", "--tree-height", "20", "--budgets", "2"], "549755289600 arms x 2097151 nodes"),
])
def test_arm_set_over_the_cell_limit_exits_before_enumerating(argv, message):
    package_root = pathlib.Path(causalbandit.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, *argv], capture_output=True, text=True,
        timeout=120, preexec_fn=_cap_address_space,
        env={**os.environ, "PYTHONPATH": str(package_root), "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 1, proc.stderr
    assert message in proc.stderr
    assert float(proc.stdout.split("main_s=")[1]) < 1.0


def _run_capped(argv):
    package_root = pathlib.Path(causalbandit.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, *argv], capture_output=True, text=True,
        timeout=120, preexec_fn=_cap_address_space,
        env={**os.environ, "PYTHONPATH": str(package_root), "OPENBLAS_NUM_THREADS": "1"})


@pytest.mark.parametrize("budgets, message", [
    # C(2^24, b) is 0 above the 2^24 leaves, which once let the tree through
    ("20000000", "error: budget 20000000 not in [1, 16777216]"),
    ("2,20000000", "error: 140737479966720 arms x 33554431 nodes"),
])
def test_budget_above_the_leaf_count_exits_before_building_the_tree(budgets, message):
    proc = _run_capped(["gen", "--tree-height", "24", "--budgets", budgets])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(message)
    assert float(proc.stdout.split("main_s=")[1]) < 1.0


def test_run_reports_a_budget_over_the_cell_limit_per_cell():
    proc = _run_capped(["run", "--set", "tree_height=7", "--set", "budgets=1,4",
                        "--set", "multipliers=3", "--set", "trials=1",
                        "--set", "strategies=uniform"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("warning: budget=4 multiplier=3 strategy=uniform failed: "
                           "10668000 arms x 255 nodes = 2720340000 cells exceeds the "
                           "arm cell limit 100000000\n")
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("instance,strategy,budget,") and len(lines) == 3
    assert lines[1].startswith("tree-h7,uniform,1,1524,1,")
