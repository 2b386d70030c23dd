import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sstpca import __version__
from sstpca.cli import main
from sstpca.decompose import FitOptions
from sstpca.deflate import fit_multi
from sstpca.fileio import load_factors, load_tensor
from sstpca.linalg import random_unit, sign_aligned_error


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args, expect=0):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == expect, result.output
    return result


@pytest.fixture()
def spike_csv(tmp_path, runner):
    data = tmp_path / "spike.csv"
    truth = tmp_path / "truth.json"
    run_ok(
        runner,
        [
            "simulate", "--preset", "spike", "--p", "12", "--t", "8", "--r", "2",
            "--d", "8", "--sigma", "0.4", "--seed", "3",
            "--data-out", str(data), "--output", str(truth),
        ],
    )
    return data, truth


@pytest.fixture()
def shift_csv(tmp_path, runner):
    data = tmp_path / "shift.csv"
    run_ok(
        runner,
        ["simulate", "--preset", "shift", "--p", "14", "--t", "16", "--r", "1",
         "--d", "10", "--sigma", "0.5", "--seed", "5",
         "--data-out", str(data), "--output", str(tmp_path / "shift.json")],
    )
    return data


@pytest.mark.parametrize(
    "args, code",
    [
        (["simulate", "--preset", "spike", "--sigma", "-1"], 2),
        (["benchmark", "--p-list", "a,b"], 2),
        (["rank-select", "--input", "{spike}", "--r-max", "0"], 2),
        (["changepoint", "--input", "{shift}", "--rank", "2", "--max-iter", "2"], 1),
        (["decompose", "--input", "{spike}", "--trace-csv", "{nodir}"], 2),
        (["decompose", "--input", "{spike}", "--output", "{nodir}"], 2),
        (["simulate", "--preset", "spike", "--tol", "0"], 2),
        (["decompose", "--input", "{spike}", "--ranks", "3,0"], 2),
        (["simulate", "--preset", "fig3", "--seeds", "0"], 2),
        (["simulate", "--preset", "fig3", "--seeds", "-1"], 2),
        (["simulate", "--preset", "fig3", "--r-list", "0"], 2),
        (["simulate", "--preset", "fig3", "--r-list=-1"], 2),
        (["simulate", "--preset", "fig3", "--r-list", ""], 2),
        (["simulate", "--preset", "shift", "--sigma", "-1"], 2),
        (["simulate", "--preset", "shift", "--d", "nan"], 2),
        (["simulate", "--preset", "spike", "--d", "nan"], 2),
        (["simulate", "--preset", "spike", "--sigma", "nan"], 2),
        (["simulate", "--preset", "spike", "--tol", "nan"], 2),
        (["simulate", "--preset", "spike", "--sigma", "inf"], 2),
        (["simulate", "--preset", "spike", "--d", "inf"], 2),
        (["simulate", "--preset", "shift", "--sigma", "inf"], 2),
        (["benchmark", "--p-list", "6", "--t", "4", "--reps", "1", "--d-list", "inf"], 2),
        (["benchmark", "--p-list", "6", "--t", "4", "--reps", "1", "--sigma", "inf"], 2),
        (["benchmark", "--p-list", "6", "--t", "4", "--reps", "1", "--d-list", "0"], 2),
        (["benchmark", "--p-list", "6", "--t", "-2", "--reps", "1"], 2),
        (["simulate", "--preset", "spike", "--t", "-1"], 2),
        (["simulate", "--preset", "fig3", "--t", "-1"], 2),
    ],
    ids=["simulate", "benchmark", "rank-select", "changepoint", "trace-csv-unwritable",
         "output-unwritable", "spike-tol-0", "decompose-rank-0", "fig3-seeds-0",
         "fig3-seeds-neg", "fig3-rank-0", "fig3-rank-neg", "fig3-no-ranks",
         "shift-sigma-neg", "shift-d-nan", "spike-d-nan", "spike-sigma-nan", "spike-tol-nan",
         "spike-sigma-inf", "spike-d-inf", "shift-sigma-inf", "benchmark-d-inf",
         "benchmark-sigma-inf", "benchmark-d-zero", "benchmark-t-neg", "spike-t-neg",
         "fig3-t-neg"],
)
def test_exit_code_contract(tmp_path, runner, spike_csv, shift_csv, args, code):
    """Input errors and unwritable paths exit 2 with no artifact; non-convergence
    exits 1 after writing it."""
    out = tmp_path / "out.json"
    inputs = {"{spike}": str(spike_csv[0]), "{shift}": str(shift_csv),
              "{nodir}": str(tmp_path / "nodir" / "x")}
    args = [inputs.get(a, a) for a in args]
    if "--output" not in args:
        args += ["--output", str(out)]
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == code, result.output
    assert result.stderr.startswith("error: " if code == 2 else "warning: ")
    assert out.exists() == (code == 1)
    assert not (tmp_path / "nodir").exists()
    if code == 1:
        assert json.loads(out.read_text())["command"] == args[0]


@pytest.mark.parametrize(
    "flag, value, name",
    [("--t", "0", "T"), ("--t", "-3", "T"), ("--p", "0", "p")],
    ids=["shift-t-0", "shift-t-neg", "shift-p-0"],
)
def test_shift_size_error_names_the_value(tmp_path, runner, flag, value, name):
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["simulate", "--preset", "shift", flag, value,
                                  "--output", str(out)], catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: need p >= 1 and T >= 1, got ")
    assert f"{name}={value}" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, env",
    [([], "abc"), ([], "0"), (["--threads", "0"], None), (["--threads", "-3"], None)],
    ids=["env-abc", "env-0", "flag-0", "flag-neg"],
)
def test_bad_thread_count_is_input_error(tmp_path, runner, flag, env):
    out = tmp_path / "out.json"
    args = ["benchmark", "--p-list", "6", "--d-list", "5", "--t", "4", "--reps", "2",
            *flag, "--output", str(out)]
    result = runner.invoke(main, args, env={"SSTPCA_THREADS": env}, catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ")
    assert ("--threads" if flag else "SSTPCA_THREADS") in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("env", ["abc", "0"])
def test_rank_select_bad_thread_count_is_input_error(tmp_path, runner, spike_csv, env):
    """rank-select takes its worker count from SSTPCA_THREADS too."""
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["rank-select", "--input", str(spike_csv[0]), "--r-max", "2",
                                  "--output", str(out)],
                           env={"SSTPCA_THREADS": env}, catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ") and "SSTPCA_THREADS" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["decompose", "--input", "{spike}", "--ranks", "2"],
        ["changepoint", "--input", "{shift}"],
        ["rank-select", "--input", "{spike}", "--r-max", "1", "--k-max", "1"],
        ["simulate", "--preset", "spike", "--p", "6", "--t", "4"],
        ["benchmark", "--p-list", "6", "--d-list", "5", "--t", "4", "--reps", "1",
         "--threads", "2"],
    ],
    ids=lambda args: args[0],
)
def test_config_echoes_own_options(tmp_path, runner, spike_csv, shift_csv, args):
    """`config` holds the command name and exactly that command's options, minus --threads."""
    out = tmp_path / "out.json"
    inputs = {"{spike}": str(spike_csv[0]), "{shift}": str(shift_csv)}
    run_ok(runner, [inputs.get(a, a) for a in args] + ["--output", str(out)])
    config = json.loads(out.read_text())["config"]
    params = {p.name for p in main.commands[args[0]].params}
    assert set(config) == {"command"} | params - {"threads"}
    assert config["command"] == args[0]
    assert config["output"] == str(out)


class TestDecomposeCommand:
    def test_writes_results_and_roundtrips(self, tmp_path, runner, spike_csv):
        data, truth = spike_csv
        out = tmp_path / "dec.json"
        run_ok(
            runner,
            ["decompose", "--input", str(data), "--ranks", "2,1",
             "--scheme", "hotelling", "--seed", "7", "--output", str(out)],
        )
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["library_version"] == __version__
        assert payload["config"]["ranks"] == [2, 1]
        res = payload["results"]
        assert res["p"] == 12 and res["T"] == 8
        assert len(res["factors"]) == 2
        assert len(res["residual_norms"]) == 3
        assert res["factors"][0]["d"] >= res["factors"][1]["d"]
        factors = load_factors(out)
        assert len(factors) == 2
        # loading back reproduces the stored numbers exactly
        assert factors[0].d == res["factors"][0]["d"]
        assert np.array_equal(factors[0].u, np.asarray(res["factors"][0]["u"]))

    def test_recovers_truth(self, tmp_path, runner, spike_csv):
        data, truth = spike_csv
        out = tmp_path / "dec.json"
        run_ok(
            runner,
            ["decompose", "--input", str(data), "--ranks", "2", "--seed", "0",
             "--output", str(out)],
        )
        tr = json.loads(truth.read_text())["results"]
        factors = load_factors(out)
        u_star = np.asarray(tr["u_star"])
        assert sign_aligned_error(factors[0].u, u_star) < 0.2

    def test_byte_identical_reruns(self, tmp_path, runner, spike_csv):
        data, _ = spike_csv
        out = tmp_path / "dec.json"
        args = ["decompose", "--input", str(data), "--ranks", "2",
                "--scheme", "projection", "--seed", "7", "--output", str(out)]
        run_ok(runner, args)
        first = out.read_bytes()
        run_ok(runner, args)
        assert out.read_bytes() == first

    def test_random_init_is_one_start_drawn_from_seed(self, tmp_path, runner, spike_csv):
        data, _ = spike_csv
        X = load_tensor(data, "long-csv")
        start = random_unit(X.T, np.random.default_rng(5))
        want = fit_multi(X, [2, 1], "hotelling", FitOptions(init=start)).factors
        got = {}
        for seed in (5, 6):
            out = tmp_path / f"dec{seed}.json"
            run_ok(runner, ["decompose", "--input", str(data), "--ranks", "2,1", "--init",
                            "random", "--seed", str(seed), "--output", str(out)])
            got[seed] = load_factors(out)
        for f, g in zip(want, got[5], strict=True):
            assert f.d == g.d
            assert np.array_equal(f.u, g.u) and np.array_equal(f.V, g.V)
        assert not all(np.array_equal(f.u, g.u) for f, g in zip(got[5], got[6]))

    def test_nonconvergence_exit_code(self, tmp_path, runner, spike_csv):
        data, _ = spike_csv
        out = tmp_path / "dec.json"
        result = runner.invoke(
            main,
            ["decompose", "--input", str(data), "--ranks", "2", "--max-iter", "1",
             "--output", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 1
        assert out.exists()  # artifact still written

    def test_input_error_exit_code(self, tmp_path, runner):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,i,j,w\n1,1,2,0.5\n1,2,1,0.9\n")
        out = tmp_path / "dec.json"
        result = runner.invoke(
            main,
            ["decompose", "--input", str(bad), "--ranks", "1", "--output", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 2

    def test_edge_threshold_emits_networks(self, tmp_path, runner, spike_csv):
        data, _ = spike_csv
        out = tmp_path / "dec.json"
        run_ok(
            runner,
            ["decompose", "--input", str(data), "--ranks", "2", "--seed", "0",
             "--edge-threshold", "0.05", "--output", str(out)],
        )
        res = json.loads(out.read_text())["results"]
        net = np.asarray(res["principal_networks"][0]).reshape(12, 12)
        nonzero = net[np.abs(net) > 0]
        assert nonzero.size == 0 or np.abs(nonzero).min() >= 0.05

    def test_trace_csv(self, tmp_path, runner, spike_csv):
        data, _ = spike_csv
        out = tmp_path / "dec.json"
        trace = tmp_path / "trace.csv"
        run_ok(
            runner,
            ["decompose", "--input", str(data), "--ranks", "2", "--seed", "0",
             "--output", str(out), "--trace-csv", str(trace)],
        )
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "factor,iteration,objective,u_change"
        assert len(lines) > 1


class TestChangepointCommand:
    def test_finds_fixture_shift(self, tmp_path, runner):
        data = tmp_path / "shift.csv"
        truth = tmp_path / "truth.json"
        out = tmp_path / "cp.json"
        cusum = tmp_path / "cusum.csv"
        run_ok(
            runner,
            ["simulate", "--preset", "shift", "--p", "14", "--t", "16", "--r", "1",
             "--d", "10", "--sigma", "0.5", "--seed", "5",
             "--data-out", str(data), "--output", str(truth)],
        )
        run_ok(
            runner,
            ["changepoint", "--input", str(data), "--rank", "1", "--seed", "0",
             "--output", str(out), "--cusum-csv", str(cusum)],
        )
        tau_star = json.loads(truth.read_text())["results"]["tau_star"]
        res = json.loads(out.read_text())["results"]
        assert res["tau_hat"] == tau_star
        assert len(res["u_hat"]) == 15
        lines = cusum.read_text().strip().splitlines()
        assert lines[0] == "tau,u_hat"
        assert len(lines) == 16

    def test_constant_series_is_input_error(self, tmp_path, runner):
        data = tmp_path / "const.csv"
        rows = ["t,i,j,w"]
        for t in range(1, 5):
            rows += [f"{t},1,2,0.5", f"{t},1,3,0.25", f"{t},2,3,0.75"]
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "cp.json"
        result = runner.invoke(
            main,
            ["changepoint", "--input", str(data), "--rank", "1", "--output", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 2


class TestSimulateCommand:
    def test_fig3_csv_schema(self, tmp_path, runner):
        out = tmp_path / "fig3.json"
        csv_path = tmp_path / "fig3.csv"
        run_ok(
            runner,
            ["simulate", "--preset", "fig3", "--p", "30", "--t", "10",
             "--r-list", "1", "--seeds", "2", "--seed", "4",
             "--csv", str(csv_path), "--output", str(out)],
        )
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "r,seed,iteration,objective,armse,u_err"
        assert len(lines) > 2
        payload = json.loads(out.read_text())
        assert "per_rank" in payload["results"]

    @pytest.mark.parametrize(
        "shape", [["--t", "6", "--tau", t] for t in ("-2", "0", "6", "15")] + [["--t", "1"]],
        ids=["tau-2", "tau0", "tauT", "tau15", "T1-default"],
    )
    def test_shift_tau_outside_1_to_T_minus_1_is_input_error(self, tmp_path, runner, shape):
        out, data = tmp_path / "shift.json", tmp_path / "shift.csv"
        result = runner.invoke(main, [
            "simulate", "--preset", "shift", "--p", "10", *shape,
            "--data-out", str(data), "--output", str(out),
        ], catch_exceptions=False)
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: --tau must lie in 1..T-1")
        assert not out.exists() and not data.exists()

    @pytest.mark.parametrize("preset", ["spike", "shift"])
    def test_rank_0_is_input_error(self, tmp_path, runner, preset):
        out, data = tmp_path / "sim.json", tmp_path / "sim.csv"
        result = runner.invoke(main, [
            "simulate", "--preset", preset, "--r", "0", "--p", "6", "--t", "4", "--d", "5",
            "--data-out", str(data), "--output", str(out),
        ], catch_exceptions=False)
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: r=0 must be at least 1")
        assert not out.exists() and not data.exists()

    @pytest.mark.parametrize("preset, args", [
        ("spike", ["--p", "2", "--t", "3", "--r", "2", "--d", "1.5e308", "--sigma", "0"]),
        ("spike", ["--p", "3", "--t", "4", "--sigma", "1e308"]),
        ("shift", ["--p", "3", "--t", "4", "--sigma", "1e308"]),
    ], ids=["spike-d", "spike-sigma", "shift-sigma"])
    def test_overflowing_instance_is_input_error(self, tmp_path, runner, preset, args):
        out, data = tmp_path / "sim.json", tmp_path / "sim.csv"
        result = runner.invoke(main, [
            "simulate", "--preset", preset, *args, "--data-out", str(data), "--output", str(out),
        ], catch_exceptions=False)
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: simulated instance contains NaN or infinite")
        assert not out.exists() and not data.exists()

    def test_spike_at_one_slice_writes_strict_json(self, tmp_path, runner):
        out = tmp_path / "spike.json"
        run_ok(runner, ["simulate", "--preset", "spike", "--p", "6", "--t", "1",
                        "--output", str(out)])

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        res = json.loads(out.read_text(), parse_constant=reject)["results"]
        assert res["snr"] is None

    def test_spike_truth_schema(self, tmp_path, runner, spike_csv):
        _, truth = spike_csv
        res = json.loads(truth.read_text())["results"]
        assert set(res) >= {"p", "T", "r", "d", "sigma", "snr", "u_star", "V_star"}
        assert len(res["u_star"]) == 8
        assert len(res["V_star"]) == 12 * 2


class TestBenchmarkCommand:
    def test_json_and_csv(self, tmp_path, runner):
        out = tmp_path / "bench.json"
        csv_path = tmp_path / "bench.csv"
        run_ok(
            runner,
            ["benchmark", "--p-list", "6,8", "--t", "5", "--r", "1",
             "--d-list", "5,10", "--reps", "3", "--seed", "9",
             "--csv", str(csv_path), "--output", str(out)],
        )
        rows = json.loads(out.read_text())["results"]["rows"]
        assert len(rows) == 2 * 2 * 6  # cells x metrics
        assert csv_path.read_text().startswith("p,T,r,d,sigma,u_mode,init,reps,metric,mean,sd")

    def test_thread_count_invariance(self, tmp_path, runner):
        out = tmp_path / "bench.json"
        args = ["benchmark", "--p-list", "6", "--t", "5", "--r", "1",
                "--d-list", "5", "--reps", "4", "--seed", "9", "--output", str(out)]
        run_ok(runner, args + ["--threads", "1"])
        single = out.read_bytes()
        run_ok(runner, args + ["--threads", "4"])
        assert out.read_bytes() == single
        # env-var route
        old = os.environ.get("SSTPCA_THREADS")
        os.environ["SSTPCA_THREADS"] = "3"
        try:
            run_ok(runner, args)
        finally:
            if old is None:
                os.environ.pop("SSTPCA_THREADS", None)
            else:
                os.environ["SSTPCA_THREADS"] = old
        assert out.read_bytes() == single


class TestRankSelectCommand:
    def test_selects_spike_rank(self, tmp_path, runner, spike_csv):
        data, _ = spike_csv
        out = tmp_path / "rs.json"
        run_ok(
            runner,
            ["rank-select", "--input", str(data), "--r-max", "3", "--k-max", "2",
             "--seed", "0", "--output", str(out)],
        )
        res = json.loads(out.read_text())["results"]
        assert res["ranks"][:1] == [2]
        assert res["steps"][0]["chosen_r"] == 2

    def test_lists_failed_candidates(self, tmp_path, runner):
        data = tmp_path / "zero.csv"
        data.write_text("t,i,j,w\n1,1,1,0\n1,3,3,0\n2,2,3,0\n")
        out = tmp_path / "rs.json"
        run_ok(runner, ["rank-select", "--input", str(data), "--r-max", "2",
                        "--output", str(out)])
        (step,) = json.loads(out.read_text())["results"]["steps"]
        assert step["failed"] == [[1, "DegenerateIterate"], [2, "DegenerateIterate"]]
        assert step["candidates"] == []

    def test_lists_capped_candidates(self, tmp_path, runner, spike_csv):
        data, _ = spike_csv
        out = tmp_path / "rs.json"
        args = ["rank-select", "--input", str(data), "--r-max", "3", "--k-max", "1",
                "--output", str(out)]
        run_ok(runner, args + ["--max-iter", "1"])
        (step,) = json.loads(out.read_text())["results"]["steps"]
        assert step["capped"] == [1, 2, 3]
        assert [r for r, _ in step["candidates"]] == [1, 2, 3]
        run_ok(runner, args)
        (step,) = json.loads(out.read_text())["results"]["steps"]
        assert step["capped"] == []

    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert __version__ in result.output


def test_import_leaves_scipy_unloaded():
    # scipy.linalg alone is most of a cold start; no command needs it
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys, sstpca.cli; assert 'scipy' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
