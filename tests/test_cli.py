"""Command-line surface: parsing, reports, exit codes, determinism."""

import json
import random

import pytest

from alphamod.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    RunConfig,
    main,
    parse_space,
    render,
    run,
)
from alphamod.errors import ParameterError
from alphamod.indices import embedding_decide


def invoke(argv, capsys):
    status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


class TestParseSpace:
    def test_exponent_forms(self):
        p = parse_space("p=inf,q=2,s=1/2,alpha=0.5")
        assert p.rp == 0
        assert float(p.rq) == 0.5
        assert float(p.s) == 0.5

    def test_fractional_exponent(self):
        p = parse_space("p=1/3,q=1,s=0,alpha=0")
        assert p.rp == 3

    def test_reciprocal_forms(self):
        p = parse_space("rp=2,rq=0,s=-1,alpha=1")
        assert p.rp == 2 and p.rq == 0

    def test_conflicting_keys(self):
        with pytest.raises(ParameterError):
            parse_space("p=2,rp=1,q=2,s=0,alpha=0")

    def test_bad_pair(self):
        with pytest.raises(ParameterError):
            parse_space("p:2")


class TestDecideCommand:
    def test_identical_spaces(self, capsys):
        status, out, _ = invoke(["decide",
                                 "--source", "p=2,q=2,s=0,alpha=0.5",
                                 "--target", "p=2,q=2,s=0,alpha=0.5"], capsys)
        assert status == EXIT_OK
        rep = json.loads(out)
        assert rep["schema"] == "alphamod/1"
        assert rep["result"]["embeds"] is True
        assert rep["result"]["margin"] == 0.0
        assert rep["result"]["q_case"] == "QDown"

    def test_negative_verdict_still_exit_zero(self, capsys):
        status, out, _ = invoke(["decide",
                                 "--source", "p=2,q=2,s=0.5,alpha=0",
                                 "--target", "p=2,q=1,s=0,alpha=0"], capsys)
        assert status == EXIT_OK
        assert json.loads(out)["result"]["embeds"] is False

    def test_agrees_with_library_on_fuzzed_configs(self, capsys):
        import random

        rng = random.Random(5)
        choices = ["inf", "1", "2", "4", "1/2", "3"]
        alphas = ["0", "1/4", "1/2", "3/4", "1"]
        for _ in range(1000):
            sp_txt = (f"p={rng.choice(choices)},q={rng.choice(choices)},"
                      f"s={rng.randint(-6, 6)}/2,alpha={rng.choice(alphas)}")
            tp_txt = (f"p={rng.choice(choices)},q={rng.choice(choices)},"
                      f"s={rng.randint(-6, 6)}/2,alpha={rng.choice(alphas)}")
            status, out, _ = invoke(["decide", "--source", sp_txt, "--target", tp_txt],
                                    capsys)
            assert status == EXIT_OK
            lib = embedding_decide(parse_space(sp_txt), parse_space(tp_txt))
            assert json.loads(out)["result"]["embeds"] == lib.embeds


class TestIndexCommand:
    def test_hand_example(self, capsys):
        status, out, _ = invoke(["index",
                                 "--source", "p=1,q=inf,s=0,alpha=0",
                                 "--target", "p=inf,q=inf,s=0,alpha=0.5"], capsys)
        assert status == EXIT_OK
        result = json.loads(out)["result"]
        assert result["terms"] == [0.0, 0.5, 0.0]
        assert result["value"] == 0.5
        assert result["regions"] == ["concentrated"]


class TestCoveringCommand:
    def test_verify_and_export(self, tmp_path, capsys):
        dump = tmp_path / "samples.bin"
        status, out, _ = invoke(["covering", "--alpha", "0.5",
                                 "--grid", "2048,4",
                                 "--dump-samples", str(dump)], capsys)
        assert status == EXIT_OK
        result = json.loads(out)["result"]
        assert result["sum_deviation"] <= 1e-8
        assert dump.exists()
        from alphamod.covering import load_partition_samples

        back = load_partition_samples(str(dump))
        assert back["alpha"] == 0.5
        assert len(back["members"]) == result["member_count"]

    def test_csv_format(self, capsys):
        status, out, _ = invoke(["covering", "--alpha", "0", "--grid", "512,4",
                                 "--format", "csv"], capsys)
        assert status == EXIT_OK
        header = out.splitlines()[0]
        assert header == "index,center,scale,support_radius"


class TestNormcalcCommand:
    def test_builtin(self, capsys):
        status, out, _ = invoke(["normcalc", "--source", "p=2,q=2,s=0,alpha=0",
                                 "--builtin", "gaussian", "--grid", "1024,8"], capsys)
        assert status == EXIT_OK
        result = json.loads(out)["result"]
        assert result["value"] > 0
        assert result["pieces"]

    def test_file_round_trip(self, tmp_path, capsys):
        from alphamod.grids import builtin_function, save_grid_function

        f = builtin_function("bump", 1, 1024, 8.0)
        path = tmp_path / "f.bin"
        save_grid_function(f, str(path))
        status, out, _ = invoke(["normcalc", "--source", "p=2,q=1,s=0,alpha=0",
                                 "--input", str(path)], capsys)
        assert status == EXIT_OK
        assert json.loads(out)["result"]["value"] > 0


class TestVerifyCommands:
    def test_asymptotics_report(self, capsys):
        status, out, _ = invoke(["verify-asymptotics",
                                 "--source", "p=1,q=inf,s=0,alpha=0",
                                 "--target", "p=inf,q=inf,s=0,alpha=0.5",
                                 "--j-range", "4:8"], capsys)
        assert status == EXIT_OK
        result = json.loads(out)["result"]
        assert result["pass"] is True
        assert abs(result["max_slope"] - 0.5) <= 0.15

    def test_embedding_consistency_route(self, capsys):
        status, out, _ = invoke(["verify-embedding",
                                 "--source", "p=2,q=2,s=1,alpha=0",
                                 "--target", "p=2,q=1,s=0,alpha=0",
                                 "--truncation", "16"], capsys)
        assert status == EXIT_OK
        result = json.loads(out)["result"]
        assert result["consistency"]["consistent"] is True

    def test_embedding_dilation_route(self, capsys):
        status, out, _ = invoke(["verify-embedding",
                                 "--source", "p=inf,q=2,s=0,alpha=0",
                                 "--target", "p=2,q=2,s=0,alpha=0"], capsys)
        assert status == EXIT_OK
        result = json.loads(out)["result"]
        assert result["verdict"]["embeds"] is False
        assert result["dilation"]["slope"] == pytest.approx(-0.5, abs=0.05)


class TestExitCodes:
    def test_config_error(self, capsys):
        status, _, err = invoke(["decide", "--source", "p=-2,q=2,s=0,alpha=0",
                                 "--target", "p=2,q=2,s=0,alpha=0"], capsys)
        assert status == EXIT_CONFIG
        assert "config error" in err

    def test_precondition_error(self, capsys):
        # dimension mismatch passes parsing but violates the operation contract
        status, _, err = invoke(["decide", "--source", "p=2,q=2,s=0,alpha=0,n=1",
                                 "--target", "p=2,q=2,s=0,alpha=0,n=2"], capsys)
        assert status == EXIT_PRECONDITION
        assert "precondition" in err

    def test_internal_error(self, capsys):
        # infeasible covering constants trip the startup validation
        status, _, err = invoke(["covering", "--alpha", "0.75",
                                 "--alpha-constants", "0.4,0.95",
                                 "--grid", "1024,4"], capsys)
        assert status == EXIT_INTERNAL
        assert "internal check" in err

    def test_rate_sweep_rejects_dyadic_target(self, capsys):
        status, _, err = invoke(["verify-asymptotics",
                                 "--source", "p=1,q=inf,s=0,alpha=0",
                                 "--target", "p=inf,q=inf,s=0,alpha=1",
                                 "--j-range", "4:8"], capsys)
        assert status == EXIT_PRECONDITION
        assert "alpha < 1" in err

    def test_window_between_grid_bins(self, capsys):
        # bin spacing 2 leaves unit-lattice windows of radius 0.75 empty
        status, _, err = invoke(["covering", "--alpha", "0", "--grid", "64,0.5"], capsys)
        assert status == EXIT_INTERNAL
        assert "holds no grid bin" in err


class TestRejectedInputs:
    """Inputs that used to end in a traceback, exit 0 on NaN, or the wrong
    exit code."""

    @pytest.mark.parametrize("field", ["p=nan", "q=nan", "s=nan", "s=inf", "s=-inf",
                                       "alpha=nan", "rp=inf", "rq=nan"])
    def test_non_finite_space_fields(self, capsys, field):
        fields = dict(item.split("=") for item in "p=2,q=2,s=0,alpha=0".split(","))
        key, value = field.split("=")
        fields.pop({"rp": "p", "rq": "q"}.get(key, key))
        fields[key] = value
        source = ",".join(f"{k}={v}" for k, v in fields.items())
        status, out, err = invoke(["decide", "--source", source,
                                   "--target", source], capsys)
        assert status == EXIT_CONFIG
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("grid", ["4096,nan", "4096,inf", "4096,-8", "4096,0",
                                      "100,8", "0,8", "-64,8"])
    def test_bad_grid(self, capsys, grid):
        status, _, err = invoke(["covering", "--alpha", "0", f"--grid={grid}"], capsys)
        assert status == EXIT_CONFIG
        assert "config error" in err

    @pytest.mark.parametrize("truncation", ["2", "3", "-1"])
    def test_small_truncation(self, capsys, truncation):
        status, _, err = invoke(["verify-embedding",
                                 "--source", "p=1,q=inf,s=0,alpha=0",
                                 "--target", "p=inf,q=inf,s=0,alpha=1/4",
                                 "--truncation", truncation], capsys)
        assert status == EXIT_PRECONDITION
        assert "truncation" in err

    def test_weight_overflow(self, capsys):
        status, out, err = invoke(["normcalc", "--source", "p=2,q=2,s=1000,alpha=1/2",
                                   "--builtin", "bump", "--grid", "2048,8"], capsys)
        assert status == EXIT_PRECONDITION
        assert out == "" and "s = 1000" in err

    @pytest.mark.parametrize("argv", [
        ["decide", "--grid", "64,1"],
        ["index", "--seed", "3"],
        ["normcalc", "--alpha-constants", "0.4,0.8", "--builtin", "bump"],
        ["verify-asymptotics", "--grid", "64,1"],
        ["covering", "--alpha", "0", "--seed", "3"],
    ])
    def test_options_a_command_does_not_read(self, capsys, argv):
        if argv[0] != "covering":
            argv = argv + ["--source", "p=2,q=2,s=0,alpha=0", "--target", "p=2,q=2,s=0,alpha=0"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_index_dimension_mismatch(self, capsys):
        status, out, err = invoke(["index", "--source", "p=2,q=2,s=0,alpha=0,n=1",
                                   "--target", "p=2,q=2,s=0,alpha=1/2,n=2"], capsys)
        assert status == EXIT_PRECONDITION
        assert out == "" and "dimension mismatch" in err


_FUZZ_BAD = ("nan", "inf", "-inf", "0", "-1", "-3/2", "x", "1e", "")
_FUZZ_GOOD = {"p": ("1/2", "1", "4/3", "2", "4", "inf"), "rp": ("0", "1/2", "1", "3/2"),
              "s": ("0", "1/2", "-1/4", "1", "0.3"),
              "alpha": ("0", "1/4", "1/2", "3/4", "1", "0.5")}
_FUZZ_GOOD["q"], _FUZZ_GOOD["rq"] = _FUZZ_GOOD["p"], _FUZZ_GOOD["rp"]


def _fuzz_argv(rng: random.Random) -> list:
    """One command line of a fast subcommand; each value is malformed,
    non-finite or out of range one time in ten."""
    def value(good):
        return rng.choice(_FUZZ_BAD if rng.random() < 0.1 else good)

    def space():
        fields = [rng.choice(["p", "rp"]), rng.choice(["q", "rq"]), "s", "alpha"]
        text = ",".join(f"{k}={value(_FUZZ_GOOD[k])}" for k in fields)
        if rng.random() < 0.2:
            text += f",n={value(('1', '2'))}"
        return text

    def grid():
        return f"{value(('16', '32', '64'))},{value(('1', '2', '4', '1/2'))}"

    command = rng.choice(["decide", "index", "covering", "normcalc"])
    argv = [command]
    if command == "covering":
        argv += ["--alpha", value(_FUZZ_GOOD["alpha"]), f"--grid={grid()}"]
        if rng.random() < 0.3:
            argv += ["--k-max", rng.choice(["-1", "0", "2", "5"])]
    else:
        argv += [f"--source={space()}"]
        if command == "normcalc":
            argv += ["--builtin", rng.choice(["gaussian", "bump", "tone"]), f"--grid={grid()}"]
        else:
            argv += [f"--target={space()}"]
    if rng.random() < 0.3:
        argv += ["--n", value(("1", "2"))]
    if rng.random() < 0.2:
        argv += [f"--alpha-constants={value(('0.3', '0.4'))},{value(('0.7', '0.8'))}"]
    return argv


class TestArgvFuzz:
    def test_every_input_ends_in_a_documented_exit_code(self, capsys):
        rng = random.Random(20261019)
        seen = set()
        for _ in range(200):
            argv = _fuzz_argv(rng)
            try:
                status = main(argv)
            except SystemExit as exc:   # argparse rejects the command line
                status = exc.code
            out = capsys.readouterr().out
            assert status in (EXIT_OK, EXIT_CONFIG, EXIT_PRECONDITION, EXIT_INTERNAL), argv
            if status == EXIT_OK:
                json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in {argv}"))
            else:
                assert out == "", argv
            seen.add(status)
        assert seen == {EXIT_OK, EXIT_CONFIG, EXIT_PRECONDITION, EXIT_INTERNAL}


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        argv = ["verify-asymptotics", "--source", "p=1,q=inf,s=0,alpha=0",
                "--target", "p=inf,q=inf,s=0,alpha=0.5", "--j-range", "4:7",
                "--seed", "11"]
        outputs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(argv + ["--out", str(path)]) == EXIT_OK
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_render_formats(self):
        cfg = RunConfig(command="decide",
                        source=parse_space("p=2,q=2,s=0,alpha=0"),
                        target=parse_space("p=2,q=2,s=0,alpha=0"))
        status, report = run(cfg)
        assert status == EXIT_OK
        assert render(report, "json").endswith("\n")
        assert "result.embeds" in render(report, "text")
        assert render(report, "csv").startswith("key,value")
