"""Command-line surface: parsing, reports, exit codes, determinism."""

import json
import math
import random
import struct
import warnings

import numpy as np
import pytest

from alphamod import cli
from alphamod.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    build_parser,
    config_from_args,
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


_DEFAULT_GRID = {"N": 4096, "L": 8.0}


def _config(command, *, n=1, seed=0, fmt="json", **extra):
    return {"command": command, "n": n, **_DEFAULT_GRID, "seed": seed, "format": fmt,
            **extra}


_SRC = {"rp": "1/2", "rq": "1/2", "s": "3/5", "alpha": "0", "n": 1}
_TGT = {"rp": "1/2", "rq": "1", "s": "0", "alpha": "0", "n": 1}
_SWEEP_SRC = {"rp": "1", "rq": "0", "s": "0", "alpha": "0", "n": 1}
_SWEEP_TGT = {"rp": "0", "rq": "0", "s": "0", "alpha": "1/2", "n": 1}

# (argv, the report's config); commands without --grid or --seed report the
# default grid 4096,8 and seed 0, and normcalc --input the default grid too
REPORT_CONFIGS = [
    (["decide", "--source", "p=2,q=2,s=0.6,alpha=0", "--target", "p=2,q=1,s=0,alpha=0"],
     _config("decide", source=_SRC, target=_TGT)),
    (["index", "--source", "p=1,q=inf,s=0,alpha=0", "--target", "p=inf,q=inf,s=0,alpha=1/2",
      "--format", "text"],
     _config("index", fmt="text", source=_SWEEP_SRC, target=_SWEEP_TGT)),
    (["covering", "--alpha", "0.5", "--grid", "512,8", "--alpha-constants", "0.3,0.7",
      "--k-max", "20"],
     _config("covering", N=512, alpha=0.5, c_small=0.3, c_big=0.7, k_max=20)),
    (["covering", "--alpha", "1/4", "--n", "2", "--grid", "64,1"],
     _config("covering", n=2, N=64, L=1.0, alpha=0.25, c_small=None, c_big=None,
             k_max=None)),
    (["normcalc", "--source", "p=2,q=1,s=0,alpha=0", "--input", "f.bin"],
     _config("normcalc", builtin=None, input="f.bin",
             source={"rp": "1/2", "rq": "1", "s": "0", "alpha": "0", "n": 1})),
    (["normcalc", "--source", "p=2,q=2,s=0,alpha=0.5", "--builtin", "bump", "--grid", "512,8"],
     _config("normcalc", N=512, builtin="bump", input=None,
             source={"rp": "1/2", "rq": "1/2", "s": "0", "alpha": "1/2", "n": 1})),
    (["verify-asymptotics", "--source", "p=1,q=inf,s=0,alpha=0",
      "--target", "p=inf,q=inf,s=0,alpha=0.5", "--j-range", "5:9", "--seed", "7"],
     _config("verify-asymptotics", seed=7, j_range=[5, 9], source=_SWEEP_SRC,
             target=_SWEEP_TGT)),
    (["verify-embedding", "--source", "p=2,q=2,s=0.6,alpha=0",
      "--target", "p=2,q=1,s=0,alpha=0", "--truncation", "16"],
     _config("verify-embedding", truncation=16, source=_SRC, target=_TGT)),
]


class TestReportConfig:
    @pytest.mark.parametrize("argv, expected", REPORT_CONFIGS,
                             ids=[f"{a[0]}-{i}" for i, (a, _) in enumerate(REPORT_CONFIGS)])
    def test_exact_config(self, tmp_path, capsys, monkeypatch, argv, expected):
        from alphamod.grids import builtin_function, save_grid_function

        monkeypatch.chdir(tmp_path)
        save_grid_function(builtin_function("bump", 1, 256, 4.0), "f.bin")
        status, out, err = invoke(argv, capsys)
        assert status == EXIT_OK, err
        if expected["format"] == "text":
            lines = [line for line in out.splitlines() if line.startswith("config.")]
            assert lines == render({"config": expected}, "text").splitlines()
        else:
            assert json.loads(out)["config"] == expected


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

    @pytest.mark.parametrize("argv, plateau", [
        (["--n", "2", "--alpha", "0.8", "--grid", "64,1"], "0.0385"),
        (["--n", "2", "--alpha", "0.98", "--grid", "64,1"], "-0.0334"),
        (["--alpha", "0.25", "--alpha-constants", "0.3,0.95"], "0.0276")])
    def test_infeasible_covering_names_the_plateau_floor(self, capsys, argv, plateau):
        # the resolved plateau, not the sum support + plateau, falls short
        status, out, err = invoke(["covering", *argv], capsys)
        assert status == EXIT_INTERNAL and out == ""
        assert f"plateau radius of {plateau}" in err
        assert "below the floor 0.04" in err
        assert "support radius" in err and "lattice gap" in err
        assert "--alpha-constants" in err

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

    def test_window_between_grid_bins_two_dim(self, capsys):
        # the same spacing leaves 2-D windows of radius 0.84 empty too
        status, out, err = invoke(["covering", "--alpha", "0", "--n", "2",
                                   "--grid", "64,0.5"], capsys)
        assert status == EXIT_INTERNAL
        assert out == "" and "holds no grid bin" in err

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_grid_too_small_for_first_window(self, capsys, n):
        # Nyquist frequency 1 lies inside the support of window 1, or (1, 0)
        status, out, err = invoke(["covering", "--alpha", "0", "--n", n,
                                   "--grid", "4,2"], capsys)
        assert status == EXIT_INTERNAL
        assert out == "" and "grid too small" in err


class TestRejectedInputs:
    """Inputs that used to end in a traceback, exit 0 on NaN, or the wrong
    exit code."""

    @pytest.mark.parametrize("field", ["p=nan", "q=nan", "s=nan", "s=inf", "s=-inf",
                                       "alpha=nan", "rp=inf", "rq=nan",
                                       "s=1e400", "p=1e-400"])
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

    def test_covering_alpha_beyond_float_range(self, capsys):
        status, out, err = invoke(["covering", "--alpha", "1e400", "--grid", "64,1"], capsys)
        assert status == EXIT_CONFIG
        assert out == "" and "config error" in err

    def test_covering_near_alpha_one(self, capsys):
        # the lattice gap probe used to overflow here and report a negative gap
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, _, err = invoke(["covering", "--alpha", "0.99", "--grid", "1024,8"], capsys)
        assert caught == []
        assert status in (EXIT_OK, EXIT_INTERNAL)
        assert "gap -" not in err

    @pytest.mark.parametrize("target, dilation", [("p=inf,q=inf,s=0,alpha=0.5", False),
                                                  ("p=1/2,q=inf,s=0,alpha=0.5", True)])
    def test_sweeps_need_one_dimension(self, capsys, target, dilation):
        source = "p=1,q=inf,s=0,alpha=0"
        status, _, err = invoke(["verify-asymptotics", "--n", "2", "--source", source,
                                 "--target", target, "--j-range", "4:8"], capsys)
        assert status == EXIT_PRECONDITION and "n = 1" in err
        status, out, err = invoke(["verify-embedding", "--n", "2", "--source", source,
                                   "--target", target], capsys)
        if dilation:
            assert status == EXIT_OK
            assert json.loads(out)["result"]["dilation"]["n"] == 2
        else:
            assert status == EXIT_PRECONDITION and "n = 1" in err

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
        ["normcalc", "--builtin", "bump", "--grid", "2048,8"],
    ])
    def test_options_a_command_does_not_read(self, capsys, argv):
        if argv[0] != "covering":
            argv = argv + ["--source", "p=2,q=2,s=0,alpha=0", "--target", "p=2,q=2,s=0,alpha=0"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.bin", "truncated.bin", "nan_period.bin",
                                      "missing.csv", "short_rows.csv", "not_numbers.csv",
                                      "uneven_x.csv", "big_2d.bin"])
    def test_bad_input_file(self, tmp_path, capsys, monkeypatch, name):
        # big_2d.bin holds 64^2 points, above the cap set here
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 2 ** 10)
        path = write_input_file(tmp_path, name)
        status, out, err = invoke(["normcalc", "--source", "p=2,q=2,s=0,alpha=0",
                                   "--input", str(path)], capsys)
        assert status == EXIT_PRECONDITION
        assert out == "" and (str(path) in err or "finite" in err)

    @pytest.mark.parametrize("name", ["nan_sample.bin", "inf_sample.bin", "nan_sample.csv",
                                      "inf_sample.csv"])
    def test_non_finite_sample_names_the_file(self, tmp_path, capsys, name):
        path = write_input_file(tmp_path, name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, err = invoke(["normcalc", "--source", "p=2,q=2,s=0,alpha=1/2",
                                       "--input", str(path)], capsys)
        assert status == EXIT_PRECONDITION
        assert out == "" and f"{path}: every sample must be finite" in err

    @pytest.mark.parametrize("command", [["covering", "--alpha", "0"],
                                         ["normcalc", "--source", "p=2,q=2,s=0,alpha=0",
                                          "--builtin", "gaussian"]])
    def test_default_grid_in_two_dimensions(self, capsys, command):
        # the default 4096,8 grid has 2^24 points in 2-D
        status, out, err = invoke(command + ["--n", "2"], capsys)
        assert status == EXIT_CONFIG
        assert out == "" and "--grid" in err

    @pytest.mark.parametrize("flag", ["--out", "--dump-samples"])
    def test_unwritable_output_path(self, tmp_path, capsys, flag):
        path = tmp_path / "missing" / "report"
        status, out, err = invoke(["covering", "--alpha", "0", "--grid", "1024,8",
                                   flag, str(path)], capsys)
        assert status == EXIT_CONFIG
        assert out == "" and "cannot write" in err and str(path) in err

    def test_empty_octave_range(self, capsys):
        status, out, err = invoke(["verify-asymptotics", "--source", "p=1,q=inf,s=0,alpha=0",
                                   "--target", "p=inf,q=inf,s=0,alpha=1/2",
                                   "--j-range", "9:4"], capsys)
        assert status == EXIT_CONFIG
        assert out == "" and "empty" in err

    def test_index_dimension_mismatch(self, capsys):
        status, out, err = invoke(["index", "--source", "p=2,q=2,s=0,alpha=0,n=1",
                                   "--target", "p=2,q=2,s=0,alpha=1/2,n=2"], capsys)
        assert status == EXIT_PRECONDITION
        assert out == "" and "dimension mismatch" in err


def write_input_file(tmp_path, name):
    """Write the normcalc input file called name (a missing.* name writes
    nothing) and return its path."""
    from alphamod.grids import (GridFunction, builtin_function, save_grid_function,
                                save_grid_function_csv)

    path = tmp_path / name
    f = builtin_function("bump", 2 if name == "big_2d.bin" else 1, 64, 8.0)
    if "_sample" in name:
        values = np.array(f.values)
        values[7] = math.nan if name.startswith("nan") else math.inf
        f = GridFunction(1, 64, 8.0, values)
    if name.endswith(".bin") and name != "missing.bin":
        save_grid_function(f, str(path))
        data = path.read_bytes()
        if name == "truncated.bin":
            path.write_bytes(data[:20])
        elif name == "nan_period.bin":
            path.write_bytes(data[:16] + struct.pack("<d", math.nan) + data[24:])
    elif name in ("good.csv", "nan_sample.csv", "inf_sample.csv"):
        save_grid_function_csv(f, str(path))
    elif name == "short_rows.csv":
        path.write_text("x,re,im\n0,1\n0.5,1\n")
    elif name == "not_numbers.csv":
        path.write_text("x,re,im\n0,1,zero\n0.5,1,0\n")
    elif name == "uneven_x.csv":
        # a period-8 grid of 1024 ones whose spacing grows by half after row 512
        step = 8.0 / 1024
        x = np.concatenate([np.arange(512) * step, 512 * step + np.arange(512) * 1.5 * step])
        np.savetxt(path, np.column_stack([x, np.ones(1024), np.zeros(1024)]),
                   delimiter=",", header="x,re,im", comments="")
    return path


_FUZZ_FILES = ("good.bin", "good.csv", "missing.bin", "truncated.bin", "short_rows.csv",
               "uneven_x.csv")
_FUZZ_BAD = ("nan", "inf", "-inf", "0", "-1", "-3/2", "x", "1e", "")
_FUZZ_GOOD = {"p": ("1/2", "1", "4/3", "2", "4", "inf"), "rp": ("0", "1/2", "1", "3/2"),
              "s": ("0", "1/2", "-1/4", "1", "0.3"),
              "alpha": ("0", "1/4", "1/2", "3/4", "1", "0.5")}
_FUZZ_GOOD["q"], _FUZZ_GOOD["rq"] = _FUZZ_GOOD["p"], _FUZZ_GOOD["rp"]


def _fuzz_argv(rng: random.Random, files: list) -> list:
    """One command line of a fast subcommand; each value is malformed,
    non-finite or out of range one time in ten.  normcalc reads one of the
    given input files two times in five, and one command line in ten of
    covering or normcalc asks for two dimensions on the default grid."""
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
    sampled = ["--n", "2"] if rng.random() < 0.1 else [f"--grid={grid()}"]
    if command == "covering":
        argv += ["--alpha", value(_FUZZ_GOOD["alpha"])] + sampled
        if rng.random() < 0.3:
            argv += ["--k-max", rng.choice(["-1", "0", "2", "5"])]
    else:
        argv += [f"--source={space()}"]
        if command == "normcalc" and rng.random() < 0.4:
            argv += ["--input", rng.choice(files)]
        elif command == "normcalc":
            argv += ["--builtin", rng.choice(["gaussian", "bump", "tone"])] + sampled
        else:
            argv += [f"--target={space()}"]
    if rng.random() < 0.3:
        argv += ["--n", value(("1", "2"))]
    if rng.random() < 0.2:
        argv += [f"--alpha-constants={value(('0.3', '0.4'))},{value(('0.7', '0.8'))}"]
    return argv


class TestArgvFuzz:
    def test_every_input_ends_in_a_documented_exit_code(self, tmp_path, capsys):
        files = [str(write_input_file(tmp_path, name)) for name in _FUZZ_FILES]
        rng = random.Random(20261019)
        seen = set()
        for _ in range(200):
            argv = _fuzz_argv(rng, files)
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
        args = build_parser().parse_args(["decide", "--source", "p=2,q=2,s=0,alpha=0",
                                          "--target", "p=2,q=2,s=0,alpha=0"])
        report = run(config_from_args(args))
        assert render(report, "json").endswith("\n")
        assert "result.embeds" in render(report, "text")
        assert render(report, "csv").startswith("key,value")
