import argparse
import hashlib
import json
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest

from rqamaps import cli, rqa, solenoidal
from rqamaps.constructions import build_prop42, delahaye_counts, prop42_C1
from rqamaps.dynamics import iterate
from rqamaps.rqa import RQAParams, correlation_sum


@pytest.fixture
def plateau_map_file(tmp_path, plateau_map):
    path = tmp_path / "map.json"
    path.write_text(plateau_map.to_json())
    return str(path)


def run(*argv):
    return cli.main(list(argv))


class TestCorrsum:
    def test_schedule_csv(self, tmp_path, plateau_map_file, plateau_map):
        out = tmp_path / "series.csv"
        assert run("corrsum", "--map", plateau_map_file, "--x0", "21/100",
                   "--m", "2", "--epsilon", "9/20", "--schedule", "30,60",
                   "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,C_m_exact_num,C_m_exact_den,C_m_float"
        traj = iterate(plateau_map, F(21, 100), 61)
        for line, n in zip(lines[1:], (30, 60)):
            c = correlation_sum(traj, RQAParams(2, F(9, 20), n))
            assert line == f"{n},{c.numerator},{c.denominator},{float(c)!r}"

    def test_stdout(self, capsys, plateau_map_file):
        assert run("corrsum", "--map", plateau_map_file, "--x0", "1/5",
                   "--m", "1", "--epsilon", "1/2", "--n", "9") == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("9,")

    def test_float_mode(self, tmp_path, plateau_map_file):
        out = tmp_path / "series.csv"
        assert run("corrsum", "--map", plateau_map_file, "--x0", "21/100",
                   "--float", "--m", "1", "--epsilon", "9/20", "--n", "30",
                   "--output", str(out)) == 0
        assert out.read_text().count("\n") == 2

    def test_missing_source_fails(self):
        assert run("corrsum", "--m", "1", "--epsilon", "1/2", "--n", "5") == 1

    def test_bad_epsilon_fails(self, plateau_map_file):
        assert run("corrsum", "--map", plateau_map_file, "--x0", "0",
                   "--m", "1", "--epsilon", "0", "--n", "5") == 1


class TestRatioTables:
    def test_rdet(self, capsys, plateau_map_file):
        assert run("rdet", "--map", plateau_map_file, "--x0", "1/5",
                   "--m", "2", "--epsilon", "9/20", "--n", "60") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n,rdet_num,rdet_den,rdet_float"

    def test_det_matches_library(self, capsys, plateau_map_file, plateau_map):
        assert run("det", "--map", plateau_map_file, "--x0", "1/5",
                   "--m", "2", "--epsilon", "9/20", "--n", "30") == 0
        from rqamaps.rqa import rqa_det
        traj = iterate(plateau_map, F(1, 5), 32)
        v = rqa_det(traj, RQAParams(2, F(9, 20), 30))
        line = capsys.readouterr().out.splitlines()[1]
        assert line == f"30,{v.numerator},{v.denominator},{float(v)!r}"


    @pytest.mark.parametrize("kind", ["rdet", "det"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("as_float", [False, True])
    def test_table_matches_per_n_library_calls(self, capsys, plateau_map_file,
                                               plateau_map, kind, m, as_float):
        flags = ["--float"] if as_float else []
        assert run(kind, "--map", plateau_map_file, "--x0", "21/100", *flags,
                   "--m", str(m), "--epsilon", "9/20", "--schedule", "1,7,20,45") == 0
        from rqamaps.rqa import recurrence_determinism, rqa_det
        fn = rqa_det if kind == "det" else recurrence_determinism
        x0, eps = (0.21, 0.45) if as_float else (F(21, 100), F(9, 20))
        traj = iterate(plateau_map, x0, 45 + m)
        lines = [f"n,{kind}_num,{kind}_den,{kind}_float"]
        for n in (1, 7, 20, 45):
            v = fn(traj, RQAParams(m, eps, n))
            lines.append(f"{n},{v.numerator},{v.denominator},{float(v)!r}")
        assert capsys.readouterr().out.splitlines() == lines

    def test_nonpositive_n_exits_one(self, plateau_map_file):
        assert run("rdet", "--map", plateau_map_file, "--x0", "1/5",
                   "--m", "2", "--epsilon", "1/2", "--schedule", "0,5") == 1

    def test_det_window_one_reads_only_n_points(self, capsys):
        # prop42 at depth 3 has 30 points: DET_1 = rdet_1 at n = 30 reads all of them
        argv = ["--construction", "prop42", "--depth", "3", "--m", "1",
                "--epsilon", "1/2", "--n", "30"]
        assert run("rdet", *argv) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["30,1,1,1.0"]
        assert run("det", *argv) == 0
        assert capsys.readouterr() == ("n,det_num,det_den,det_float\n30,1,1,1.0\n", "")

    @pytest.mark.parametrize("command,m,w", [("det", 2, 3), ("rdet", 3, 3), ("rplot", 2, 2)])
    def test_short_construction_names_n_and_the_points_it_reads(self, capsys, tmp_path,
                                                                 command, m, w):
        # prop42 at depth 3 has 30 points; a count at n = 30 reads 30 + W - 1
        assert run(command, "--construction", "prop42", "--depth", "3", "--m", str(m),
                   "--epsilon", "1/2", "--n", "30", "--output", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"error: n = 30 needs n + W - 1 = {29 + w} points (widest window W = {w}), "
            "but prop42 depth 3 generates 30\n")

    @pytest.mark.parametrize("kind", ["corrsum", "rdet", "det"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_table_loads_the_points_its_series_reads(self, monkeypatch, capsys,
                                                     plateau_map_file, kind, m):
        lengths, windows = [], []
        load, count = cli._load_trajectory, rqa._pair_counts

        def loading(args, n, w):
            lengths.append(n + w - 1)
            return load(args, n, w)

        def counting(t, ns, w, epsilon):
            windows.append(list(w))
            return count(t, ns, w, epsilon)

        monkeypatch.setattr(cli, "_load_trajectory", loading)
        monkeypatch.setattr(rqa, "_pair_counts", counting)
        assert run(kind, "--map", plateau_map_file, "--x0", "21/100", "--m", str(m),
                   "--epsilon", "9/20", "--schedule", "7,20") == 0
        assert len(windows) == 1
        assert lengths == [20 + max(windows[0]) - 1]


class TestRplot:
    def test_pgm_format(self, tmp_path):
        out = tmp_path / "plot.pgm"
        assert run("rplot", "--construction", "prop42", "--depth", "4",
                   "--m", "1", "--epsilon", "1/2", "--n", "6",
                   "--output", str(out)) == 0
        data = out.read_bytes()
        assert data.startswith(b"P1\n6 6\n")
        body = data.decode().splitlines()[2:]
        ones = sum(row.split().count("1") for row in body)
        inst = build_prop42(4)
        assert F(ones, 36) == prop42_C1(inst, 6) == F(5, 6)

    def test_requires_output(self):
        assert run("rplot", "--construction", "prop42", "--depth", "3",
                   "--m", "1", "--epsilon", "1/2", "--n", "6") == 1

    def test_missing_output_fails_before_the_matrix(self, monkeypatch, capsys,
                                                    plateau_map_file):
        def unreachable(*args, **kwargs):
            raise AssertionError("recurrence_matrix called without --output")

        monkeypatch.setattr(cli.rqa, "recurrence_matrix", unreachable)
        for source in (["--construction", "prop42", "--depth", "3"],
                       ["--map", plateau_map_file, "--x0", "1/5", "--float"]):
            assert run("rplot", *source, "--m", "1", "--epsilon", "1/2", "--n", "6") == 1
            assert capsys.readouterr().err == "error: rplot requires --output\n"

    def test_resource_guard_exit_code_writes_nothing(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("RQA_MAX_PAIRS", "35")
        out = tmp_path / "plot.pgm"
        assert run("rplot", "--construction", "prop42", "--depth", "4", "--m", "1",
                   "--epsilon", "1/2", "--n", "6", "--output", str(out)) == 2
        assert "6^2 pairs exceeds the guard (35)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "1e8", "-1"])
    def test_malformed_guard_names_the_variable(self, monkeypatch, capsys, tmp_path, value):
        # a budget that is not a nonnegative integer is a usage error, not
        # a guard trip, in every guarded scan
        monkeypatch.setenv("RQA_MAX_PAIRS", value)
        out = tmp_path / "plot.pgm"
        for argv in (["rplot", "--construction", "prop42", "--depth", "4", "--m", "1",
                      "--epsilon", "1/2", "--n", "6", "--output", str(out)],
                     ["solenoid", "--r", "5", "--m", "1", "--epsilon", "1/5",
                      "--t-schedule", "3"]):
            assert run(*argv) == 1
            assert capsys.readouterr().err == (
                f"error: RQA_MAX_PAIRS must be a nonnegative integer, got '{value}'\n")
        assert not out.exists()


class TestConfig:
    def test_extremal_bound(self, capsys):
        assert run("config", "--extremal", "--n", "10", "--epsilon", "1") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 36 == report["bound"]
        assert report["attains_bound"] is True

    def test_zero(self, capsys):
        assert run("config", "--zero", "--n", "5", "--epsilon", "1/10") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 0

    def test_analyze_round_trip(self, tmp_path, capsys):
        conf_path = tmp_path / "conf.json"
        assert run("config", "--extremal", "--n", "4", "--epsilon", "1/2",
                   "--output", str(conf_path)) == 0
        capsys.readouterr()
        assert run("config", "--analyze", str(conf_path), "--epsilon", "1/2") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 12

    def test_requires_mode(self):
        assert run("config", "--epsilon", "1/2") == 1

    @pytest.mark.parametrize("argv", [["--extremal", "--n", "7", "--epsilon", "3/10"],
                                      ["--extremal", "--n", "2", "--epsilon", "1"],
                                      ["--zero", "--n", "4", "--epsilon", "1/10"]])
    def test_report_prints_the_bytes_of_indented_json(self, capsys, argv):
        # the pair rows are written by hand, in json.dumps(indent=2)'s layout
        assert run("config", *argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestSolenoid:
    def test_counts_csv(self, tmp_path, delahaye5):
        out = tmp_path / "counts.csv"
        assert run("solenoid", "--r", "5", "--m", "2", "--epsilon", "1/5",
                   "--t-schedule", "2,3,4", "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,p_t,m,")
        expected = [delahaye_counts(delahaye5, 1, 2, t) for t in (2, 3, 4)]
        got = [int(line.split(",")[6]) for line in lines[1:]]
        assert got == [nm for _, nm in expected]

    @pytest.mark.parametrize("schedule", [
        pytest.param(["--t-schedule=-1,2"], id="-1,2"),
        pytest.param(["--t-schedule", "-1,2"], id="-1,2 spaced"),
        pytest.param(["--t-schedule=0,2"], id="0,2")])
    def test_depth_below_one_exits_one(self, capsys, schedule):
        assert run("solenoid", "--r", "5", "--m", "1", "--epsilon", "1/5", *schedule) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "needs p_t >= 2" in captured.err

    @pytest.mark.parametrize("epsilon", [
        pytest.param(["--epsilon", "-1/5"], id="-1/5 spaced"),
        pytest.param(["--epsilon", "-.2"], id="-.2 spaced"),
        pytest.param(["--epsilon=-1/5"], id="-1/5")])
    def test_negative_epsilon_exits_one(self, capsys, epsilon):
        assert run("solenoid", "--r", "5", "--m", "1", *epsilon, "--t-schedule", "2") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "epsilon must be positive" in captured.err

    @pytest.mark.parametrize("output", [False, True])
    def test_rows_come_from_asymptotic_corr_sum(self, tmp_path, capsys, output):
        # the table is the checked enclosures, so it gets their width check
        argv = ["solenoid", "--r", "5", "--m", "2", "--epsilon", "1/5",
                "--t-schedule", "2,3"]
        if output:
            argv += ["--output", str(tmp_path / "counts.csv")]
        with mock.patch.object(solenoidal, "asymptotic_corr_sum",
                               wraps=solenoidal.asymptotic_corr_sum) as spy:
            assert run(*argv) == 0
        spy.assert_called_once()
        _, m, eps, schedule = spy.call_args.args
        assert (m, eps, schedule) == (2, F(1, 5), [2, 3])
        assert len(capsys.readouterr().out.splitlines()) == (0 if output else 2)

    def test_resource_guard_exit_code(self, monkeypatch, capsys):
        monkeypatch.setenv("RQA_MAX_PAIRS", "4")
        assert run("solenoid", "--r", "5", "--m", "1", "--epsilon", "1/5",
                   "--t-schedule", "3") == 2
        assert capsys.readouterr().err == (
            "error: a word-pair scan of 8^2 pairs exceeds the guard (4); "
            "raise RQA_MAX_PAIRS to override\n")


class TestConstructionCommands:
    def test_prop42_report(self, capsys):
        assert run("prop42", "--depth", "6", "--emit", "report") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["liminf_lt_limsup"] is True
        assert report["schedule"][0]["c1_num"] == 5

    def test_prop42_positions(self, capsys):
        assert run("prop42", "--depth", "3", "--emit", "positions", "--n", "3") == 0
        lines = capsys.readouterr().out.splitlines()
        inst = build_prop42(3)
        assert lines[1] == f"0,{inst.positions[0]}"

    def test_prop42_map(self, tmp_path):
        out = tmp_path / "map.json"
        assert run("prop42", "--depth", "2", "--emit", "map",
                   "--output", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["breakpoints"][0] == "0" and data["breakpoints"][-1] == "1"

    def test_prop42_c1_table(self, tmp_path):
        out = tmp_path / "c1.csv"
        assert run("prop42", "--depth", "5", "--emit", "c1-table", "--kmax", "4",
                   "--output", str(out)) == 0
        assert len(out.read_text().splitlines()) == 5

    def test_prop42_c1_table_beyond_depth_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "c1.csv"
        assert run("prop42", "--depth", "3", "--emit", "c1-table", "--kmax", "5",
                   "--output", str(out)) == 1
        assert not out.exists()
        message = capsys.readouterr().err
        assert run("prop42", "--depth", "3", "--emit", "report", "--kmax", "5") == 1
        assert capsys.readouterr().err == message == "error: schedule exceeds generated depth\n"

    @pytest.mark.parametrize("argv", [["--emit", "positions", "--n", "0"],
                                      ["--emit", "report", "--kmax", "0"],
                                      ["--emit", "c1-table", "--kmax", "0"]])
    def test_prop42_zero_n_or_kmax_exits_one(self, tmp_path, capsys, argv):
        # 0 is a value, not "use the default"
        out = tmp_path / "out"
        assert run("prop42", "--depth", "3", *argv, "--output", str(out)) == 1
        assert not out.exists() and capsys.readouterr().out == ""

    def test_prop52_report(self, capsys):
        assert run("prop52", "--r", "5", "--k", "1", "--m", "2", "--t", "2") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rdet_limit"] == "2/3"
        assert report["det_limit"] == "2/3"
        assert report["N1_closed"] == 6 and report["Nm_closed"] == 4

    def test_prop52_rejects_bad_r(self):
        assert run("prop52", "--r", "4", "--k", "1", "--m", "2", "--t", "2") == 1


class TestParsing:
    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_schedule_must_increase(self, plateau_map_file):
        assert run("corrsum", "--map", plateau_map_file, "--x0", "0",
                   "--m", "1", "--epsilon", "1/2", "--schedule", "5,5") == 1

    def test_repeated_calls_in_one_process(self, monkeypatch, capsys, tmp_path):
        out = tmp_path / "artifact"
        plot = ["rplot", "--construction", "prop42", "--depth", "4", "--m", "1",
                "--epsilon", "1/2", "--n", "6", "--output", str(out)]
        calls = [({}, ["--help"]), ({}, ["frobnicate"]),
                 ({}, ["corrsum", "--m", "two", "--epsilon", "1/2", "--n", "5"]),
                 ({"RQA_MAX_PAIRS": "35"}, plot),
                 ({}, ["corrsum", "--construction", "prop42", "--depth", "6", "--m", "2",
                       "--epsilon", "1/2", "--schedule", "20,40", "--output", str(out)]),
                 ({}, plot)]

        def run_all():
            results = []
            for env, argv in calls:
                out.unlink(missing_ok=True)
                with monkeypatch.context() as patch:
                    for key, value in env.items():
                        patch.setenv(key, value)
                    code = run(*argv)
                printed = capsys.readouterr()
                results.append((code, printed.out, printed.err,
                                out.read_bytes() if out.exists() else None))
            return results

        first = run_all()
        assert [r[0] for r in first] == [0, 1, 1, 2, 0, 0]
        assert first[3][3] is None and first[4][3] and first[5][3]
        constructed = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run_all() == first
        assert constructed == []


def test_readme_cli_block_covers_every_subcommand():
    # the sh block under "## CLI", as CI runs it: one command a line once
    # continuations are joined
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", "").splitlines()
    assert all(line.startswith("rqamaps ") for line in lines)
    sub, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) <= {line.split()[1] for line in lines}


class TestErrors:
    @pytest.mark.parametrize("text", ['{"breakpoints": [0, 1]}', '[0, 1]',
                                      '{"breakpoints": [0, null, 1], "values": [0, 1, 0]}',
                                      '{"breakpoints": 5, "values": 3}',
                                      '{"breakpoints": [0, "1/0", 1], "values": [0, 1, 0]}',
                                      '{"breakpoints": [false, true], "values": [true, false]}',
                                      '{"breakpoints": "01", "values": "10"}',
                                      '{"breakpoints": {"0": 5, "1": 6}, "values": [1, 0]}'])
    def test_malformed_map_file_exits_one(self, tmp_path, text):
        path = tmp_path / "map.json"
        path.write_text(text)
        assert run("corrsum", "--map", str(path), "--x0", "1/3",
                   "--m", "1", "--epsilon", "1/2", "--n", "3") == 1

    @pytest.mark.parametrize("text", ['[[0, null]]', '[5]', '[[0, Infinity]]', '[[0, "1/0"]]',
                                      '["01", "23"]', '[[0, 1, 2]]'])
    def test_malformed_configuration_file_exits_one(self, tmp_path, text):
        path = tmp_path / "conf.json"
        path.write_text(text)
        assert run("config", "--analyze", str(path), "--epsilon", "1") == 1

    def test_missing_n_exits_one(self, plateau_map_file):
        assert run("corrsum", "--map", plateau_map_file, "--x0", "1/5",
                   "--m", "1", "--epsilon", "1/2") == 1
        assert run("rplot", "--map", plateau_map_file, "--x0", "1/5",
                   "--m", "1", "--epsilon", "1/2", "--output", "unused.pgm") == 1

    @pytest.mark.parametrize("command,m,n", [("corrsum", "2", "-3"), ("rdet", "2", "-3"),
                                             ("rplot", "2", "-3"), ("corrsum", "-9", "5")])
    def test_nonpositive_m_or_n_exits_one_before_the_trajectory(
            self, monkeypatch, capsys, tmp_path, plateau_map_file, command, m, n):
        def unreachable(*args, **kwargs):
            raise AssertionError("trajectory loaded before m and n were checked")

        monkeypatch.setattr(cli, "_load_trajectory", unreachable)
        assert run(command, "--map", plateau_map_file, "--x0", "21/100", "--m", m,
                   "--epsilon", "1/2", "--n", n, "--output", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == "error: m and n must be positive\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--epsilon", "--x0"])
    def test_zero_denominator_exits_one(self, plateau_map_file, flag):
        args = {"--epsilon": "1/2", "--x0": "1/5", flag: "1/0"}
        assert run("corrsum", "--map", plateau_map_file, "--x0", args["--x0"],
                   "--m", "1", "--epsilon", args["--epsilon"], "--n", "3") == 1

    @pytest.mark.parametrize("flag", ["--epsilon", "--x0"])
    def test_float_overflow_exits_one(self, capsys, plateau_map_file, flag):
        args = {"--epsilon": "1/2", "--x0": "1/5", flag: "1e400"}
        assert run("corrsum", "--map", plateau_map_file, "--x0", args["--x0"], "--m", "1",
                   "--epsilon", args["--epsilon"], "--n", "3", "--float") == 1
        assert capsys.readouterr().err == f"error: {flag} is beyond the float range\n"

    @pytest.mark.parametrize("argv", [
        ["config", "--extremal", "--n", "3", "--epsilon", "1/0"],
        ["solenoid", "--r", "5", "--m", "1", "--epsilon", "1/0", "--t-schedule", "2"]])
    def test_zero_denominator_in_other_commands_exits_one(self, argv):
        assert run(*argv) == 1

    @pytest.mark.parametrize("error", [TypeError, AssertionError])
    def test_internal_type_error_propagates(self, monkeypatch, plateau_map_file, error):
        # internal self-checks and bugs surface as tracebacks, not exit 1
        def broken(*args, **kwargs):
            raise error("internal bug")

        monkeypatch.setattr(cli.rqa, "series", broken)
        with pytest.raises(error, match="internal bug"):
            run("corrsum", "--map", plateau_map_file, "--x0", "1/5",
                "--m", "1", "--epsilon", "1/2", "--n", "5")


# SHA-256 of stdout and of the --output file, recorded before the table
# handlers and the solenoid rows were merged; corrsum/rdet/det print the
# file's bytes.  The --float digests were recorded before float orbits kept
# their lasso; every float distance on this plateau orbit decides as the
# exact one does, so they match the exact tables byte for byte
_GOLDEN = {
    "corrsum": ("5766690ea4dbba10369a62709bb1380ac5b45a06360d05df9b8ddd3c059c7456",) * 2,
    "corrsum-float": ("5766690ea4dbba10369a62709bb1380ac5b45a06360d05df9b8ddd3c059c7456",) * 2,
    "rdet": ("536ae73c0f94420f7758d91abba8d3a9e6eedf5d1eb9dc515e9f13e51148341d",) * 2,
    "det": ("5411d0c2b1f14ae8d72ae45b1730e2b3ba30dde854fdc398f3ca1f33acdad4b4",) * 2,
    "det-float": ("5411d0c2b1f14ae8d72ae45b1730e2b3ba30dde854fdc398f3ca1f33acdad4b4",) * 2,
    "solenoid": ("0bf34afd72541f410a181ff7650bbb46f3d7bdad462113dcb8a05a8198284dcb",
                 "0f7a56f6b24e918d67e7b93f3c6e99536caf90f265b40513414ffc1cbaa23246"),
    "report": ("0b91abe56369d74b03754496620e87a5bac16add87bd6e95c89d95377ce45539",) * 2,
    "positions": ("0a35bffdb8c7c463a96cbb4de47bd26312b1f57f40b5ea44bc54b9594af2cd3c",) * 2,
    # recorded while lasso-free points with repeated values still found their
    # classes with np.unique: at depth 10 the 4094 prop42 positions round to
    # 2688 distinct floats, and every index is now its own class
    "corrsum-prop42-float":
        ("f5e9b82215f51c84ddfc0af254f71d71577345675b3970f2392be100397a5f09",) * 2,
    "det-prop42-float":
        ("b7a3255dd65d33b30a0c90d3827b2a0b156d5fa243f18c6189fe0f3ea2f26f7b",) * 2,
    "det2-prop42-float":
        ("31153a38ac8bf7b25f81a139920d449d79d6e83f9fbd252b96835213b3ba54a8",) * 2,
    # recorded while the prop42 positions and the extremal layout were built
    # in Fraction arithmetic; config prints its report with --output too, and
    # writes the configuration to the file
    "positions-depth10":
        ("4ed75d8d589feabec8e600dc749d5f0d574323e193b12d0699ed03ebb89ac6c8",) * 2,
    "map-depth6": ("81acca33552eb02d1570a6ef9b4c1a7eaf03724676c705ec8e51fc0b0a4c37e6",) * 2,
    "config-extremal": ("430eceb3ab39252a3b4d8cee4f6043ea83d030d1ce68411edad2a598d85b0e16",
                        "5e0e0b0d7d338c23f2c95cb20ffd360c13bcbcc3f9561fae05e459a670a4428a"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_digests(tmp_path, capsys, plateau_map_file, name):
    series = ["--map", plateau_map_file, "--x0", "21/100", "--m", "2",
              "--epsilon", "9/20", "--schedule", "40,80,160"]
    prop42_float = ["--construction", "prop42", "--depth", "10", "--float", "--epsilon", "1/2"]
    argv = {"corrsum": ["corrsum", *series], "rdet": ["rdet", *series],
            "det": ["det", *series],
            "corrsum-float": ["corrsum", *series, "--float"],
            "det-float": ["det", *series, "--float"],
            "solenoid": ["solenoid", "--r", "5", "--m", "3", "--epsilon", "1/5",
                         "--t-schedule", "2,3,4,5,6"],
            "report": ["prop42", "--depth", "8", "--emit", "report"],
            "positions": ["prop42", "--depth", "4", "--emit", "positions"],
            "positions-depth10": ["prop42", "--depth", "10", "--emit", "positions"],
            "map-depth6": ["prop42", "--depth", "6", "--emit", "map"],
            "config-extremal": ["config", "--extremal", "--n", "120", "--epsilon", "3/10"],
            "corrsum-prop42-float": ["corrsum", *prop42_float, "--m", "1",
                                     "--schedule", "1024,2048,4093"],
            "det-prop42-float": ["det", *prop42_float, "--m", "1",
                                 "--schedule", "1024,2048,4093"],
            "det2-prop42-float": ["det", *prop42_float, "--m", "2",
                                  "--schedule", "1024,2048,4092"]}[name]
    out = tmp_path / "artifact"
    assert run(*argv) == 0
    printed = capsys.readouterr().out.encode()
    assert run(*argv, "--output", str(out)) == 0
    assert capsys.readouterr().out == ("" if argv[0] != "config" else printed.decode())
    digests = tuple(hashlib.sha256(data).hexdigest() for data in (printed, out.read_bytes()))
    assert digests == _GOLDEN[name]


# SHA-256 of the rplot file, recorded before the index-order scan counted
# the full square; at the default BLOCK_ELEMS each plot spans two row
# blocks
_GOLDEN_PLOTS = {
    "prop42": "46eab325784d282f8309a00df42538ac8a8ea4013ee6a2552e121413651e610a",
    "float": "4d76b26a875252236406e3cd598da23ceb65403cde8e4ab2f16cfd41769273c9",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_PLOTS))
def test_rplot_golden_digests(tmp_path, plateau_map_file, name):
    argv = {"prop42": ["--construction", "prop42", "--depth", "8", "--m", "2",
                       "--epsilon", "1/2", "--n", "500"],
            "float": ["--map", plateau_map_file, "--x0", "33/100", "--float",
                      "--m", "3", "--epsilon", "3/10", "--n", "400"]}[name]
    out = tmp_path / "plot.pgm"
    assert run("rplot", *argv, "--output", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_PLOTS[name]
