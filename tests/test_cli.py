import numpy as np
import pytest

from deltalim import cli, potential


def run_ok(argv):
    assert cli.run(argv) == 0


def test_resonances_csv(tmp_path):
    out = tmp_path / "res.csv"
    run_ok(["resonances", "--potential", "square",
            "--theta-range", "-120:-0.1", "--max", "3", "-o", str(out)])
    header, rows = cli.read_table(out)
    assert header == ["theta", "residual", "psi_M", "integral_I",
                      "dG_dtheta", "alpha_per_omega"]
    exact = [-(np.pi * (k + 0.5)) ** 2 for k in range(3)]
    assert len(rows) == 3
    for row, e in zip(rows, exact):
        assert row[0] == pytest.approx(e, rel=1e-8)
        assert row[5] == pytest.approx(0.5, rel=1e-8)


def test_alpha_stdout(capsys):
    run_ok(["alpha", "--potential", "square",
            "--theta", "-2.4674011", "--omega", "1"])
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(0.5, abs=1e-6)


def test_alpha_nonresonant_is_domain_error(capsys):
    assert cli.run(["alpha", "--potential", "square",
                    "--theta", "-3", "--omega", "1"]) == 1
    assert "not resonant" in capsys.readouterr().err


def test_kernel_csv(tmp_path):
    out = tmp_path / "ker.csv"
    run_ok(["kernel", "--potential", "square", "--lam", "-100",
            "--eps", "0.1", "--z", "0,1",
            "--x", "0.5,1.0", "--y", "0.7,0.2", "-o", str(out)])
    header, rows = cli.read_table(out)
    assert header == ["x", "y", "ReG", "ImG"]
    assert len(rows) == 2


def test_kernel_mismatched_points(tmp_path):
    assert cli.run(["kernel", "--potential", "square", "--lam", "-1",
                    "--eps", "0.1", "--z", "0,1",
                    "--x", "0.5", "--y", "0.7,0.2"]) == 1


def test_infinite_tol_is_domain_error(capsys):
    # an inf tol made the Taylor march order 1, and the kernel came out
    # 0.004975 where it is 0.005536, with exit status 0
    assert cli.run(["kernel", "--potential", "square", "--lam", "-2467.4",
                    "--eps", "0.01", "--z", "0,1", "--x", "0.005",
                    "--y", "0.007", "--tol", "inf"]) == 1
    assert "tol must be positive and finite" in capsys.readouterr().err


def test_real_z_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.run(["kernel", "--potential", "square", "--lam", "-1",
                 "--eps", "0.1", "--z", "1,0", "--x", "0.5", "--y", "0.7"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.run(["spectrum"])
    assert exc.value.code == 2


def test_converge_csv(tmp_path):
    out = tmp_path / "conv.csv"
    run_ok(["converge", "--potential", "square", "--theta", "-2.4674011002",
            "--omega", "2", "--z", "0,1", "--eps", "1e-1,1e-2",
            "--x-count", "20", "-o", str(out)])
    header, rows = cli.read_table(out)
    assert header == ["epsilon", "lambda", "error_L2", "alpha_estimate",
                      "reference_kind"]
    assert rows[0][4] == "robin"
    assert rows[0][2] > rows[1][2]


def test_converge_eps_must_decrease():
    with pytest.raises(SystemExit) as exc:
        cli.run(["converge", "--potential", "square", "--theta", "-1",
                 "--omega", "1", "--z", "0,1", "--eps", "1e-2,1e-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("option, value", [
    ("--eps", ","), ("--x-count", "1"), ("--x-count", "0"),
    ("--x-range", "2:1"), ("--x-range", "1:1"), ("--x-range", "0.1:inf")])
def test_converge_degenerate_grid_is_usage_error(capsys, option, value):
    # one x point would print error_L2 0, a reversed range nan, and no eps
    # at all a numpy reduction error
    argv = {"--eps": "1e-1,1e-2", option: value}
    with pytest.raises(SystemExit) as exc:
        cli.run(["converge", "--potential", "square", "--theta", "-1",
                 "--omega", "1", "--z", "0,1",
                 *[tok for pair in argv.items() for tok in pair]])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["1e-1,nan", "nan", "inf,1e-1", "1e-1,-inf"])
def test_converge_nonfinite_eps_is_usage_error(capsys, eps):
    # nan <= 0 is false, so a bare sign check let nan through to a
    # ValueError from convergence_study (exit 1)
    with pytest.raises(SystemExit) as exc:
        cli.run(["converge", "--potential", "square", "--theta", "-1",
                 "--omega", "1", "--z", "0,1", "--eps", eps])
    assert exc.value.code == 2
    assert "--eps" in capsys.readouterr().err


def test_airy_table_csv(tmp_path):
    out = tmp_path / "airy.csv"
    run_ok(["airy-table", "--x-range", "-2:2", "--count", "5",
            "-o", str(out)])
    header, rows = cli.read_table(out)
    assert header == ["x", "Ai", "dAi", "Bi", "dBi"]
    mid = rows[2]
    assert mid[0] == 0.0
    assert mid[1] == pytest.approx(0.3550280538878172, rel=1e-14)


def test_classify3d_with_profile(tmp_path, capsys):
    prof = tmp_path / "prof.csv"
    run_ok(["classify3d", "--potential", "square", "--theta", "-2.4674011",
            "--omega", "1", "--profile-out", str(prof)])
    out = capsys.readouterr().out
    assert "verdict: resonant" in out
    header, rows = cli.read_table(prof)
    assert header == ["r", "Psi"]
    assert len(rows) == 200


def test_classify3d_nonresonant(capsys):
    run_ok(["classify3d", "--potential", "square", "--theta", "-3",
            "--omega", "1"])
    out = capsys.readouterr().out
    assert "nonresonant" in out and "inf" in out


def test_scan_xi_rows(tmp_path):
    out = tmp_path / "scan.csv"
    run_ok(["scan-xi", "--xi", "0,1", "--theta-range", "-60:-0.1",
            "--max", "2", "-o", str(out)])
    header, rows = cli.read_table(out)
    assert header == ["xi", "theta_airy", "theta_ode", "discrepancy",
                      "alpha_per_omega"]
    square_rows = [r for r in rows if r[0] == 0.0]
    assert [r[1] for r in square_rows] == pytest.approx(
        [-(np.pi * 0.5) ** 2, -(np.pi * 1.5) ** 2])
    assert all(r[3] <= 1e-7 for r in rows)


def test_potential_json_source(tmp_path):
    pot = tmp_path / "pot.json"
    potential.linear(0.5).dump(pot)
    out = tmp_path / "res.csv"
    run_ok(["resonances", "--potential", str(pot),
            "--theta-range", "-30:-0.5", "--max", "1", "-o", str(out)])
    _, rows = cli.read_table(out)
    assert len(rows) == 1


def test_missing_potential_file_is_domain_error(capsys):
    assert cli.run(["resonances", "--potential", "/nonexistent.json",
                    "--theta-range", "-10:-1"]) == 1


@pytest.mark.parametrize("spec", ['{"kind": "linear"}', "[1, 2]"])
def test_malformed_potential_spec_is_domain_error(tmp_path, capsys, spec):
    pot = tmp_path / "pot.json"
    pot.write_text(spec)
    assert cli.run(["resonances", "--potential", str(pot),
                    "--theta-range", "-10:-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValueError: ") and err.count("\n") == 1


@pytest.mark.parametrize("text, bad", [
    ('"coeffs": [[1.0, Infinity, 0.0, 0.0]], "breakpoints": [0.0, 1.0]',
     "coefficient inf"),
    ('"coeffs": [[1, 0, 0, 0], [1, 0, 0, 0]], "breakpoints": [0.0, NaN, 1.0]',
     "breakpoint nan")], ids=["inf_coefficient", "nan_breakpoint"])
def test_non_finite_potential_file_is_domain_error(tmp_path, capsys, text, bad):
    pot = tmp_path / "pot.json"
    pot.write_text('{"kind": "piecewise", ' + text + "}")
    assert cli.run(["resonances", "--potential", str(pot),
                    "--theta-range", "-50:-1"]) == 1
    err = capsys.readouterr().err
    assert err == f"ValueError: {bad} is not finite\n"


@pytest.mark.parametrize("flag, value, name", [
    ("--grid-cells", "0", "grid_cells"), ("--grid-cells", "-3", "grid_cells"),
    ("--max", "-2", "max_hits")])
def test_resonances_options_out_of_range_are_domain_errors(tmp_path, capsys,
                                                           flag, value, name):
    out = tmp_path / "res.csv"
    assert cli.run(["resonances", "--potential", "square", "--theta-range",
                    "-30:-0.5", flag, value, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValueError: ") and name in err
    assert err.count("\n") == 1 and not out.exists()


def test_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["resonances", "--potential", "square",
            "--theta-range", "-30:-0.5"]
    run_ok(argv + ["-o", str(a)])
    run_ok(argv + ["-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_fifteen_significant_digits(tmp_path):
    out = tmp_path / "res.csv"
    run_ok(["resonances", "--potential", "square",
            "--theta-range", "-10:-1", "-o", str(out)])
    first = out.read_text().splitlines()[1].split(",")[0]
    assert len(first.lstrip("-").replace(".", "")) >= 15


def test_scan_xi_zero_solves_the_ode(tmp_path, count_calls):
    from deltalim import resonance
    calls = count_calls(resonance, "resonance_membership")
    out = tmp_path / "scan.csv"
    run_ok(["scan-xi", "--xi", "0", "--theta-range", "-60:-0.1",
            "--max", "2", "-o", str(out)])
    _, rows = cli.read_table(out)
    assert [args[0].xi for args in calls] == [0.0, 0.0]
    for row, k in zip(rows, (0.5, 1.5)):
        exact = -(np.pi * k) ** 2
        assert row[1] == pytest.approx(exact, rel=1e-12)
        assert row[2] == pytest.approx(exact, rel=1e-9)
        assert row[3] <= 1e-7
        assert row[4] == 0.5


def test_scan_xi_max_one_is_the_nearest_root(tmp_path, monkeypatch,
                                              count_calls):
    from deltalim import airy
    inner = airy.find_linear_resonances
    every = inner(0.7, (-60.0, -0.1))
    assert len(every) >= 2
    found = []

    def recording(*args, **kwargs):
        found.append(inner(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(airy, "find_linear_resonances", recording)
    refinements = count_calls(airy, "brentq")
    out = tmp_path / "scan.csv"
    run_ok(["scan-xi", "--xi", "0.7", "--theta-range", "-60:-0.1",
            "--max", "1", "-o", str(out)])
    assert found == [every[:1]]
    assert len(refinements) == 1
    _, rows = cli.read_table(out)
    assert [r[1] for r in rows] == pytest.approx(every[:1], rel=1e-14)
