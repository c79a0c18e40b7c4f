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


def test_scan_xi_zero_solves_the_ode(tmp_path, monkeypatch):
    from deltalim import resonance
    calls = []
    inner = resonance.resonance_membership

    def counting(V, theta, *args):
        calls.append(V.xi)
        return inner(V, theta, *args)

    monkeypatch.setattr(resonance, "resonance_membership", counting)
    out = tmp_path / "scan.csv"
    run_ok(["scan-xi", "--xi", "0", "--theta-range", "-60:-0.1",
            "--max", "2", "-o", str(out)])
    _, rows = cli.read_table(out)
    assert calls == [0.0, 0.0]
    for row, k in zip(rows, (0.5, 1.5)):
        exact = -(np.pi * k) ** 2
        assert row[1] == pytest.approx(exact, rel=1e-12)
        assert row[2] == pytest.approx(exact, rel=1e-9)
        assert row[3] <= 1e-7
        assert row[4] == 0.5
