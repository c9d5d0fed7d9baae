import json

import numpy as np
import pytest

from hypotorus import (GridFunction, HypotorusError, cli, kernel_context,
                       solve_f, solvers)

from helpers import use_cpus

REPORT_KEYS = ["solvable", "j", "k", "nu_re", "nu_im", "residual_sup",
               "residual_l2", "iterations", "offset_constancy", "min_abs_u",
               "grid_n", "wall_time_s", "notes"]


def write_cfg(tmp_path, obj, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def elliptic_f_cfg(tmp_path, f="exp(i*2*pi*(x+y))", n=16, name="case.json"):
    return write_cfg(tmp_path, {
        "field": {"builtin": "elliptic"}, "grid_n": n,
        "equation": "f", "rhs": {"f": f}}, name)


def test_parse_tau():
    assert cli._parse_tau("0+1i") == 1j
    assert cli._parse_tau("0.3+0.8i") == 0.3 + 0.8j
    assert cli._parse_tau(" 1.5-0.5i ") == 1.5 - 0.5j
    for bad in ("i", "1+2j", "0.3", "1i"):
        with pytest.raises(HypotorusError):
            cli._parse_tau(bad)


def test_theta_check_refuses_malformed_modulus(capsys):
    # "1.2.3" matches the number pattern but is not a float
    assert cli.main(["theta-check", "--tau", "1.2.3+1i"]) == 1
    assert "error: cannot parse lattice modulus" in capsys.readouterr().err


def test_load_config_defaults(tmp_path):
    cfg = cli.load_config(write_cfg(tmp_path, {
        "field": {"builtin": "degenerate_sin2"},
        "equation": "ab",
        "rhs": {"A": "1", "B": "0.1*exp(i*2*pi*y)"}}))
    assert cfg.spec.name == "degenerate_sin2"
    assert cfg.grid_n == 64


@pytest.mark.parametrize("patch,pointer", [
    ({"field": None}, "/field"),
    ({"field": {"builtin": "moebius"}}, "/field/builtin"),
    ({"field": {"a": "1"}}, "/field/b"),
    ({"field": {"builtin": "elliptic", "extra": 1}}, "/field/extra"),
    ({"grid_n": 8}, "/grid_n"),
    ({"grid_n": True}, "/grid_n"),
    ({"equation": "g"}, "/equation"),
    ({"rhs": {}}, "/rhs/f"),
    ({"rhs": {"f": "1", "manufactured_w": "x"}}, "/rhs/manufactured_w"),
    ({"rhs": {"f": "1", "B": "1"}}, "/rhs/B"),
    ({"rhs": {"f": "x +"}}, "/rhs/f"),
    # the solver has no settings: a solver section is refused, even one
    # that only repeats the constants
    ({"solver": {"bogus": 1}}, "/solver"),
    ({"solver": {"damping": 0.0}}, "/solver"),
    ({"solver": {"k_max": 3}}, "/solver"),
    # the operator has no settings: a kernel or theta section is refused
    ({"kernel": {"refine_depth": 1}}, "/kernel"),
    ({"theta": {"tol": 0.5}}, "/theta"),
    ({"bogus": 1}, "/bogus"),
    ({"theta": {"tol": 1e-14}}, "/theta"),
    ({"grid_n": 257}, "/grid_n"),
    ({"solver": {"lattice_tol": 0.5}}, "/solver"),
    *(({"field": {"a": "1", "b": "i*sin(pi*y)^2",
                  "sigma": [{"sigma_i": 2, "hint": hint}]}},
       "/field/sigma/0/hint") for hint in ("y=0/1", "y=nan", "y=1e999")),
    *(({"field": {"a": "1", "b": "i*sin(pi*y)^2",
                  "sigma": [{"sigma_i": sv, "hint": "y=0"}]}},
       "/field/sigma/0/sigma_i") for sv in (float("nan"), float("inf"))),
    # a circle is declared at an ordinate: no hint, or a label, is refused
    ({"field": {"a": "1", "b": "i*sin(pi*y)^2",
                "sigma": [{"sigma_i": 2}]}}, "/field/sigma/0/hint"),
    ({"field": {"a": "1", "b": "i*sin(pi*y)^2",
                "sigma": [{"sigma_i": 2, "hint": "equator"}]}},
     "/field/sigma/0/hint"),
])
def test_load_config_pointers(tmp_path, patch, pointer):
    base = {"field": {"builtin": "elliptic"}, "equation": "f",
            "rhs": {"f": "1"}}
    base.update(patch)
    if base.get("field") is None:
        del base["field"]
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(write_cfg(tmp_path, base))
    assert f"schema error at {pointer}:" in str(err.value)


# a field whose coefficients depend on x, at a grid its dense operator
# cannot serve
DEG_2D_96 = {"field": {"builtin": "degenerate_2d"}, "grid_n": 96}


@pytest.mark.parametrize("equation, rhs", [
    ("ab", {"A": "1", "B": "0.1"}), ("f", {"f": "1"}), ("a", {"A": "1"})])
def test_operator_commands_refuse_x_dependent_grid_above_80(
        tmp_path, monkeypatch, capsys, equation, rhs):
    cfg = write_cfg(tmp_path, dict(DEG_2D_96, equation=equation, rhs=rhs))
    calls = []
    monkeypatch.setattr(cli, "_assemble_case", lambda *a: calls.append(a))
    for argv in (["solve", "--out-prefix", str(tmp_path / "u")],
                 ["operator-check"]):
        assert cli.main(argv + ["--config", cfg]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "schema error at /grid_n:" in err and "grid_n <= 80" in err
    assert calls == []
    assert not (tmp_path / "u.report.json").exists()


def test_field_info_takes_any_grid_size(tmp_path, capsys):
    # field-info builds no operator, so the dense limit does not apply
    cfg = write_cfg(tmp_path, dict(DEG_2D_96, equation="f", rhs={"f": "1"}))
    assert cli.main(["field-info", "--config", cfg]) == cli.EXIT_OK
    assert "declared order 2" in capsys.readouterr().out


def test_load_config_ab_above_80_on_x_invariant_field(tmp_path):
    # the closed form builds an x-invariant operator at every n, so only
    # fields whose coefficients depend on x keep the n <= 80 limit for
    # equation 'ab'
    cfg = cli.load_config(write_cfg(tmp_path, {
        "field": {"builtin": "elliptic"}, "equation": "ab", "grid_n": 96,
        "rhs": {"A": "1", "B": "0.1"}}))
    assert cfg.grid_n == 96


def test_load_config_equation_ab_needs_b(tmp_path):
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(write_cfg(tmp_path, {
            "field": {"builtin": "elliptic"}, "equation": "ab",
            "rhs": {"A": "1"}}))
    assert "schema error at /rhs/B: required" in str(err.value)


def test_load_config_sigma_items(tmp_path):
    cfg = cli.load_config(write_cfg(tmp_path, {
        "field": {"a": "1", "b": "i*sin(pi*y)^2",
                  "sigma": [{"sigma_i": 2, "hint": "y=0"}]},
        "equation": "f", "rhs": {"f": "1"}}))
    assert cfg.spec.components[0].sigma == 2.0
    assert cfg.spec.components[0].y0 == 0.0
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(write_cfg(tmp_path, {
            "field": {"a": "1", "b": "i", "sigma": [{"order": 2}]},
            "equation": "f", "rhs": {"f": "1"}}))
    assert "/field/sigma/0/order" in str(err.value)


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(HypotorusError) as err:
        cli.load_config(str(p))
    assert "not valid JSON" in str(err.value)
    with pytest.raises(HypotorusError) as err:
        cli.load_config(str(tmp_path / "missing.json"))
    assert "cannot read config" in str(err.value)


def test_solve_writes_csv_and_report(tmp_path, nf_elliptic):
    cfg = elliptic_f_cfg(tmp_path)
    prefix = str(tmp_path / "out")
    rc = cli.main(["solve", "--config", cfg, "--out-prefix", prefix])
    assert rc == 0

    lines = (tmp_path / "out.u.csv").read_text().splitlines()
    assert lines[0] == "x,y,re_u,im_u"
    assert len(lines) == 1 + 16 * 16
    # row-major with x as the outer loop; %.17g round-trips float64 exactly
    first = lines[1].split(",")
    assert float(first[0]) == 0.5 / 16 and float(first[1]) == 0.5 / 16
    second = lines[2].split(",")
    assert float(second[0]) == 0.5 / 16 and float(second[1]) == 1.5 / 16

    ctx = kernel_context(nf_elliptic, 16)
    want = solve_f(ctx, GridFunction.from_callable(
        16, lambda x, y: np.exp(2j * np.pi * (x + y)))).u
    got = np.array([complex(float(ln.split(",")[2]), float(ln.split(",")[3]))
                    for ln in lines[1:]]).reshape(16, 16)
    assert np.array_equal(got, want.values)

    report = json.loads((tmp_path / "out.report.json").read_text())
    assert list(report) == REPORT_KEYS
    assert report["solvable"] == "yes"
    assert report["j"] is None and report["k"] is None
    assert report["grid_n"] == 16
    assert report["residual_sup"] > 0
    assert isinstance(report["wall_time_s"], float)


def test_solve_unsolvable_exit_and_outputs(tmp_path):
    cfg = elliptic_f_cfg(tmp_path, f="1")
    prefix = str(tmp_path / "nope")
    rc = cli.main(["solve", "--config", cfg, "--out-prefix", prefix])
    assert rc == cli.EXIT_NO
    assert (tmp_path / "nope.u.csv").read_text() == "x,y,re_u,im_u\n"
    report = json.loads((tmp_path / "nope.report.json").read_text())
    assert report["solvable"] == "no"
    assert report["residual_sup"] is None and report["min_abs_u"] is None
    assert list(report) == REPORT_KEYS


def test_solve_inconclusive_exit(tmp_path, monkeypatch):
    # one Picard step at one winding cannot converge
    monkeypatch.setattr(solvers, "MAX_ITER", 1)
    monkeypatch.setattr(solvers, "K_MAX", 0)
    cfg = write_cfg(tmp_path, {
        "field": {"builtin": "elliptic"}, "grid_n": 16,
        "equation": "ab", "rhs": {"A": "0", "B": "0.5"}})
    rc = cli.main(["solve", "--config", cfg,
                   "--out-prefix", str(tmp_path / "stall")])
    assert rc == cli.EXIT_INCONCLUSIVE
    report = json.loads((tmp_path / "stall.report.json").read_text())
    assert report["solvable"] == "inconclusive"


def test_uncertified_yes_is_inconclusive(tmp_path):
    # nu(A) = 15.9i is off the lattice, but the quadrature-scaled lattice
    # tolerance grows with |nu| and rounds it on; the FD residual, as large
    # as A*u itself, shows the solution is not one
    cfg = write_cfg(tmp_path, {
        "field": {"builtin": "elliptic"}, "grid_n": 16,
        "equation": "a", "rhs": {"A": "100 + sin(2*pi*x)"}})
    rc = cli.main(["solve", "--config", cfg,
                   "--out-prefix", str(tmp_path / "big")])
    assert rc == cli.EXIT_INCONCLUSIVE
    report = json.loads((tmp_path / "big.report.json").read_text())
    assert report["solvable"] == "inconclusive"
    assert report["residual_sup"] > 50.0
    assert "not certified" in report["notes"]
    lines = (tmp_path / "big.u.csv").read_text().splitlines()
    assert len(lines) == 1 + 16 * 16


def test_csv_formats_every_value_with_17_digits(tmp_path):
    n = 24
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    vals[3, 7] = complex(-0.0, 1e308)
    vals[5, 0] = complex(2.5e-310, -0.0)
    path = tmp_path / "u.csv"
    cli._write_csv(str(path), GridFunction(n, vals), n)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[0] == "x,y,re_u,im_u\n"
    c = (np.arange(n) + 0.5) / n
    assert lines[1:] == ["%.17g,%.17g,%.17g,%.17g\n"
                         % (c[i], c[j], vals[i, j].real, vals[i, j].imag)
                         for i in range(n) for j in range(n)]


@pytest.mark.parametrize("n", [8, 48])
def test_csv_bytes_equal_per_row_formatting(tmp_path, n):
    # one template per grid column writes the same bytes as formatting
    # each row on its own, down to subnormals, huge values and -0.0
    rng = np.random.default_rng(n)
    vals = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    vals[0, 1] = complex(1e300, -1e-300)
    vals[1, 0] = complex(-1e-300, 5e-324)
    vals[2, 5] = complex(-0.0, -5e-324)
    vals[n - 1, n - 1] = complex(0.0, -0.0)
    path = tmp_path / "u.csv"
    cli._write_csv(str(path), GridFunction(n, vals), n)
    c = ["%.17g" % ((i + 0.5) / n) for i in range(n)]
    want = "x,y,re_u,im_u\n" + "".join(
        "%s,%s,%.17g,%.17g\n" % (c[i], c[j], v.real, v.imag)
        for i in range(n) for j, v in enumerate(vals[i].tolist()))
    assert path.read_bytes() == want.encode()


def test_solve_error_exit(tmp_path, capsys):
    rc = cli.main(["solve", "--config", str(tmp_path / "none.json"),
                   "--out-prefix", str(tmp_path / "x")])
    assert rc == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_theta_check_command(capsys):
    rc = cli.main(["theta-check", "--tau", "0.3+0.8i", "--samples", "25"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "period law" in out and "quasi-law" in out


def test_operator_check_command(tmp_path, capsys):
    cfg = elliptic_f_cfg(tmp_path, n=32)
    rc = cli.main(["operator-check", "--config", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    assert "inversion probe" in out
    assert out.count("x-period dev") == 3


def test_field_info_command(tmp_path, capsys):
    rc = cli.main(["field-info", "--config", elliptic_f_cfg(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tau 0+1j" in out
    assert "degenerate set: none declared" in out

    cfg = write_cfg(tmp_path, {
        "field": {"builtin": "degenerate_sin2"},
        "equation": "f", "rhs": {"f": "1"}}, name="deg.json")
    rc = cli.main(["field-info", "--config", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    assert "declared order 2" in out
    assert "MISMATCH" not in out


def test_field_info_custom_flipped(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "field": {"a": "1", "b": "-i"},
        "equation": "f", "rhs": {"f": "1"}})
    rc = cli.main(["field-info", "--config", cfg])
    assert rc == 0
    assert "y-axis flipped: True" in capsys.readouterr().out


def test_unfixed_orientation_is_refused(tmp_path, capsys):
    # Im(a*conj(b)) = 0.2 + sin(2*pi*y) takes both signs, which the paper's
    # hypotheses exclude; field-info still diagnoses the field
    cfg = write_cfg(tmp_path, {
        "field": {"a": "1", "b": "i*(0.2+sin(2*pi*y))"}, "grid_n": 16,
        "equation": "f", "rhs": {"f": "sin(2*pi*x)"}})
    assert cli.main(["field-info", "--config", cfg]) == 0
    assert "orientation fixed: False" in capsys.readouterr().out
    for argv in (["solve", "--out-prefix", str(tmp_path / "u")],
                 ["operator-check"], ["convergence", "--sizes", "16,32"]):
        assert cli.main(argv + ["--config", cfg]) == cli.EXIT_ERROR
        assert "orientation is not fixed" in capsys.readouterr().err
    assert not (tmp_path / "u.report.json").exists()


def test_open_form_is_refused(tmp_path, capsys):
    # b = i does not depend on x, so a dx + b dy is closed only for a
    # constant a; this a gave "solvable: yes" with residual sup 0.108
    cfg = write_cfg(tmp_path, {
        "field": {"a": "1 + 0.1*sin(2*pi*y)", "b": "i"}, "grid_n": 16,
        "equation": "f", "rhs": {"f": "exp(i*2*pi*(x+y))"}})
    rc = cli.main(["solve", "--config", cfg,
                   "--out-prefix", str(tmp_path / "u")])
    assert rc == cli.EXIT_ERROR
    assert "a dx + b dy is not closed" in capsys.readouterr().err
    assert not (tmp_path / "u.report.json").exists()


def test_wrong_z_exact_is_refused(tmp_path, capsys):
    # this z_exact is not the field's first integral; it gave "solvable:
    # yes" with residual sup 9.5e-3
    cfg = write_cfg(tmp_path, {
        "field": {"a": "1", "b": "i",
                  "z_exact": "x + i*y + 0.05*sin(2*pi*x)"},
        "grid_n": 32, "equation": "f", "rhs": {"f": "exp(i*2*pi*(x+y))"}})
    rc = cli.main(["solve", "--config", cfg,
                   "--out-prefix", str(tmp_path / "u")])
    assert rc == cli.EXIT_ERROR
    assert "z_exact is not a first integral" in capsys.readouterr().err
    assert not (tmp_path / "u.report.json").exists()


def test_convergence_command(tmp_path, capsys):
    cfg = elliptic_f_cfg(tmp_path)
    rc = cli.main(["convergence", "--config", cfg, "--sizes", "16,32"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "residual_sup" in out
    rows = [ln for ln in out.splitlines() if ln.strip().startswith(("16", "32"))]
    assert len(rows) == 2
    with pytest.raises(SystemExit):
        cli.main(["convergence", "--config", cfg])  # --sizes is required
    rc = cli.main(["convergence", "--config", cfg, "--sizes", "16,banana"])
    assert rc == cli.EXIT_ERROR


def test_convergence_rejects_ab_sizes_above_matrix_cache(tmp_path,
                                                        monkeypatch, capsys):
    cfg = write_cfg(tmp_path, {
        "field": {"builtin": "degenerate_2d"}, "grid_n": 32,
        "equation": "ab", "rhs": {"A": "1", "B": "0.1"}})
    calls = []
    monkeypatch.setattr(cli, "_run_solve", lambda *a: calls.append(a))
    rc = cli.main(["convergence", "--config", cfg, "--sizes", "32,96"])
    assert rc == cli.EXIT_ERROR
    assert calls == []
    assert "grid_n <= 80" in capsys.readouterr().err


def test_convergence_checks_every_size_before_solving(tmp_path,
                                                     monkeypatch, capsys):
    cfg = elliptic_f_cfg(tmp_path)
    calls = []
    monkeypatch.setattr(cli, "_run_solve", lambda *a: calls.append(a))
    rc = cli.main(["convergence", "--config", cfg, "--sizes", "16,512"])
    assert rc == cli.EXIT_ERROR
    assert calls == []
    assert "512 outside [16, 256]" in capsys.readouterr().err


def test_theta_check_refuses_nonpositive_samples(capsys):
    for samples in ("0", "-3"):
        rc = cli.main(["theta-check", "--tau", "0.3+0.8i",
                       "--samples", samples])
        assert rc == cli.EXIT_ERROR
        assert "--samples must be a positive integer" in (
            capsys.readouterr().err)


def test_outputs_identical_across_thread_counts(tmp_path, monkeypatch):
    cfg = elliptic_f_cfg(tmp_path)

    def run(tag, cpus):
        use_cpus(monkeypatch, cpus)
        prefix = str(tmp_path / tag)
        assert cli.main(["solve", "--config", cfg,
                         "--out-prefix", prefix]) == 0
        report = json.loads((tmp_path / f"{tag}.report.json").read_text())
        report.pop("wall_time_s")
        return (tmp_path / f"{tag}.u.csv").read_bytes(), report

    csv1, rep1 = run("t1", 1)
    csv2, rep2 = run("t2", 2)
    assert csv1 == csv2
    assert rep1 == rep2


def test_manufactured_rhs_assembly(tmp_path):
    # manufactured_w builds f = L w symbolically; the mean must then be
    # spectrally small and the case solvable
    cfg = write_cfg(tmp_path, {
        "field": {"builtin": "elliptic"}, "grid_n": 16,
        "equation": "f", "rhs": {"manufactured_w": "0.2*sin(2*pi*x)"}})
    prefix = str(tmp_path / "manu")
    assert cli.main(["solve", "--config", cfg, "--out-prefix", prefix]) == 0
    report = json.loads((tmp_path / "manu.report.json").read_text())
    assert report["solvable"] == "yes"
