"""Command-line interface: subcommands, exit codes, determinism, provenance."""

import json
import math
import re

import numpy as np
import pytest

import eigenscore as es
from eigenscore.cli import main


def run(*argv):
    return main(list(argv))


def read_csv(path):
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A small end-to-end fit shared by the sample/density tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data.csv")
    model = str(root / "model.json")
    assert run("gen-data", "--target", "bart-simpson", "--n", "400",
               "--seed", "3", "--out", data) == 0
    assert run("fit", "--data", data, "--out", model, "--max-freq", "8",
               "--grid-size", "60", "--seed", "3") == 0
    return root, data, model


@pytest.fixture(scope="module")
def ou_model(fitted):
    root, data, _ = fitted
    model = str(root / "ou_model.json")
    assert run("fit", "--data", data, "--out", model, "--process", "OU", "--order", "2",
               "--schedule", "VP", "--grid-size", "20") == 0
    return model


def test_gen_data_deterministic(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert run("gen-data", "--target", "bart-simpson", "--n", "50",
                   "--seed", "7", "--out", out) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    prov = json.load(open(a + ".provenance.json"))
    assert prov["command"] == "gen-data" and prov["seed"] == 7


def test_gen_data_toy_in_torus(tmp_path):
    out = str(tmp_path / "pw.csv")
    assert run("gen-data", "--target", "pinwheel", "--n", "200",
               "--seed", "1", "--out", out) == 0
    pts = read_csv(out)
    assert pts.shape == (200, 2)
    assert np.all(np.abs(pts) <= math.pi)


def test_gen_data_unknown_target_exits_2(tmp_path):
    assert run("gen-data", "--target", "nope", "--out", str(tmp_path / "x.csv")) == 2


def test_fit_writes_model_and_provenance(fitted):
    root, data, model = fitted
    m = es.load_model(model)
    assert m.basis.n_active == 16
    assert len(m.grid) == 60
    prov = json.load(open(model + ".provenance.json"))
    assert prov["command"] == "fit"
    assert m.provenance["n_samples"] == 400


def test_fit_summary_reports_the_largest_stored_condition(fitted, tmp_path, capsys):
    # the summary and the sidecar hold the largest of the nodes' stored
    # conditions, whatever norm each node's figure is in
    root, data, _ = fitted
    out = str(tmp_path / "model.json")
    assert run("fit", "--data", data, "--out", out, "--max-freq", "8",
               "--grid-size", "60", "--seed", "3") == 0
    line = capsys.readouterr().out
    diag = es.load_model(out).diagnostics
    health = json.load(open(out + ".provenance.json"))["solve_health"]
    assert health == {"max_condition": float(diag["condition"].max())}
    assert f"60 grid nodes; max condition {health['max_condition']:.3e}" in line


def test_model_file_with_a_clamped_count_still_loads(fitted, tmp_path):
    # files written while the hard noise floor counted clamped eigenvalues
    # carry a "clamped" diagnostic: it is ignored
    _, _, model = fitted
    d = json.load(open(model))
    d["diagnostics"]["clamped"] = [2] * len(d["grid"])
    old = tmp_path / "old.json"
    old.write_text(json.dumps(d))
    assert set(es.load_model(old).diagnostics) == {"condition", "regularized"}
    assert run("density", "--model", str(old), "--grid-n", "21",
               "--out", str(tmp_path / "dens.csv")) == 0


def test_order_40_ou_fit_exits_3_naming_the_filtered_bound(tmp_path, capsys):
    # sampled Hermite moments of order up to 80 make ||P||_1 at tau = 0 some
    # 1e16 times the noise floor: the filter's condition bound exceeds the limit
    data = str(tmp_path / "bart.csv")
    assert run("gen-data", "--target", "bart-simpson", "--n", "2000", "--seed", "0",
               "--out", data) == 0
    capsys.readouterr()
    assert run("fit", "--data", data, "--out", str(tmp_path / "m.json"), "--process", "OU",
               "--order", "40", "--schedule", "VP", "--grid-size", "50") == 3
    err = capsys.readouterr().err
    match = re.search(r"solve failed at tau=0\.000000: the LDL filtered path is "
                      r"ill-conditioned: \|\|P\|\|_1 (\S+), delta (\S+), condition bound (\S+)",
                      err)
    assert match, err
    norm, delta, bound = map(float, match.groups())
    assert bound == pytest.approx((norm + math.sqrt(2.0) * delta) / delta, rel=1e-3)
    assert bound > es.solver.CONDITION_LIMIT


def test_fit_shrinkage_changes_model(fitted, tmp_path):
    root, data, model = fitted
    raw = str(tmp_path / "raw.json")
    assert run("fit", "--data", data, "--out", raw, "--max-freq", "8",
               "--grid-size", "60", "--shrinkage", "none", "--seed", "3") == 0
    a = es.load_model(model).alphas
    b = es.load_model(raw).alphas
    assert not np.allclose(a, b)


def test_fit_wraps_out_of_range_rows(tmp_path, capsys):
    data = str(tmp_path / "wide.csv")
    rng = np.random.default_rng(0)
    pts = np.concatenate([rng.uniform(-3, 3, 60), [4.0, -5.0]])[:, None]
    np.savetxt(data, pts, delimiter=",", header="x1", comments="")
    out = str(tmp_path / "m.json")
    assert run("fit", "--data", data, "--out", out, "--max-freq", "4",
               "--grid-size", "30") == 0
    assert "wrapped 2 points" in capsys.readouterr().err


def test_fit_header_only_csv_exit_2_without_warning(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("x1\n")
    assert run("fit", "--data", str(data), "--out", str(tmp_path / "m.json")) == 2
    err = capsys.readouterr().err
    assert "no data rows" in err
    assert "Warning" not in err and "loadtxt" not in err


def test_fit_missing_file_exit_code(tmp_path):
    assert run("fit", "--data", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "m.json")) == 2


def test_sample_pf_ode_and_determinism(fitted, tmp_path):
    root, data, model = fitted
    a, b = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    for out in (a, b):
        assert run("sample", "--model", model, "--n", "200", "--seed", "11",
                   "--out", out) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    pts = read_csv(a)
    assert pts.shape == (200, 1)
    assert np.all(np.abs(pts) <= math.pi)


def test_sample_reverse_sde(fitted, tmp_path):
    root, data, model = fitted
    out = str(tmp_path / "sde.csv")
    assert run("sample", "--model", model, "--method", "reverse-sde",
               "--n", "200", "--n-steps", "200", "--seed", "5", "--out", out) == 0
    assert read_csv(out).shape == (200, 1)


def test_density_integrates_to_one(fitted, tmp_path):
    root, data, model = fitted
    out = str(tmp_path / "dens.csv")
    assert run("density", "--model", model, "--grid-n", "201",
               "--out", out) == 0
    rows = read_csv(out)
    x, ld = rows[:, 0], rows[:, 1]
    w = np.full(len(x), x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    assert w @ np.exp(ld) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("flags", [("--grid-n", "1"), ("--chunk", "0"), ("--chunk", "-3")])
def test_density_rejects_degenerate_sizes(fitted, tmp_path, flags):
    _, _, model = fitted
    assert run("density", "--model", model, "--grid-n", "21", *flags,
               "--out", str(tmp_path / "dens.csv")) == 2


def test_loss_study_rejects_single_quadrature_node(tmp_path):
    assert run("loss-study", "--reps", "2", "--n", "100", "--basis-sizes", "4",
               "--n-quad", "1", "--out", str(tmp_path / "study.csv")) == 2


@pytest.mark.parametrize("flags", [
    ("--basis-sizes", "5,x"), ("--taus", "0.1,abc"), ("--reps", "0"), ("--workers", "0"),
    ("--basis-sizes", "4,4"), ("--taus", "0.1,0.1"),
])
def test_loss_study_bad_flags_exit_2(tmp_path, flags):
    out = tmp_path / "study.csv"
    assert run("loss-study", "--reps", "2", "--n", "100", "--basis-sizes", "4",
               "--n-quad", "64", *flags, "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("gen-data", "--target", "bart-simpson", "--n", "0"), "n must be >= 1"),
    (("gen-data", "--target", "bart-simpson", "--n", "-1"), "n must be >= 1"),
    (("loss-study", "--reps", "2", "--n", "-5", "--basis-sizes", "4", "--n-quad", "64"),
     "n must be >= 1"),
    (("fit", "--data", "{data}", "--grid-size", "10", "--sigma-min", "nan"), "VE schedule"),
    (("fit", "--data", "{data}", "--grid-size", "10", "--sigma-max", "inf"), "VE schedule"),
    (("fit", "--data", "{data}", "--grid-size", "10", "--schedule", "VP", "--beta1", "nan"),
     "VP schedule"),
    (("sample", "--model", "{model}", "--n", "5", "--rtol", "inf"), "must be finite"),
    (("sample", "--model", "{model}", "--n", "5", "--rtol", "nan"), "must be finite"),
    (("sample", "--model", "{model}", "--n", "5", "--atol", "nan"), "must be finite"),
    (("density", "--model", "{model}", "--grid-n", "5", "--atol", "inf"), "must be finite"),
    (("sample", "--model", "{ou_model}", "--n", "5", "--prior", "wrapped-normal"),
     "wrapped-normal"),
    (("sample", "--model", "{model}", "--n", "5", "--n-steps", "5"), "--n-steps applies only"),
    (("sample", "--model", "{model}", "--n", "5", "--config", "{config}"),
     "--n-steps applies only"),
    (("sample", "--model", "{model}", "--n", "5", "--method", "reverse-sde", "--rtol", "1e-12"),
     "--rtol applies only"),
    (("sample", "--model", "{model}", "--n", "5", "--method", "reverse-sde", "--atol", "1e-9"),
     "--atol applies only"),
    (("fit", "--data", "{data}", "--grid-size", "10", "--beta0", "0.2"),
     "--beta0 does not apply to a VE schedule"),
    (("fit", "--data", "{data}", "--grid-size", "10", "--schedule", "VP", "--sigma-min", "7"),
     "--sigma-min does not apply to a VP schedule"),
    (("loss-study", "--reps", "2", "--n", "100", "--basis-sizes", "4", "--n-quad", "64",
      "--beta1", "30"), "--beta1 does not apply to a VE schedule"),
    (("loss-study", "--reps", "2", "--n", "100", "--basis-sizes", "4", "--n-quad", "64",
      "--schedule", "VP", "--sigma-max", "30"), "--sigma-max does not apply to a VP schedule"),
    (("fit", "--data", "{bad_cell}", "--grid-size", "10"),
     "bad-cell.csv: line 3: 'abc' is not a number"),
    (("fit", "--data", "{short_row}", "--grid-size", "10"),
     "short-row.csv: line 4 has 1 columns, line 2 has 2"),
    (("fit", "--data", "{far_row}", "--grid-size", "10", "--process", "OU", "--order", "2"),
     "basis values overflow at the data"),
], ids=["gen-data-n0", "gen-data-n-1", "loss-study-n-5", "fit-sigma-min-nan",
        "fit-sigma-max-inf", "fit-beta1-nan", "sample-rtol-inf", "sample-rtol-nan",
        "sample-atol-nan", "density-atol-inf", "sample-ou-wrapped-normal",
        "pf-ode-n-steps", "pf-ode-n-steps-config", "reverse-sde-rtol", "reverse-sde-atol",
        "fit-ve-beta0", "fit-vp-sigma-min", "loss-study-ve-beta1", "loss-study-vp-sigma-max",
        "fit-data-not-a-number", "fit-data-short-row", "fit-ou-overflow"])
def test_bad_values_exit_2(fitted, ou_model, tmp_path, capsys, argv, message):
    _, data, model = fitted
    out = tmp_path / "out.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_steps": 5}))
    bad_cell, short_row = tmp_path / "bad-cell.csv", tmp_path / "short-row.csv"
    bad_cell.write_text("x1\n0.1\nabc\n0.3\n")
    short_row.write_text("x1,x2\n0.1,0.2\n0.3,0.4\n0.5\n")
    far_row = tmp_path / "far-row.csv"
    np.savetxt(far_row, np.append(np.random.default_rng(8).standard_normal(100), 1e160),
               header="x1", comments="")
    argv = [a.format(data=data, model=model, ou_model=ou_model, config=config,
                     bad_cell=bad_cell, short_row=short_row, far_row=far_row) for a in argv]
    assert run(*argv, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def data_2d(tmp_path_factory):
    data = str(tmp_path_factory.mktemp("cli2d") / "pinwheel.csv")
    assert run("gen-data", "--target", "pinwheel", "--n", "200", "--seed", "1",
               "--out", data) == 0
    return data


@pytest.mark.parametrize("argv, message", [
    (("fit", "--data", "{data}", "--eigenvalue-floor", "-5"),
     "--eigenvalue-floor does not apply to a 1D torus basis"),
    (("fit", "--data", "{data}", "--order", "3"), "--order does not apply to a 1D torus basis"),
    (("fit", "--data", "{data_2d}", "--max-freq", "4"),
     "--max-freq does not apply to a 2D torus basis"),
    (("fit", "--data", "{data_2d}", "--order", "3"), "--order does not apply to a 2D torus basis"),
    (("fit", "--data", "{data}", "--process", "OU", "--max-freq", "4"),
     "--max-freq does not apply to an OU basis"),
    (("fit", "--data", "{data}", "--process", "OU", "--eigenvalue-floor", "-5"),
     "--eigenvalue-floor does not apply to an OU basis"),
    (("fit", "--data", "{data}", "--config", "{config}"),
     "--order does not apply to a 1D torus basis"),
    (("eigen-report", "--eigenvalue-floor", "-5"),
     "--eigenvalue-floor does not apply to a 1D torus basis"),
    (("eigen-report", "--dimension", "2", "--max-freq", "4"),
     "--max-freq does not apply to a 2D torus basis"),
    (("eigen-report", "--process", "OU", "--max-freq", "4"),
     "--max-freq does not apply to an OU basis"),
    (("fit", "--data", "{data_2d}", "--eigenvalue-floor", "-0.5"), "no nonzero frequency"),
    (("eigen-report", "--dimension", "2", "--eigenvalue-floor", "-0.5"), "no nonzero frequency"),
], ids=["fit-1d-eigenvalue-floor", "fit-1d-order", "fit-2d-max-freq", "fit-2d-order",
        "fit-ou-max-freq", "fit-ou-eigenvalue-floor", "fit-1d-order-config",
        "report-1d-eigenvalue-floor", "report-2d-max-freq", "report-ou-max-freq",
        "fit-2d-empty-floor", "report-2d-empty-floor"])
def test_bad_basis_flags_exit_2(fitted, data_2d, tmp_path, capsys, argv, message):
    """A basis flag that the run's basis does not read, or a floor that keeps no
    frequency, exits 2 and writes nothing."""
    _, data, _ = fitted
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"order": 3}))
    out = tmp_path / "out.json"
    argv = [a.format(data=data, data_2d=data_2d, config=config) for a in argv]
    assert run(*argv, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_loss_study_small(tmp_path):
    out = str(tmp_path / "study.csv")
    assert run("loss-study", "--reps", "3", "--n", "200",
               "--basis-sizes", "4,6", "--n-quad", "512",
               "--seed", "2", "--out", out) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "basis_size,tau,estimator,mean,se,replications"
    # 2 sizes x 2 taus x 2 estimators
    assert len(lines) == 1 + 8
    assert all(line.split(",")[5] == "3" for line in lines[1:])


def test_loss_study_rejects_other_targets(tmp_path):
    assert run("loss-study", "--target", "pinwheel",
               "--out", str(tmp_path / "x.csv")) == 5


def test_loss_study_deterministic_at_fixed_workers(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert run("loss-study", "--reps", "2", "--n", "100",
                   "--basis-sizes", "4", "--n-quad", "256",
                   "--seed", "9", "--out", out) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_eigen_report_stdout(capsys):
    assert run("eigen-report", "--process", "truncatedBM", "--dimension", "2",
               "--eigenvalue-floor", "-5") == 0
    text = capsys.readouterr().out
    assert "active functions" in text
    assert "trig-cos" in text and "trig-sin" in text


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    # keys of other subcommands are ignored, even values their flags would reject
    cfg.write_text(json.dumps({"n": 33, "seed": 4, "grid_size": 10.5, "method": "euler"}))
    out = str(tmp_path / "d.csv")
    assert run("gen-data", "--config", str(cfg), "--target", "bart-simpson",
               "--out", out) == 0
    assert read_csv(out).shape == (33, 1)
    # explicit flag beats the config file
    assert run("gen-data", "--config", str(cfg), "--target", "bart-simpson",
               "--n", "12", "--out", out) == 0
    assert read_csv(out).shape == (12, 1)


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert run("gen-data", "--config", str(cfg), "--target", "bart-simpson",
               "--out", str(tmp_path / "x.csv")) == 2


@pytest.mark.parametrize("command, cfg", [
    ("fit", {"process": "bogus"}),
    ("fit", {"grid_size": 10.5}),
    ("fit", {"shrinkage": "median"}),
    ("fit", {"schedule": "VX"}),
    ("fit", {"max_freq": True}),
    ("fit", {"grid_size": [10]}),
    ("gen-data", {"target": "nope"}),
    ("sample", {"method": "euler"}),
    ("sample", {"n": "many"}),
    ("density", {"grid_n": None}),
], ids=["fit-process", "fit-grid-size-float", "fit-shrinkage", "fit-schedule", "fit-bool",
        "fit-list", "gen-data-target", "sample-method", "sample-n-text", "density-null"])
def test_config_values_checked_like_flags(fitted, tmp_path, command, cfg):
    """A --config value that its flag would reject exits 2 and writes nothing."""
    _, data, model = fitted
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    src = {"fit": ["--data", data], "gen-data": []}.get(command, ["--model", model])
    assert run(command, *src, "--config", str(config), "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("spelling", ["--config={}", "--config"])
def test_config_flag_spellings(tmp_path, spelling):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5}))
    out = tmp_path / "x.csv"
    code = run("gen-data", "--target", "bart-simpson", "--out", str(out),
               spelling.format(cfg))
    if spelling == "--config":  # a trailing flag without its value
        assert code == 2
    else:
        assert code == 0 and read_csv(out).shape == (5, 1)


def test_bad_flag_exits_2(tmp_path):
    assert run("gen-data", "--target", "bart-simpson",
               "--out", str(tmp_path / "x.csv"), "--not-a-flag") == 2


def test_loss_study_rejects_schedule_starting_after_default_time(tmp_path):
    # sigma_min = 0.5 starts the VE schedule at t = 0.125 > 0.02
    assert run("loss-study", "--reps", "2", "--n", "50", "--basis-sizes", "4",
               "--n-quad", "64", "--sigma-min", "0.5",
               "--out", str(tmp_path / "x.csv")) == 2


@pytest.mark.parametrize("command,flags", [
    ("fit", ["--max-freq", "4", "--grid-size", "10", "--basis", "trig"]),
    ("sample", ["--n", "10", "--workers", "2"]),
])
def test_removed_flags_exit_2(fitted, tmp_path, command, flags):
    root, data, model = fitted
    src = ["--data", data] if command == "fit" else ["--model", model]
    assert run(command, *src, "--out", str(tmp_path / "x.out"), *flags) == 2
