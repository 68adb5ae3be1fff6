"""Command-line harness: outputs, manifest integrity, determinism,
config precedence, exit codes."""

import json
import math

import numpy as np
import pytest

from blowup_lab import cli, experiments, integrator, pde, reduced
from blowup_lab.experiments import Table1Row
from blowup_lab.io_utils import config_hash, file_sha256, verify_manifest

# small, fast solver configuration reused by every CLI invocation
FAST = ["--alpha", "0.25", "--epsilon", "0.1", "--n-modes", "32",
        "--rtol", "1e-10", "--atol", "1e-10"]


def run_cli(*argv):
    return cli.main(list(argv))


def test_solve_writes_outputs_and_manifest(tmp_path):
    out = tmp_path / "run"
    assert run_cli("solve", *FAST, "--out", str(out)) == 0
    assert (out / "solution_summary.csv").exists()
    assert (out / "state_at_tc.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["alpha"] == 0.25
    assert set(manifest["outputs"]) == {"solution_summary", "state_at_tc"}
    assert "t_c" in manifest["blowup_report"]
    # every CSV opens with the JSON parameter header
    first = (out / "solution_summary.csv").read_text().splitlines()[0]
    header = json.loads(first.lstrip("# "))
    assert header["manifest_hash"] == manifest["config_hash"]


def test_verify_roundtrip_and_tamper(tmp_path):
    out = tmp_path / "run"
    assert run_cli("solve", *FAST, "--out", str(out)) == 0
    assert run_cli("solve", "--out", str(out), "--verify") == 0
    # tampering with an output must fail verification
    path = out / "solution_summary.csv"
    path.write_text(path.read_text() + "tampered\n")
    assert run_cli("solve", "--out", str(out), "--verify") == 1
    assert verify_manifest(str(out / "manifest.json"))
    # and verify against a missing manifest is fatal
    assert run_cli("solve", "--out", str(tmp_path / "nope"), "--verify") == 1


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("solve", *FAST, "--out", str(a)) == 0
    assert run_cli("solve", *FAST, "--out", str(b)) == 0
    assert file_sha256(str(a / "solution_summary.csv")) == \
        file_sha256(str(b / "solution_summary.csv"))
    assert file_sha256(str(a / "state_at_tc.csv")) == \
        file_sha256(str(b / "state_at_tc.csv"))


def test_config_file_with_flag_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 0.25, "epsilon": 0.1,
                                    "n_modes": 32, "rtol": 1e-10,
                                    "atol": 1e-10}))
    out = tmp_path / "run"
    # flag overrides the file's epsilon
    assert run_cli("solve", "--config", str(cfg_path), "--epsilon", "0.05",
                   "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epsilon"] == 0.05
    assert manifest["config"]["alpha"] == 0.25          # from the file
    assert manifest["config"]["n_modes"] == 32


def config_of(*argv):
    return cli._load_config(cli._build_parser().parse_args(list(argv)))


def test_continue_and_snapshots_options_reach_config_hash():
    a = config_of("continue", *FAST, "--t-end", "0.5")
    b = config_of("continue", *FAST, "--t-end", "0.9", "--method",
                  "complex_path")
    assert (a["t_end"], a["method"], a["times"]) == (0.5, "noise_seeded", [])
    assert b["method"] == "complex_path"
    assert config_hash(a) != config_hash(b)
    snap = config_of("snapshots", *FAST, "--times", "0.1", "0.2")
    assert snap["times"] == [0.1, 0.2]
    assert config_of("snapshots", *FAST)["times"] is None
    # the other commands keep exactly the common keys, so their CSV
    # headers and hashes are unchanged
    common = set(cli._DEFAULTS) | {"command"}
    for command in ("solve", "errors", "profile", "singularity", "flatness",
                    "table1"):
        assert set(config_of(command, *FAST)) == common


def test_config_file_sets_continue_options(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 0.25, "epsilon": 0.1,
                                    "n_modes": 32, "rtol": 1e-10,
                                    "atol": 1e-10, "t_end": 0.2,
                                    "method": "noise_seeded",
                                    "times": [0.17]}))
    out = tmp_path / "run"
    # the flag overrides the file's t_end; times and method come from the file
    assert run_cli("continue", "--config", str(cfg_path), "--t-end", "0.3",
                   "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["t_end"] == 0.3
    assert manifest["config"]["times"] == [0.17]
    assert manifest["continuation"]["method"] == "noise_seeded"
    assert "snapshot_t0.170000" in manifest["outputs"]


def test_config_file_unknown_keys_are_fatal(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 0.25, "t_end": 0.5,
                                    "bogus": 1}))
    out = tmp_path / "run"
    assert run_cli("solve", "--config", str(cfg_path),
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "t_end" in err
    assert not (out / "manifest.json").exists()


def test_fatal_errors_return_one(tmp_path):
    # epsilon >= alpha is rejected by ModelParams
    assert run_cli("solve", "--alpha", "0.1", "--epsilon", "0.2",
                   "--out", str(tmp_path)) == 1


def test_table1_exit_codes(tmp_path, monkeypatch):
    def fake_rows(error_count):
        rows = []
        for i in range(3):
            err = "boom" if i < error_count else None
            t_c = math.nan if err else 0.5
            rows.append(Table1Row(1.0, 10.0 ** -(i + 1), t_c, 1e-3, 1e-3,
                                  1e-3, error=err))
        return rows

    for n_err, expected in [(0, 0), (1, 2), (3, 1)]:
        monkeypatch.setattr(experiments, "run_table1",
                            lambda n=n_err, **kw: fake_rows(n))
        out = tmp_path / f"t{n_err}"
        assert run_cli("table1", "--out", str(out)) == expected
        assert (out / "table1.csv").exists()


@pytest.fixture
def no_two_mode(monkeypatch):
    """A command that does not report t_c' fails if it runs two-mode."""
    monkeypatch.setattr(reduced, "solve_two_mode", None)


def figure_manifest(out):
    """The manifest of a command that post-processes one blow-up solve:
    it times the solve, post-process and write phases and records the
    solve, its one integration."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["timings_sec"]) == {"solve", "postprocess", "write",
                                            "total"}
    assert set(manifest["integrator"]) == {"solve"}
    return manifest


def assert_sample_counts(manifest, csv_lines):
    """Every time of the sample grid has a CSV row or a dropped reason."""
    samples = manifest["samples"]
    assert samples["kept"] == len(csv_lines) - 2
    assert samples["kept"] + sum(samples["dropped"].values()) \
        == samples["grid_times"]


def test_flatness_command(tmp_path, no_two_mode):
    out = tmp_path / "run"
    assert run_cli("flatness", *FAST, "--out", str(out)) == 0
    lines = (out / "flatness.csv").read_text().splitlines()
    assert lines[1] == "t,f_solver,f_approx,rel_err"
    assert len(lines) > 10
    manifest = figure_manifest(out)
    assert_sample_counts(manifest, lines)
    # close to t_c the two flatness routes part; those times are counted
    # under that reason rather than vanishing
    assert set(manifest["samples"]["dropped"]) == {"flatness routes disagree"}


def test_errors_command(tmp_path, no_two_mode):
    out = tmp_path / "run"
    assert run_cli("errors", *FAST, "--out", str(out)) == 0
    lines = (out / "error_curves.csv").read_text().splitlines()
    assert_sample_counts(figure_manifest(out), lines)


def test_profile_command(tmp_path, no_two_mode):
    out = tmp_path / "run"
    assert run_cli("profile", *FAST, "--out", str(out)) == 0
    for name in ("blowup_profile.csv", "blowup_profile_smallx.csv",
                 "coefficients_at_tc.csv"):
        assert (out / name).exists()
    figure_manifest(out)


def test_singularity_command(tmp_path, no_two_mode):
    out = tmp_path / "run"
    assert run_cli("singularity", *FAST, "--out", str(out)) == 0
    lines = (out / "singularity_track.csv").read_text().splitlines()
    assert lines[1].startswith("t,y_fit,y_root,fit_residual")
    manifest = figure_manifest(out)
    counts = manifest["tracker"]
    usable = [int(line.split(",")[5]) for line in lines[2:]]
    assert counts["snapshots"] == len(usable)
    assert counts["usable_root"] == sum(usable)
    assert counts["usable_root"] + sum(counts["no_root"].values()) \
        == counts["snapshots"]
    # every grid time has each overlay's value or a reason for none
    for rec in manifest["overlays"].values():
        assert rec["kept"] + sum(rec["dropped"].values()) == len(usable)


def test_continue_command_with_snapshots(tmp_path):
    out = tmp_path / "run"
    assert run_cli("continue", *FAST, "--t-end", "0.5", "--seed", "1",
                   "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    cont = manifest["continuation"]
    assert cont["method"] == "noise_seeded"
    assert cont["branch_sign"] in (-1, 1)
    assert cont["skipped_times"] == {}
    snaps = [k for k in manifest["outputs"] if k.startswith("snapshot_t")]
    assert len(snaps) >= 3


@pytest.mark.parametrize("method", ["noise_seeded", "complex_path"])
def test_continue_outputs_are_deterministic(tmp_path, method):
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert run_cli("continue", *FAST, "--t-end", "0.5", "--seed", "2",
                       "--method", method, "--out", str(out)) == 0
    names = sorted(p.name for p in runs[0].glob("*.csv"))
    assert len(names) >= 5
    assert names == sorted(p.name for p in runs[1].glob("*.csv"))
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def counted_layers(monkeypatch):
    """Count PDE right-hand-side calls and accepted steps from outside,
    the way the traced benchmark run does."""
    seen = {"rhs_calls": 0, "accepted": 0}
    make_rhs, integrate = pde.make_rhs, integrator.integrate

    def counted_make_rhs(*args, **kwargs):
        rhs = make_rhs(*args, **kwargs)

        def counted(y, t):
            seen["rhs_calls"] += 1
            return rhs(y, t)
        return counted

    def counted_integrate(*args, **kwargs):
        traj, hit = integrate(*args, **kwargs)
        seen["accepted"] += len(traj.dense_segments)
        return traj, hit

    monkeypatch.setattr(pde, "make_rhs", counted_make_rhs)
    for module in (pde, reduced, integrator):
        monkeypatch.setattr(module, "integrate", counted_integrate)
    return seen


@pytest.mark.parametrize("argv, records", [
    (["solve"], {"solve", "two_mode"}),
    (["singularity"], {"solve"}),
    (["continue", "--t-end", "0.5"], {"solve", "noise_seeded"}),
    (["continue", "--t-end", "0.5", "--method", "complex_path"],
     {"solve", "complex_path"}),
    (["snapshots"], {"solve", "noise_seeded"}),
])
def test_manifest_records_every_integration(tmp_path, monkeypatch, argv,
                                            records):
    seen = counted_layers(monkeypatch)
    out = tmp_path / "run"
    assert run_cli(*argv, *FAST, "--out", str(out)) == 0
    block = json.loads((out / "manifest.json").read_text())["integrator"]
    assert set(block) == records
    for rec in block.values():
        assert set(rec) == {"accepted", "rejected_error",
                            "rejected_nonfinite", "rhs_calls", "event_evals",
                            "h_min", "h_median", "h_max"}
        assert rec["accepted"] > 0
    pde_records = [rec for name, rec in block.items() if name != "two_mode"]
    assert sum(rec["rhs_calls"] for rec in pde_records) == seen["rhs_calls"]
    assert sum(rec["accepted"] for rec in block.values()) == seen["accepted"]
    # the blow-up solve ends on its located event
    assert block["solve"]["event_evals"] > 0


def test_table1_manifest_records_every_cell(tmp_path, monkeypatch):
    seen = counted_layers(monkeypatch)
    out = tmp_path / "run"
    assert run_cli("table1", "--n-modes", "32", "--rtol", "1e-10",
                   "--atol", "1e-10", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["timings_sec"]) == {"cells", "write", "total"}
    cells = manifest["integrator"]
    assert set(cells) == {f"alpha={a:g},epsilon={e:g}"
                          for a in experiments.TABLE1_ALPHAS
                          for e in experiments.TABLE1_EPSILONS}
    assert all(set(block) == {"solve", "two_mode"} for block in cells.values())
    assert sum(block["solve"]["rhs_calls"] for block in cells.values()) \
        == seen["rhs_calls"]
    assert sum(rec["accepted"] for block in cells.values()
               for rec in block.values()) == seen["accepted"]


@pytest.mark.parametrize("argv, phases", [
    (["solve"], {"solve", "estimates", "write"}),
    (["continue", "--t-end", "0.5"], {"compute", "write"}),
    (["snapshots"], {"compute", "write"}),
])
def test_manifest_times_each_phase(tmp_path, argv, phases):
    out = tmp_path / "run"
    assert run_cli(*argv, *FAST, "--out", str(out)) == 0
    timings = json.loads((out / "manifest.json").read_text())["timings_sec"]
    assert set(timings) == phases | {"total"}
    assert sum(timings[name] for name in phases) <= timings["total"]


EPS0 = ["--alpha", "1", "--epsilon", "0", "--n-modes", "16", "--rtol", "1e-8",
        "--atol", "1e-8"]


def test_singularity_at_epsilon_zero_finishes(tmp_path):
    # v = 1 - t is constant in x, so Re v(iy) is flat along the whole scan
    out = tmp_path / "run"
    assert run_cli("singularity", *EPS0, "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    tracker = manifest["tracker"]
    assert tracker["no_root"] == {
        "no sign change of Re v(iy) on the axis": tracker["snapshots"]}
    # the overlays that scale with epsilon record why they have no value
    for regime, rec in manifest["overlays"].items():
        if regime != "impingement":
            assert rec == {"kept": 0, "dropped": {
                "requires epsilon > 0": tracker["snapshots"]}}


def test_flatness_at_epsilon_zero_counts_nan_rows(tmp_path):
    out = tmp_path / "run"
    assert run_cli("flatness", *EPS0, "--out", str(out)) == 0
    lines = (out / "flatness.csv").read_text().splitlines()
    samples = json.loads((out / "manifest.json").read_text())["samples"]
    assert_sample_counts({"samples": samples}, lines)
    # f = u(0) - u(pi) = 0 on a flat profile, so every rel_err is NaN
    assert samples["nan_rel_err"] == {"f_solver = 0": samples["kept"]}
    assert all(line.endswith(",nan") for line in lines[2:])


def test_errors_refuses_epsilon_zero_before_solving(tmp_path, monkeypatch,
                                                    capsys):
    calls = count_solves(monkeypatch)
    assert run_cli("errors", *EPS0, "--out", str(tmp_path / "run")) == 1
    assert "epsilon > 0" in capsys.readouterr().err
    assert calls == []


def test_profile_refuses_epsilon_zero_before_solving(tmp_path, monkeypatch,
                                                     capsys):
    calls = count_solves(monkeypatch)
    assert run_cli("profile", *EPS0, "--out", str(tmp_path / "run")) == 1
    assert "epsilon > 0" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "run" / "blowup_profile.csv").exists()


def count_solves(monkeypatch):
    """Count solve_to_blowup calls through every module that looks it up."""
    calls, solve = [], pde.solve_to_blowup

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    for module in (cli, experiments, pde):
        monkeypatch.setattr(module, "solve_to_blowup", counted)
    return calls


def test_continue_without_t_end_solves_once(tmp_path, monkeypatch):
    calls = count_solves(monkeypatch)
    out = tmp_path / "run"
    assert run_cli("continue", *FAST, "--out", str(out)) == 0
    assert len(calls) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["t_end"] is None
    # the default end time is 3 t_c, so the 3 t_c snapshot is the last one
    t_c = manifest["continuation"]["t_c"]
    snaps = sorted(k for k in manifest["outputs"] if k.startswith("snapshot_t"))
    assert snaps[-1] == f"snapshot_t{round(3.0 * t_c, 12):.6f}"


def test_snapshots_empty_times_refused_before_solving(tmp_path, monkeypatch,
                                                       capsys):
    calls = count_solves(monkeypatch)
    assert run_cli("snapshots", *FAST, "--times", "--out",
                   str(tmp_path / "a")) == 1
    assert "times" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"times": []}))
    assert run_cli("snapshots", *FAST, "--config", str(cfg_path), "--out",
                   str(tmp_path / "b")) == 1
    assert "times" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "a" / "manifest.json").exists()


def test_continue_refuses_unknown_method_before_solving(tmp_path,
                                                        monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the method was checked")

    for module in (cli, experiments, pde):
        monkeypatch.setattr(module, "solve_to_blowup", no_solve)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"method": "teleport"}))
    assert run_cli("continue", *FAST, "--config", str(cfg_path), "--out",
                   str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert "teleport" in err and "solved before" not in err


def test_snapshots_command(tmp_path):
    out = tmp_path / "run"
    assert run_cli("snapshots", *FAST, "--out", str(out)) == 0
    lines = (out / "coefficient_snapshots.csv").read_text().splitlines()
    assert lines[1].startswith("k,abs_c_k_t")


def test_config_hash_stability():
    cfg = {"alpha": 1.0, "epsilon": 0.01}
    assert config_hash(cfg) == config_hash(dict(reversed(list(cfg.items()))))
    assert config_hash(cfg) != config_hash({**cfg, "alpha": 2.0})


def test_write_csv_formats_numbers_fully(tmp_path):
    from blowup_lab.io_utils import write_csv
    path = tmp_path / "x.csv"
    write_csv(str(path), ["a", "b", "c"],
              [(1.0 / 3.0, complex(1, -2), "text")], {"h": 1})
    lines = path.read_text().splitlines()
    assert json.loads(lines[0].lstrip("# ")) == {"h": 1}
    a, b, c = lines[2].split(",")
    assert float(a) == 1.0 / 3.0            # full precision round trip
    assert b == "1.0000000000000000e+00+-2.0000000000000000e+00j"
    assert c == "text"
