"""Command-line harness: outputs, manifest integrity, determinism,
config hashes, exit codes."""

import hashlib
import json
import math
import os
import pathlib
import resource
import subprocess
import sys

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


def test_importing_the_cli_loads_no_scipy():
    # scipy is a test dependency only: its optimize module alone took
    # about 0.5 s of every command's start-up; statistics loads fractions
    # and decimal, a few ms more
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (src, path) if p))
    code = ("import blowup_lab.cli, sys; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in "
            "('scipy', 'statistics', 'fractions', 'decimal')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_commands_load_neither_openssl_nor_numpy_random(tmp_path):
    # the manifests hash with CPython's own SHA-256 (hashlib maps OpenSSL's
    # libcrypto, about 3 MB) and the noise is Python's random.Random, not
    # numpy.random (about 2 MB); in a subprocess, as pytest may load both
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (src, path) if p))
    runs = {"seeded": ["continue", "--seed", "3"],
            "complex": ["continue", "--method", "complex_path"],
            "snapshots": ["snapshots", "--seed", "3"],
            "singularity": ["singularity"]}
    argvs = [[*argv, *FAST, "--out", str(tmp_path / name)]
             for name, argv in runs.items()]
    code = ("import json, sys; from blowup_lab import cli; "
            f"codes = [cli.main(a) for a in {argvs!r}]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules "
            "if m in ('_hashlib', 'hashlib') or m.startswith('numpy.random'))]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    codes, loaded = json.loads(out.splitlines()[-1])
    assert codes == [0] * len(runs) and loaded == []
    for name in runs:
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["outputs"]
        for entry in manifest["outputs"].values():
            blob = (tmp_path / name / entry["path"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(blob).hexdigest()


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


def test_verify_reports_an_unlisted_csv(tmp_path):
    # a CSV that a command wrote without registering it has no hash to check
    out = tmp_path / "run"
    assert run_cli("solve", *FAST, "--out", str(out)) == 0
    summary = (out / "solution_summary.csv").read_text()
    (out / "stray.csv").write_text(summary)
    assert verify_manifest(str(out / "manifest.json")) \
        == ["stray.csv: CSV not listed in the manifest's outputs"]
    assert run_cli("solve", "--out", str(out), "--verify") == 1


def test_verify_reports_a_missing_output(tmp_path):
    out = tmp_path / "run"
    assert run_cli("solve", *FAST, "--out", str(out)) == 0
    (out / "state_at_tc.csv").unlink()
    assert verify_manifest(str(out / "manifest.json")) \
        == ["state_at_tc: missing file state_at_tc.csv"]
    assert run_cli("solve", "--out", str(out), "--verify") == 1


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("solve", *FAST, "--out", str(a)) == 0
    assert run_cli("solve", *FAST, "--out", str(b)) == 0
    assert file_sha256(str(a / "solution_summary.csv")) == \
        file_sha256(str(b / "solution_summary.csv"))
    assert file_sha256(str(a / "state_at_tc.csv")) == \
        file_sha256(str(b / "state_at_tc.csv"))


def config_of(*argv):
    return cli._config(cli._build_parser().parse_args(list(argv)))


# config hashes of runs of scripts/run_all.sh (solve: at its defaults);
# the config is in every CSV header, so a change to it changes every file
PINNED_HASHES = {
    ("table1",): "9c23c29c0978cbcb",
    ("solve",): "90b468f93d185996",
    ("errors", "--alpha", "1", "--epsilon", "0.001"): "b7c537f4dfc1e67d",
    ("profile", "--alpha", "1", "--epsilon", "0.01"): "f93b47937d56c6ef",
    ("singularity", "--alpha", "1", "--epsilon", "0.001"):
        "94eb219226b990a7",
    ("continue", "--alpha", "0.25", "--epsilon", "0.1", "--t-end", "0.5",
     "--method", "complex_path"): "75cf83cb8a17030e",
    ("snapshots", "--alpha", "0.25", "--epsilon", "0.1", "--seed", "0"):
        "c71a84f4c5b2388e",
    ("flatness", "--alpha", "4", "--epsilon", "0.01"): "7cd00cecf124cbd5",
}


def test_continue_and_snapshots_options_reach_config_hash():
    assert {argv[0] for argv in PINNED_HASHES} == set(cli._DISPATCH)
    for argv, digest in PINNED_HASHES.items():
        assert config_hash(config_of(*argv)) == digest, argv
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
    assert set(config_of("continue")) == common | {"t_end", "method", "times"}
    assert set(config_of("snapshots")) == common | {"times"}


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


def test_profile_counts_the_smallx_rows_at_roundoff(tmp_path):
    # a small-x row holds only roundoff where |v_solver| is at or below
    # 100 eps sum_k |c_k| of the state at t_c, the bound horner keeps to
    profile, solve = tmp_path / "profile", tmp_path / "solve"
    assert run_cli("profile", *FAST, "--out", str(profile)) == 0
    assert run_cli("solve", *FAST, "--out", str(solve)) == 0
    _, state = csv_columns(solve / "state_at_tc.csv")
    _, small = csv_columns(profile / "blowup_profile_smallx.csv")
    bound = 100.0 * np.finfo(float).eps * float(np.sum(np.abs(
        np.array(state["re_c_k"]))))
    count = int(np.sum(np.abs(small["v_solver"]) <= bound))
    assert 0 < count < len(small["v_solver"])
    record = json.loads((profile / "manifest.json").read_text())["profile"]
    assert record == {"v_roundoff": bound, "smallx_roundoff_rows": count}


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
    # the tracker's cost: reading and denoising the states, fits and roots
    seconds = counts["seconds"]
    assert set(seconds) == {"states", "fit", "root"}
    assert 0.0 < sum(seconds.values()) \
        <= manifest["timings_sec"]["postprocess"]
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
    # where the run leaves the blow-up solve: t_c - radius
    assert cont["radius"] == 0.1 * cont["t_c"]
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
        traj = integrate(*args, **kwargs)
        seen["accepted"] += len(traj.dense_segments)
        return traj

    monkeypatch.setattr(pde, "make_rhs", counted_make_rhs)
    for module in (pde, reduced, integrator):
        monkeypatch.setattr(module, "integrate", counted_integrate)
    return seen


@pytest.mark.parametrize("argv, records", [
    (["solve"], {"solve": "real", "two_mode": "real"}),
    (["singularity"], {"solve": "real"}),
    (["continue", "--t-end", "0.5"],
     {"solve": "real", "noise_seeded": "complex"}),
    (["continue", "--t-end", "0.5", "--method", "complex_path"],
     {"solve": "real", "complex_path": "complex"}),
    (["snapshots"], {"solve": "real", "complex_path": "complex"}),
])
def test_manifest_records_every_integration(tmp_path, monkeypatch, argv,
                                            records):
    seen = counted_layers(monkeypatch)
    out = tmp_path / "run"
    assert run_cli(*argv, *FAST, "--out", str(out)) == 0
    block = json.loads((out / "manifest.json").read_text())["integrator"]
    # the blow-up solves step real states, the continuations past t_c
    # complex ones
    assert {name: rec["arithmetic"] for name, rec in block.items()} \
        == records
    for rec in block.values():
        assert set(rec) == {"arithmetic", "accepted", "rejected_error",
                            "rejected_nonfinite", "rhs_calls",
                            "lookup_rhs_calls", "event_evals",
                            "h_min", "h_median", "h_max"}
        assert rec["accepted"] > 0
    # a solve's own calls and the dense output read after it, apart
    pde_records = [rec for name, rec in block.items() if name != "two_mode"]
    assert sum(rec["rhs_calls"] + rec["lookup_rhs_calls"]
               for rec in pde_records) == seen["rhs_calls"]
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


def test_manifest_records_the_peak_memory_so_far(tmp_path):
    # the process's high-water mark: a later command in the same process
    # never records less, and none records more than the process has
    # reached
    peaks = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert run_cli("solve", *FAST, "--out", str(out)) == 0
        peaks.append(json.loads((out / "manifest.json").read_text())
                     ["peak_rss_mb"])
    assert 0 < peaks[0] <= peaks[1]
    assert peaks[1] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


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
    assert calls == []
    assert not (tmp_path / "a" / "manifest.json").exists()


def test_snapshots_negative_time_refused_before_solving(tmp_path,
                                                       monkeypatch, capsys):
    calls = count_solves(monkeypatch)
    assert run_cli("snapshots", *FAST, "--times", "0.1", "-0.1", "--out",
                   str(tmp_path / "run")) == 1
    assert "--times -0.1 is before t = 0" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_continue_negative_time_refused_before_solving(tmp_path, monkeypatch,
                                                       capsys):
    calls = count_solves(monkeypatch)
    assert run_cli("continue", *FAST, "--times", "-0.1", "--out",
                   str(tmp_path / "run")) == 1
    assert "continue: --times -0.1 is before t = 0" in capsys.readouterr().err
    assert calls == []


def test_continue_refuses_unknown_method_before_solving(monkeypatch):
    # the command line refuses it as a usage error (exit 2); the library
    # call refuses it too, before the solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the method was checked")

    monkeypatch.setattr(experiments, "solve_to_blowup", no_solve)
    params = cli._params(config_of("continue", *FAST))
    with pytest.raises(ValueError, match="teleport"):
        experiments.run_continuation(params, 0.5, rng_seed=0, extra_times=[],
                                     method="teleport")
    with pytest.raises(SystemExit) as exit_:
        run_cli("continue", *FAST, "--method", "teleport")
    assert exit_.value.code == 2


@pytest.mark.parametrize("method", experiments.CONTINUATION_METHODS)
def test_continue_refuses_times_past_t_end_before_continuing(tmp_path,
                                                             monkeypatch,
                                                             capsys, method):
    # a given t_end is known before the solve, so the solve is skipped too
    calls, continued = count_solves(monkeypatch), []

    def no_continuation(*args, **kwargs):
        continued.append(args)
        raise AssertionError("continued before the times were checked")

    for name in ("continue_past_blowup", "continue_complex_path"):
        monkeypatch.setattr(experiments, name, no_continuation)
    assert run_cli("continue", *FAST, "--t-end", "0.5", "--times", "0.7",
                   "--method", method, "--out", str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert "--times 0.7 outside [0, t_end = 0.5]" in err
    assert continued == [] and calls == []


@pytest.mark.parametrize("command", ["continue", "snapshots"])
def test_times_with_the_same_label_are_refused(tmp_path, monkeypatch, capsys,
                                               command):
    # both times print as 0.300000, the label of a snapshot file, column
    # and manifest key, so one snapshot would overwrite the other
    calls = count_solves(monkeypatch)
    out = tmp_path / "run"
    assert run_cli(command, *FAST, "--times", "0.3000001",
                   "0.3000002", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "times 0.3000001 and 0.3000002 both print as 0.300000" in err
    assert calls == []
    assert not list(out.rglob("*.csv"))


def test_snapshots_refuses_default_times_with_the_same_label(tmp_path, capsys):
    # at t_c = 2e-6, 0.9 t_c, t_c and 1.1 t_c all print as 0.000002: the
    # three columns of coefficient_snapshots.csv would share one name
    out = tmp_path / "run"
    assert run_cli("snapshots", "--alpha", "2e-6", "--epsilon", "0",
                   "--n-modes", "16", "--out", str(out)) == 1
    assert "both print as 0.000002" in capsys.readouterr().err
    assert not list(out.rglob("*.csv"))


def test_minus_zero_is_labelled_as_zero(tmp_path, monkeypatch, capsys):
    # -0.0 is t = 0: beside 0 its label clashes, refused before the solve,
    # and alone it gives t = 0's column
    calls = count_solves(monkeypatch)
    out = tmp_path / "pair"
    assert run_cli("snapshots", *FAST, "--times", "0", "-0.0", "--out",
                   str(out)) == 1
    assert "both print as 0.000000" in capsys.readouterr().err
    assert calls == []
    assert not list(out.rglob("*.csv"))
    out = tmp_path / "alone"
    assert run_cli("snapshots", *FAST, "--times", "-0.0", "--out",
                   str(out)) == 0
    _, columns = csv_columns(out / "coefficient_snapshots.csv")
    assert list(columns) == ["k", "abs_c_k_t0.000000", "local_law"]


def test_snapshots_command(tmp_path):
    out = tmp_path / "run"
    assert run_cli("snapshots", *FAST, "--out", str(out)) == 0
    lines = (out / "coefficient_snapshots.csv").read_text().splitlines()
    assert lines[1].startswith("k,abs_c_k_t")


def csv_columns(path):
    """A CSV's header and its columns by name, read back to the bit
    (write_csv prints 17 significant digits)."""
    lines = path.read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return json.loads(lines[0][2:]), dict(zip(lines[1].split(","), zip(*rows)))


@pytest.mark.parametrize("argv", [
    ["continue", "--t-end", "0.5", "--method", "noise_seeded"],
    ["snapshots"],
], ids=["continue", "snapshots"])
def test_continuations_leave_from_their_one_solve(tmp_path, monkeypatch,
                                                  argv):
    # the blow-up solve, the one integration with the blow-up event, is
    # the only one that starts at t = 0: the continuation leaves it at
    # t_c - r and integrates no interval twice
    calls, starts, integrate = count_solves(monkeypatch), [], pde.integrate

    def recorded(rhs, y0, t0, *args, **kwargs):
        starts.append((t0, "events" in kwargs))
        return integrate(rhs, y0, t0, *args, **kwargs)

    monkeypatch.setattr(pde, "integrate", recorded)
    assert run_cli(*argv, *FAST, "--out", str(tmp_path / "run")) == 0
    assert len(calls) == 1
    assert len(starts) == 2
    assert [start for start in starts if start[0] == 0.0] == [(0.0, True)]


def test_snapshots_t_c_column_is_the_solve_event_state(tmp_path):
    solve, snap = tmp_path / "solve", tmp_path / "snap"
    assert run_cli("solve", *FAST, "--out", str(solve)) == 0
    assert run_cli("snapshots", *FAST, "--out", str(snap)) == 0
    header, state = csv_columns(solve / "state_at_tc.csv")
    snap_header, moduli = csv_columns(snap / "coefficient_snapshots.csv")
    assert snap_header["t_c"] == header["t"]
    column = moduli[f"abs_c_k_t{experiments.time_label(header['t'])}"]
    c = np.array([re for k, re in zip(state["k"], state["re_c_k"])
                  if k >= 1])
    assert list(column) == list(np.abs(c))


def test_snapshots_do_not_depend_on_the_seed(tmp_path):
    bodies = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        assert run_cli("snapshots", *FAST, "--seed", seed,
                       "--out", str(out)) == 0
        path = out / "coefficient_snapshots.csv"
        bodies.append(path.read_text().splitlines()[1:])
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, option", [
    ("snapshots", "--times"), ("continue", "--times"), ("continue", "--t-end")])
def test_non_finite_times_are_refused_before_solving(tmp_path, monkeypatch,
                                                     capsys, command, option,
                                                     value):
    # a NaN end time never reaches t >= t1 and an infinite one runs on
    # until the step cap, so neither may reach a solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the times were checked")

    monkeypatch.setattr(experiments, "solve_to_blowup", no_solve)
    assert run_cli(command, *FAST, option, value,
                   "--out", str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert f"{command}: {option} {value} is not finite" in err


def test_config_hash_stability():
    cfg = {"alpha": 1.0, "epsilon": 0.01}
    assert config_hash(cfg) == config_hash(dict(reversed(list(cfg.items()))))
    assert config_hash(cfg) != config_hash({**cfg, "alpha": 2.0})


def test_write_csv_formats_numbers_fully(tmp_path):
    from blowup_lab.io_utils import write_csv
    path = tmp_path / "x.csv"
    write_csv(str(path), ["a", "b"], [(1.0 / 3.0, "text")], {"h": 1})
    lines = path.read_text().splitlines()
    assert json.loads(lines[0].lstrip("# ")) == {"h": 1}
    a, b = lines[2].split(",")
    assert float(a) == 1.0 / 3.0            # full precision round trip
    assert a == "3.3333333333333331e-01"
    assert b == "text"


def test_write_csv_writes_numpy_and_python_scalars_alike(tmp_path):
    from blowup_lab.io_utils import write_csv
    rng = np.random.default_rng(17)
    floats = np.concatenate([[np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
                              1.0 / 3.0, 5e-324, -1.7976931348623157e308],
                             rng.standard_normal(40) * 10.0 ** rng.integers(
                                 -300, 300, 40)])
    ints = np.arange(-3, floats.size - 3)
    names = np.array(["a", "b"] * (floats.size // 2) + ["c"] * (floats.size % 2))
    columns = (ints, floats, names)
    rows = {"numpy": zip(*columns),
            "python": zip(*(c.tolist() for c in columns))}
    for kind, body in rows.items():
        write_csv(str(tmp_path / f"{kind}.csv"), ["k", "x", "s"], body,
                  {"h": 1})
    numpy_bytes = (tmp_path / "numpy.csv").read_bytes()
    assert numpy_bytes == (tmp_path / "python.csv").read_bytes()
    assert b"\n2,-0.0000000000000000e+00," in numpy_bytes
    assert b"\n-3,nan," in numpy_bytes
