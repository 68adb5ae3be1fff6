"""scripts/compare_runs.py: CSV bodies compared below their headers,
manifests compared without their wall times, and the differences a list
of expected changes names set apart from the rest."""

import importlib.util
import json
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_runs.py"
spec = importlib.util.spec_from_file_location("compare_runs", SCRIPT)
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)


def write_tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_compare_runs_ignores_headers_and_lists_what_differs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write_tree(a, {"x/one.csv": '# {"hash": "1"}\nt,v\n0,1\n',
                   "two.csv": "t\n1\n", "notes.txt": "a"})
    write_tree(b, {"x/one.csv": '# {"hash": "2"}\nt,v\n0,1\n',
                   "two.csv": "t\n1\n"})
    assert compare_runs.main([str(a), str(b)]) == 0
    write_tree(b, {"two.csv": "t\n2\n", "three.csv": "t\n"})
    assert compare_runs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "body differs: two.csv" in out
    assert f"only in {b}: three.csv" in out
    assert "one.csv" not in out
    empty = [str(tmp_path / "none"), str(tmp_path / "nil")]
    assert compare_runs.main(empty) == 1


def test_compare_runs_measures_numeric_differences(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write_tree(a, {"v.csv": "# h\nk,v\n1,2.0\n2,-4.0\n",
                   "rows.csv": "k\n1\n", "name.csv": "k,v\n"})
    write_tree(b, {"v.csv": "# g\nk,v\n1,2.0\n2,-4.5\n",
                   "rows.csv": "k\n1\n2\n", "name.csv": "k,w\n"})
    assert compare_runs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    # |-4.0 - -4.5| = 0.5, relative to the larger magnitude 4.5, in
    # column v only
    assert ("body differs: v.csv (max abs diff 0.5, max rel diff 0.111) "
            "in columns v\n") in out
    # another shape, or a differing cell that is no number: no gap
    assert "body differs: rows.csv\n" in out
    assert "body differs: name.csv\n" in out


def test_compare_runs_names_every_column_that_differs(tmp_path, capsys):
    # the columns are named in header order, each once, however many of
    # its cells differ; a cell spelt apart with the same value counts
    a, b = tmp_path / "a", tmp_path / "b"
    write_tree(a, {"track.csv": "t,y_fit,y_root,flag\n0,1.5,2.0,1\n"
                                "1,1.5,3.0,1\n2,1.5,4.0,1\n"})
    write_tree(b, {"track.csv": "t,y_fit,y_root,flag\n0,1.5,2.25,1\n"
                                "1,1.5,3.0,1.0\n2,1.5,4.5,1\n"})
    assert compare_runs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert ("body differs: track.csv (max abs diff 0.5, max rel diff 0.111) "
            "in columns y_root, flag\n") in out


def test_compare_runs_compares_manifests_without_their_wall_times(
        tmp_path, capsys):
    def manifest(accepted, total, track_s, peak_mb):
        return json.dumps({
            "config": {"alpha": 1.0}, "timings_sec": {"total": total},
            "peak_rss_mb": peak_mb,
            "integrator": {"solve": {"accepted": accepted, "h_min": 1e-3}},
            "tracker": {"no_root": {}, "seconds": {"fit": track_s}}})

    a, b = tmp_path / "a", tmp_path / "b"
    write_tree(a, {"run/x.csv": "t\n1\n", "run/manifest.json":
                   manifest(10, 1.0, 0.5, 40.0)})
    # wall times and peak memory differ: the manifests agree
    write_tree(b, {"run/x.csv": "t\n1\n", "run/manifest.json":
                   manifest(10, 2.0, 0.7, 44.5)})
    assert compare_runs.main([str(a), str(b)]) == 0
    assert "0 of 1 manifests differ" in capsys.readouterr().out
    # and so does a manifest without a peak memory, as older runs wrote
    write_tree(b, {"run/manifest.json": json.dumps(
        {k: v for k, v in json.loads(manifest(10, 2.0, 0.7, 0.0)).items()
         if k != "peak_rss_mb"})})
    assert compare_runs.main([str(a), str(b)]) == 0
    assert "0 of 1 manifests differ" in capsys.readouterr().out
    # a step count that differs is named by its dotted key
    write_tree(b, {"run/manifest.json": manifest(11, 2.0, 0.7, 44.5),
                   "other/manifest.json": manifest(10, 1.0, 0.5, 40.0)})
    assert compare_runs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert ("manifest differs: run/manifest.json in "
            "integrator.solve.accepted\n") in out
    assert f"only in {b}: other/manifest.json" in out
    assert "0 of 1 CSV files differ" in out
    assert "2 of 2 manifests differ" in out


def test_compare_runs_fails_on_what_the_expected_list_leaves_out(
        tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write_tree(a, {"run/v.csv": "# h\nk,v\n1,0.1\n", "run/w.csv": "k\n1\n",
                   "run/manifest.json": json.dumps(
                       {"integrator": {"solve": {"accepted": 10}}})})
    write_tree(b, {"run/v.csv": f"# g\nk,v\n1,{math.nextafter(0.1, 1.0)!r}\n",
                   "run/w.csv": "k\n1\n", "run/manifest.json": json.dumps(
                       {"integrator": {"solve": {"accepted": 11}}})})
    listed = tmp_path / "expected.txt"

    def compare(*lines):
        listed.write_text("# a comment\n\n" + "".join(f"{x}\n" for x in lines))
        code = compare_runs.main(["--expected", str(listed), str(a), str(b)])
        return code, capsys.readouterr().out

    # one cell one ulp apart: the body is named, and nothing expects it
    code, out = compare()
    assert code == 1
    assert ("body differs: run/v.csv (max abs diff 1.39e-17, max rel diff "
            "1.39e-16) in columns v\n") in out
    assert "2 of them not in" in out
    # listed, by name or by a wildcard, the same differences pass
    code, out = compare("run/v.csv",
                        "run/manifest.json:integrator.solve.accepted")
    assert code == 0 and "0 of them not in" in out
    assert "run/v.csv (max abs diff 1.39e-17, max rel diff 1.39e-16) in " \
        "columns v (expected)\n" in out
    assert ("manifest differs: run/manifest.json in integrator.solve.accepted"
            " (expected)\n") in out
    code, out = compare("*/v.csv", "*:integrator.*")
    assert code == 0
    # what the list leaves out still fails: another manifest entry
    code, out = compare("run/v.csv", "run/manifest.json:config.*")
    assert code == 1 and "1 of them not in" in out
    assert "listed but unchanged: run/manifest.json:config.*\n" in out


def test_compare_runs_fails_on_a_listed_line_that_matches_no_difference(
        tmp_path, capsys):
    # an old list would hide a later move of what it names: a line that
    # matches no difference fails the comparison and is named
    a, b = tmp_path / "a", tmp_path / "b"
    write_tree(a, {"run/v.csv": "k\n1\n", "run/w.csv": "k\n1\n"})
    write_tree(b, {"run/v.csv": "k\n2\n", "run/w.csv": "k\n1\n"})
    listed = tmp_path / "expected.txt"

    def compare(*lines):
        listed.write_text("# header\n" + "".join(f"{x}\n" for x in lines))
        code = compare_runs.main(["--expected", str(listed), str(a), str(b)])
        return code, capsys.readouterr().out

    code, out = compare("run/v.csv", "run/w.csv", "*:integrator.*")
    assert code == 1
    assert "in columns k (expected)\n" in out
    assert "0 of them not in" in out
    assert "listed but unchanged: run/w.csv\n" in out
    assert "listed but unchanged: *:integrator.*\n" in out
    assert "listed but unchanged: run/v.csv" not in out
    assert "2 of its 3 lines match no difference\n" in out
    # every line matching a difference, and an empty list on equal trees,
    # pass
    code, out = compare("run/*.csv")
    assert code == 0 and "0 of its 1 lines match no difference\n" in out
    write_tree(b, {"run/v.csv": "k\n1\n"})
    assert compare()[0] == 0
    code, out = compare("run/v.csv")
    assert code == 1 and "listed but unchanged: run/v.csv\n" in out
