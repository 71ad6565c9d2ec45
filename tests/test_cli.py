"""CLI surface tests: exit codes, document formats, bench CSV."""

import csv
import io
import json
from types import SimpleNamespace

import pytest

from ethroot import cli
from ethroot.errors import SearchExhausted
from ethroot.numfield import NumberField

K4 = NumberField.cyclotomic(4)


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def parse_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def test_root_frozen_example(capsys):
    # (1 + i)^3 = -2 + 2i
    code, out = run(capsys, [
        "root", "--conductor", "4", "--e", "3",
        "--element", '[{"coeffs": ["-2", "2"], "den": "1", "exp": "1"}]'])
    assert code == 0
    doc = parse_lines(out)[0]
    assert doc["root"] == {"coeffs": ["1", "1"], "den": "1"}
    assert doc["verified"] is True
    assert doc["method_used"] == "double_crt"
    assert all(isinstance(c, str) for c in doc["root"]["coeffs"])


def test_root_job_file_and_out(tmp_path, capsys):
    job = {"field": {"conductor": "16"}, "e": "3", "seed": "7",
           "element": [{"coeffs": ["-2", "2", "0", "0", "0", "0", "0", "0"],
                        "den": "1", "exp": "3"}]}
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job))
    out_path = tmp_path / "res.json"
    code = cli.main(["root", "--job", str(job_path), "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    # exponent 3 = e: the root is the element itself, via the prefactor
    assert doc["root"] == {"coeffs": ["-2", "2"] + ["0"] * 6, "den": "1"}
    assert doc["prefactor"][0]["coeffs"][:2] == ["-2", "2"]


def test_root_even_e_rejected(capsys):
    code, _ = run(capsys, [
        "root", "--conductor", "4", "--e", "4",
        "--element", '[{"coeffs": ["1", "0"], "exp": "1"}]'])
    assert code == 3


def test_root_malformed_field_rejected(capsys):
    code, _ = run(capsys, [
        "root", "--conductor", "2", "--e", "3", "--element", "[]"])
    assert code == 3
    code, _ = run(capsys, ["root", "--e", "3", "--element", "not json"])
    assert code == 3


def test_root_non_squarefree_field_rejected(capsys):
    # (1 + x)^3 in Q[x]/(x^2): f = x^2 is refused at parse time
    code, _ = run(capsys, [
        "root", "--field", "0,0,1", "--e", "3",
        "--element", '[{"coeffs": ["1", "1"], "exp": "3"}]'])
    assert code == 3


def test_root_non_power_exits_2(capsys):
    code, _ = run(capsys, [
        "root", "--conductor", "4", "--e", "3",
        "--element", '[{"coeffs": ["1", "1"], "exp": "1"}]'])
    assert code == 2


def test_root_budget_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "eth_root",
                        lambda req: (_ for _ in ()).throw(SearchExhausted("dry")))
    code, _ = run(capsys, [
        "root", "--conductor", "4", "--e", "3",
        "--element", '[{"coeffs": ["1", "1"], "exp": "1"}]'])
    assert code == 4


def test_root_output_feeds_back(capsys):
    code, out = run(capsys, [
        "root", "--conductor", "4", "--e", "3",
        "--element", '[{"coeffs": ["-2", "2"], "exp": "1"}]'])
    assert code == 0
    root = parse_lines(out)[0]["root"]
    term = json.dumps([{"coeffs": root["coeffs"], "den": root["den"], "exp": "3"}])
    code2, out2 = run(capsys, ["root", "--conductor", "4", "--e", "3",
                               "--element", term])
    assert code2 == 0
    assert parse_lines(out2)[0]["verified"] is True


def test_verified_reports_the_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_root", lambda *args, **kwargs: False)
    code, out = run(capsys, [
        "root", "--conductor", "4", "--e", "3",
        "--element", '[{"coeffs": ["-2", "2"], "exp": "1"}]'])
    assert code == 0
    assert parse_lines(out)[0]["verified"] is False
    path, _ = _plant_fixture(tmp_path)
    code, out = run(capsys, ["detect", str(path), "--roots"])
    assert code == 0
    assert parse_lines(out)[0]["verified"] is False


def _plant_fixture(tmp_path):
    g = K4.element([2, 1])
    cube = g ** 3
    doc = {"field": {"conductor": "4"}, "e": "3",
           "U": [{"coeffs": [str(c) for c in cube.num], "den": "1"},
                 {"coeffs": ["3", "2"], "den": "1"}],
           "E": [["1", "0"], ["0", "1"]]}
    path = tmp_path / "gs.json"
    path.write_text(json.dumps(doc))
    return path, g


def test_detect_planted_fixture(tmp_path, capsys):
    path, _ = _plant_fixture(tmp_path)
    code, out = run(capsys, ["detect", str(path)])
    assert code == 0
    lines = parse_lines(out)
    assert [d["alpha"] for d in lines] == [["1", "0"]]
    assert "root" not in lines[0]


def test_detect_roots_flag(tmp_path, capsys):
    path, g = _plant_fixture(tmp_path)
    code, out = run(capsys, ["detect", str(path), "--roots"])
    assert code == 0
    doc = parse_lines(out)[0]
    assert doc["verified"] is True
    assert doc["root"]["coeffs"] == [str(c) for c in g.num]


def test_detect_empty_set_exits_zero(tmp_path, capsys):
    doc = {"field": {"conductor": "4"}, "e": "5",
           "U": [{"coeffs": ["1", "1"]}, {"coeffs": ["3", "2"]}],
           "E": [["1", "2"], ["3", "2"]]}
    path = tmp_path / "gs.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, ["detect", str(path)])
    assert code == 0
    assert out.strip() == ""


def test_detect_malformed_exits_3(tmp_path, capsys):
    path = tmp_path / "gs.json"
    path.write_text('{"e": "3"}')
    code, _ = run(capsys, ["detect", str(path)])
    assert code == 3


def test_bench_schema_and_scaling(capsys):
    code, out = run(capsys, ["bench", "crt-scaling", "--seed", "1",
                             "--m-grid", "4,8,16", "--bits-grid", "20"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert out.splitlines()[0] == "method,m,n,e,bits,seconds,verified"
    assert [r["verified"] for r in rows] == ["true"] * 3
    degrees = [int(r["n"]) for r in rows]
    assert degrees == sorted(degrees)  # larger conductor, larger degree


def test_bench_requires_seed(capsys):
    code, _ = run(capsys, ["bench", "crt-scaling"])
    assert code == 3


def test_bench_empty_grid_is_header_only(capsys):
    code, out = run(capsys, ["bench", "crt-scaling", "--seed", "1",
                             "--m-grid", ""])
    assert code == 0
    assert out.strip() == "method,m,n,e,bits,seconds,verified"


def test_bench_exponent_insensitivity_rows(capsys):
    code, out = run(capsys, ["bench", "exponent-insensitivity", "--seed", "2",
                             "--m-grid", "16", "--bits-grid", "30"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["e"]) for r in rows] == [3, 13099]
    assert all(r["verified"] == "true" for r in rows)


def test_bench_jobs_do_not_change_rows(capsys):
    args = ["bench", "crt-scaling", "--seed", "3", "--m-grid", "4,8",
            "--bits-grid", "10"]
    _, serial = run(capsys, args)
    _, parallel = run(capsys, args + ["--jobs", "2"])

    def strip_seconds(text):
        return [{k: v for k, v in row.items() if k != "seconds"}
                for row in csv.DictReader(io.StringIO(text))]

    assert strip_seconds(serial) == strip_seconds(parallel)


def test_bench_saturation_rows_check_the_roots(capsys, monkeypatch):
    args = ["bench", "saturation-analog", "--seed", "1", "--e-grid", "3"]
    _, out = run(capsys, args)
    assert [r["verified"] for r in csv.DictReader(io.StringIO(out))] == ["true"]

    def wrong_root(req):
        return SimpleNamespace(root=req.K.element([2, 1]))

    monkeypatch.setattr(cli, "eth_root", wrong_root)
    code, out = run(capsys, args)
    assert code == 0
    assert [r["verified"] for r in csv.DictReader(io.StringIO(out))] == ["false"]


@pytest.mark.parametrize("flag, value", [("--m-grid", "4,6"), ("--m-grid", "2"),
                                         ("--e-grid", "4"), ("--e-grid", "3,6")])
def test_bench_rejects_bad_grid_values_before_running(capsys, monkeypatch, flag, value):
    ran = []
    monkeypatch.setattr(cli, "_bench_one", ran.append)
    code = cli.main(["bench", "crt-scaling", "--seed", "1", flag, value])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PARSE
    assert "bad grid" in captured.err
    assert captured.out == "" and ran == []


def test_bench_caps_workers_at_the_grid_size(capsys, monkeypatch):
    seen = []

    class FakePool:
        # records the pool size and runs the specs in this process
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, specs):
            return map(fn, specs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    base = ["bench", "crt-scaling", "--seed", "3", "--bits-grid", "10"]
    code, out = run(capsys, base + ["--m-grid", "4,8", "--jobs", "64"])
    assert code == 0 and seen == [2]
    assert len(list(csv.DictReader(io.StringIO(out)))) == 2
    run(capsys, base + ["--m-grid", "4,8,16", "--jobs", "2"])
    assert seen == [2, 2]
    run(capsys, base + ["--m-grid", "4", "--jobs", "64"])
    assert seen == [2, 2]  # one spec runs in this process, with no pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    run(capsys, base + ["--m-grid", "4,8", "--jobs", "64"])
    assert seen == [2, 2]


def test_selftest_passes(capsys):
    code, out = run(capsys, ["selftest"])
    assert code == 0
    assert "11/11 passed" in out
